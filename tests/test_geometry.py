"""Model metrics and Laplacian identities."""

import math

import numpy as np
import pytest

from cuspasym.geometry import ModelMetric, cusp_laplacian
from cuspasym.radial import RadialField, RadialGrid

GRID = RadialGrid(-12.0, math.log(0.5), 1024)
UNIT = ModelMetric()


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(-1.0, -2.0, 100)
    with pytest.raises(ValueError):
        RadialGrid(-10.0, 0.5, 100)  # x_max would exceed 1
    with pytest.raises(ValueError):
        RadialGrid(-10.0, -1.0, 4)


def test_laplacian_annihilates_constants():
    u = RadialField.constant(GRID, 4.2)
    lap = cusp_laplacian(UNIT, u).values
    assert np.max(np.abs(lap[1:-1])) == 0.0
    # one-sided endpoint rows amplify roundoff by 1/h^2
    assert np.max(np.abs(lap)) < 1e-10


def test_laplacian_of_x():
    u = RadialField.from_function(GRID, lambda x: x)
    lap = cusp_laplacian(UNIT, u)
    assert np.max(np.abs(lap.values - GRID.x)) < GRID.h ** 2


def test_laplacian_of_x_log_x():
    u = RadialField.from_function(GRID, lambda x: x * np.log(x))
    lap = cusp_laplacian(UNIT, u)
    target = 1.5 * GRID.x + GRID.x * np.log(GRID.x)
    assert np.max(np.abs(lap.values - target)) < 2 * GRID.h ** 2


def test_laplacian_of_x_squared():
    u = RadialField.from_function(GRID, lambda x: x ** 2)
    lap = cusp_laplacian(UNIT, u)
    rel = np.abs(lap.values - 3 * GRID.x ** 2) / (3 * GRID.x ** 2)
    assert np.max(rel[1:-1]) < GRID.h ** 2
    assert np.max(rel) < 5 * GRID.h ** 2  # one-sided endpoint rows


def test_laplacian_scales_with_density():
    phi = RadialField.constant(GRID, 0.2)
    metric = ModelMetric(a=4.0, b=1.0, conformal=phi)
    u = RadialField.from_function(GRID, lambda x: x)
    lap = cusp_laplacian(metric, u)
    expected = GRID.x / (2.0 * math.exp(0.4))
    assert np.max(np.abs(lap.values - expected)) < GRID.h ** 2


def test_laplacian_grid_mismatch_rejected():
    other = RadialGrid(-12.0, math.log(0.5), 512)
    u = RadialField.from_function(other, lambda x: x)
    metric = ModelMetric(conformal=RadialField.zeros(GRID))
    with pytest.raises(ValueError, match="grid"):
        cusp_laplacian(metric, u)


def test_weighted_symmetry_of_laplacian():
    # the quadratic form <Lap u, v> with weight x dt is symmetric to O(h^2)
    # for interior-supported fields
    def asymmetry(grid):
        bump = lambda c, w: lambda x: np.exp(-((np.log(x) - c) / w) ** 2)
        u = RadialField.from_function(grid, bump(-6.0, 0.8))
        v = RadialField.from_function(grid, bump(-5.0, 1.1))
        lu = cusp_laplacian(UNIT, u).values
        lv = cusp_laplacian(UNIT, v).values
        w = grid.x * grid.h
        return abs(np.sum(lu * v.values * w) - np.sum(u.values * lv * w))

    a_coarse = asymmetry(RadialGrid(-12.0, math.log(0.5), 512))
    a_fine = asymmetry(RadialGrid(-12.0, math.log(0.5), 1024))
    assert a_coarse < 1e-4
    assert a_fine < a_coarse / 3.0


def ricci_density(metric):
    """R0 as the metric forms it: the difference of D0 + R0 and D0."""
    return metric.einstein_defect(GRID) - metric.solver_density(GRID)


def test_ricci_of_model_is_minus_one():
    r = ricci_density(ModelMetric(conformal=RadialField.zeros(GRID)))
    assert np.max(np.abs(r + 1.0)) == 0.0
    r2 = ricci_density(UNIT)
    assert np.max(np.abs(r2 + 1.0)) == 0.0


def test_ricci_of_plain_cusp_is_the_zero_factor_case_bit_for_bit():
    # D0 + R0 = 0 for Ric = -omega, bit for bit, with or without a zero factor
    expected = np.full(GRID.n_nodes, -1.0).tobytes()
    zero = np.zeros(GRID.n_nodes).tobytes()
    for m in (UNIT, ModelMetric(conformal=RadialField.zeros(GRID))):
        density = np.broadcast_to(m.solver_density(GRID), GRID.n_nodes)
        combo = m.einstein_defect(GRID)
        assert combo.tobytes() == zero
        assert density.tobytes() == np.ones(GRID.n_nodes).tobytes()
        assert ricci_density(m).tobytes() == expected


@pytest.mark.parametrize("fields, match", [
    ({"a": math.inf}, "coefficient a"),
    ({"b": math.nan}, "coefficient b"),
    ({"a": 0.0}, "coefficient a"),
    ({"b": -1.0}, "coefficient b"),
    ({"a": 5e-324}, "coefficient a"),          # subnormal
    ({"a": 1e200, "b": 1e200}, "density .* is inf,"),
    ({"a": 1e-200, "b": 1e-200}, "density .* is 0,"),
])
def test_metric_rejects_non_normal_coefficients_and_density(fields, match):
    with pytest.raises(ValueError, match=match):
        ModelMetric(**fields)


@pytest.mark.parametrize("phi, match", [(lambda t: 0.002 * t ** 4, "inf at x=4.24835e-18"),
                                        (lambda t: -400.0 + 0 * t, "0 at x=4.24835e-18")])
def test_metric_rejects_a_conformal_density_out_of_range_naming_x(phi, match):
    grid = RadialGrid(-40.0, math.log(0.5), 256)
    with pytest.raises(ValueError, match=match):
        ModelMetric(conformal=RadialField(grid, phi(grid.t)))


def test_metric_accepts_the_edges_of_the_normal_range():
    tiny = np.finfo(float).tiny
    assert ModelMetric(a=tiny, b=1.0 / tiny).solver_density(GRID) == 1.0
    phi = RadialField(GRID, np.full(GRID.n_nodes, 350.0))   # e^700 is finite
    assert np.all(np.isfinite(ModelMetric(conformal=phi).solver_density(GRID)))
