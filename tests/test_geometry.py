"""Model metrics, Laplacian identities, volumes, bdf transforms."""

import math

import numpy as np
import pytest

from cuspasym.errors import SolverError
from cuspasym.geometry import (
    ModelMetric,
    bdf_transform,
    carlson_griffiths_radial,
    cusp_laplacian,
    cusp_volume,
    ricci_radial,
)
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


def test_ricci_of_model_is_minus_one():
    r = ricci_radial(ModelMetric(conformal=RadialField.zeros(GRID)))
    assert np.max(np.abs(r.values + 1.0)) == 0.0
    r2 = ricci_radial(UNIT, grid=GRID)
    assert np.max(np.abs(r2.values + 1.0)) == 0.0


def test_ricci_of_plain_cusp_is_the_zero_factor_case_bit_for_bit():
    expected = np.full(GRID.n_nodes, -1.0).tobytes()
    assert ricci_radial(UNIT, GRID).values.tobytes() == expected
    zero = ModelMetric(conformal=RadialField.zeros(GRID))
    assert ricci_radial(zero).values.tobytes() == expected


def test_ricci_constant_conformal_scaling():
    kappa = 0.3
    metric = ModelMetric(conformal=RadialField.constant(GRID, kappa))
    rel = ricci_radial(metric).values / metric.density()
    assert np.max(np.abs(rel + math.exp(-2 * kappa))) < 1e-12


def test_ricci_decaying_perturbation():
    metric = ModelMetric(conformal=RadialField.from_function(GRID, lambda x: x))
    r = ricci_radial(metric)
    total = r.values + metric.density()
    # Ric + omega = O(x): quadratic remainder plus stencil error
    bound = 3 * GRID.x ** 2 + 20 * GRID.h ** 2 * GRID.x
    assert np.all(np.abs(total) <= bound + 1e-14)


def test_cusp_volume_examples():
    assert abs(cusp_volume(ModelMetric(), 0.0, 0.5) - math.pi) < 1e-14
    assert cusp_volume(ModelMetric(), 0.3, 0.3) == 0.0
    assert abs(cusp_volume(ModelMetric(a=4.0), 0.0, 0.25) - math.pi) < 1e-14


def test_cusp_volume_additive():
    m = ModelMetric()
    total = cusp_volume(m, 0.0, 0.5)
    split = cusp_volume(m, 0.0, 0.2) + cusp_volume(m, 0.2, 0.5)
    assert abs(total - split) < 1e-14
    conf = ModelMetric(conformal=RadialField.from_function(GRID, lambda x: 0.1 * x))
    total_c = cusp_volume(conf, 0.01, 0.5)
    split_c = cusp_volume(conf, 0.01, 0.07) + cusp_volume(conf, 0.07, 0.5)
    assert abs(total_c - split_c) < 1e-12 * total_c


def test_cusp_volume_extends_density_past_the_grid():
    # GRID covers x in [6.1e-6, 0.5]: (0, 0.5) reaches below it, (0, 0.99)
    # above it too, and the density is the constant e^{2c} throughout
    c = 0.3
    const = ModelMetric(conformal=RadialField.constant(GRID, c))
    for lo, hi in ((0.0, 0.5), (0.0, 0.99)):
        exact = 2 * math.pi * math.exp(2 * c) * (hi - lo)
        assert abs(cusp_volume(const, lo, hi) - exact) <= 1e-14 * exact


def test_cusp_volume_invalid_range():
    with pytest.raises(ValueError, match="range"):
        cusp_volume(ModelMetric(), 0.5, 0.2)
    with pytest.raises(ValueError, match="range"):
        cusp_volume(ModelMetric(), -0.1, 0.2)
    with pytest.raises(ValueError, match="range"):
        cusp_volume(ModelMetric(), 0.1, 1.5)


def test_bdf_identity():
    bt = bdf_transform(0.0, GRID.x)
    assert np.array_equal(bt.x_transformed, GRID.x)
    assert bt.bbar == 0.0
    assert np.max(np.abs(bt.btilde)) == 0.0


def test_bdf_pointwise_value():
    bt = bdf_transform(math.log(2.0), np.array([0.1]))
    assert abs(bt.x_transformed[0] - 1.0 / (10.0 - math.log(2.0))) < 1e-16


def test_bdf_expansion_remainder_bound():
    phi0 = 1.0
    bt = bdf_transform(phi0, GRID.x)
    remainder = np.abs(bt.x_transformed - GRID.x * (1 + GRID.x * phi0))
    bound = (phi0 ** 2 / (1 - GRID.x * phi0)) * GRID.x ** 3
    # the remainder saturates the bound exactly; allow absolute roundoff
    # headroom from the cancellation x' - x - x^2 phi0 at deep nodes
    assert np.all(remainder <= bound + 10 * np.finfo(float).eps * GRID.x)
    assert bt.bbar == phi0


def test_bdf_derivative_tends_to_one():
    phi0 = 0.7
    # dx'/dx = 1/(1 - x phi0)^2 analytically
    deep = GRID.x_min
    assert abs(1.0 / (1.0 - deep * phi0) ** 2 - 1.0) < 3 * deep * phi0


def test_bdf_rejects_rescaled_rho_reaching_one():
    with pytest.raises(ValueError, match="rho"):
        bdf_transform(3.0, np.array([0.1, 0.4]))
    with pytest.raises(ValueError):
        bdf_transform(0.5, np.array([1.2]))


def test_carlson_griffiths_unit_data_is_poincare():
    rep = carlson_griffiths_radial(1.0, RadialField.constant(GRID, 1.0))
    assert np.max(np.abs(rep.density.values - 1.0)) < 1e-13
    assert rep.deviation_rate < 1e-12


def test_carlson_griffiths_constant_h_matches_bdf():
    rep = carlson_griffiths_radial(1.0, RadialField.constant(GRID, math.e))
    bt = bdf_transform(0.5, GRID.x)
    predicted = (bt.x_transformed / GRID.x) ** 2
    assert np.max(np.abs(rep.density.values - predicted)) < 1e-10


def test_carlson_griffiths_epsilon_dependence_is_order_x():
    h = RadialField.constant(GRID, 1.0)
    d1 = carlson_griffiths_radial(0.2, h).density.values
    d2 = carlson_griffiths_radial(0.4, h).density.values
    rel = np.abs(d1 / d2 - 1.0) / GRID.x
    assert np.max(rel) <= 1.5 * abs(math.log(0.2 / 0.4))


def test_carlson_griffiths_positivity_failure_names_node():
    # log h = 10 makes x (log eps + log h) - 2 >= 0 near x = 0.2
    h = RadialField.constant(GRID, math.exp(10.0))
    with pytest.raises(SolverError, match="node"):
        carlson_griffiths_radial(1.0, h)
    # small enough epsilon restores positivity
    rep = carlson_griffiths_radial(math.exp(-10.0), h)
    assert np.all(rep.density.values > 0)


def test_carlson_griffiths_deviation_is_order_x():
    h = RadialField.from_function(GRID, lambda x: 1.0 + 0.3 * x)
    rep = carlson_griffiths_radial(0.5, h)
    assert rep.deviation_rate < 5.0
    assert np.all(np.abs(rep.deviation.values) <= rep.deviation_rate * GRID.x + 1e-15)


def test_carlson_griffiths_epsilon_threshold():
    from cuspasym.geometry import carlson_griffiths_epsilon_threshold
    h = RadialField.from_function(GRID, lambda x: 1.0 + 0.2 * x)
    threshold = carlson_griffiths_epsilon_threshold(h)
    for factor in (0.9, 0.5, 0.1):
        rep = carlson_griffiths_radial(factor * threshold, h)
        assert np.all(rep.density.values > 0)
    with pytest.raises(SolverError):
        carlson_griffiths_radial(1.5 * threshold, h)


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
    assert ModelMetric(a=tiny, b=1.0 / tiny).density(GRID)[0] == 1.0
    phi = RadialField(GRID, np.full(GRID.n_nodes, 350.0))   # e^700 is finite
    assert np.all(np.isfinite(ModelMetric(conformal=phi).density()))
