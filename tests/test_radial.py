"""Radial grid plumbing: CSV round trips, expansion evaluation, stencils."""

import math

import numpy as np
import pytest

from cuspasym.errors import SolverError
from cuspasym.radial import (
    RadialField,
    RadialGrid,
    damped_newton,
    dirichlet_bands,
    dt_derivative,
    evaluate_expansion,
    unit_laplacian,
    unit_laplacian_interior,
)


def test_grid_geometry():
    g = RadialGrid(-10.0, -1.0, 128)
    assert g.h == pytest.approx(9.0 / 127.0)
    assert g.x[0] == pytest.approx(math.exp(-10.0))
    assert g.x_max == pytest.approx(math.exp(-1.0))
    fine = g.refined()
    assert fine.n_nodes == 255
    assert np.allclose(fine.x[::2], g.x)


def test_field_validation():
    g = RadialGrid(-10.0, -1.0, 16)
    with pytest.raises(ValueError, match="shape"):
        RadialField(g, np.zeros(15))
    with pytest.raises(ValueError, match="finite"):
        RadialField(g, np.full(16, np.nan))


def test_csv_round_trip_is_exact(tmp_path):
    g = RadialGrid(-25.0, math.log(0.5), 300)
    f = RadialField.from_function(g, lambda x: x * np.log(x) + 3.0)
    path = tmp_path / "field.csv"
    f.write_csv(path)
    back = RadialField.read_csv(path)
    assert back.grid.n_nodes == g.n_nodes
    assert np.array_equal(back.values, f.values)
    assert np.max(np.abs(back.grid.x - g.x) / g.x) < 1e-15


def test_csv_rejects_nonuniform_grid(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0.001,1\n0.002,1\n0.01,1\n0.02,1\n"
                    "0.05,1\n0.1,1\n0.2,1\n0.4,1\n")
    with pytest.raises(ValueError, match="log-uniform"):
        RadialField.read_csv(path)


def test_evaluate_expansion_terms():
    x = np.array([0.01, 0.1])
    vals = evaluate_expansion([(2.0, 1.0, 0), (1.0, 1.0, 1)], x)
    expected = 2.0 * x + x * np.log(x)
    assert np.allclose(vals, expected, rtol=1e-15)


def test_unit_laplacian_exponential_profile():
    g = RadialGrid(-10.0, -1.0, 2048)
    vals = np.exp(2.0 * g.t)
    lap = unit_laplacian(vals, g.h)
    assert np.max(np.abs(lap - 3.0 * vals) / vals) < 10 * g.h ** 2


#: (weight, shift) of dirichlet_bands as each caller forms them from the
#: interior density and Laplacian
BAND_CASES = {
    "solve_linear": lambda density, lap: (1.0 / density, 2.5),
    "monge_ampere_jacobian": lambda density, lap: (1.0 / (1.0 + lap) / density, 1.0),
    "flow_step": lambda density, lap: (-0.05 / (density + lap), -(1.0 + 0.05)),
    "decay_certificate": lambda density, lap: (-0.01, -(1.0 + 0.01)),
}


@pytest.mark.parametrize("name", list(BAND_CASES))
def test_dirichlet_bands_apply_operator(name):
    rng = np.random.default_rng(7)
    g = RadialGrid(-12.0, -0.5, 40)
    n, h = g.n_nodes, g.h
    density = 1.4 * np.exp(2.0 * rng.uniform(-0.3, 0.3, n - 2))
    weight, shift = BAND_CASES[name](density, rng.uniform(-0.5, 0.5, n - 2))
    sub, diag, sup = dirichlet_bands(n, h, weight, shift)
    A = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
    v = rng.standard_normal(n)
    Av = A @ v
    expected = weight * unit_laplacian_interior(v, h)[1:-1] - shift * v[1:-1]
    scale = np.max(np.abs(weight)) * np.max(np.abs(v)) / h ** 2 + abs(np.max(shift))
    assert np.max(np.abs(Av[1:-1] - expected)) <= 1e-13 * scale
    assert Av[0] == v[0] and Av[-1] == v[-1]


def test_dt_derivative_exact_on_quadratics():
    g = RadialGrid(-3.0, -0.5, 32)
    vals = 2.0 * g.t ** 2 - g.t + 0.5
    assert np.allclose(dt_derivative(vals, g.h), 4.0 * g.t - 1.0, rtol=0, atol=1e-11)


def test_damped_newton_rejects_inadmissible_start():
    def residual(v):
        return v - 1.0, None, False

    with pytest.raises(SolverError, match="probe started .* positivity"):
        damped_newton(residual, None, np.zeros(8), 1e-12, 5, 2.0 ** -20, "probe")
