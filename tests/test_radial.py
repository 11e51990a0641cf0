"""Radial grid plumbing: CSV round trips, expansion evaluation, stencils."""

import math

import numpy as np
import pytest

from cuspasym.errors import SolverError
from cuspasym.radial import (
    NewtonParams,
    RadialField,
    RadialGrid,
    damped_newton,
    dirichlet_bands,
    dt_derivative,
    evaluate_expansion,
    factor_tridiagonal,
    solve_tridiagonal,
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
        damped_newton(residual, None, np.zeros(8), NewtonParams(5, 1e-12), "probe")


def test_damped_newton_never_reads_a_nan_residual_as_converged():
    def residual(v):
        return np.full_like(v, np.nan), None, True

    bands = lambda aux: dirichlet_bands(8, 0.1, 1.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        damped_newton(residual, bands, np.zeros(8), NewtonParams(), "probe")


# ---------------------------------------------------------------------------
# Tridiagonal solves: one-shot (gtsv) and factored once (gttrf/gttrs)
# ---------------------------------------------------------------------------

#: both solve paths as f(sub, diag, sup, rhs)
TRIDIAGONAL_SOLVERS = {
    "one-shot": solve_tridiagonal,
    "factored": lambda sub, diag, sup, rhs: factor_tridiagonal(sub, diag, sup)(rhs),
}


def _pivoting_system(rng, n):
    """Random bands and right-hand side; the weak diagonal makes partial
    pivoting swap rows."""
    sub, diag, sup, rhs = rng.standard_normal((4, n))
    return sub, 0.3 * diag, sup, rhs


def _pivots(sub, diag, sup) -> bool:
    from scipy.linalg.lapack import dgttrf
    ipiv = dgttrf(sub[1:], diag, sup[:-1])[4]
    return bool(np.any(ipiv != np.arange(1, len(diag) + 1)))


#: entries of the matrix and right-hand side, as (array position, index)
SYSTEM_ENTRIES = [(0, 1), (0, -1), (1, 0), (1, -1), (2, 0), (2, -2), (3, 0), (3, -1)]


@pytest.mark.parametrize("solver", list(TRIDIAGONAL_SOLVERS))
@pytest.mark.parametrize("position, index", SYSTEM_ENTRIES)
def test_tridiagonal_rejects_nonfinite_entries(solver, position, index):
    for bad in (np.nan, np.inf, -np.inf):
        system = list(_pivoting_system(np.random.default_rng(3), 12))
        system[position][index] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            TRIDIAGONAL_SOLVERS[solver](*system)


@pytest.mark.parametrize("solver", list(TRIDIAGONAL_SOLVERS))
def test_tridiagonal_ignores_band_ends_outside_the_matrix(solver):
    sub, diag, sup, rhs = _pivoting_system(np.random.default_rng(4), 12)
    expected = TRIDIAGONAL_SOLVERS[solver](sub, diag, sup, rhs)
    sub[0], sup[-1] = np.nan, np.inf
    assert TRIDIAGONAL_SOLVERS[solver](sub, diag, sup, rhs).tobytes() == expected.tobytes()


@pytest.mark.parametrize("solver", list(TRIDIAGONAL_SOLVERS))
def test_tridiagonal_singular_matrix_raises(solver):
    sub, diag, sup, rhs = _pivoting_system(np.random.default_rng(5), 12)
    sub[4] = diag[4] = sup[4] = 0.0   # a zero row
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        TRIDIAGONAL_SOLVERS[solver](sub, diag, sup, rhs)


@pytest.mark.parametrize("solver", list(TRIDIAGONAL_SOLVERS))
def test_tridiagonal_solve_leaves_inputs_unchanged(solver):
    system = _pivoting_system(np.random.default_rng(6), 64)
    before = [a.tobytes() for a in system]
    TRIDIAGONAL_SOLVERS[solver](*system)
    assert [a.tobytes() for a in system] == before


def test_factored_solves_match_one_shot_bit_for_bit():
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(3, 300))
        sub, diag, sup, _ = _pivoting_system(rng, n)
        assert _pivots(sub, diag, sup)
        solve = factor_tridiagonal(sub, diag, sup)
        for rhs in rng.standard_normal((2, n)):   # one factor, several solves
            one_shot = solve_tridiagonal(sub, diag, sup, rhs)
            factored = solve(rhs)
            assert factored.shape == one_shot.shape == (n,)
            assert factored.tobytes() == one_shot.tobytes()
            # the one-shot path is what solve_banded computes
            ab = np.vstack([np.r_[0.0, sup[:-1]], diag, np.r_[sub[1:], 0.0]])
            assert solve_banded((1, 1), ab, rhs).tobytes() == one_shot.tobytes()
