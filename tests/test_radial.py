"""Radial grid plumbing: CSV round trips, expansion evaluation, stencils."""

import math
import re

import numpy as np
import pytest

from cuspasym.errors import SolverError
from cuspasym.radial import (
    NewtonParams,
    NewtonWorkspace,
    RadialField,
    RadialGrid,
    _gtsv,
    damped_newton,
    dirichlet_bands,
    dt_derivative,
    evaluate_expansion,
    factor_tridiagonal,
    laplacian_coefficients,
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


@pytest.mark.parametrize("t_min, t_max", [
    (-math.inf, -1.0),        # once x = nan at every node
    (-1e308, -1.0),           # h**2 overflows: once an OverflowError
    (-2e-300, -1e-300),       # 1/h**2 overflows
    (-2e-310, -1e-310),       # h**2 underflows to 0
])
def test_grid_rejects_non_finite_bounds_or_stencil(t_min, t_max):
    message = f"finite t_min and finite stencil coefficients, got [{t_min}, {t_max}] with 16"
    with pytest.raises(ValueError, match=re.escape(message)):
        RadialGrid(t_min, t_max, 16)


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


def test_unit_laplacian_interior_out_path_matches_allocating_path():
    rng = np.random.default_rng(11)
    g = RadialGrid(-40.0, -0.5, 3001)
    v = rng.standard_normal(g.n_nodes) * np.exp(rng.uniform(-30, 3, g.n_nodes))
    fresh = unit_laplacian_interior(v, g.h)
    out, scratch = np.full((2, g.n_nodes), np.nan)
    assert unit_laplacian_interior(v, g.h, out=out, scratch=scratch) is out
    assert out.tobytes() == fresh.tobytes()
    # the stencil sum as written before the out= path: (s v- + d v0) + p v+
    sub, diag, sup = laplacian_coefficients(g.h)
    reference = np.zeros_like(v)
    reference[1:-1] = sub * v[:-2] + diag * v[1:-1] + sup * v[2:]
    assert fresh.tobytes() == reference.tobytes()


@pytest.mark.parametrize("name", list(BAND_CASES))
def test_dirichlet_bands_out_path_matches_allocating_path(name):
    rng = np.random.default_rng(12)
    g = RadialGrid(-40.0, -0.5, 257)
    n, h = g.n_nodes, g.h
    density = 1.4 * np.exp(2.0 * rng.uniform(-0.3, 0.3, n - 2))
    weight, shift = BAND_CASES[name](density, rng.uniform(-0.5, 0.5, n - 2))
    fresh = dirichlet_bands(n, h, weight, shift)
    out = tuple(np.full((3, n), np.nan))
    bands = dirichlet_bands(n, h, weight, shift, out=out)
    assert all(band is buffer for band, buffer in zip(bands, out))
    assert [b.tobytes() for b in out] == [b.tobytes() for b in fresh]
    # the bands as built before the out= path
    c_sub, c_diag, c_sup = laplacian_coefficients(h)
    reference = np.zeros(n), np.ones(n), np.zeros(n)
    reference[0][1:-1] = weight * c_sub
    reference[1][1:-1] = weight * c_diag - shift
    reference[2][1:-1] = weight * c_sup
    assert [b.tobytes() for b in fresh] == [b.tobytes() for b in reference]


def test_dt_derivative_exact_on_quadratics():
    g = RadialGrid(-3.0, -0.5, 32)
    vals = 2.0 * g.t ** 2 - g.t + 0.5
    assert np.allclose(dt_derivative(vals, g.h), 4.0 * g.t - 1.0, rtol=0, atol=1e-11)


def test_damped_newton_rejects_inadmissible_start():
    def residual(v, r, aux):
        np.subtract(v, 1.0, out=r)
        return False

    with pytest.raises(SolverError, match="probe started .* positivity"):
        damped_newton(residual, None, np.zeros(8), NewtonParams(5, 1e-12), "probe",
                      NewtonWorkspace(8))


def test_damped_newton_never_reads_a_nan_residual_as_converged():
    def residual(v, r, aux):
        r.fill(np.nan)
        return True

    bands = lambda aux, out: dirichlet_bands(8, 0.1, 1.0, 1.0, out=out)
    with pytest.raises(ValueError, match="NaN"):
        damped_newton(residual, bands, np.zeros(8), NewtonParams(), "probe", NewtonWorkspace(8))


def test_damped_newton_works_in_the_given_workspace():
    # the linear residual v - target converges in one full step
    target = np.linspace(1.0, 2.0, 16)
    work = NewtonWorkspace(16)
    buffers = [work.v, work.candidate, work.aux, work.aux_new]

    def residual(v, r, aux):
        np.subtract(v, target, out=r)
        np.copyto(aux, v)
        return True

    bands = lambda aux, out: dirichlet_bands(16, 0.1, 0.0, -1.0, out=out)
    v, aux, iterations, residuals, damping = damped_newton(
        residual, bands, np.zeros(16), NewtonParams(5, 1e-12), "probe", work)
    assert iterations == 1 and damping == 0 and residuals == [2.0, 0.0]
    assert any(v is b for b in buffers) and any(aux is b for b in buffers)
    assert v.tobytes() == target.tobytes() and aux.tobytes() == target.tobytes()


# ---------------------------------------------------------------------------
# Tridiagonal solves: one-shot (gtsv) and factored once (gttrf/gttrs)
# ---------------------------------------------------------------------------

#: both solve paths that leave their inputs alone, as f(sub, diag, sup, rhs)
TRIDIAGONAL_SOLVERS = {
    "one-shot": solve_tridiagonal,
    "factored": lambda sub, diag, sup, rhs: factor_tridiagonal(sub, diag, sup)(rhs),
}

#: those and the Newton loop's solve, which works in (copies of) its inputs
CHECKED_SOLVERS = {
    **TRIDIAGONAL_SOLVERS,
    "in-place": lambda *system: _gtsv(*(a.copy() for a in system), overwrite=True),
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


@pytest.mark.parametrize("solver", list(CHECKED_SOLVERS))
@pytest.mark.parametrize("position, index", SYSTEM_ENTRIES)
def test_tridiagonal_rejects_nonfinite_entries(solver, position, index):
    for bad in (np.nan, np.inf, -np.inf):
        system = list(_pivoting_system(np.random.default_rng(3), 12))
        system[position][index] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            CHECKED_SOLVERS[solver](*system)


@pytest.mark.parametrize("solver", list(CHECKED_SOLVERS))
def test_tridiagonal_ignores_band_ends_outside_the_matrix(solver):
    sub, diag, sup, rhs = _pivoting_system(np.random.default_rng(4), 12)
    expected = CHECKED_SOLVERS[solver](sub, diag, sup, rhs)
    sub[0], sup[-1] = np.nan, np.inf
    assert CHECKED_SOLVERS[solver](sub, diag, sup, rhs).tobytes() == expected.tobytes()


@pytest.mark.parametrize("solver", list(CHECKED_SOLVERS))
def test_tridiagonal_singular_matrix_raises(solver):
    sub, diag, sup, rhs = _pivoting_system(np.random.default_rng(5), 12)
    sub[4] = diag[4] = sup[4] = 0.0   # a zero row
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        CHECKED_SOLVERS[solver](sub, diag, sup, rhs)


@pytest.mark.parametrize("solver", list(TRIDIAGONAL_SOLVERS))
def test_tridiagonal_solve_leaves_inputs_unchanged(solver):
    system = _pivoting_system(np.random.default_rng(6), 64)
    before = [a.tobytes() for a in system]
    TRIDIAGONAL_SOLVERS[solver](*system)
    assert [a.tobytes() for a in system] == before


def test_in_place_solve_overwrites_rhs_and_matches_one_shot_bit_for_bit():
    # f2py copies an argument it cannot hand to LAPACK as is; a copy here
    # would leave every result right and every Newton step slower
    rng = np.random.default_rng(10)
    work = NewtonWorkspace(300)
    for _ in range(100):
        n = int(rng.integers(3, 300))
        system = _pivoting_system(rng, n)
        expected = solve_tridiagonal(*system)
        sub, diag, sup, rhs = (np.copyto(b[:n], a) or b[:n]
                               for a, b in zip(system, (*work.bands, work.step)))
        u = _gtsv(sub, diag, sup, rhs, overwrite=True)
        assert np.shares_memory(u, rhs)
        assert u.tobytes() == expected.tobytes()


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
