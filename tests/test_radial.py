"""Radial grid plumbing: CSV round trips, expansion evaluation, stencils."""

import math
import re

import numpy as np
import pytest

from cuspasym import elliptic, parabolic
from cuspasym.errors import SolverError
from cuspasym.geometry import ModelMetric
from cuspasym.radial import (
    NewtonParams,
    NewtonWorkspace,
    RadialField,
    RadialGrid,
    _gtsv,
    _require_finite,
    damped_newton,
    dirichlet_bands,
    dt_derivative,
    evaluate_expansion,
    factor_symmetric_tridiagonal,
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


@pytest.mark.parametrize("t_min", [-800.0, -740.0, -708.5])
def test_grid_rejects_x_min_below_the_normal_floats(t_min):
    # exp(-800) is 0 and exp(-740) subnormal: x = 0 once reached the CSV,
    # and a subnormal column reads back as not log-uniform
    with pytest.raises(ValueError, match=re.escape(f"exp(t_min) > 0 as a normal float "
                                                   f"(t_min >= -708.396), got t_min={t_min}")):
        RadialGrid(t_min, -1.0, 64)


def test_grid_at_the_deepest_normal_x_min_round_trips(tmp_path):
    grid = RadialGrid(-708.0, math.log(0.5), 64)
    RadialField(grid, grid.x).write_csv(tmp_path / "deep.csv")
    back = RadialField.read_csv(tmp_path / "deep.csv")
    assert back.grid == grid and back.values.tobytes() == grid.x.tobytes()


@pytest.mark.parametrize("field, value, need", [
    ("max_iter", -1, "an integer >= 0"), ("max_iter", 2.5, "an integer >= 0"),
    ("max_iter", math.nan, "an integer >= 0"),
    ("tol", 0.0, "finite and > 0"), ("tol", -1e-12, "finite and > 0"),
    ("tol", math.nan, "finite and > 0"), ("tol", math.inf, "finite and > 0"),
    ("damping_min", 0.0, "in (0, 1)"), ("damping_min", -0.5, "in (0, 1)"),
    ("damping_min", 1.0, "in (0, 1)"), ("damping_min", math.nan, "in (0, 1)"),
])
def test_newton_params_name_the_field_out_of_range(field, value, need):
    # damping_min = 0 once backtracked forever, and max_iter = -1 or 2.5
    # lifted the cap (iteration == max_iter never held)
    with pytest.raises(ValueError, match=re.escape(f"{field} must be {need}, got {value}")):
        NewtonParams(**{field: value})


def test_newton_params_accept_the_edges_of_their_ranges():
    assert NewtonParams(max_iter=0, tol=5e-324, damping_min=5e-324).max_iter == 0
    assert NewtonParams(damping_min=1.0 - 2.0 ** -53).damping_min < 1.0


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
    v, aux, iterations, residuals, damping, floor_value = damped_newton(
        residual, bands, np.zeros(16), NewtonParams(5, 1e-12), "probe", work)
    assert iterations == 1 and damping == 0 and residuals == [2.0, 0.0] and floor_value is None
    assert any(v is b for b in buffers) and any(aux is b for b in buffers)
    assert v.tobytes() == target.tobytes() and aux.tobytes() == target.tobytes()


def _cubic(target):
    """v + v^3 = target, solved by Newton in a few quadratic steps."""
    def residual(v, r, aux):
        np.copyto(aux, v)
        np.multiply(v, v, out=r)
        np.multiply(r, v, out=r)
        np.add(r, v, out=r)
        np.subtract(r, target, out=r)
        return True

    def bands(aux, out):
        dirichlet_bands(len(target), 0.1, 0.0, -(1.0 + 3.0 * aux[1:-1] ** 2), out=out)
    return residual, bands


def _identity_bands(aux, out):
    dirichlet_bands(len(aux), 0.1, 0.0, -1.0, out=out)


def _wobbling(target, amplitude):
    """v - target plus a wobble of the given amplitude that the identity
    Jacobian does not see: Newton lands within it in one step, then stalls."""
    def residual(v, r, aux):
        np.copyto(aux, v)
        np.subtract(v, target, out=r)
        r[1:-1] += amplitude * np.sin(1e12 * v[1:-1])
        return True
    return residual, _identity_bands


def test_damped_newton_asks_no_floor_while_newton_contracts():
    calls = []
    target = np.r_[0.0, np.linspace(0.1, 0.5, 14), 0.0]
    v, aux, iterations, residuals, damping, floor_value = damped_newton(
        *_cubic(target), 0.0, NewtonParams(), "probe", NewtonWorkspace(16),
        floor=lambda v, aux, out: calls.append(1) or 1.0)
    assert calls == [] and floor_value is None and damping == 0
    assert residuals[-1] <= 1e-11 and iterations == len(residuals) - 1
    assert np.max(np.abs(v + v ** 3 - target)) == residuals[-1]


def _slow(target):
    """1.6 (v - target) with the Jacobian taken as 1: each full step is
    accepted, but leaves 0.6 of the residual."""
    def residual(v, r, aux):
        np.copyto(aux, v)
        np.subtract(v, target, out=r)
        np.multiply(r, 1.6, out=r)
        return True
    return residual, _identity_bands


@pytest.mark.parametrize("problem, amplitude", [(lambda t: _wobbling(t, 1e-9), 1e-9),
                                                (_slow, 1e-6)],
                         ids=["full-step-rejected", "step-accepted-above-half"])
def test_damped_newton_stops_at_the_callers_floor(problem, amplitude):
    target = np.r_[0.0, np.linspace(1.0, 2.0, 14), 0.0]
    work = NewtonWorkspace(16)
    residual, bands = problem(target)
    seen = []

    def floor(v, aux, out):
        # the loop's spare buffer and the scratch array are the floor's to spoil
        assert not any(np.shares_memory(out, a) for a in (v, aux, work.scratch))
        seen.append(v.copy())
        out.fill(np.nan)
        work.scratch.fill(np.nan)
        return amplitude

    v, aux, iterations, residuals, damping, floor_value = damped_newton(
        residual, bands, 0.0, NewtonParams(), "probe", work, floor=floor)
    assert floor_value == amplitude and iterations == len(residuals) - 1 >= 1
    assert NewtonParams().tol < residuals[-1] <= 4 * amplitude < residuals[-2]
    # the returned iterate is the one the floor was asked about, and its
    # residual is the last one reported
    assert v.tobytes() == seen[-1].tobytes()
    r, check = np.empty(16), np.empty(16)
    residual(v, r, check)
    assert np.max(np.abs(r)) == residuals[-1] and check.tobytes() == aux.tobytes()


@pytest.mark.parametrize("floor_value", [math.inf, math.nan, 1e-12],
                         ids=["inf", "nan", "below-the-wobble"])
def test_damped_newton_goes_on_unless_a_finite_floor_is_reached(floor_value):
    target = np.r_[0.0, np.linspace(1.0, 2.0, 14), 0.0]
    work = NewtonWorkspace(16)

    def spoiling_floor(v, aux, out):   # the loop goes on as if never asked
        out.fill(np.nan)
        work.scratch.fill(np.nan)
        return floor_value

    messages = []
    for floor in (None, spoiling_floor):
        with pytest.raises(SolverError) as info:
            damped_newton(*_wobbling(target, 1e-9), 0.0, NewtonParams(), "probe", work,
                          floor=floor)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# Tridiagonal solves: one-shot (gtsv), and a symmetric positive definite
# matrix factored once (pttrf/pttrs)
# ---------------------------------------------------------------------------

def _symmetrized_solve(sub, diag, sup, rhs):
    """A u = rhs the way decay_certificate solves: for bands with
    sub[j+1] sup[j] > 0, y = D u with D_{j+1}/D_j = sqrt(sup[j]/sub[j+1])
    turns A into the symmetric D A D^-1 (off-diagonal -sqrt(sub sup) for
    negative bands), factored once; sub[0] and sup[-1] are never read."""
    d = np.r_[1.0, np.cumprod(np.sqrt(np.abs(sup[:-1] / sub[1:])))]
    solve = factor_symmetric_tridiagonal(diag, -np.sqrt(np.abs(sub[1:] * sup[:-1])))
    return solve(d * rhs) / d


#: the public solve, which leaves its inputs alone, the Newton loop's, which
#: works in (copies of) its inputs, and the decay certificate's symmetric
#: factor, as f(sub, diag, sup, rhs)
CHECKED_SOLVERS = {
    "one-shot": solve_tridiagonal,
    "in-place": lambda *system: _gtsv(*(a.copy() for a in system), overwrite=True),
    "factored": _symmetrized_solve,
}


def _pivoting_system(rng, n):
    """Random bands and right-hand side; the weak diagonal makes partial
    pivoting swap rows."""
    sub, diag, sup, rhs = rng.standard_normal((4, n))
    return sub, 0.3 * diag, sup, rhs


def _system(solver, rng, n):
    """A system ``solver`` can take: the factored solve needs negative bands
    whose symmetrization is positive definite (diagonally dominant here)."""
    if solver != "factored":
        return _pivoting_system(rng, n)
    sub, sup = -rng.uniform(0.5, 2.0, (2, n))
    off = np.sqrt(sub[1:] * sup[:-1])
    diag = np.r_[0.0, off] + np.r_[off, 0.0] + rng.uniform(1e-3, 2.0, n)
    return sub, diag, sup, rng.standard_normal(n)


#: entries of the matrix and right-hand side, as (array position, index)
SYSTEM_ENTRIES = [(0, 1), (0, -1), (1, 0), (1, -1), (2, 0), (2, -2), (3, 0), (3, -1)]


@pytest.mark.parametrize("solver", list(CHECKED_SOLVERS))
@pytest.mark.parametrize("position, index", SYSTEM_ENTRIES)
def test_tridiagonal_rejects_nonfinite_entries(solver, position, index):
    for bad in (np.nan, np.inf, -np.inf):
        system = list(_system(solver, np.random.default_rng(3), 12))
        system[position][index] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            CHECKED_SOLVERS[solver](*system)


#: finite entries whose squares overflow (the one-pass sum of squares is
#: inf, so the exact test decides), and subnormals
HUGE_OR_TINY = [1e200, -1e200, 1.7e308, -1.7e308, 5e-324, -2.5e-310]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("position", range(4))
def test_tridiagonal_rejects_a_nonfinite_entry_among_huge_ones(position, bad):
    system = list(_pivoting_system(np.random.default_rng(3), 12))
    system[position][2:2 + len(HUGE_OR_TINY)] = HUGE_OR_TINY
    system[position][-2] = bad
    for solver in ("one-shot", "in-place"):
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            CHECKED_SOLVERS[solver](*system)


@pytest.mark.parametrize("position", range(4))
def test_tridiagonal_takes_huge_and_subnormal_entries_quietly(position):
    # pyproject turns warnings into errors: the check must raise no FP flag
    system = list(_pivoting_system(np.random.default_rng(3), 12))
    system[position][2:2 + len(HUGE_OR_TINY)] = HUGE_OR_TINY
    for solver in ("one-shot", "in-place"):
        try:
            CHECKED_SOLVERS[solver](*system)
        except np.linalg.LinAlgError:   # past the check: LAPACK met a zero pivot
            pass
    diag, off, rhs = _spd_system(np.random.default_rng(9), 12)
    diag[4] = rhs[5] = 1.7e308
    rhs[:len(HUGE_OR_TINY)] = HUGE_OR_TINY
    factor_symmetric_tridiagonal(diag, off)(rhs)
    _require_finite(np.array(HUGE_OR_TINY), np.array(HUGE_OR_TINY)[::2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, 7, -1])
def test_field_rejects_a_nonfinite_value_among_huge_ones(index, bad):
    g = RadialGrid(-10.0, -1.0, 16)
    values = np.ones(32)
    values[2:2 + 2 * len(HUGE_OR_TINY):2] = HUGE_OR_TINY
    for array in (values[:16], values[::2]):   # contiguous and strided views
        array[index] = bad
        with pytest.raises(ValueError, match="^field values must be finite at every node$"):
            RadialField(g, array)
    values[:] = 1.0
    values[2:2 + len(HUGE_OR_TINY)] = HUGE_OR_TINY
    assert RadialField(g, values[:16]).values.tobytes() == values[:16].tobytes()
    assert RadialField(g, values[::2]).values.tobytes() == values[::2].tobytes()


#: what 1 + Delta_g u (the MA residual) and S + Delta u (the flow's, S = 1
#: on the unit metric) can be at four of six interior nodes, built as 1 + L
#: from a Laplacian L
REACHABLE_POSITIVITY = {
    "positive": [0.0, 0.0, 0.0, 0.0],
    "zero": [0.0, -1.0, 0.0, 0.0],
    "negative": [0.0, 0.0, -3.0, 0.0],
    "nan": [0.0, np.nan, 0.0, 0.0],
    "all-nan": [np.nan] * 4,
    "nan-and-zero": [np.nan, 0.0, -1.0, 0.0],
    "nan-and-negative": [0.0, -2.0, np.nan, 0.0],
    "tiny-positive": [0.0, -1.0 + 2.0 ** -53, 0.0, 0.0],
    "inf": [np.inf, 0.0, 0.0, 0.0],
    "minus-inf": [0.0, 0.0, 0.0, -np.inf],
}


class _Captured(Exception):
    pass


@pytest.mark.parametrize("name", list(REACHABLE_POSITIVITY))
@pytest.mark.parametrize("solver", ["ma", "flow"])
def test_residual_positivity_answers_as_the_elementwise_tests(solver, name, monkeypatch):
    # MA: np.all(1 + lap > 0), False on NaN; flow: not np.any(S + lap <= 0),
    # NaN ignored.  The residual is the callback handed to damped_newton,
    # run on a Laplacian set to the case's values.
    grid = RadialGrid(-10.0, -1.0, 8)
    lap = np.array([0.0, *REACHABLE_POSITIVITY[name], 0.0])
    tmp = 1.0 + lap
    if solver == "ma":
        field = RadialField(grid, grid.x)
        run = lambda: elliptic.solve_monge_ampere_radial(
            elliptic.MongeAmpereProblem(ModelMetric(), field))
        module, expected = elliptic, bool(np.all(tmp > 0))
    else:
        run = lambda: parabolic.run_flow(parabolic.FlowProblem(ModelMetric(), 0.5, 0.5, grid))
        module, expected = parabolic, not np.any(tmp <= 0)
    captured = []

    def capture(residual, *args, **kwargs):
        captured.append(residual)
        raise _Captured

    monkeypatch.setattr(module, "damped_newton", capture)
    with pytest.raises(_Captured):
        run()
    monkeypatch.setattr(module, "unit_laplacian_interior",
                        lambda v, h, out, scratch: np.copyto(out[1:-1], lap) or out)
    with np.errstate(all="ignore"):
        assert captured[0](np.zeros(8), np.empty(8), np.empty(8)) is expected


@pytest.mark.parametrize("values", [
    [1.0, 2.0], [0.0, 1.0], [-0.0, 1.0], [5e-324, 1.0], [-5e-324, 1.0],
    [np.nan, 1.0], [np.nan, np.nan], [np.nan, 0.0], [-0.0, np.nan], [np.nan, -5e-324],
    [np.inf, 1.0], [-np.inf, np.nan], [2.5e-310, 1e-300],
], ids=str)
def test_one_reduction_positivity_tests_match_the_elementwise_ones(values):
    # the residuals' forms on values 1 + L cannot reach: signed zeros and
    # subnormals, each alone and mixed with NaN
    for tmp in (np.array(values), np.array(values[::-1]), np.repeat(values, 300)):
        assert bool(tmp.min() > 0) is bool(np.all(tmp > 0))
        assert bool(np.fmin.reduce(tmp) <= 0) is bool(np.any(tmp <= 0))


@pytest.mark.parametrize("solver", list(CHECKED_SOLVERS))
def test_tridiagonal_ignores_band_ends_outside_the_matrix(solver):
    sub, diag, sup, rhs = _system(solver, np.random.default_rng(4), 12)
    expected = CHECKED_SOLVERS[solver](sub, diag, sup, rhs)
    sub[0], sup[-1] = np.nan, np.inf
    assert CHECKED_SOLVERS[solver](sub, diag, sup, rhs).tobytes() == expected.tobytes()


@pytest.mark.parametrize("solver", ["one-shot", "in-place"])
def test_tridiagonal_singular_matrix_raises(solver):
    sub, diag, sup, rhs = _pivoting_system(np.random.default_rng(5), 12)
    sub[4] = diag[4] = sup[4] = 0.0   # a zero row
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        CHECKED_SOLVERS[solver](sub, diag, sup, rhs)


@pytest.mark.parametrize("solver", ["one-shot", "factored"])
def test_tridiagonal_solve_leaves_inputs_unchanged(solver):
    system = _system(solver, np.random.default_rng(6), 64)
    before = [a.tobytes() for a in system]
    CHECKED_SOLVERS[solver](*system)
    assert [a.tobytes() for a in system] == before


def test_in_place_solve_overwrites_rhs_and_matches_one_shot_bit_for_bit():
    from scipy.linalg import solve_banded

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
        # the one-shot path is what solve_banded computes
        ab = np.vstack([np.r_[0.0, system[2][:-1]], system[1], np.r_[system[0][1:], 0.0]])
        assert solve_banded((1, 1), ab, system[3]).tobytes() == expected.tobytes()


def _spd_system(rng, n):
    """A random symmetric positive definite tridiagonal system (diagonal,
    off-diagonal, right-hand side), diagonally dominant by a random margin."""
    off = rng.standard_normal(n - 1)
    pad = np.abs(np.r_[0.0, off]) + np.abs(np.r_[off, 0.0])
    return pad + rng.uniform(1e-3, 2.0, n), off, rng.standard_normal(n)


def test_factored_solves_match_one_shot_bit_for_bit():
    # pttrf + pttrs is ptsv's own sequence, and the solve agrees with a
    # dense one to rounding
    from scipy.linalg.lapack import dptsv

    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 300))
        diag, off, _ = _spd_system(rng, n)
        solve = factor_symmetric_tridiagonal(diag, off)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        for rhs in rng.standard_normal((2, n)):   # one factor, several solves
            one_shot = dptsv(diag, off, rhs)[2]
            factored = solve(rhs.copy())
            assert factored.shape == one_shot.shape == (n,)
            assert factored.tobytes() == one_shot.tobytes()
            exact = np.linalg.solve(dense, rhs)
            assert np.max(np.abs(factored - exact)) <= 1e-13 * np.max(np.abs(exact)) \
                * np.linalg.cond(dense)


def test_symmetric_factor_solves_in_place_and_keeps_its_matrix():
    diag, off, rhs = _spd_system(np.random.default_rng(9), 64)
    before, b = (diag.tobytes(), off.tobytes()), rhs.copy()
    u = factor_symmetric_tridiagonal(diag, off)(rhs)
    assert np.shares_memory(u, rhs)
    assert (diag.tobytes(), off.tobytes()) == before
    residual = diag * u + np.r_[off * u[1:], 0.0] + np.r_[0.0, off * u[:-1]] - b
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(b))


#: entries of (diag, off, rhs), as (array position, index)
SYMMETRIC_ENTRIES = [(0, 0), (0, -1), (1, 0), (1, -1), (2, 0), (2, -1)]


@pytest.mark.parametrize("position, index", SYMMETRIC_ENTRIES)
def test_symmetric_factor_rejects_nonfinite_entries(position, index):
    for bad in (np.nan, np.inf, -np.inf):
        system = list(_spd_system(np.random.default_rng(3), 12))
        system[position][index] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            factor_symmetric_tridiagonal(*system[:2])(system[2])


@pytest.mark.parametrize("entry", [3, 0, 11])
def test_symmetric_factor_not_positive_definite_raises(entry):
    diag, off, _ = _spd_system(np.random.default_rng(5), 12)
    diag[entry] = -0.5           # a negative pivot: pttrf stops with info > 0
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        factor_symmetric_tridiagonal(diag, off)
    # positive diagonal, indefinite matrix: [[1, 2], [2, 1]] in the middle
    diag, off = np.full(12, 5.0), np.zeros(11)
    diag[5:7], off[5] = 1.0, 2.0
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        factor_symmetric_tridiagonal(diag, off)
