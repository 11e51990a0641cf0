"""Radial grid plumbing: CSV round trips, expansion evaluation, stencils."""

import math
import re

import numpy as np
import pytest

from cuspasym import radial
from cuspasym.elliptic import LinearProblem, solve_linear
from cuspasym.errors import SolverError
from cuspasym.geometry import ModelMetric
from cuspasym.radial import (
    NewtonParams,
    NewtonWorkspace,
    RadialField,
    RadialGrid,
    _gtsv,
    _jacobian_solver,
    _log_density_equation,
    _require_finite,
    _rounding_floor,
    damped_newton,
    dirichlet_bands,
    evaluate_expansion,
    factor_symmetric_tridiagonal,
    laplacian_coefficients,
    similarity_diagonal,
    solve_tridiagonal,
    stencil_root,
    stencil_symbol,
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


def test_csv_round_trip_on_a_tiny_spacing(tmp_path):
    # h = 1.6e-11, where log(exp(t)) misses t by 1.6e-16 against 1e-8 h = 1.6e-19
    g = RadialGrid(-1.000000001, -1.0, 64)
    f = RadialField.from_function(g, lambda x: 1.5 * x)
    f.write_csv(tmp_path / "tiny.csv")
    back = RadialField.read_csv(tmp_path / "tiny.csv")
    assert back.grid.n_nodes == g.n_nodes
    assert np.array_equal(back.values, f.values)
    assert np.max(np.abs(back.grid.x - g.x) / g.x) < 1e-15
    # a node a tenth of a spacing off is still refused
    x = g.x.copy()
    x[30] = math.exp(g.t[30] + g.h / 10)
    (tmp_path / "skewed.csv").write_text("x,value\n" + "".join(f"{v:.17g},1\n" for v in x))
    with pytest.raises(ValueError, match="log-uniform"):
        RadialField.read_csv(tmp_path / "skewed.csv")


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


#: (weight, shift) of dirichlet_bands for each Dirichlet operator the
#: package solves, from the interior density and Laplacian
BAND_CASES = {
    "solve_linear": lambda density, lap: (1.0 / density, 2.5),
    "monge_ampere_jacobian": lambda density, lap: (-1.0 / (density + lap), -1.0),
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


@pytest.mark.parametrize("n", [256, 1024, 4096])
@pytest.mark.parametrize("z", [0.5, 1.0, 2.0, -2.0])
def test_stencil_maps_powers_by_its_symbol(z, n):
    # Delta_h x^z = P_h(z) x^z at every interior node, to rounding (at most
    # 8.2e-11 relative at 4096 nodes; the stencil's cancellation of its
    # O(1/h^2) coefficients makes that about 2e-8 at 65536)
    g = RadialGrid(radial.DEFAULT_GRID.t_min, radial.DEFAULT_GRID.t_max, n)
    v = g.x ** z
    applied = unit_laplacian_interior(v, g.h)[1:-1]
    expected = stencil_symbol(g.h, z) * v[1:-1]
    assert np.max(np.abs(applied - expected) / np.abs(expected)) <= 1e-9


@pytest.mark.parametrize("n", [4096, 16384, 65536])
def test_stencil_root_inverts_the_symbol(n):
    h = RadialGrid(radial.DEFAULT_GRID.t_min, radial.DEFAULT_GRID.t_max, n).h
    assert stencil_symbol(h, stencil_root(h, 1.0)) == 1.0


@pytest.mark.parametrize("n", [1024, 2048, 4096])
def test_stencil_symbol_at_one_is_one_plus_h_squared_over_eight(n):
    # P_h(z) = (z^2 + z)/2 + (z^3/12 + z^4/24) h^2 + O(h^4), so
    # P_h(1) - 1 = h^2/8 + O(h^4): 1.15170e-5 at 4096 nodes (on finer grids
    # rounding in the 1/h^2 coefficients swamps the difference)
    h = RadialGrid(radial.DEFAULT_GRID.t_min, radial.DEFAULT_GRID.t_max, n).h
    assert (stencil_symbol(h, 1.0) - 1.0) / (h * h / 8.0) == pytest.approx(1.0, abs=1e-4)


def test_stencil_symbol_overflows_past_the_float_range():
    # e^{zh} passes the float range once z h passes about 709.78: the
    # decay certificate refuses that weight by name (tests/test_messages.py)
    with pytest.raises(OverflowError):
        stencil_symbol(1.9, 374.0)


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


def test_unit_laplacian_end_rows_exact_on_quadratics():
    # both one-sided rows, d^2/dt^2 and d/dt, are exact on v = t^2 - t
    g = RadialGrid(-3.0, -0.5, 32)
    lap = unit_laplacian(g.t ** 2 - g.t, g.h)
    exact = 0.5 * (2.0 + 2.0 * g.t - 1.0)
    assert np.allclose(lap[[0, -1]], exact[[0, -1]], rtol=0, atol=1e-11)


def _gtsv_solve(bands):
    """A ``solve`` for damped_newton: J c = r in r's buffer by pivoting gtsv,
    with ``bands(aux)`` J's bands at the iterate."""
    return lambda aux, r: _gtsv(*bands(aux), r, overwrite=True)


def _no_floor(v, aux, out):
    """A floor never reached: the loop runs as if it had none."""
    return math.inf


def test_damped_newton_rejects_inadmissible_start():
    # the start is tried once, as given, and the error names the label
    start, seen = np.linspace(1.0, 2.0, 8), []

    def residual(v, r, aux):
        seen.append(v.copy())
        np.subtract(v, 1.0, out=r)
        return False

    with pytest.raises(SolverError, match="^probe started from an iterate violating positivity$"):
        damped_newton(residual, None, start, NewtonParams(5, 1e-12), "probe",
                      NewtonWorkspace(8), _no_floor)
    assert [v.tolist() for v in seen] == [np.broadcast_to(start, 8).tolist()]


def test_damped_newton_never_reads_a_nan_residual_as_converged():
    def residual(v, r, aux):
        r.fill(np.nan)
        return True

    solve = _gtsv_solve(lambda aux: dirichlet_bands(8, 0.1, 1.0, 1.0))
    with pytest.raises(ValueError, match="NaN"):
        damped_newton(residual, solve, np.zeros(8), NewtonParams(), "probe",
                      NewtonWorkspace(8), _no_floor)


def test_damped_newton_works_in_the_given_workspace():
    # the linear residual v - target converges in one full step
    target = np.linspace(1.0, 2.0, 16)
    work = NewtonWorkspace(16)
    buffers = [work.v, work.candidate, work.aux, work.aux_new]

    def residual(v, r, aux):
        np.subtract(v, target, out=r)
        np.copyto(aux, v)
        return True

    solve = _gtsv_solve(lambda aux: dirichlet_bands(16, 0.1, 0.0, -1.0))
    v, aux, iterations, residuals, damping, floor_value = damped_newton(
        residual, solve, np.zeros(16), NewtonParams(5, 1e-12), "probe", work, _no_floor)
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

    return residual, _gtsv_solve(
        lambda aux: dirichlet_bands(len(target), 0.1, 0.0, -(1.0 + 3.0 * aux[1:-1] ** 2)))


_identity_solve = _gtsv_solve(lambda aux: dirichlet_bands(len(aux), 0.1, 0.0, -1.0))


def _wobbling(target, amplitude):
    """v - target plus a wobble of the given amplitude that the identity
    Jacobian does not see: Newton lands within it in one step, then stalls."""
    def residual(v, r, aux):
        np.copyto(aux, v)
        np.subtract(v, target, out=r)
        r[1:-1] += amplitude * np.sin(1e12 * v[1:-1])
        return True
    return residual, _identity_solve


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
    return residual, _identity_solve


@pytest.mark.parametrize("problem, amplitude", [(lambda t: _wobbling(t, 1e-9), 1e-9),
                                                (_slow, 1e-6)],
                         ids=["full-step-rejected", "step-accepted-above-half"])
def test_damped_newton_stops_at_the_callers_floor(problem, amplitude):
    target = np.r_[0.0, np.linspace(1.0, 2.0, 14), 0.0]
    work = NewtonWorkspace(16)
    residual, solve = problem(target)
    seen = []

    def floor(v, aux, out):
        # the loop's spare buffer and the scratch array are the floor's to spoil
        buffers = (v, aux, out, work.scratch)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(buffers)
                       for b in buffers[i + 1:])
        seen.append(v.copy())
        for spoilt in (out, work.scratch):
            spoilt.fill(np.nan)
        return amplitude

    v, aux, iterations, residuals, damping, floor_value = damped_newton(
        residual, solve, 0.0, NewtonParams(), "probe", work, floor=floor)
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
        for spoilt in (out, work.scratch):
            spoilt.fill(np.nan)
        return floor_value

    messages = []
    for floor in (_no_floor, spoiling_floor):
        with pytest.raises(SolverError) as info:
            damped_newton(*_wobbling(target, 1e-9), 0.0, NewtonParams(), "probe", work,
                          floor=floor)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_rounding_floor_matches_a_dense_evaluation():
    # eps max_j [gamma sum_k |c_k v_{j+k}| / rho_j + alpha |v_j| + |beta_j|],
    # each row summed exactly by math.fsum from the dense stencil matrix
    rng = np.random.default_rng(11)
    n, h, gamma, alpha = 12, 0.3, 0.7, 1.7
    v = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    beta, rho = rng.normal(size=n - 2), rng.uniform(0.1, 2.0, size=n - 2)
    stencil = np.zeros((n - 2, n))
    for k, c in enumerate(laplacian_coefficients(h)):
        stencil[np.arange(n - 2), np.arange(n - 2) + k] = c
    dense = max(math.fsum([gamma * math.fsum(np.abs(row * v)) / r, alpha * abs(vj), abs(b)])
                for row, r, vj, b in zip(stencil, rho, v[1:-1], beta))
    inputs = [a.copy() for a in (v, beta, rho)]
    value = _rounding_floor(v, h, gamma, alpha, beta, rho, np.empty(n), np.empty(n))
    assert value == pytest.approx(np.finfo(float).eps * dense, rel=8 * np.finfo(float).eps)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(inputs, (v, beta, rho)))


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


def _equation(solver: str, S: np.ndarray, data: np.ndarray) -> tuple:
    """(S, excess, D0, alpha, beta, gamma) of a solver's instance of the
    log-density equation over the interior nodes, with S the density and
    data F (MA) or u_n (flow): the MA's (D, 0, D, 1, F, 1) with D = S, a
    flow step's (S, S - D0, D0, 1 + dt, -u_n, dt) with D0 = 0.8 S."""
    if solver == "ma":
        return S, 0.0, S, 1.0, data, 1.0
    dt = 0.05
    return S, S - 0.8 * S, 0.8 * S, 1.0 + dt, -data, dt


@pytest.mark.parametrize("name", list(REACHABLE_POSITIVITY))
@pytest.mark.parametrize("solver", ["ma", "flow"])
def test_residual_positivity_answers_as_the_elementwise_tests(solver, name, monkeypatch):
    # one rule for both instances: np.all(rho > 0), False on NaN, with rho =
    # S + lap and S = 1, the residual run on a Laplacian set to the case's values
    lap = np.array([0.0, *REACHABLE_POSITIVITY[name], 0.0])
    residual, *_ = _log_density_equation(0.1, similarity_diagonal(8, 0.1),
                                         *_equation(solver, np.ones(6), np.zeros(6)),
                                         (0.0, 0.0), NewtonWorkspace(8))
    monkeypatch.setattr(radial, "unit_laplacian_interior",
                        lambda v, h, out, scratch: np.copyto(out[1:-1], lap) or out)
    with np.errstate(all="ignore"):
        assert residual(np.zeros(8), np.empty(8), np.empty(8)) is bool(np.all(1.0 + lap > 0))


@pytest.mark.parametrize("solver", ["ma", "flow"])
def test_log_density_equation_matches_a_dense_evaluation(solver):
    # residual, rho, Jacobian solve and floor of each instance against
    # (alpha v + beta) - gamma log1p((excess + L v) / D0), rho = S + L v,
    # evaluated with the dense stencil matrix L
    rng = np.random.default_rng(17)
    n, h, bc = 12, 0.3, (0.3, -0.2)
    S = rng.uniform(0.5, 2.0, n - 2)
    equation = _equation(solver, S, rng.normal(size=n - 2))
    _, excess, D0, alpha, beta, gamma = equation
    v = 0.005 * rng.normal(size=n)
    L = np.zeros((n - 2, n))
    for k, c in enumerate(laplacian_coefficients(h)):
        L[np.arange(n - 2), np.arange(n - 2) + k] = c
    rho = S + L @ v
    work = NewtonWorkspace(n)
    residual, solve, floor, from_laplacian = _log_density_equation(
        h, similarity_diagonal(n, h), *equation, bc, work)

    def residual_at(w):
        r, aux = np.full(n, np.nan), np.full(n, np.nan)
        assert residual(w, r, aux) is True
        return r, aux

    r, aux = residual_at(v)
    assert r[0] == v[0] - bc[0] and r[-1] == v[-1] - bc[1]
    assert np.allclose(r[1:-1], (alpha * v[1:-1] + beta) - gamma * np.log1p((excess + L @ v) / D0),
                       rtol=0, atol=1e-14)
    assert np.allclose(aux[1:-1], rho, rtol=1e-14, atol=0)
    jacobian = np.eye(n)
    jacobian[1:-1] = alpha * jacobian[1:-1] - (gamma / rho)[:, None] * L
    b = rng.normal(size=n)
    c = solve(aux, b.copy())
    exact = np.linalg.solve(jacobian, b)
    assert np.max(np.abs(c - exact)) <= 1e-13 * np.max(np.abs(exact)) * np.linalg.cond(jacobian)
    # that J is the residual's derivative: central differences, column by column
    delta = 1e-6
    differences = np.column_stack([
        (residual_at(v + delta * e)[0] - residual_at(v - delta * e)[0]) / (2 * delta)
        for e in np.eye(n)])
    assert np.allclose(differences, jacobian, rtol=0, atol=1e-7 * np.abs(jacobian).max())
    stencil_sums = np.abs(L) @ np.abs(v)
    expected = max(math.fsum([gamma * s / p, alpha * abs(vj), abs(b)])
                   for s, p, vj, b in zip(stencil_sums, rho, v[1:-1], beta))
    value = floor(v, aux, np.empty(n))
    assert value == pytest.approx(np.finfo(float).eps * expected, rel=1e-13)
    # the residual from a Laplacian held apart is the residual, bit for bit
    lap, r_apart, aux_apart = np.empty(n), np.full(n, np.nan), np.full(n, np.nan)
    radial.unit_laplacian_interior(v, h, out=lap)
    kept = lap.copy()
    assert from_laplacian(v, lap, r_apart, aux_apart) is True
    assert r_apart.tobytes() == r.tobytes() and aux_apart[1:-1].tobytes() == aux[1:-1].tobytes()
    assert lap.tobytes() == kept.tobytes()


def _jacobian_solves(solver: str, n: int, h: float, monkeypatch=None):
    """The Jacobian solve of ``solver`` on n nodes at spacing h, and (rho, r,
    J's bands from dirichlet_bands at rho) for random rho > 0 and r; with
    ``monkeypatch``, a gtsv solve fails the test.  "ma" and "flow" are the
    log-density equation's ``solve``, "linear-<lambda>" is the linear
    problem's instance (rho, gamma, alpha) = (density, 1, lambda), with rho
    a conformal density on the grid of [-1 - (n - 1) h, -1]."""
    if monkeypatch is not None:
        monkeypatch.setattr(radial, "_gtsv", lambda *a, **k: pytest.fail("gtsv ran"))
    rng = np.random.default_rng(23)
    work, D = NewtonWorkspace(n), similarity_diagonal(n, h)
    if solver.startswith("linear-"):
        grid = RadialGrid(-1.0 - (n - 1) * h, -1.0, n)
        alpha, gamma = float(solver[len("linear-"):]), 1.0
        densities = [ModelMetric(2.0, 0.7, RadialField(grid, rng.uniform(-1.5, 1.5, n))).solver_density(grid)
                     for _ in range(4)]
        solve = _jacobian_solver(h, D, gamma, alpha, work)
    else:
        equation = _equation(solver, np.ones(n - 2), np.zeros(n - 2))
        alpha, gamma = equation[3], equation[5]
        _, solve, *_ = _log_density_equation(h, D, *equation, (0.0, 0.0), work)
        densities = [np.exp(rng.uniform(-3.0, 3.0, n)) for _ in range(4)]
    return solve, [(rho, rng.normal(size=n), dirichlet_bands(n, h, -gamma / rho[1:-1], -alpha))
                   for rho in densities]


#: spacings with a similarity D: the fuzzer's tiny spacing, the default
#: grid's, 1 and just below 2
SIMILARITY_SPACINGS = [1.6e-11, 0.0096, 1.0, 1.99]


@pytest.mark.parametrize("h", SIMILARITY_SPACINGS)
@pytest.mark.parametrize("solver", ["ma", "flow", "linear-0", "linear-1.2"])
def test_jacobian_solve_through_the_similarity_matches_a_dense_solve(solver, h, monkeypatch):
    n = 64
    assert similarity_diagonal(n, h) is not None
    solve, cases = _jacobian_solves(solver, n, h, monkeypatch)
    for rho, b, (sub, diag, sup) in cases:
        jacobian = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
        r = b.copy()
        c = solve(rho, r)
        assert c is r and c[0] == b[0] and c[-1] == b[-1]
        exact = np.linalg.solve(jacobian, b)
        assert np.max(np.abs(c - exact)) <= \
            1e-13 * np.max(np.abs(exact)) * np.linalg.cond(jacobian)


#: (n, h) without a similarity D: spacing 2 (c_sub = 0), above 2, and a
#: spacing below 2 whose D passes e^700 on 300 nodes
NO_SIMILARITY = {"h-2": (64, 2.0), "h-2.5": (64, 2.5), "past-e700": (300, 2.0 - 1e-10)}


@pytest.mark.parametrize("case", list(NO_SIMILARITY))
@pytest.mark.parametrize("solver", ["ma", "flow"])
def test_jacobian_solve_without_a_similarity_is_gtsv_bit_for_bit(solver, case):
    n, h = NO_SIMILARITY[case]
    assert similarity_diagonal(n, h) is None
    solve, cases = _jacobian_solves(solver, n, h)
    for rho, b, bands in cases:
        expected = _gtsv(*bands, b.copy(), overwrite=True)
        assert solve(rho, b.copy()).tobytes() == expected.tobytes()


#: grids without a similarity D: spacing 2, spacing 2.5, and the fuzzer's
#: far span, whose D passes e^700
NO_SIMILARITY_GRIDS = {"h-2": RadialGrid(-31.0, -1.0, 16), "h-2.5": RadialGrid(-38.5, -1.0, 16),
                       "past-e700": RadialGrid(-706.8235, -1.0, 354)}


@pytest.mark.parametrize("lam", [0.0, 1.3])
@pytest.mark.parametrize("case", list(NO_SIMILARITY_GRIDS))
def test_solve_linear_without_a_similarity_is_its_pivoting_route_bit_for_bit(case, lam):
    # the route solve_linear took before it shared the Jacobian solve: the
    # bands of Delta / D - lambda and f, Dirichlet values at the ends, by gtsv
    grid = NO_SIMILARITY_GRIDS[case]
    assert similarity_diagonal(grid.n_nodes, grid.h) is None
    metric = ModelMetric(2.0, 0.7, RadialField(grid, 0.1 * np.sin(grid.t)))
    f, density = RadialField(grid, np.cos(grid.t) + 0.5), metric.solver_density(grid)
    rhs = f.values.copy()
    rhs[0], rhs[-1] = 0.3, -0.2
    expected = _gtsv(*dirichlet_bands(grid.n_nodes, grid.h, 1.0 / density[1:-1], lam), rhs,
                     overwrite=True)
    u = solve_linear(LinearProblem(metric, lam, f, 0.3, -0.2)).values
    assert u.tobytes() == expected.tobytes()


def test_jacobian_solve_falls_back_to_gtsv_where_the_scaled_system_overflows():
    # D (w r) overflows at the right end (D ~ 3^15 there on h = 1): the
    # pivoting solve takes the intact system
    solve, [(rho, b, bands), *_] = _jacobian_solves("ma", 64, 1.0)
    b[-1] = 1e308
    expected = _gtsv(*bands, b.copy(), overwrite=True)
    assert solve(rho, b.copy()).tobytes() == expected.tobytes()


# -- the log-density equation's general arithmetic, in its unspecialized
# operation order: every instance must give its bits, signed zeros included --

def _general_from_laplacian(S, excess, D0, alpha, beta, gamma, bc, v, lap, r, rho, scratch):
    tmp, inner, laplacian, positivity = scratch[1:-1], r[1:-1], lap[1:-1], rho[1:-1]
    np.add(S, laplacian, out=positivity)
    positive = bool(positivity.min() > 0)
    if positive:
        np.add(excess, laplacian, out=tmp)
        np.divide(tmp, D0, out=tmp)
        np.log1p(tmp, out=inner)
        np.multiply(gamma, inner, out=tmp)
        np.multiply(alpha, v[1:-1], out=inner)
        np.add(inner, beta, out=inner)
        np.subtract(inner, tmp, out=inner)
    r[0] = v[0] - bc[0]
    r[-1] = v[-1] - bc[1]
    return positive


def _general_solve(h, D, rho, gamma, alpha, r):
    """J c = r with rho an n-array, every coefficient applied: w = rho /
    gamma, the diagonal alpha w - c_diag and the right-hand side D (w r)."""
    n = len(r)
    bands, scratch = (np.empty(n), np.empty(n), np.empty(n)), np.empty(n)
    if D is not None:
        c_sub, c_diag, c_sup = laplacian_coefficients(h)
        scale = D[1:-1]
        e, d, y = bands[0][1:-2], bands[1][1:-1], bands[2][1:-1]
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(rho[1:-1], gamma, out=y)
            np.multiply(y, alpha, out=d)
            np.subtract(d, c_diag, out=d)
            np.multiply(np.multiply(y, scale, out=y), r[1:-1], out=y)
            y[0] += (c_sub * float(D[1])) * r[0]
            y[-1] += (c_sup * float(D[-2])) * r[-1]
            if np.all(np.isfinite(y)):
                e.fill(-math.sqrt(c_sub * c_sup))
                if not radial._lapack().dptsv(d, e, y, True, True, True)[-1]:
                    np.divide(y, scale, out=r[1:-1])
                    return r
    weight = np.divide(-gamma, rho[1:-1], out=scratch[1:-1])
    return _gtsv(*dirichlet_bands(n, h, weight, -alpha, out=bands), r, overwrite=True)


def _guarded_equation(monkeypatch, module, general_coefficients, built):
    """Patch ``module``'s log-density equation: each instance's residual,
    from_laplacian and solve check every call against the general
    arithmetic on the coefficients ``general_coefficients(args)`` gives (all
    array where the package passes a scalar); each instance's checked
    (residual, solve) is appended to ``built``."""
    equation = module._log_density_equation

    def same(*pairs):
        for got, want in pairs:
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def guarded(h, D, *args):
        residual, solve, floor, from_laplacian = equation(h, D, *args)
        general = general_coefficients(args)
        n = len(args[-1].v)

        def general_residual(v):
            r, rho, scratch = np.empty(n), np.empty(n), np.empty(n)
            lap = radial.unit_laplacian_interior(v, h, out=r, scratch=scratch)
            return _general_from_laplacian(*general, v, lap, r, rho, scratch), r, rho

        def checked_residual(v, r, rho):
            positive, r_want, rho_want = general_residual(v.copy())
            same((residual(v, r, rho), positive), (r, r_want), (rho[1:-1], rho_want[1:-1]))
            return positive

        def checked_from_laplacian(v, lap, r, rho):
            r_want, rho_want, scratch = np.empty(n), np.empty(n), np.empty(n)
            positive = _general_from_laplacian(*general, v.copy(), lap.copy(), r_want,
                                               rho_want, scratch)
            same((from_laplacian(v, lap, r, rho), positive), (r, r_want),
                 (rho[1:-1], rho_want[1:-1]))
            return positive

        def checked_solve(rho, r):
            want = _general_solve(h, D, rho.copy(), general[5], general[3], r.copy())
            got = solve(rho, r)
            same((got, want))
            return got

        built.append((checked_residual, checked_solve))
        return checked_residual, checked_solve, floor, checked_from_laplacian

    monkeypatch.setattr(module, "_log_density_equation", guarded)


#: the MA instances: the unit metric (scalar density 1), a b != 1 (the
#: scalar sqrt(ab)) and a conformal metric (an array density)
MA_METRICS = {"unit": lambda grid: ModelMetric(),
              "ab": lambda grid: ModelMetric(2.0, 0.7),
              "conformal": lambda grid: ModelMetric(conformal=RadialField(
                  grid, 0.2 * grid.x * np.cos(grid.t)))}


def _signed_zero_data(grid, a):
    """a x with signed zeros: +0.0 and -0.0 at alternate nodes of a stretch."""
    values = a * grid.x
    values[2:12:2], values[3:13:2] = 0.0, -0.0
    return values


@pytest.mark.parametrize("metric", list(MA_METRICS))
def test_each_ma_instance_is_the_general_arithmetic_bit_for_bit(metric, monkeypatch):
    from cuspasym import elliptic

    grid = RadialGrid(-40.0, math.log(0.5), 512)
    background = MA_METRICS[metric](grid)
    F = RadialField(grid, _signed_zero_data(grid, 1.5))
    # the general instance takes D as an array
    D = np.broadcast_to(background.solver_density(grid), grid.n_nodes)[1:-1]
    built = []
    _guarded_equation(monkeypatch, elliptic,
                      lambda args: (D, 0.0, D, 1.0, F.values[1:-1], 1.0, args[6]), built)
    report = elliptic.solve_monge_ampere_radial(
        elliptic.MongeAmpereProblem(background, F, 0.0, -0.0))[1]
    assert report.iterations > 2 and len(built) == 1
    # the instance the solve built, checked on iterates the solve never
    # visits: signed zeros, where Delta v is -0 (v is -0, +0, -0 around the
    # node) and the residual -0 (v and F are -0), subnormals, a rough field
    checked_residual, checked_solve = built[0]
    n, rng = grid.n_nodes, np.random.default_rng(36)
    signed = np.zeros(n)
    signed[1::2] = -0.0
    signed[100:110] = [5e-324, -5e-324, 0.0, -0.0, 1e-310, -0.0, 0.0, -1e-310, 0.0, -0.0]
    negative_zero = lambda a: np.any((a[1:-1] == 0) & np.signbit(a[1:-1]))   # noqa: E731
    for v in (signed, 1e-3 * rng.standard_normal(n), np.zeros(n)):
        r, rho = np.empty(n), np.empty(n)
        assert checked_residual(v, r, rho) is True
        if v is signed:   # the signed zeros a skipped term could have flipped
            assert negative_zero(radial.unit_laplacian_interior(v, grid.h)) and negative_zero(r)
        checked_solve(rho, r)


@pytest.mark.parametrize("metric", ["unit", "conformal"])
def test_each_flow_step_instance_is_the_general_arithmetic_bit_for_bit(metric, monkeypatch):
    from cuspasym import parabolic

    # a flow step passes every coefficient as it is (arrays, alpha = 1 + dt,
    # gamma = dt): its residual and prepared solve on every call of a run
    grid = RadialGrid(-40.0, math.log(0.5), 512)
    built = []
    _guarded_equation(monkeypatch, parabolic, lambda args: args[:7], built)
    result = parabolic.run_flow(parabolic.FlowProblem(MA_METRICS[metric](grid), T=0.2, dt=0.05,
                                                      grid=grid))
    assert len(built) == sum(result.newton_iterations) == 4


@pytest.mark.parametrize("spacing", ["similarity", "h-2.5"])
@pytest.mark.parametrize("lam", [0.0, 1.2])
@pytest.mark.parametrize("metric", list(MA_METRICS))
def test_solve_linear_is_the_general_arithmetic_bit_for_bit(metric, lam, spacing):
    # the density as an array, every coefficient applied, on data with signed
    # zeros: the scalar density of a metric without a conformal factor moves
    # no bit, through D or, on a grid without one, through gtsv
    grid = (RadialGrid(-40.0, math.log(0.5), 512) if spacing == "similarity"
            else NO_SIMILARITY_GRIDS[spacing])
    metric = MA_METRICS[metric](grid)
    f = RadialField(grid, _signed_zero_data(grid, -2.0))
    for bc in ((0.0, -0.0), (-0.0, 0.7)):
        rhs = np.negative(f.values)
        rhs[0], rhs[-1] = bc
        density = np.broadcast_to(metric.solver_density(grid), grid.n_nodes)
        want = _general_solve(grid.h, grid.similarity, density, 1.0, lam, rhs)
        want[0], want[-1] = bc
        u = solve_linear(LinearProblem(metric, lam, f, *bc)).values
        assert u.tobytes() == want.tobytes()


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
