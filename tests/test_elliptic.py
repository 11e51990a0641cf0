"""Linear and Monge-Ampere solves: manufactured solutions, maximum
principle, Newton behavior."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from cuspasym import radial
from cuspasym.elliptic import (
    LinearProblem,
    MongeAmpereProblem,
    NewtonParams,
    solve_linear,
    solve_monge_ampere_radial,
)
from cuspasym.errors import SolverError
from cuspasym.fitting import detect_log_term
from cuspasym.geometry import ModelMetric
from cuspasym.radial import RadialField, RadialGrid

GRID = RadialGrid(-12.0, math.log(0.5), 1024)
UNIT = ModelMetric()


def linear_manufactured(grid, n=None):
    # (Delta - 1)(x log x) = (3/2) x
    g = grid if n is None else RadialGrid(grid.t_min, grid.t_max, n)
    f = RadialField.from_function(g, lambda x: 1.5 * x)
    u_true = g.x * np.log(g.x)
    problem = LinearProblem(UNIT, 1.0, f, bc_left=u_true[0], bc_right=u_true[-1])
    return problem, u_true, g


def ma_manufactured(grid, n=None):
    # u* = x^2 gives F = log(1 + 3 x^2) - x^2
    g = grid if n is None else RadialGrid(grid.t_min, grid.t_max, n)
    F = RadialField.from_function(g, lambda x: np.log1p(3 * x ** 2) - x ** 2)
    u_true = g.x ** 2
    problem = MongeAmpereProblem(UNIT, F, bc_left=u_true[0], bc_right=u_true[-1])
    return problem, u_true, g


def test_linear_manufactured_x_log_x():
    problem, u_true, g = linear_manufactured(GRID)
    u = solve_linear(problem)
    assert np.max(np.abs(u.values - u_true)) < 5 * g.h ** 2


def test_linear_zero_data_gives_zero():
    problem = LinearProblem(UNIT, 1.0, RadialField.zeros(GRID))
    u = solve_linear(problem)
    assert np.max(np.abs(u.values)) == 0.0


def _stencil_symbol(h: float, z: float) -> float:
    """P_h(z) = c_sub e^{-zh} + c_diag + c_sup e^{zh}: the centred stencil
    maps x^z to P_h(z) x^z exactly at every interior node."""
    c_sub, c_diag, c_sup = radial.laplacian_coefficients(h)
    return c_sub * math.exp(-z * h) + c_diag + c_sup * math.exp(z * h)


#: (z, lambda, nodes) where P_h(z) - lambda rounds to 0 on the default span:
#: -2 is an indicial root of Delta - 1, so x^-2/(P_h(-2) - 1) has no value
_AT_A_ROOT = {(-2.0, 1.0, 16384), (-2.0, 1.0, 65536)}


@pytest.mark.parametrize("n", [16, 64, 256, 1024, 4096, 16384, 65536])
@pytest.mark.parametrize("lam", [0.0, 1.0, 3.7])
@pytest.mark.parametrize("z", [0.5, 1.0, 2.0, -2.0])
def test_linear_solve_matches_its_exact_discrete_solution(z, lam, n):
    # u = x^z/(P_h(z) - lambda), with its own Dirichlet data, solves
    # (Delta_h - lambda) u = x^z exactly: only rounding separates the solve
    # (at most 2.4e-10 relative, at 65536 nodes)
    if (z, lam, n) in _AT_A_ROOT:
        pytest.skip("P_h(-2) - 1 rounds to 0: -2 is the indicial root of Delta - 1")
    grid = RadialGrid(radial.DEFAULT_GRID.t_min, radial.DEFAULT_GRID.t_max, n)
    exact = grid.x ** z / (_stencil_symbol(grid.h, z) - lam)
    u = solve_linear(LinearProblem(UNIT, lam, RadialField(grid, grid.x ** z),
                                   bc_left=exact[0], bc_right=exact[-1]))
    assert np.max(np.abs(u.values - exact)) <= 1e-9 * np.max(np.abs(exact))


def test_linear_manufactured_x_squared():
    # (Delta - 1)(x^2) = 2 x^2
    f = RadialField.from_function(GRID, lambda x: 2.0 * x ** 2)
    u_true = GRID.x ** 2
    problem = LinearProblem(UNIT, 1.0, f, bc_left=u_true[0], bc_right=u_true[-1])
    u = solve_linear(problem)
    assert np.max(np.abs(u.values - u_true)) < 5 * GRID.h ** 2


def test_linear_rejects_negative_lambda():
    with pytest.raises(ValueError, match="lambda"):
        LinearProblem(UNIT, -1.0, RadialField.zeros(GRID))


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_linear_rejects_non_finite_lambda(lam):
    # once let through to the solve, whose finiteness check named no key
    with pytest.raises(ValueError, match=rf"^lambda must be finite and >= 0, got {lam}$"):
        LinearProblem(UNIT, lam, RadialField.zeros(GRID))


@pytest.mark.parametrize("problem", [
    LinearProblem(UNIT, 1.0, RadialField.zeros(GRID)),
    MongeAmpereProblem(UNIT, RadialField.zeros(GRID)),
], ids=["linear", "monge-ampere"])
def test_problems_are_immutable(problem):
    # lam = -3 set after construction once solved silently (sup 2.7e8)
    for f in dataclasses.fields(problem):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(problem, f.name, -3.0)


def test_problems_reject_a_field_off_the_metric_grid():
    metric = ModelMetric(conformal=RadialField.zeros(GRID))
    other = RadialField.zeros(RadialGrid(GRID.t_min, GRID.t_max, 512))
    with pytest.raises(ValueError, match="grid"):
        LinearProblem(metric, 1.0, other)
    with pytest.raises(ValueError, match="grid"):
        MongeAmpereProblem(metric, other)


@pytest.mark.parametrize("bcs", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_problems_reject_non_finite_boundary_data(bcs):
    f = RadialField.zeros(GRID)
    with pytest.raises(ValueError, match="bc_left and bc_right"):
        LinearProblem(UNIT, 1.0, f, *bcs)
    with pytest.raises(ValueError, match="bc_left and bc_right"):
        MongeAmpereProblem(UNIT, f, *bcs)


def test_discrete_maximum_principle():
    # lambda = 1, f <= 0, zero Dirichlet data => u >= 0 at every node
    rng = np.random.default_rng(20250808)
    for _ in range(5):
        coef = rng.uniform(0.1, 2.0)
        f = RadialField.from_function(GRID, lambda x: -coef * x)
        u = solve_linear(LinearProblem(UNIT, 1.0, f))
        assert np.min(u.values) >= -1e-13 * np.max(np.abs(u.values))
    bump = RadialField.from_function(
        GRID, lambda x: -np.exp(-((np.log(x) + 5.0) / 0.7) ** 2))
    u = solve_linear(LinearProblem(UNIT, 1.0, bump))
    assert np.min(u.values) >= -1e-13 * np.max(np.abs(u.values))
    assert u.values[0] == 0.0 and u.values[-1] == 0.0


def test_linear_convergence_order():
    errors = []
    for n in (256, 512, 1024):
        problem, u_true, g = linear_manufactured(GRID, n)
        u = solve_linear(problem)
        errors.append(np.max(np.abs(u.values - u_true)))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert all(1.5 <= o <= 2.5 for o in orders)


def test_boundary_sensitivity_decays_into_interior():
    # perturbing the deep Dirichlet value by eps changes the interior by at
    # most eps * (x_left / x): the decaying homogeneous mode is x^{-2}
    problem, _, g = linear_manufactured(GRID)
    base = solve_linear(problem)
    eps = 1e-3
    perturbed = solve_linear(LinearProblem(UNIT, 1.0, problem.rhs,
                                           problem.bc_left + eps,
                                           problem.bc_right))
    change = np.abs(perturbed.values - base.values)
    bound = 1.01 * eps * (g.x_min / g.x)
    assert np.all(change <= bound)


def test_ma_zero_source_fixed_point():
    problem = MongeAmpereProblem(UNIT, RadialField.zeros(GRID))
    u, report = solve_monge_ampere_radial(problem)
    assert np.max(np.abs(u.values)) == 0.0
    assert report.converged and report.iterations == 0


def test_ma_manufactured_x_squared():
    problem, u_true, g = ma_manufactured(GRID)
    u, report = solve_monge_ampere_radial(problem)
    assert report.converged
    assert np.max(np.abs(u.values - u_true)) < 5 * g.h ** 2
    assert report.min_kahler > 0.0


def test_ma_convergence_order():
    errors = []
    for n in (256, 512, 1024):
        problem, u_true, g = ma_manufactured(GRID, n)
        u, _ = solve_monge_ampere_radial(problem)
        errors.append(np.max(np.abs(u.values - u_true)))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert all(1.5 <= o <= 2.5 for o in orders)


def test_ma_residual_decreases_and_tail_is_quadratic():
    F = RadialField.from_function(GRID, lambda x: 1.5 * x + 0.2 * x ** 2)
    _, report = solve_monge_ampere_radial(MongeAmpereProblem(UNIT, F))
    res = report.residuals
    assert all(b < a for a, b in zip(res, res[1:]))
    # quadratic contraction above the roundoff floor: r_{k+1} <= 10 r_k^2
    quadratic_pairs = [(a, b) for a, b in zip(res, res[1:])
                       if 1e-6 < a < 1e-2]
    assert quadratic_pairs
    assert all(b <= 10 * a ** 2 for a, b in quadratic_pairs)


def test_ma_kahler_positivity_at_solution():
    F = RadialField.from_function(GRID, lambda x: -0.5 + 0.0 * x)
    u, report = solve_monge_ampere_radial(MongeAmpereProblem(UNIT, F))
    assert report.min_kahler > 0.0
    assert report.converged


def test_ma_nonconvergence_reports_residual():
    F = RadialField.from_function(GRID, lambda x: 1.5 * x)
    params = NewtonParams(max_iter=1, tol=1e-30)
    with pytest.raises(SolverError, match="residual"):
        solve_monge_ampere_radial(MongeAmpereProblem(UNIT, F, newton=params))


def _ma_on(n, a, **kwargs):
    grid = RadialGrid(-40.0, math.log(0.5), n)
    return solve_monge_ampere_radial(
        MongeAmpereProblem(UNIT, RadialField(grid, a * grid.x), **kwargs))


@pytest.mark.parametrize("a", [0.5, 1.5, 3.0, 4.5])
@pytest.mark.parametrize("n", [2048, 4096, 16384, 32768, 65536, 2 ** 18])
def test_ma_converges_to_its_rounding_floor_on_every_grid(n, a):
    # from 32768 nodes up, and at 16384 from F = 3x up, tol = 1e-11 lies
    # below the rounding floor of a residual holding 1/h^2: these solves
    # once iterated in the noise and failed on the damping floor
    u, report = _ma_on(n, a)
    tol = NewtonParams().tol
    assert report.converged and report.iterations == len(report.residuals) - 1
    if report.residual_floor is None:
        assert report.final_residual <= tol
    else:
        assert tol < report.final_residual <= 4 * report.residual_floor
    assert abs(detect_log_term(u).value / (2 * a / 3) - 1) < 1.5e-3


def test_ma_start_within_tol_takes_a_step_unless_at_its_floor():
    # F = 1e-12 x: the start u = 0 has residual 5e-13, within tol = 1e-11
    # but far above its rounding floor, so Newton takes a step (it once
    # returned u = 0 after 0 iterations); the zero source stays at 0
    u, report = _ma_on(4096, 1e-12)
    assert report.residuals[0] <= NewtonParams().tol and report.iterations == 1
    assert report.residual_floor is None and np.any(u.values)


@pytest.mark.parametrize("n, a", [(32768, 1.5), (65536, 1.0)])
def test_ma_floor_is_at_least_its_stencil_term(n, a):
    # the floor once held only the stencil term eps max_j sum_k |c_k u_{j+k}|
    # / (D (1 + Delta_g u))_j; it gains eps (|u_j| + |F_j|), which the
    # residual rounds too, and no more
    u, report = _ma_on(n, a)
    assert report.residual_floor is not None
    grid, v, h = u.grid, u.values, u.grid.h
    density = UNIT.solver_density(grid)
    rho = (radial.unit_laplacian_interior(v, h)[1:-1] / density + 1.0) * density
    stencil = sum(abs(c) * np.abs(v[k:k + n - 2])
                  for k, c in enumerate(radial.laplacian_coefficients(h)))
    eps = np.finfo(float).eps
    stencil_term = eps * float(np.max(stencil / rho))
    extra = eps * float(np.max(np.abs(v[1:-1]) + a * grid.x[1:-1]))
    assert stencil_term < report.residual_floor <= stencil_term + extra


#: the README's 4096-node configs and the benchmark's 4096- and 16384-node
#: MA inputs (amplitudes jittered by up to 2%)
CONTRACTING = sorted({(4096, 1.0), (4096, 1.5),
                      *((4096, a * j) for a in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
                        for j in (0.98, 1.0, 1.02)),
                      *((16384, a * j) for a in (0.5, 0.75, 1.0, 1.25) for j in (0.98, 1.0, 1.02))})


def test_contracting_solves_keep_their_newton_history(monkeypatch):
    def run():
        out = []
        for n, a in CONTRACTING:
            u, report = _ma_on(n, a)
            assert getattr(report, "residual_floor", None) is None
            out.append((report.residuals, report.damping_events, u.values.tobytes()))
        return out

    floor_aware = run()
    monkeypatch.setattr(radial, "_FLOOR_FACTOR", 0.0, raising=False)   # no floor is reached
    assert floor_aware == run()


def test_overflowing_newton_trials_warn_nothing():
    # every trial step overflows the stencil; such a trial is a rejection,
    # and once leaked two RuntimeWarnings before the same failure
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=r"damping floor reached at iteration 1; "
                                              r"last residual 1\.000e\+308"):
            _ma_on(256, 1.5, bc_left=-1e308)


def test_linear_solve_with_scaled_metric():
    # density 2 halves the Laplacian: roots of (1/4)(z^2+z) = 1 are
    # z = (-1 +- sqrt(17))/2, so x log x is no longer special; use a
    # manufactured profile instead
    metric = ModelMetric(a=4.0, b=1.0)
    u_star = GRID.x ** 2
    # (Delta_g - 1)(x^2) with Delta_g = Delta/2: (3/2 - 1) x^2 = x^2 / 2
    f = RadialField(GRID, 0.5 * GRID.x ** 2)
    problem = LinearProblem(metric, 1.0, f, bc_left=u_star[0], bc_right=u_star[-1])
    u = solve_linear(problem)
    assert np.max(np.abs(u.values - u_star)) < 5 * GRID.h ** 2


def test_independent_solves_run_concurrently():
    from concurrent.futures import ThreadPoolExecutor

    def solve_one(coef):
        problem, u_true, g = linear_manufactured(GRID)
        scaled = LinearProblem(UNIT, 1.0,
                               RadialField(g, coef * problem.rhs.values),
                               coef * problem.bc_left, coef * problem.bc_right)
        return solve_linear(scaled).values

    coefs = [0.5, 1.0, 2.0, 3.0]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(solve_one, coefs))
    serial = [solve_one(c) for c in coefs]
    for p, s in zip(parallel, serial):
        assert np.array_equal(p, s)
