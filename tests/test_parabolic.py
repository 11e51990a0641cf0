"""Flow integration, cusp-constant relaxation, restricted ODE, decay bounds."""

import dataclasses
import decimal
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cuspasym import cli, parabolic, radial
from cuspasym.errors import SolverError
from cuspasym.geometry import ModelMetric
from cuspasym.parabolic import (
    FlowProblem,
    cusp_constant_evolution,
    cusp_constant_rk4,
    decay_certificate,
    fitted_boundary_constant,
    restricted_ode_solution,
    run_flow,
)
from cuspasym.radial import (
    RadialField,
    RadialGrid,
    dirichlet_bands,
    laplacian_coefficients,
    solve_tridiagonal,
)

GRID = RadialGrid(-40.0, math.log(0.5), 512)
GOLDEN = Path(__file__).parent / "golden"


def scaled_cusp(c0: float, grid=GRID) -> ModelMetric:
    kappa = 0.5 * math.log(c0)
    return ModelMetric(conformal=RadialField.constant(grid, kappa))


# ---------------------------------------------------------------------------
# cusp-constant ODE
# ---------------------------------------------------------------------------

def test_cusp_constant_closed_form():
    assert cusp_constant_evolution(2.0, math.log(2.0)) == 1.5
    assert cusp_constant_evolution(1.0, 17.3) == 1.0
    # t = inf is the limit; a NaN or negative t is refused (test_messages.py)
    assert cusp_constant_evolution(5.0, math.inf) == 1.0


def test_cusp_constant_rk4_cross_check():
    for c0, t in ((2.0, math.log(2.0)), (5.0, 3.0)):
        closed = cusp_constant_evolution(c0, t)
        rk4 = cusp_constant_rk4(c0, t, dt=1e-3)
        assert abs(closed - rk4) < 1e-10


def test_cusp_constant_validation():
    with pytest.raises(ValueError):
        cusp_constant_evolution(-1.0, 1.0)
    with pytest.raises(ValueError):
        cusp_constant_rk4(2.0, 1.0, dt=0.0)
    # one RK4 step of size -5 would give 66.375 against the closed form 149.41
    with pytest.raises(ValueError, match="T >= 0"):
        cusp_constant_rk4(2.0, -5.0)
    # no step count covers an infinite T
    with pytest.raises(ValueError, match="T >= 0"):
        cusp_constant_rk4(2.0, float("inf"))


# ---------------------------------------------------------------------------
# restricted zero-dimensional ODE
# ---------------------------------------------------------------------------

def test_restricted_ode_vanishes_for_unit_constants():
    res = restricted_ode_solution([1.0, 1.0], 1.0, dt=1e-2)
    assert np.max(np.abs(res.exact)) == 0.0
    assert np.max(np.abs(res.rk4)) < 1e-14


def test_restricted_ode_mutual_oracle():
    res = restricted_ode_solution([2.0], 1.0, dt=1e-3)
    assert res.max_discrepancy < 1e-8


@pytest.mark.parametrize("c_list", [[2.0], [2.0, 0.5, 1.3], [0.1, 7.5, 1.0, 3.25]])
def test_restricted_source_matches_the_sum_formula_bit_for_bit(c_list):
    # reference: the source as a sum over a generator, e^{-s} taken per term
    source = parabolic._restricted_source(c_list)
    for s in np.linspace(0.0, 12.0, 241).tolist() + [1e-9, 30.0, 800.0]:
        expected = sum(math.log((1.0 + math.exp(-s) * (c - 1.0)) / c) for c in c_list)
        assert source(s) == expected, (c_list, s)


@pytest.mark.parametrize("c_list, T, dt", [
    ([2.0], 1.0, 1e-3), ([2.1, 1.4], 1.0, 1e-3), ([0.1, 7.5, 1.0, 3.25], 1.0, 1e-3),
    ([2.0], 10.0, 5.0), ([0.1, 7.5], 10.0, 5.0), ([0.5, 3.0], 37.0, 0.7)])
def test_restricted_ode_quadrature_matches_adaptive_quad(c_list, T, dt):
    # the exact route against variation of constants by adaptive quadrature,
    # u(t) = e^{-t} int_0^t e^s source(s) ds, one scipy quad call per step time
    from scipy.integrate import quad

    res = restricted_ode_solution(c_list, T, dt)
    source = parabolic._restricted_source(c_list)
    for value, tm in zip(res.exact.tolist(), res.times.tolist()):
        expected, _ = quad(lambda s: math.exp(s - tm) * source(s), 0.0, tm,
                           epsabs=1e-13, epsrel=1e-13, limit=300)
        assert abs(value - expected) <= 1e-13, (tm, value, expected)


def _restricted_exact_decimal(c: float, t: float) -> float:
    """(1 + q) log((1 + q)/c) + q t, q = (c - 1) e^{-t}, at 400 digits: the
    two terms cancel to about 1e-308 of their size when c is near 1.7e308."""
    with decimal.localcontext(decimal.Context(prec=400)):
        c, t = decimal.Decimal(c), decimal.Decimal(t)
        q = (c - 1) * (-t).exp()
        return float((1 + q) * ((1 + q) / c).ln() + q * t)


@pytest.mark.parametrize("c", [1e-15, 1e-6, 0.1, 1 - 1e-6, 1 + 1e-6, 2.0, 7.5,
                               1e3, 1e6, 1e300, 1.7e308])
def test_restricted_ode_exact_route_matches_the_identity_at_400_digits(c):
    times = np.r_[0.0, 1e-300, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0,
                  37.0, 100.0, 300.0, 700.0, 745.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exact = parabolic._restricted_exact([c], times)
    for t, value in zip(times.tolist(), exact.tolist()):
        expected = _restricted_exact_decimal(c, t)
        assert abs(value - expected) <= 1e-13 * (1.0 + abs(expected)), (t, value, expected)


@pytest.mark.parametrize("dt", [1e-3, 0.5])
def test_restricted_ode_returns_for_a_constant_near_zero(dt):
    # c = 1e-6 puts the source's log singularity at t = log(1 - 1e-6), next
    # to t = 0; the exact route does not see it
    for c in (1e-6, 1e-3):
        res = restricted_ode_solution([c], 1.0, dt=dt)
        expected = _restricted_exact_decimal(c, 1.0)
        assert abs(res.final() - expected) <= 1e-13 * (1.0 + abs(expected))
        assert np.all(np.isfinite(res.rk4)) and math.isfinite(res.max_discrepancy)


def test_restricted_ode_refuses_a_constant_whose_c_minus_1_rounds_to_minus_1():
    # RK4's source log((1 + (c - 1)) / c) is log 0 at t = 0 there
    for c in (1e-17, 1e-300, 1e-320):
        with pytest.raises(ValueError, match=f"cusp constant {c} is too small"):
            restricted_ode_solution([2.0, c], 1.0)
    restricted_ode_solution([1.2e-16], 1.0)   # its c - 1 is 2^-53 above -1


def test_restricted_ode_long_time_limit():
    # the source relaxes to -sum(log c_i), and so does the solution
    res = restricted_ode_solution([2.0], 10.0, dt=1e-2)
    assert abs(res.final() + math.log(2.0)) < 0.01


#: (T, dt, steps): T/dt an integer, just off one (2.1/0.3 = 7.000000000000001,
#: 0.3/0.1 = 2.9999999999999996, 0.7/0.1 = 6.999999999999999) and well off one
TIME_GRIDS = [(1.0, 0.01, 100), (2.1, 0.3, 7), (0.3, 0.1, 3), (0.7, 0.1, 7),
              (1.1, 0.1, 11), (3.3, 0.11, 30), (1.0, 0.3, 4), (0.5, 0.07, 8),
              (2.0, 0.025, 80), (1e-3, 7e-6, 143)]


@pytest.mark.parametrize("T, dt, steps", TIME_GRIDS)
def test_restricted_ode_uses_the_one_time_grid(T, dt, steps):
    # the times are k*T/steps with T last, bit for bit linspace's
    expected = np.linspace(0.0, T, steps + 1).tobytes()
    assert restricted_ode_solution([2.0], T, dt=dt).times.tobytes() == expected
    cert = decay_certificate(RadialGrid(-10.0, math.log(0.5), 16), 1.0,
                             lambda x, t: np.ones_like(x), T=T, dt=dt)
    assert cert.times.tobytes() == expected


def test_restricted_ode_rejects_bad_constants():
    with pytest.raises(ValueError):
        restricted_ode_solution([0.0], 1.0)
    with pytest.raises(ValueError):
        restricted_ode_solution([2.0, -1.0], 1.0)


# ---------------------------------------------------------------------------
# background schedule
# ---------------------------------------------------------------------------

def schedule(metric, t):
    density = np.broadcast_to(metric.solver_density(GRID), GRID.n_nodes)
    return parabolic._schedule_values(GRID, density, metric.einstein_defect(GRID), t)[0]


def test_schedule_fixed_for_model_cusp():
    m = ModelMetric(conformal=RadialField.zeros(GRID))
    for t in (0.0, 0.5, 3.7):
        assert np.max(np.abs(schedule(m, t) - 1.0)) < 1e-14


def test_schedule_at_time_zero_is_initial_density():
    assert np.max(np.abs(schedule(scaled_cusp(2.0), 0.0) - 2.0)) < 1e-12


def test_schedule_constant_conformal_formula():
    kappa = 0.3
    m = ModelMetric(conformal=RadialField.constant(GRID, kappa))
    c0 = math.exp(2 * kappa)
    expected = 1.0 + math.exp(-1.0) * (c0 - 1.0)
    assert np.max(np.abs(schedule(m, 1.0) - expected)) < 1e-12


def test_schedule_degeneration_detected():
    # strong oscillation makes the Ricci density positive somewhere, so the
    # late-time schedule -R0 goes negative there
    phi = RadialField.from_function(GRID, lambda x: 1.5 * np.sin(np.log(x)))
    m = ModelMetric(conformal=phi)
    with pytest.raises(SolverError, match="degenerates"):
        schedule(m, 10.0)


# ---------------------------------------------------------------------------
# normalized flow
# ---------------------------------------------------------------------------

def test_flow_fixed_point_model_cusp():
    problem = FlowProblem(ModelMetric(), T=1.0, dt=1e-2, grid=GRID)
    result = run_flow(problem)
    assert np.max(result.sup_u) <= 1e-8
    assert np.all(result.positivity_margin > 0)


def test_flow_extracts_relaxing_boundary_constant():
    c0 = 2.0
    problem = FlowProblem(scaled_cusp(c0), T=0.5, dt=1e-2, output_times=[0.25, 0.5])
    result = run_flow(problem)
    for state in result.states:
        if state.t == 0.0:
            continue
        expected = cusp_constant_evolution(c0, state.t)
        fitted = fitted_boundary_constant(state)
        assert abs(fitted - expected) / expected < 0.01


def test_flow_potential_tracks_restricted_ode():
    c0 = 2.0
    problem = FlowProblem(scaled_cusp(c0), T=0.5, dt=1e-3, output_times=[0.5])
    result = run_flow(problem)
    ode = restricted_ode_solution([c0], 0.5, dt=1e-4)
    final = result.states[-1]
    assert np.max(np.abs(final.u.values - ode.final())) < 5e-4


def test_flow_with_compact_bump_stays_bounded():
    # perturbation supported away from both ends: the deep-cusp restriction
    # is the unperturbed one, whose potential stays at zero
    bump = RadialField.from_function(
        GRID, lambda x: 0.1 * np.exp(-((np.log(x) + 20.0) / 2.0) ** 2))
    problem = FlowProblem(ModelMetric(conformal=bump), T=1.0, dt=1e-2,
                          output_times=[1.0])
    result = run_flow(problem)
    assert np.max(result.sup_u) < 1.0
    assert np.all(result.positivity_margin > 0)
    final = result.states[-1]
    deep = final.u.values[GRID.deepest_indices()]
    assert np.max(np.abs(deep)) < 1e-4


def test_flow_output_times_sampling():
    problem = FlowProblem(ModelMetric(), T=0.2, dt=0.05,
                          output_times=[0.1, 0.2], grid=GRID)
    result = run_flow(problem)
    assert [s.t for s in result.states] == [0.1, 0.2]


@pytest.mark.parametrize("T, dt, steps", TIME_GRIDS)
def test_flow_step_times_are_exact_multiples_of_the_step(T, dt, steps):
    # output times k*T/steps, rounded differently from the step times
    # k*(T/steps); each snapshot reads its step time (0.25, 0.5, 1.0 at T = 1,
    # dt = 0.01)
    expected = np.linspace(0.0, T, steps + 1)
    ks = [steps // 4, steps // 2, steps]
    result = run_flow(FlowProblem(ModelMetric(), T=T, dt=dt, grid=GRID,
                                  output_times=[k * T / steps for k in ks]))
    assert [s.t for s in result.states] == expected[ks].tolist()
    assert all(type(s.t) is float for s in result.states)
    assert result.times.tobytes() == expected.tobytes()


def test_flow_rejects_output_times_off_the_step_grid():
    # T = 1, dt = 0.1 records 0, 0.1, ..., 1: 0.33 and 2 are never reached
    for bad in (0.33, 2.0, -0.1, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=f"output time {bad} "):
            FlowProblem(ModelMetric(), T=1.0, dt=0.1, grid=GRID,
                        output_times=[0.5, bad])
    # the step times themselves, t = 0 included, are accepted
    FlowProblem(ModelMetric(), T=1.0, dt=0.01, grid=GRID, output_times=[0.25, 0.5, 1])
    FlowProblem(ModelMetric(), T=1.0, dt=0.1, grid=GRID, output_times=[0, 0.3, 1.0])


def test_flow_output_times_checked_in_one_pass_over_the_step_times():
    # 10^7 steps; a Python loop over the step times took about 9 s, and
    # an array of them with its comparison temporary peaked at 170 MB
    tracemalloc.start()
    try:
        start = time.perf_counter()
        FlowProblem(ModelMetric(), T=100.0, dt=1e-5, grid=GRID,
                    output_times=[0.5, 50.0, 100.0])
        assert time.perf_counter() - start < 2.0
        assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()


def test_each_output_time_gives_one_state():
    # steps of 1e-11: about 200 step times lie within the 1e-9 tolerance of
    # each output time, and only the nearest is kept
    grid = RadialGrid(-40.0, math.log(0.5), 8)
    result = run_flow(FlowProblem(ModelMetric(), T=2e-8, dt=1e-11, grid=grid,
                                  output_times=[1e-8, 2e-8]))
    assert [s.t for s in result.states] == [1e-8, 2e-8]


def _linear_conformal(n: int) -> ModelMetric:
    grid = RadialGrid(-5.0, -1.0, n)
    return ModelMetric(conformal=RadialField.from_function(grid, lambda x: 0.2 + 0.1 * x))


def test_flow_takes_every_step_shorter_than_1e_minus_12(monkeypatch):
    # 100 steps of 1e-13; an end tolerance of 1e-12 max(1, t) took none of them
    calls, step = [], parabolic._flow_step
    monkeypatch.setattr(parabolic, "_flow_step", lambda *args: calls.append(1) or step(*args))
    result = run_flow(FlowProblem(_linear_conformal(64), T=1e-11, dt=1e-13,
                                  output_times=[1e-11]))
    assert len(calls) == 100 and len(result.times) == 101


def test_flow_records_take_a_fixed_few_bytes_per_step():
    # four numbers a step time in arrays, 32 bytes; a Python tuple of them
    # per step time took about 280
    metric = _linear_conformal(8)
    run_flow(FlowProblem(metric, T=2e-3, dt=1e-3))   # the first run's imports and caches
    problem = FlowProblem(metric, T=2.0, dt=1e-3, output_times=[2.0])
    tracemalloc.start()
    try:
        result = run_flow(problem)
        assert tracemalloc.get_traced_memory()[1] < 100 * 2000
    finally:
        tracemalloc.stop()
    assert result.newton_iterations.dtype == int and result.newton_iterations[1:].min() >= 1
    assert result.newton_iterations[0] == 0 and result.times[-1] == 2.0


def test_time_grid_caps_the_step_count_before_building_it(monkeypatch):
    with pytest.raises(ValueError, match=r"T=1000000.0 with dt=1e-09 takes "
                                         r"1000000000000000 steps, more than the 100000000"):
        FlowProblem(ModelMetric(), T=1e6, dt=1e-9, grid=GRID)
    # at a cap of 10^5 the rejected grid would be 800 kB; nothing near it is built
    monkeypatch.setattr(parabolic, "_MAX_STEPS", 10 ** 5)
    assert parabolic._time_grid(1.0, 1e-5).steps == 10 ** 5
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="takes 100001 steps, more than the 100000"):
            parabolic._time_grid(1.0, 1.0 / 100001)
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()
    with pytest.raises(ValueError, match="takes 200000 steps"):
        cusp_constant_rk4(2.0, 2.0, 1e-5)


def _bump_metric(grid: RadialGrid) -> ModelMetric:
    """The benchmark's flow background: a conformal bump around t = -20."""
    bump = np.exp(-((grid.t + 20.0) / 3.0) ** 2)
    return ModelMetric(conformal=RadialField(grid, 0.2 + 0.1 * bump))


def test_flow_snapshots_equal_runs_that_end_there():
    # the run steps in one reused workspace; each snapshot keeps its own copy
    metric = _bump_metric(RadialGrid(-40.0, math.log(0.5), 2048))
    result = run_flow(FlowProblem(metric, T=1.0, dt=1e-2, output_times=[0.5, 1.0]))
    assert [s.t for s in result.states] == [0.5, 1.0]
    for state in result.states:
        alone = run_flow(FlowProblem(metric, T=state.t, dt=1e-2)).states[-1]
        assert alone.t == state.t
        assert state.u.values.tobytes() == alone.u.values.tobytes()
        assert (state.flow_metric_density.values.tobytes()
                == alone.flow_metric_density.values.tobytes())


@pytest.mark.parametrize("solve", ["monge_ampere", "flow"])
def test_newton_loop_allocates_no_grid_array(monkeypatch, solve):
    # traced peak inside each damped_newton call, below one float64 array of
    # the grid (the loop's only allocations are bool masks of the grid); a
    # flow step allocates only the two it drops, S(t + dt) and its excess
    # over D0
    from cuspasym import elliptic

    module, name = ((elliptic, "damped_newton") if solve == "monge_ampere"
                    else (parabolic, "_flow_step"))
    grid = RadialGrid(-40.0, math.log(0.5), 8192)
    peaks, traced, arrays = [], getattr(module, name), 0 if solve == "monge_ampere" else 2

    def traced_call(*args, **kwargs):
        tracemalloc.start()
        try:
            out = traced(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(module, name, traced_call)
    if solve == "monge_ampere":
        F = RadialField(grid, 1.5 * grid.x)
        report = elliptic.solve_monge_ampere_radial(
            elliptic.MongeAmpereProblem(ModelMetric(), F))[1]
        assert report.iterations > 2
    else:
        result = run_flow(FlowProblem(_bump_metric(grid), T=0.1, dt=0.05))
        assert len(peaks) == sum(result.newton_iterations) == 2
    assert peaks and max(peaks) < 8 * grid.n_nodes * (arrays + 1)


def test_warm_flow_run_takes_few_page_faults():
    # 16384-node arrays are 128 KiB, glibc's default mmap threshold: every
    # such temporary of a Newton iteration used to be mapped and faulted in
    if resource.getrusage(resource.RUSAGE_SELF).ru_minflt == 0:
        pytest.skip("this system reports no minor page faults (ru_minflt)")
    code = """
import math, resource
import numpy as np
from cuspasym.geometry import ModelMetric
from cuspasym.parabolic import FlowProblem, run_flow
from cuspasym.radial import RadialField, RadialGrid
grid = RadialGrid(-40.0, math.log(0.5), 16384)
bump = np.exp(-((grid.t + 20.0) / 3.0) ** 2)
problem = FlowProblem(ModelMetric(conformal=RadialField(grid, 0.2 + 0.1 * bump)),
                      T=1.0, dt=1e-2, output_times=[0.5, 1.0])
run_flow(problem)  # lazy imports and first touches
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_flow(problem)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout.splitlines()[-1])
    assert faults <= 3000, f"{faults} minor page faults in one warm run_flow"


def _refusing_floors_above(monkeypatch, bound: float) -> None:
    """Lower the flow's floor bound, so that its long steps are refused and halved."""
    monkeypatch.setattr(parabolic, "_FLOW_FLOOR_MAX", bound)


def _steep_bump() -> ModelMetric:
    """A conformal bump whose 0.5 steps have rounding floors about 4e-15."""
    bump = RadialField.from_function(
        GRID, lambda x: 0.3 * np.exp(-((np.log(x) + 20.0) / 1.5) ** 2))
    return ModelMetric(conformal=bump)


def test_flow_step_halving_keeps_step_times(monkeypatch):
    # the step is halved and the remainder retried; times stay exact
    metric = _steep_bump()
    with monkeypatch.context() as m:
        _refusing_floors_above(m, 2e-15)
        forced = run_flow(FlowProblem(metric, T=1.0, dt=0.5))
    assert forced.step_rejections > 0
    assert forced.times.tolist() == [0.0, 0.5, 1.0]
    assert [s.t for s in forced.states] == [0.0, 0.5, 1.0]
    # the halved sub-steps land closer to a fine run than one 0.5 step would
    fine = run_flow(FlowProblem(metric, T=1.0, dt=0.01, output_times=[1.0]))
    gap = np.max(np.abs(forced.states[-1].u.values - fine.states[-1].u.values))
    assert gap < 1e-2


def _counting_steps(monkeypatch) -> list:
    """Record 1 for each sub-step ``_flow_step`` accepts, 0 for each it refuses."""
    outcomes, step = [], parabolic._flow_step

    def counting_step(*args):
        try:
            out = step(*args)
        except SolverError:
            outcomes.append(0)
            raise
        outcomes.append(1)
        return out

    monkeypatch.setattr(parabolic, "_flow_step", counting_step)
    return outcomes


def test_flow_newton_iterations_count_every_accepted_sub_step(monkeypatch):
    # one linear solve an accepted sub-step; refused attempts are rejections
    _refusing_floors_above(monkeypatch, 2e-15)
    outcomes = _counting_steps(monkeypatch)
    result = run_flow(FlowProblem(_steep_bump(), T=1.0, dt=0.5))
    assert result.step_rejections == outcomes.count(0) > 0
    assert outcomes.count(1) > len(result.times) - 1   # some step time took sub-steps
    assert int(sum(result.newton_iterations)) == outcomes.count(1)


def _counting_solves(monkeypatch) -> list:
    """Fail any Newton loop, and record each linear solve of the flow: each
    call of its log-density equation's ``solve``."""
    calls, equation = [], parabolic._log_density_equation

    def no_newton(*args, **kwargs):
        raise AssertionError("the flow ran a Newton loop")

    def counted(*args):
        residual, solve, floor, from_laplacian = equation(*args)
        return residual, lambda *a: calls.append(1) or solve(*a), floor, from_laplacian

    assert not hasattr(parabolic, "damped_newton")   # a name bound here would escape the patch
    monkeypatch.setattr(radial, "damped_newton", no_newton)
    monkeypatch.setattr(parabolic, "_log_density_equation", counted)
    return calls


def test_flow_takes_one_linear_solve_a_step(monkeypatch):
    calls = _counting_solves(monkeypatch)
    result = run_flow(_bench_flow(4096, 1e-2))
    assert len(calls) == 100 and result.step_rejections == 0
    assert result.newton_iterations.tolist() == [0] + [1] * 100
    # a refused step pays its solve when the refusal comes after it
    calls.clear()
    _refusing_floors_above(monkeypatch, 2e-15)
    outcomes = _counting_steps(monkeypatch)
    result = run_flow(FlowProblem(_steep_bump(), T=1.0, dt=0.5))
    assert int(sum(result.newton_iterations)) == outcomes.count(1) < len(calls) <= len(outcomes)


def test_flow_problem_is_immutable():
    # output_times = [0.3] set after construction once ran and kept 0 states
    problem = FlowProblem(ModelMetric(), T=1.0, dt=0.1, grid=GRID, output_times=[0.5])
    for f in dataclasses.fields(problem):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(problem, f.name, [0.3])


def test_flow_problem_copies_the_callers_output_times():
    times = [0.1, 0.2]
    problem = FlowProblem(ModelMetric(), T=0.2, dt=0.05, grid=GRID, output_times=times)
    times[:] = [0.3, 0.15]
    assert problem.output_times == (0.1, 0.2)
    assert problem.snapshot_times == (0.1, 0.2)
    assert [s.t for s in run_flow(problem).states] == [0.1, 0.2]


def test_flow_rejects_bad_steps():
    with pytest.raises(ValueError):
        FlowProblem(ModelMetric(), T=0.1, dt=0.2, grid=GRID)
    with pytest.raises(ValueError):
        FlowProblem(ModelMetric(), T=1.0, dt=0.0, grid=GRID)


def test_flow_degenerating_background_raises():
    phi = RadialField.from_function(GRID, lambda x: 1.5 * np.sin(np.log(x)))
    problem = FlowProblem(ModelMetric(conformal=phi), T=8.0, dt=0.05)
    with pytest.raises(SolverError, match="degenerates"):
        run_flow(problem)


def _degenerating_flow(T: float, dt: float) -> FlowProblem:
    """The conformal factor -log x, whose density nears 0 as the flow runs: near the
    end the step's rounding floor grows like dt / (S + Delta v)."""
    grid = RadialGrid(-5.0, -1.0, 256)
    return FlowProblem(ModelMetric(conformal=RadialField(grid, -grid.t)), T=T, dt=dt)


def _checking_floors(monkeypatch) -> list:
    """Record the rounding floor of each accepted step at its new state,
    computed exactly, after checking that the step's cheap bound covers it."""
    floors, step = [], parabolic._flow_step

    def checking_step(u, lap, spare, t, dt, density, combo, problem, work, sup_u):
        v, rho, rho_min, sup_v = out = step(u, lap, spare, t, dt, density, combo, problem,
                                            work, sup_u)
        n, h = len(u), problem.grid.h
        floor = radial._rounding_floor(v, h, dt, 1.0 + dt, -u[1:-1], rho[1:-1], np.empty(n),
                                       np.empty(n))
        stencil = sum(map(abs, laplacian_coefficients(h)))
        bound = np.finfo(float).eps * (dt * stencil * sup_v / rho_min + (1 + dt) * sup_v
                                       + np.abs(u).max())
        assert floor <= bound and rho_min == rho.min() and sup_v == np.abs(v).max()
        floors.append(floor)
        return out

    monkeypatch.setattr(parabolic, "_flow_step", checking_step)
    return floors


def test_flow_refuses_a_floor_stop_above_its_bound(monkeypatch):
    # T = 12 in one step: its floor passes _FLOW_FLOOR_MAX, so the step is
    # halved (3 times) until every accepted step's floor is small
    floors = _checking_floors(monkeypatch)
    result = run_flow(_degenerating_flow(12.0, 12.0))
    assert result.step_rejections == 3 and len(floors) == sum(result.newton_iterations) == 4
    assert 1e-7 < max(floors) <= parabolic._FLOW_FLOOR_MAX


def test_flow_near_degeneration_fails_rather_than_stopping_at_a_large_floor():
    # past t = 16.8 the floors pass the bound at every halving: a named
    # numerical failure, never a result
    with pytest.raises(SolverError, match=r"^flow step to t=16\.8936 refused: the rounding "
                                          r"floor \(bound 1e-06\) is 1\.4\d\de-06 at node 254 "):
        run_flow(_degenerating_flow(27.0, 9.0))


def _bench_flow(n: int, dt: float):
    """The benchmark's flow op on n nodes with step dt."""
    grid = RadialGrid(-40.0, math.log(0.5), n)
    return FlowProblem(_bump_metric(grid), T=1.0, dt=dt, output_times=[0.5, 1.0])


def test_flow_with_long_steps_takes_no_rejection(monkeypatch):
    # dt/h^2 large: the Newton flow stalled above its tolerance and used to
    # be halved 5 times; each step's floor is far below the bound
    floors = _checking_floors(monkeypatch)
    result = run_flow(_bench_flow(16384, 0.5))
    assert result.step_rejections == 0 and result.newton_iterations.tolist() == [0, 1, 1]
    assert max(floors) < 1e-8


def test_bench_flow_takes_about_one_newton_iteration_a_step():
    # one linear solve a step (warm-started Newton took 1.0, from u_n 1.9)
    result = run_flow(_bench_flow(16384, 1e-2))
    assert len(result.times) == 101 and result.step_rejections == 0
    assert result.newton_iterations.tolist() == [0] + [1] * 100


def test_warm_flow_step_takes_its_starts_laplacian_once(monkeypatch):
    # a step's linearization reads u_n's Laplacian from the step before:
    # the run forms one Laplacian a step, of its new state, and one of phi,
    # and each is one interior stencil
    from cuspasym import geometry

    calls = {(parabolic, "unit_laplacian"): [], (geometry, "unit_laplacian"): [],
             (radial, "unit_laplacian_interior"): []}
    for (module, name), seen in calls.items():
        laplacian = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, seen=seen, f=laplacian, **kw: seen.append(1) or f(*args, **kw))
    result = run_flow(_bench_flow(4096, 1e-2))
    assert len(calls[parabolic, "unit_laplacian"]) == sum(result.newton_iterations) == 100
    assert len(calls[geometry, "unit_laplacian"]) == 1
    assert len(calls[radial, "unit_laplacian_interior"]) == 101


def test_flow_step_falls_back_to_u_n_from_a_start_losing_positivity(monkeypatch):
    # a step refused before its solve (S(t + dt) + Delta u_n not positive),
    # after it (S(t + dt) + Delta v) or at its floor leaves u_n, ends
    # included, and its Laplacian as they were, so the halved retry starts
    # from u_n itself
    refusals, step = [], parabolic._flow_step

    def checked_step(u, lap, spare, *args):
        kept = [a.copy() for a in (u, lap[1:-1])]
        try:
            return step(u, lap, spare, *args)
        except SolverError as exc:
            refusals.append(str(exc))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(kept, (u, lap[1:-1])))
            raise

    monkeypatch.setattr(parabolic, "_flow_step", checked_step)
    with pytest.raises(SolverError):
        run_flow(_degenerating_flow(28.0, 28.0))
    for kind in ("before the solve", "after the solve", "rounding floor"):
        assert any(kind in message for message in refusals), kind


def test_flow_step_refused_before_its_solve_names_the_density_and_node():
    # phi = log^2 x on 12 nodes: past t = 10 a step's S(t + dt) + Delta u_n
    # is negative at every halving
    grid = RadialGrid(-4.0, -2.3, 12)
    metric = ModelMetric(conformal=RadialField(grid, grid.t ** 2))
    with pytest.raises(SolverError, match=r"^flow step to t=10\.0585 refused: the evolving "
                                          r"density before the solve has minimum -1\.083e-01 "
                                          r"at node 10 \(x=0\.0859022\)$"):
        run_flow(FlowProblem(metric, T=20.0, dt=20.0))


def test_flow_step_refused_on_its_end_row_is_halved_like_an_interior_one(monkeypatch):
    # phi = -log x on 16 nodes: the one-sided end row of S + Delta v at
    # x = 0.5 turns negative first.  The step owns that test, so the step to
    # t = 20 is halved and retried; the record's own test once failed the
    # flow there outright ("Kahler positivity lost at t=20")
    outcomes = _counting_steps(monkeypatch)
    grid = RadialGrid(-40.0, math.log(0.5), 16)
    metric = ModelMetric(conformal=RadialField(grid, -grid.t))
    with pytest.raises(SolverError, match=r"^flow step to t=19\.279 refused: the evolving "
                                          r"density after the solve has minimum -5\.338e-10 "
                                          r"at node 15 \(x=0\.5\)$"):
        run_flow(FlowProblem(metric, T=40.0, dt=30.0))
    assert outcomes[:2] == [0, 1] and outcomes.count(1) > 1 and outcomes[-1] == 0


def _golden_flow(name: str, dt=None) -> FlowProblem:
    """The flow of the golden case ``name`` (with step dt, if given), every state kept."""
    config = cli.load_config(GOLDEN / f"{name}.cfg", cli.SCHEMAS["flow"])
    grid = cli._grid_from_config(config)
    return FlowProblem(cli._metric_from_config(config, grid), T=config["T"],
                       dt=config["dt"] if dt is None else dt)


#: sup |u(1) - u_ref(1)| at dt = 0.5, 0.1, 0.05 and 0.01, u_ref at dt = 1e-4,
#: as backward Euler with an inner Newton solve gave them
BACKWARD_EULER_ERRORS = {"flow-conformal": (1.3887e-2, 3.4298e-3, 1.7636e-3, 3.5828e-4),
                         "flow-halving": (5.2118e-1, 9.2792e-2, 4.1219e-2, 5.5040e-3)}


@pytest.mark.parametrize("name", list(BACKWARD_EULER_ERRORS))
def test_linearly_implicit_flow_is_as_accurate_as_backward_euler(name):
    def final(dt):
        return run_flow(_golden_flow(name, dt)).states[-1].u.values

    reference = final(1e-4)
    for dt, expected in zip((0.5, 0.1, 0.05, 0.01), BACKWARD_EULER_ERRORS[name]):
        error = np.max(np.abs(final(dt) - reference))
        assert abs(error - expected) <= 0.01 * expected, (dt, error)


@pytest.mark.parametrize("name", ["flow-conformal", "flow-halving", "flow-halving-floor-bound"])
def test_each_state_records_the_schedule_plus_laplacian_of_its_potential(monkeypatch, name):
    # the record reads S and S + Delta u off the last sub-step; where it
    # landed exactly on the step time that is the recomputed density bit for
    # bit, elsewhere S is taken a rounding of t off it
    problem, step, landed = _golden_flow(name), parabolic._flow_step, {0.0}

    def landing_step(u, lap, spare, t, dt, *args):
        out = step(u, lap, spare, t, dt, *args)
        landed.add(t + dt)
        return out

    monkeypatch.setattr(parabolic, "_flow_step", landing_step)
    result = run_flow(problem)
    grid, metric = problem.grid, problem.omega0
    density = np.broadcast_to(metric.solver_density(grid), grid.n_nodes)
    combo = metric.einstein_defect(grid)
    assert [state.t for state in result.states] == result.times.tolist()
    for state, sup_u, margin in zip(result.states, result.sup_u, result.positivity_margin):
        u = state.u.values
        evolving = (parabolic._schedule_values(grid, density, combo, state.t)[0]
                    + radial.unit_laplacian(u, grid.h))
        recorded = state.flow_metric_density.values
        assert state.positivity_margin == margin and sup_u == np.max(np.abs(u))
        if state.t in landed:
            assert recorded.tobytes() == evolving.tobytes()
            assert margin == np.min(evolving)
        else:
            assert np.all(np.abs(recorded - evolving) <= 4 * np.spacing(evolving))
            assert abs(margin - np.min(evolving)) <= 4 * np.spacing(np.min(evolving))
    if name == "flow-halving-floor-bound":
        assert result.step_rejections > 0


def test_flow_forcing_is_the_excess_taken_once(monkeypatch):
    # phi = 1e-3 x: D0 + R0 is O(x^2), so S(t) - D0 rounds to 0 at the deep
    # nodes, where expm1(-t) (D0 + R0) is the forcing
    grid = RadialGrid(-40.0, math.log(0.5), 256)
    metric = ModelMetric(conformal=RadialField(grid, 1e-3 * grid.x))
    density, combo = metric.solver_density(grid), metric.einstein_defect(grid)
    seen, equation = [], parabolic._log_density_equation
    monkeypatch.setattr(parabolic, "_log_density_equation",
                        lambda h, D, S, excess, *args: seen.append(excess.copy())
                        or equation(h, D, S, excess, *args))
    run_flow(FlowProblem(metric, T=0.2, dt=0.1))
    for k, excess in enumerate(seen, start=1):
        expected = math.expm1(-k * 0.1) * combo
        assert excess.tobytes() == expected[1:-1].tobytes()
        deep = grid.deepest_indices()
        assert np.all(expected[deep] != 0) and np.all((density + expected - density)[deep] == 0)


def test_model_metric_flow_stays_exactly_at_zero():
    # every step solves for a zero correction: no step moves u off 0
    result = run_flow(FlowProblem(ModelMetric(), T=1.0, dt=0.1, grid=GRID))
    assert not np.any(result.sup_u) and result.newton_iterations.tolist() == [0] + [1] * 10
    assert all(not np.any(state.u.values) for state in result.states)


def test_tiny_spacing_conformal_flow_fails_with_a_named_error():
    # t_max - t_min = 1e-9: Delta carries 1/h^2 ~ 4e21, and the flow fails
    # on a named numerical error rather than returning
    grid = RadialGrid(-1.000000001, -1.0, 64)
    metric = ModelMetric(conformal=RadialField.constant(grid, 0.2))
    with pytest.raises(SolverError, match=r"^flow step to t=9\.76563e-06 refused: the evolving "
                                          r"density after the solve has minimum .* at node \d+ "):
        run_flow(FlowProblem(metric, T=1.0, dt=0.01, grid=grid))


# ---------------------------------------------------------------------------
# decay certificate
# ---------------------------------------------------------------------------

def _stencil_symbol(h: float, z: float) -> float:
    """P_h(z) = c_sub e^{-zh} + c_diag + c_sup e^{zh}: the centred stencil
    maps x^z to P_h(z) x^z exactly at every interior node."""
    c_sub, c_diag, c_sup = laplacian_coefficients(h)
    return c_sub * math.exp(-z * h) + c_diag + c_sup * math.exp(z * h)


def _barrier_rate(h: float, gamma: float, h_t: float) -> float:
    """-log(q) / h_t, at least 0, q = 1 + h_t (1 - P_h(gamma)) the factor a
    backward-Euler step maps the barrier x^gamma by."""
    return max(0.0, -math.log1p(h_t * (1.0 - _stencil_symbol(h, gamma))) / h_t)


def test_decay_certificate_zero_source():
    cert = decay_certificate(GRID, 1.0, lambda x, t: np.zeros_like(x),
                             T=1.0, dt=1e-2)
    assert cert.sup_ratio == 0.0 and cert.K == 0.0
    # the rate is the barrier's, whatever the source: P_h(1) - 1 ~ h^2/8 > 0
    assert cert.growth_rate == -math.log1p(1e-2 * (1.0 - _stencil_symbol(GRID.h, 1.0))) / 1e-2
    assert cert.growth_rate > 0.0
    # every slice ratio is +0.0, bit for bit: no -0.0 from a signed extreme
    assert cert.slice_ratios.tobytes() == np.zeros(len(cert.times)).tobytes()


def test_decay_certificate_linear_weight_grid_stable():
    g = lambda x, t: np.ones_like(x)
    coarse = decay_certificate(GRID, 1.0, g, T=1.0, dt=1e-2)
    fine = decay_certificate(GRID.refined(), 1.0, g, T=1.0, dt=1e-2)
    assert coarse.sup_ratio < 10.0
    assert abs(fine.sup_ratio - coarse.sup_ratio) / coarse.sup_ratio < 0.02
    # the fitted bound really is a bound
    assert np.all(coarse.slice_ratios <= coarse.K
                  * np.exp(coarse.growth_rate * coarse.times) * (1 + 1e-12))


def test_decay_certificate_quadratic_weight_oscillating_source():
    cert = decay_certificate(GRID, 2.0, lambda x, t: math.sin(t) * np.ones_like(x),
                             T=1.0, dt=1e-2)
    assert math.isfinite(cert.sup_ratio)
    double = decay_certificate(GRID, 2.0,
                               lambda x, t: math.sin(t) * np.ones_like(x),
                               T=2.0, dt=1e-2)
    assert double.sup_ratio <= cert.sup_ratio * math.exp(double.growth_rate * 2.0)


def test_decay_certificate_monotone_in_source():
    g1 = lambda x, t: np.ones_like(x)
    g2 = lambda x, t: 2.0 * np.ones_like(x)
    c1 = decay_certificate(GRID, 1.0, g1, T=1.0, dt=1e-2)
    c2 = decay_certificate(GRID, 1.0, g2, T=1.0, dt=1e-2)
    assert abs(c2.K - 2.0 * c1.K) < 1e-9 * c1.K
    assert abs(c2.growth_rate - c1.growth_rate) < 1e-12


def test_decay_certificate_unconditional_stability():
    # an implicit step stays bounded even with dt comparable to T
    for dt in (0.1, 0.25, 0.5):
        cert = decay_certificate(GRID, 1.0, lambda x, t: np.ones_like(x),
                                 T=5.0, dt=dt)
        assert cert.sup_ratio < 50.0


def _decay_reference(grid, gamma, g, T, steps):
    """Slice ratios of the backward-Euler decay run with one full solve of
    the symmetrized interior system (LAPACK ptsv) per step, in the
    variables y = D u and the arithmetic order decay_certificate uses."""
    from scipy.linalg.lapack import dptsv

    h_t, n = T / steps, grid.n_nodes
    sub, diag, sup = dirichlet_bands(n, grid.h, -h_t, -(1.0 + h_t))
    c_sub, _, c_sup = laplacian_coefficients(grid.h)
    scale = np.exp(0.5 * math.log(c_sup / c_sub) * (np.arange(1, n - 1) - n // 2))
    weight = scale * grid.x[1:-1] ** gamma
    y = np.zeros(n - 2)
    ratios = [0.0]
    for tm in np.linspace(0.0, T, steps + 1)[1:]:
        rhs = h_t * weight * g(grid.x, tm)[1:-1] + y
        y = dptsv(diag[1:-1], -np.sqrt(sub[2:-1] * sup[1:-2]), rhs)[2]
        ratios.append(float(np.max(np.abs(y) / weight)))
    return np.array(ratios)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
def test_decay_certificate_matches_per_step_solves_bit_for_bit(gamma):
    grid = RadialGrid(-40.0, math.log(0.5), 2048)
    g = lambda x, t: (1.0 + math.sin(3.0 * t)) * np.ones_like(x) + x
    cert = decay_certificate(grid, gamma, g, T=1.0, dt=1e-2)
    expected = _decay_reference(grid, gamma, g, 1.0, 100)
    assert cert.slice_ratios.tobytes() == expected.tobytes()


def _unsymmetrized_reference(grid, gamma, g, T, steps):
    """Slice ratios and bound (K, c) of the backward-Euler decay run in u
    itself, one pivoting gtsv solve of the full system per step: c the
    barrier's rate, K the smallest constant with ratios <= K e^{c t}."""
    h_t, x = T / steps, grid.x
    bands = dirichlet_bands(grid.n_nodes, grid.h, -h_t, -(1.0 + h_t))
    times = np.linspace(0.0, T, steps + 1)
    u, ratios = np.zeros(grid.n_nodes), np.zeros(steps + 1)
    for m in range(1, steps + 1):
        rhs = u + h_t * x ** gamma * g(x, times[m])
        rhs[0] = rhs[-1] = 0.0
        u = solve_tridiagonal(*bands, rhs)
        ratios[m] = np.max(np.abs(u[1:-1]) / x[1:-1] ** gamma)
    c = _barrier_rate(grid.h, gamma, h_t)
    return ratios, float(np.max(ratios * np.exp(-c * times))), c


DECAY_SOURCES = {
    "constant": lambda x, t: 1.3 * np.ones_like(x),
    "oscillating": lambda x, t: (1.0 + math.sin(3.0 * t)) * np.ones_like(x) + x,
}


@pytest.mark.parametrize("source", list(DECAY_SOURCES))
@pytest.mark.parametrize("n", [4096, 16384, 65536])
def test_decay_certificate_agrees_with_unsymmetrized_solves(n, source):
    grid, g = RadialGrid(-40.0, math.log(0.5), n), DECAY_SOURCES[source]
    cert = decay_certificate(grid, 1.0, g, T=0.5, dt=1e-2)
    ratios, K, c = _unsymmetrized_reference(grid, 1.0, g, 0.5, 50)
    assert ratios[0] == cert.slice_ratios[0] == 0.0
    assert np.max(np.abs(cert.slice_ratios[1:] / ratios[1:] - 1.0)) <= 1e-9
    assert abs(cert.K / K - 1.0) <= 1e-9
    assert abs(cert.growth_rate - c) <= 1e-9 * max(1.0, c)


@pytest.mark.parametrize("t_min", [-15.0, -40.0])   # h = 2 exactly, h = 39/7
def test_decay_certificate_needs_spacing_below_two(t_min):
    grid = RadialGrid(t_min, -1.0, 8)
    with pytest.raises(ValueError, match=f"h < 2 .*h={grid.h} on 8 nodes"):
        decay_certificate(grid, 1.0, lambda x, t: np.ones_like(x), T=1.0, dt=0.1)


def test_decay_certificate_just_below_spacing_two():
    # D_{j+1}/D_j = sqrt(c_sup/c_sub) = 16.7 here, and still no slice moves
    grid, g = RadialGrid(-14.9, -1.0, 8), DECAY_SOURCES["oscillating"]
    cert = decay_certificate(grid, 0.5, g, T=1.0, dt=0.1)
    ratios, K, _ = _unsymmetrized_reference(grid, 0.5, g, 1.0, 10)
    assert np.max(np.abs(cert.slice_ratios[1:] / ratios[1:] - 1.0)) <= 1e-12
    assert abs(cert.K / K - 1.0) <= 1e-12


def test_decay_certificate_rejects_nonfinite_source():
    g = lambda x, t: np.full_like(x, np.nan if t > 0.5 else 1.0)
    with pytest.raises(ValueError, match="infs or NaNs"):
        decay_certificate(GRID, 1.0, g, T=1.0, dt=0.1)


def test_decay_certificate_rejects_negative_gamma():
    with pytest.raises(ValueError):
        decay_certificate(GRID, -0.5, lambda x, t: np.ones_like(x), T=1.0, dt=0.1)


def test_decay_certificate_takes_ratios_where_the_weight_is_normal():
    # x^20 is subnormal or 0 below about x = e^-35.4: those nodes hold no
    # ratio (dividing by them made sup_ratio and K inf); dt = 0.002 keeps
    # q = 1 + dt (1 - P_h(20)) positive (at dt = 0.1 it is 1 - 25.5)
    cert = decay_certificate(GRID, 20.0, lambda x, t: np.ones_like(x), T=1.0, dt=0.002)
    assert np.all(np.isfinite(cert.slice_ratios)) and np.all(cert.slice_ratios[1:] > 0)
    assert 0 < cert.sup_ratio < math.inf and 0 < cert.K < math.inf
    bound = cert.K * np.exp(cert.growth_rate * cert.times)
    assert np.all(cert.slice_ratios <= bound * (1 + 1e-12))


@pytest.mark.parametrize("source", list(DECAY_SOURCES))
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [4096, 16384, 65536])
def test_decay_certificate_slices_stay_below_the_barrier(n, gamma, source):
    # (1 + h_t - h_t Delta_h) x^gamma = q x^gamma, so the discrete maximum
    # principle puts slice m below K_m = (K_{m-1} + h_t sup|g(., t_m)|) / q
    grid, g = RadialGrid(-40.0, math.log(0.5), n), DECAY_SOURCES[source]
    cert = decay_certificate(grid, gamma, g, T=1.0, dt=1e-2)
    h_t = 1e-2
    q = 1.0 + h_t * (1.0 - _stencil_symbol(grid.h, gamma))
    barrier = np.zeros(len(cert.times))
    for m in range(1, len(cert.times)):
        sup_g = np.max(np.abs(g(grid.x, cert.times[m])[1:-1]))
        barrier[m] = (barrier[m - 1] + h_t * sup_g) / q
    assert np.all(cert.slice_ratios <= barrier * (1 + 1e-9))
    assert cert.growth_rate == pytest.approx(_barrier_rate(grid.h, gamma, h_t), rel=1e-12)
    assert np.all(cert.slice_ratios <= cert.K * np.exp(cert.growth_rate * cert.times)
                  * (1 + 1e-12))


def test_decay_certificate_weight_underflowing_everywhere_names_gamma():
    with pytest.raises(ValueError, match="gamma=2000"):
        decay_certificate(GRID, 2000.0, lambda x, t: np.ones_like(x), T=1.0, dt=0.1)
