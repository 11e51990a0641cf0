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
    NewtonWorkspace,
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
    density, combo = parabolic._schedule_data(metric, GRID)
    return parabolic._schedule_values(GRID, density, combo, t)


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
    # six numbers a step time in arrays, 48 bytes; a Python tuple of them
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
    assert result.newton_iterations.dtype == int and result.newton_iterations[1:].min() >= 0
    assert math.isnan(result.newton_floors[0]) and result.times[-1] == 2.0


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
    # the grid (the loop's only allocations are bool masks of the grid)
    from cuspasym import elliptic

    module = elliptic if solve == "monge_ampere" else parabolic
    grid = RadialGrid(-40.0, math.log(0.5), 8192)
    peaks, newton = [], module.damped_newton

    def traced_newton(*args, **kwargs):
        tracemalloc.start()
        try:
            out = newton(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(module, "damped_newton", traced_newton)
    if solve == "monge_ampere":
        F = RadialField(grid, 1.5 * grid.x)
        report = elliptic.solve_monge_ampere_radial(
            elliptic.MongeAmpereProblem(ModelMetric(), F))[1]
        assert report.iterations > 2
    else:
        result = run_flow(FlowProblem(_bump_metric(grid), T=0.1, dt=0.05))
        assert sum(result.newton_iterations) > 2
    assert peaks and max(peaks) < 8 * grid.n_nodes


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


def _steep_bump() -> ModelMetric:
    """A conformal bump that two Newton iterations cannot cross in a 0.5
    step, so such a flow halves its steps."""
    bump = RadialField.from_function(
        GRID, lambda x: 0.3 * np.exp(-((np.log(x) + 20.0) / 1.5) ** 2))
    return ModelMetric(conformal=bump)


def _newton_max_iter(monkeypatch, max_iter: int) -> None:
    monkeypatch.setattr(parabolic, "_FLOW_NEWTON",
                        dataclasses.replace(parabolic._FLOW_NEWTON, max_iter=max_iter))


def test_flow_step_halving_keeps_step_times(monkeypatch):
    # the step is halved and the remainder retried; times stay exact
    metric = _steep_bump()
    with monkeypatch.context() as m:
        _newton_max_iter(m, 2)
        forced = run_flow(FlowProblem(metric, T=1.0, dt=0.5))
    assert forced.step_rejections > 0
    assert forced.times.tolist() == [0.0, 0.5, 1.0]
    assert [s.t for s in forced.states] == [0.0, 0.5, 1.0]
    # the halved sub-steps land closer to a fine run than one 0.5 step would
    fine = run_flow(FlowProblem(metric, T=1.0, dt=0.01, output_times=[1.0]))
    gap = np.max(np.abs(forced.states[-1].u.values - fine.states[-1].u.values))
    assert gap < 1e-2


def test_flow_newton_iterations_count_every_accepted_sub_step(monkeypatch):
    accepted, newton = [], parabolic.damped_newton

    def counting_newton(*args, **kwargs):
        out = newton(*args, **kwargs)
        accepted.append(out[2])
        return out

    monkeypatch.setattr(parabolic, "damped_newton", counting_newton)
    _newton_max_iter(monkeypatch, 2)
    result = run_flow(FlowProblem(_steep_bump(), T=1.0, dt=0.5))
    assert result.step_rejections > 0
    assert len(accepted) > len(result.times) - 1   # some step time took sub-steps
    assert int(sum(result.newton_iterations)) == sum(accepted)


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


def test_flow_newton_damping_floor_reports_residual(monkeypatch):
    # tol 5e-324, the least positive float, with the rounding-floor stop
    # switched off (_FLOOR_FACTOR 0), leaves the inner Newton stalled until
    # the step is halved below 2^-30; _DT_MIN_FACTOR 1 forbids any step retry
    grid = RadialGrid(-40.0, math.log(0.5), 64)
    metric = ModelMetric(conformal=RadialField.from_function(grid, lambda x: 0.3 + 0.2 * x))
    monkeypatch.setattr(parabolic, "_FLOW_NEWTON",
                        dataclasses.replace(parabolic._FLOW_NEWTON, tol=5e-324))
    monkeypatch.setattr(radial, "_FLOOR_FACTOR", 0.0)
    monkeypatch.setattr(parabolic, "_DT_MIN_FACTOR", 1.0)
    problem = FlowProblem(metric, T=0.1, dt=0.1, grid=grid)
    with pytest.raises(SolverError, match="damping floor") as info:
        run_flow(problem)
    assert "residual" in str(info.value) and "t=0.1" in str(info.value)


def test_flow_newton_stops_at_its_rounding_floor(monkeypatch):
    # the same stall with the floor in place: every step stops at the floor
    grid = RadialGrid(-40.0, math.log(0.5), 64)
    metric = ModelMetric(conformal=RadialField.from_function(grid, lambda x: 0.3 + 0.2 * x))
    monkeypatch.setattr(parabolic, "_FLOW_NEWTON",
                        dataclasses.replace(parabolic._FLOW_NEWTON, tol=5e-324))
    monkeypatch.setattr(parabolic, "_DT_MIN_FACTOR", 1.0)
    result = run_flow(FlowProblem(metric, T=0.2, dt=0.1, grid=grid))
    assert result.step_rejections == 0
    assert np.isnan(result.newton_floors).tolist() == [True, False, False]
    floors = result.newton_floors[1:]
    assert np.all((floors > 0) & (result.newton_residuals[1:] <= radial._FLOOR_FACTOR * floors))


def _degenerating_flow(T: float, dt: float) -> FlowProblem:
    """The conformal factor -log x, whose density nears 0 as the flow runs: near the
    end the step's rounding floor grows like dt / (S + Delta v)."""
    grid = RadialGrid(-5.0, -1.0, 256)
    return FlowProblem(ModelMetric(conformal=RadialField(grid, -grid.t)), T=T, dt=dt)


def test_flow_refuses_a_floor_stop_above_its_bound():
    # T = 12 in one step: its floor passes _FLOW_FLOOR_MAX, so the step is
    # halved (3 times) until the floor it stops at is small
    result = run_flow(_degenerating_flow(12.0, 12.0))
    assert result.step_rejections > 0
    floors = result.newton_floors[~np.isnan(result.newton_floors)]
    assert np.all(floors <= parabolic._FLOW_FLOOR_MAX)
    assert result.newton_residuals.max() <= radial._FLOOR_FACTOR * parabolic._FLOW_FLOOR_MAX


def test_flow_near_degeneration_fails_rather_than_stopping_at_a_large_floor():
    # past t = 17 the floors run to 2e-3 and 64 (residuals up to 33): a
    # named numerical failure, never a result
    with pytest.raises(SolverError, match="damping floor reached"):
        run_flow(_degenerating_flow(27.0, 9.0))


def _bench_flow(n: int, dt: float):
    """The benchmark's flow op on n nodes with step dt."""
    grid = RadialGrid(-40.0, math.log(0.5), n)
    return FlowProblem(_bump_metric(grid), T=1.0, dt=dt, output_times=[0.5, 1.0])


def test_flow_with_long_steps_takes_no_rejection():
    # dt/h^2 large: the inner Newton stalls above tol = 1e-12 and used to be
    # halved 5 times; now it stops at its floor
    result = run_flow(_bench_flow(16384, 0.5))
    assert result.step_rejections == 0
    assert not np.isnan(result.newton_floors).all()
    assert result.newton_residuals.max() > parabolic._FLOW_NEWTON.tol


def test_bench_flow_takes_about_one_newton_iteration_a_step():
    # started from the extrapolated state (191 iterations from u_n)
    result = run_flow(_bench_flow(16384, 1e-2))
    assert len(result.times) == 101 and result.step_rejections == 0
    assert int(result.newton_iterations.sum()) <= 110


def _steps_of(problem: FlowProblem):
    """One step of the problem's flow as a function of (u, start, bc, t)."""
    density, combo = parabolic._schedule_data(problem.omega0, problem.grid)
    work = NewtonWorkspace.for_thread(problem.grid.n_nodes)
    return lambda u, start, bc, t: parabolic._flow_step(u, start, bc, t, problem.dt, density,
                                                        combo, problem, work)


def test_flow_step_from_the_extrapolated_start_matches_the_cold_start():
    problem = _bench_flow(16384, 0.5)
    step = _steps_of(problem)
    u0 = np.zeros(problem.grid.n_nodes)
    v, bc, *_ = step(u0, None, np.zeros(2), 0.0)
    u1 = v.copy()
    v, _, cold_iters, _, cold_floor, *_ = step(u1, None, bc, 0.5)
    cold = v.copy()
    v, _, warm_iters, _, warm_floor, *_ = step(u1, u1 + (u1 - u0), bc, 0.5)
    assert cold_floor is not None and warm_floor is not None   # both stopped at the floor
    assert warm_iters < cold_iters
    assert np.max(np.abs(v - cold)) <= 4 * min(cold_floor, warm_floor)


def test_warm_flow_step_takes_its_starts_laplacian_once(monkeypatch):
    # the start's positivity is the residual's answer: no separate check
    # takes the start's Laplacian a second time
    problem = _bench_flow(4096, 1e-2)
    step = _steps_of(problem)
    u0 = np.zeros(problem.grid.n_nodes)
    u1 = step(u0, None, np.zeros(2), 0.0)[0].copy()
    start, laplacian, calls = 2.0 * u1 - u0, radial.unit_laplacian_interior, []

    def counting(values, *args, **kwargs):
        calls.append(np.array_equal(values, start))
        return laplacian(values, *args, **kwargs)

    monkeypatch.setattr(radial, "unit_laplacian_interior", counting)
    step(u1, start, np.zeros(2), 0.01)
    assert calls.count(True) == 1 and len(calls) >= 2


def test_flow_step_falls_back_to_u_n_from_a_start_losing_positivity():
    problem = _bench_flow(4096, 1e-2)
    step = _steps_of(problem)
    u1 = step(np.zeros(problem.grid.n_nodes), None, np.zeros(2), 0.0)[0].copy()
    v, _, *cold_stop, _, _ = step(u1, None, np.zeros(2), 0.01)   # iterations, residual, floor
    cold = v.copy()
    spoiled = u1.copy()
    spoiled[1::2] += 1e3   # Delta of the spike train is about -1e3/h^2 on its nodes
    v, _, *stop, _, _ = step(u1, spoiled, np.zeros(2), 0.01)
    assert v.tobytes() == cold.tobytes() and stop == cold_stop


def test_flow_start_losing_positivity_counts_no_rejection(monkeypatch):
    # every extrapolated start spoiled: the run is the one started from u_n
    # at every step, bit for bit, with no rejection
    problem, step, spoiled = _bench_flow(4096, 1e-2), parabolic._flow_step, []

    def spoiling_step(u, start, *args):
        if start is not None:
            start[1::2] += 1e3
            spoiled.append(1)
        return step(u, start, *args)

    def cold_step(u, start, *args):
        return step(u, None, *args)

    monkeypatch.setattr(parabolic, "_flow_step", spoiling_step)
    result = run_flow(problem)
    monkeypatch.setattr(parabolic, "_flow_step", cold_step)
    cold = run_flow(problem)
    assert len(spoiled) == 99 and result.step_rejections == cold.step_rejections == 0
    assert result.newton_iterations.tolist() == cold.newton_iterations.tolist()
    for state, cold_state in zip(result.states, cold.states):
        assert state.u.values.tobytes() == cold_state.u.values.tobytes()


def _golden_flow(name: str) -> FlowProblem:
    """The flow of the golden case ``name``, every state kept."""
    config = cli.load_config(GOLDEN / f"{name}.cfg", cli.SCHEMAS["flow"])
    grid = cli._grid_from_config(config)
    return FlowProblem(cli._metric_from_config(config, grid), T=config["T"], dt=config["dt"])


@pytest.mark.parametrize("name", ["flow-conformal", "flow-halving", "flow-halving-floor-bound"])
def test_each_state_records_the_schedule_plus_laplacian_of_its_potential(monkeypatch, name):
    # the record reads S and S + Delta u off the accepted Newton iterate; where
    # the last sub-step landed exactly on the step time that is the recomputed
    # density bit for bit, elsewhere S is taken a rounding of t off it
    problem, step, landed = _golden_flow(name), parabolic._flow_step, {0.0}

    def landing_step(u, start, bc, t, dt, *args):
        out = step(u, start, bc, t, dt, *args)
        landed.add(t + dt)
        return out

    monkeypatch.setattr(parabolic, "_flow_step", landing_step)
    result = run_flow(problem)
    grid, (density, combo) = problem.grid, parabolic._schedule_data(problem.omega0, problem.grid)
    assert [state.t for state in result.states] == result.times.tolist()
    for state, sup_u, margin in zip(result.states, result.sup_u, result.positivity_margin):
        u = state.u.values
        evolving = (parabolic._schedule_values(grid, density, combo, state.t)
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


def test_model_metric_flow_stays_exactly_at_zero():
    # the extrapolation of zeros is zero: no step moves u off 0
    result = run_flow(FlowProblem(ModelMetric(), T=1.0, dt=0.1, grid=GRID))
    assert not np.any(result.sup_u) and not np.any(result.newton_iterations)
    assert all(not np.any(state.u.values) for state in result.states)


def test_tiny_spacing_conformal_flow_fails_with_a_named_error():
    # t_max - t_min = 1e-9: Delta carries 1/h^2 ~ 4e21, and the flow fails
    # on a named numerical error rather than returning
    grid = RadialGrid(-1.000000001, -1.0, 64)
    metric = ModelMetric(conformal=RadialField.constant(grid, 0.2))
    with pytest.raises(SolverError, match="damping floor reached"):
        run_flow(FlowProblem(metric, T=1.0, dt=0.01, grid=grid))


# ---------------------------------------------------------------------------
# decay certificate
# ---------------------------------------------------------------------------

def test_decay_certificate_zero_source():
    cert = decay_certificate(GRID, 1.0, lambda x, t: np.zeros_like(x),
                             T=1.0, dt=1e-2)
    assert cert.sup_ratio == 0.0 and cert.K == 0.0 and cert.growth_rate == 0.0


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
    itself, one pivoting gtsv solve of the full system per step."""
    h_t, x = T / steps, grid.x
    bands = dirichlet_bands(grid.n_nodes, grid.h, -h_t, -(1.0 + h_t))
    times = np.linspace(0.0, T, steps + 1)
    u, ratios = np.zeros(grid.n_nodes), np.zeros(steps + 1)
    for m in range(1, steps + 1):
        rhs = u + h_t * x ** gamma * g(x, times[m])
        rhs[0] = rhs[-1] = 0.0
        u = solve_tridiagonal(*bands, rhs)
        ratios[m] = np.max(np.abs(u[1:-1]) / x[1:-1] ** gamma)
    idx = np.flatnonzero(ratios > 0)
    tail = idx[idx >= idx[0] + (idx[-1] - idx[0]) // 2]
    c = max(0.0, np.polyfit(times[tail], np.log(ratios[tail]), 1)[0])
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
    # ratio (dividing by them made sup_ratio and K inf)
    cert = decay_certificate(GRID, 20.0, lambda x, t: np.ones_like(x), T=1.0, dt=0.1)
    assert np.all(np.isfinite(cert.slice_ratios)) and np.all(cert.slice_ratios[1:] > 0)
    assert 0 < cert.sup_ratio < math.inf and 0 < cert.K < math.inf
    bound = cert.K * np.exp(cert.growth_rate * cert.times)
    assert np.all(cert.slice_ratios <= bound * (1 + 1e-12))


def test_decay_certificate_weight_underflowing_everywhere_names_gamma():
    with pytest.raises(ValueError, match="gamma=2000"):
        decay_certificate(GRID, 2000.0, lambda x, t: np.ones_like(x), T=1.0, dt=0.1)
