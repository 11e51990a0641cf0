"""Flow integration, cusp-constant relaxation, restricted ODE, decay bounds."""

import math

import numpy as np
import pytest

from cuspasym.errors import SolverError
from cuspasym.geometry import ModelMetric
from cuspasym.parabolic import (
    FlowProblem,
    cusp_constant_evolution,
    cusp_constant_rk4,
    decay_certificate,
    fitted_boundary_constant,
    omega_t_schedule,
    restricted_ode_solution,
    run_flow,
)
from cuspasym.radial import RadialField, RadialGrid

GRID = RadialGrid(-40.0, math.log(0.5), 512)


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


# ---------------------------------------------------------------------------
# restricted zero-dimensional ODE
# ---------------------------------------------------------------------------

def test_restricted_ode_vanishes_for_unit_constants():
    res = restricted_ode_solution([1.0, 1.0], 1.0, dt=1e-2)
    assert np.max(np.abs(res.quadrature)) == 0.0
    assert np.max(np.abs(res.rk4)) < 1e-14


def test_restricted_ode_mutual_oracle():
    res = restricted_ode_solution([2.0], 1.0, dt=1e-3)
    assert res.max_discrepancy < 1e-8


def test_restricted_ode_long_time_limit():
    # the source relaxes to -sum(log c_i), and so does the solution
    res = restricted_ode_solution([2.0], 10.0, dt=1e-2)
    assert abs(res.final() + math.log(2.0)) < 0.01


def test_restricted_ode_rejects_bad_constants():
    with pytest.raises(ValueError):
        restricted_ode_solution([0.0], 1.0)
    with pytest.raises(ValueError):
        restricted_ode_solution([2.0, -1.0], 1.0)


# ---------------------------------------------------------------------------
# background schedule
# ---------------------------------------------------------------------------

def test_schedule_fixed_for_model_cusp():
    m = ModelMetric(conformal=RadialField.zeros(GRID))
    for t in (0.0, 0.5, 3.7):
        s = omega_t_schedule(m, t)
        assert np.max(np.abs(s.values - 1.0)) < 1e-14


def test_schedule_at_time_zero_is_initial_density():
    m = scaled_cusp(2.0)
    s0 = omega_t_schedule(m, 0.0)
    assert np.max(np.abs(s0.values - 2.0)) < 1e-12


def test_schedule_constant_conformal_formula():
    kappa = 0.3
    m = ModelMetric(conformal=RadialField.constant(GRID, kappa))
    c0 = math.exp(2 * kappa)
    s1 = omega_t_schedule(m, 1.0)
    expected = 1.0 + math.exp(-1.0) * (c0 - 1.0)
    assert np.max(np.abs(s1.values - expected)) < 1e-12


def test_schedule_degeneration_detected():
    # strong oscillation makes the Ricci density positive somewhere, so the
    # late-time schedule -R0 goes negative there
    phi = RadialField.from_function(GRID, lambda x: 1.5 * np.sin(np.log(x)))
    m = ModelMetric(conformal=phi)
    with pytest.raises(SolverError, match="degenerates"):
        omega_t_schedule(m, 10.0)


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
    deep = final.u.values[GRID.deepest_indices(0.1)]
    assert np.max(np.abs(deep)) < 1e-4


def test_flow_output_times_sampling():
    problem = FlowProblem(ModelMetric(), T=0.2, dt=0.05,
                          output_times=[0.1, 0.2], grid=GRID)
    result = run_flow(problem)
    assert [round(s.t, 10) for s in result.states] == [0.1, 0.2]


def test_flow_rejects_output_times_off_the_step_grid():
    # T = 1, dt = 0.1 records 0, 0.1, ..., 1: 0.33 and 2 are never reached
    for bad in (0.33, 2.0, -0.1):
        with pytest.raises(ValueError, match=f"output time {bad} "):
            FlowProblem(ModelMetric(), T=1.0, dt=0.1, grid=GRID,
                        output_times=[0.5, bad])
    # the step times themselves, t = 0 included, are accepted
    FlowProblem(ModelMetric(), T=1.0, dt=0.01, grid=GRID, output_times=[0.25, 0.5, 1])
    FlowProblem(ModelMetric(), T=1.0, dt=0.1, grid=GRID, output_times=[0, 0.3, 1.0])


def test_flow_step_halving_keeps_step_times():
    # two Newton iterations cannot take a 0.5 step over the bump, so the
    # step is halved and the remainder retried; times stay exact
    bump = RadialField.from_function(
        GRID, lambda x: 0.3 * np.exp(-((np.log(x) + 20.0) / 1.5) ** 2))
    metric = ModelMetric(conformal=bump)
    forced = run_flow(FlowProblem(metric, T=1.0, dt=0.5, newton_max_iter=2))
    assert forced.step_rejections > 0
    assert forced.times.tolist() == [0.0, 0.5, 1.0]
    assert [s.t for s in forced.states] == [0.0, 0.5, 1.0]
    # the halved sub-steps land closer to a fine run than one 0.5 step would
    fine = run_flow(FlowProblem(metric, T=1.0, dt=0.01, output_times=[1.0]))
    gap = np.max(np.abs(forced.states[-1].u.values - fine.states[-1].u.values))
    assert gap < 1e-2


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


def test_flow_newton_damping_floor_reports_residual():
    # tol 0 leaves the inner Newton stalled at the rounding floor until the
    # step is halved below 2^-30; dt_min_factor 1 forbids any step retry
    grid = RadialGrid(-40.0, math.log(0.5), 64)
    metric = ModelMetric(conformal=RadialField.from_function(grid, lambda x: 0.3 + 0.2 * x))
    problem = FlowProblem(metric, T=0.1, dt=0.1, grid=grid, newton_tol=0.0,
                          dt_min_factor=1.0)
    with pytest.raises(SolverError, match="damping floor") as info:
        run_flow(problem)
    assert "residual" in str(info.value) and "t=0.1" in str(info.value)


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


def test_decay_certificate_rejects_negative_gamma():
    with pytest.raises(ValueError):
        decay_certificate(GRID, -0.5, lambda x, t: np.ones_like(x), T=1.0, dt=0.1)
