"""Normalized Ricci-flow potential equation and linear parabolic harness.

The background schedule interpolates between the initial Kahler form and
the negative of its Ricci form,

    omega_t = -Ric(omega_0) + e^{-t} (omega_0 + Ric(omega_0)),

so in radial densities relative to the unit model, S(t) = D0 + expm1(-t)
(D0 + R0) with D0 the initial density and R0 the Ricci density.  The
potential then evolves by

    du/dt = log((S(t) + Delta u) / D0) - u,      u(0) = 0,

where Delta u is the density contribution of the Hessian term, and is
stepped by backward Euler with an inner Newton solve (the log nonlinearity
is stiff near positivity loss; first-order accuracy in time suffices for
the fixed-point and boundary-constant checks this module exists for).
Boundary values at both ends follow the zero-dimensional restriction

    dv/dt = log(S(t, x_end) / D0(x_end)) - v,

integrated by the same backward-Euler rule so that spatially constant
initial data stays exactly spatially constant, with no artificial boundary
layer polluting the density extraction.

The deepest-boundary constant of the evolving metric relaxes as
c_t = 1 + e^{-t} (c_0 - 1); the driven cusp constant obeys dc/dt = 1 - c
with the same closed form.

The inner Newton loop (``damped_newton``) and the band layout of the
backward-Euler matrices (``dirichlet_bands``) live in ``radial``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SolverError
from .fitting import _lsq_slope
from .geometry import ModelMetric
from .radial import (
    RadialField,
    RadialGrid,
    damped_newton,
    dirichlet_bands,
    solve_tridiagonal,
    unit_laplacian,
    unit_laplacian_interior,
)


# ---------------------------------------------------------------------------
# Cusp-constant ODE
# ---------------------------------------------------------------------------

def cusp_constant_evolution(c0: float, t: float) -> float:
    """Closed-form relaxation 1 + e^{-t} (c0 - 1) of dc/dt = 1 - c."""
    if c0 <= 0:
        raise ValueError(f"cusp constant must be positive, got {c0}")
    return 1.0 + math.exp(-t) * (c0 - 1.0)


def cusp_constant_rk4(c0: float, t: float, dt: float = 1e-3) -> float:
    """Generic RK4 integration of dc/dt = 1 - c, for cross-checking."""
    if c0 <= 0:
        raise ValueError(f"cusp constant must be positive, got {c0}")
    times, h = _rk4_times(t, dt)
    return float(_rk4(lambda s, c: 1.0 - c, c0, times, h)[-1])


def _rk4_times(T: float, dt: float) -> tuple[np.ndarray, float]:
    """Sample times 0..T in max(1, ceil(T/dt)) equal steps, and the step."""
    if T < 0 or dt <= 0:
        raise ValueError(f"need T >= 0 and dt > 0, got T={T}, dt={dt}")
    steps = max(1, int(math.ceil(T / dt)))
    return np.linspace(0.0, T, steps + 1), T / steps


def _rk4(f: Callable[[float, float], float], y0: float, times: np.ndarray,
         h: float) -> np.ndarray:
    """Classical RK4 for dy/dt = f(t, y) with step h from times[m] to
    times[m + 1]; returns y at every sample time."""
    out = np.empty(len(times))
    out[0] = y = y0
    for m in range(len(times) - 1):
        tm = times[m]
        k1 = f(tm, y)
        k2 = f(tm + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(tm + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(tm + h, y + h * k3)
        y += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[m + 1] = y
    return out


# ---------------------------------------------------------------------------
# Zero-dimensional restricted ODE
# ---------------------------------------------------------------------------

@dataclass
class RestrictedOdeResult:
    times: np.ndarray
    quadrature: np.ndarray     # e^{-t} int_0^t e^s source(s) ds per time
    rk4: np.ndarray
    max_discrepancy: float

    def final(self) -> float:
        return float(self.quadrature[-1])


def _restricted_source(c_list: Sequence[float]) -> Callable[[float], float]:
    def source(s: float) -> float:
        return sum(math.log((1.0 + math.exp(-s) * (c - 1.0)) / c) for c in c_list)
    return source


def restricted_ode_solution(c_list: Sequence[float], T: float,
                            dt: float = 1e-3) -> RestrictedOdeResult:
    """du/dt = -u + sum_i log((1 + e^{-t}(c_i - 1)) / c_i), u(0) = 0.

    Solved two independent ways: adaptive quadrature of the
    variation-of-constants integral e^{-t} int_0^t e^s source(s) ds, and an
    RK4 trajectory with step dt.  The two act as mutual oracles; their
    maximum discrepancy over the sample times is reported.  As t -> infty
    the solution tends to -sum_i log c_i, the equilibrium of the source.
    """
    from scipy.integrate import quad  # no CLI command reaches this

    c_list = [float(c) for c in c_list]
    if any(c <= 0 for c in c_list):
        raise ValueError(f"all cusp constants must be positive, got {c_list}")
    times, h = _rk4_times(T, dt)
    source = _restricted_source(c_list)
    rk4 = _rk4(lambda s, u: -u + source(s), 0.0, times, h)

    quadrature = np.zeros(len(times))
    for m, tm in enumerate(times[1:], start=1):
        integral, _ = quad(lambda s: math.exp(s - tm) * source(s), 0.0, tm,
                           epsabs=1e-13, epsrel=1e-13, limit=300)
        quadrature[m] = integral

    max_disc = float(np.max(np.abs(quadrature - rk4)))
    return RestrictedOdeResult(times=times, quadrature=quadrature, rk4=rk4,
                               max_discrepancy=max_disc)


# ---------------------------------------------------------------------------
# Flow background schedule
# ---------------------------------------------------------------------------

def _schedule_data(omega0: ModelMetric, grid: RadialGrid):
    """D0 and the combination D0 + R0, the latter formed stably so that the
    unperturbed cusp gives exactly zero."""
    density = omega0.density(grid)
    phi = omega0.phi_values(grid)
    lap_phi = unit_laplacian(phi, grid.h)
    log_base = 0.5 * math.log(omega0.a * omega0.b)
    # D0 + R0 = sqrt(ab) e^{2 phi} - 1 - 2 Delta(phi), with the leading
    # cancellation done by expm1
    combo = np.expm1(2.0 * phi + log_base) - 2.0 * lap_phi
    return density, combo


def omega_t_schedule(omega0: ModelMetric, t: float,
                     grid: Optional[RadialGrid] = None) -> RadialField:
    """Density of the flow background at time t relative to the unit model.

    S(t) = D0 + expm1(-t) (D0 + R0); for the unperturbed cusp D0 + R0 = 0
    and the schedule is constant in t.  A schedule reaching zero anywhere
    means the background degenerates and is an error.
    """
    grid = omega0._resolve_grid(grid)
    density, combo = _schedule_data(omega0, grid)
    return RadialField(grid, _schedule_values(grid, density, combo, t))


def _schedule_values(grid: RadialGrid, density: np.ndarray, combo: np.ndarray,
                     t: float) -> np.ndarray:
    """S(t) = D0 + expm1(-t) (D0 + R0); an error where it is not positive."""
    values = density + math.expm1(-t) * combo
    if np.any(values <= 0):
        j = int(np.argmax(values <= 0))
        raise SolverError(
            f"flow background degenerates at t={t:.6g}, node {j} "
            f"(x={grid.x[j]:.6g})")
    return values


# ---------------------------------------------------------------------------
# Normalized flow for the potential
# ---------------------------------------------------------------------------

@dataclass
class FlowProblem:
    omega0: ModelMetric
    T: float
    dt: float
    grid: Optional[RadialGrid] = None
    output_times: Optional[Sequence[float]] = None
    dt_min_factor: float = 2.0 ** -10
    newton_tol: float = 1e-12
    newton_max_iter: int = 30

    def __post_init__(self):
        if self.dt <= 0 or self.T < self.dt:
            raise ValueError(f"need 0 < dt <= T, got dt={self.dt}, T={self.T}")
        self.grid = self.omega0._resolve_grid(self.grid)
        _, times = _step_times(self.T, self.dt)
        for ot in self.output_times if self.output_times is not None else ():
            if not any(_hits(t, ot) for t in times):
                raise ValueError(f"output time {ot} is not a step time "
                                 f"k*T/{len(times) - 1} in [0, {self.T}] (dt={self.dt})")


@dataclass
class FlowState:
    t: float
    u: RadialField
    flow_metric_density: RadialField   # S(t) + Delta u, the evolving metric
    positivity_margin: float           # min of the evolving density


@dataclass
class FlowResult:
    """One entry per step time (t = 0 first); states at output times only."""
    states: list[FlowState]
    times: np.ndarray
    sup_u: np.ndarray
    positivity_margin: np.ndarray
    newton_iterations: np.ndarray
    newton_residuals: np.ndarray       # accepted residual per step time
    step_rejections: int


def _step_count(T: float, dt: float) -> int:
    """Number of steps of about dt covering T: round(T/dt) when that lands
    on T to within 1e-9 relative, ceil(T/dt) otherwise."""
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * T:
        steps = int(math.ceil(T / dt))
    return steps


def _step_times(T: float, dt: float) -> tuple[float, list[float]]:
    """The nominal step T/steps and the times run_flow records: 0, then
    the running sum of that step."""
    steps = _step_count(T, dt)
    dt_nominal = T / steps
    return dt_nominal, list(accumulate(repeat(dt_nominal, steps), initial=0.0))


def _hits(t: float, output_time: float) -> bool:
    """Whether step time t serves output_time, to 1e-9 relative."""
    return abs(t - output_time) <= 1e-9 * max(1.0, abs(output_time))


def fitted_boundary_constant(state: FlowState, fraction: float = 0.1) -> float:
    """Average of the evolving metric density over the deepest nodes.

    The boundary constant is the x -> 0 limit of the density; averaging the
    deepest tenth of the grid suppresses the O(x) contamination.
    """
    sl = state.u.grid.deepest_indices(fraction)
    return float(np.mean(state.flow_metric_density.values[sl]))


def run_flow(problem: FlowProblem) -> FlowResult:
    """Backward-Euler integration of the normalized potential flow.

    Each step solves the implicit equation with an inner damped Newton
    iteration, maintains positivity of the evolving density S + Delta u,
    and falls back to halving the step on failure (an error below
    dt * dt_min_factor).  Boundary values at both ends follow the
    backward-Euler restriction of the flow to the endpoints.
    """
    grid = problem.grid
    density, combo = _schedule_data(problem.omega0, grid)
    dt_nominal, step_times = _step_times(problem.T, problem.dt)
    u, bc, t = np.zeros(grid.n_nodes), np.zeros(2), 0.0
    iters, res_accept, rejections = 0, 0.0, 0
    states: list[FlowState] = []
    records = []   # (t, sup|u|, margin, Newton iterations, residual) per step time
    for target in step_times:
        while t < target - 1e-12 * max(1.0, target):
            dt_loc = min(dt_nominal, target - t)
            while True:
                try:
                    u_new, bc_new, iters, res_accept = _flow_step(
                        u, bc, t, dt_loc, density, combo, problem)
                    break
                except SolverError:
                    rejections += 1
                    dt_loc /= 2.0
                    if dt_loc < problem.dt * problem.dt_min_factor:
                        raise
            u, bc = u_new, bc_new
            t += dt_loc
        t = target
        evolving = _schedule_values(grid, density, combo, t) + unit_laplacian(u, grid.h)
        margin = float(np.min(evolving))
        if margin <= 0:
            raise SolverError(f"Kahler positivity lost at t={t:.6g}: margin {margin:.3e}")
        records.append((t, float(np.max(np.abs(u))), margin, iters, res_accept))
        if problem.output_times is None or any(_hits(t, ot) for ot in problem.output_times):
            states.append(FlowState(t, RadialField(grid, u),
                                    RadialField(grid, evolving), margin))

    times, sup_u, margins, newton_iters, residuals = map(np.asarray, zip(*records))
    return FlowResult(states, times, sup_u, margins, newton_iters, residuals, rejections)


def _flow_step(u, bc, t, dt, density, combo, problem: FlowProblem):
    """One backward-Euler step of the potential flow; returns the new
    potential, new boundary pair, Newton iteration count and the accepted
    residual."""
    n, h = len(u), problem.grid.h
    t_next = t + dt
    S_next = _schedule_values(problem.grid, density, combo, t_next)
    s_minus_d0 = S_next - density

    # backward-Euler update of the endpoint restriction
    bc_new = np.empty(2)
    for pos, j in ((0, 0), (1, n - 1)):
        src = math.log1p(s_minus_d0[j] / density[j])
        bc_new[pos] = (bc[pos] + dt * src) / (1.0 + dt)

    def residual(v: np.ndarray):
        lap = unit_laplacian_interior(v, h)
        r = np.empty(n)
        r[0] = v[0] - bc_new[0]
        r[-1] = v[-1] - bc_new[1]
        arg = S_next[1:-1] + lap[1:-1]
        if np.any(arg <= 0):
            return r, lap, False
        r[1:-1] = ((1.0 + dt) * v[1:-1] - u[1:-1]
                   - dt * np.log1p((s_minus_d0[1:-1] + lap[1:-1]) / density[1:-1]))
        return r, lap, True

    def jacobian_bands(lap: np.ndarray):
        # (1 + dt) - dt / (S + Delta u) * Delta
        return dirichlet_bands(n, h, -dt / (S_next[1:-1] + lap[1:-1]), -(1.0 + dt))

    v, _, iters, residuals, _ = damped_newton(
        residual, jacobian_bands, u.copy(), problem.newton_tol,
        problem.newton_max_iter, 2.0 ** -30, f"flow Newton (t={t_next:.6g})")
    return v, bc_new, iters, residuals[-1]


# ---------------------------------------------------------------------------
# Linear parabolic decay certificate
# ---------------------------------------------------------------------------

@dataclass
class DecayCertificate:
    gamma: float
    times: np.ndarray
    slice_ratios: np.ndarray     # sup |u| / x^gamma per time slice
    sup_ratio: float
    K: float
    growth_rate: float           # fitted c in the bound K e^{c t}

    def bound_at(self, t: float) -> float:
        return self.K * math.exp(self.growth_rate * t)


def decay_certificate(grid: RadialGrid, gamma: float,
                      g: Callable[[np.ndarray, float], np.ndarray],
                      T: float, dt: float) -> DecayCertificate:
    """Empirical barrier bound for du/dt = Delta u - u + x^gamma g(x, t).

    Integrates the linear equation by backward Euler (banded solves, zero
    Dirichlet data, u(0) = 0) and reports, per time slice, the sup over
    interior nodes of |u| / x^gamma, together with fitted constants K and c
    such that every slice ratio is below K e^{c t}.
    """
    if gamma < 0:
        raise ValueError(f"decay weight gamma must be >= 0, got {gamma}")
    if dt <= 0 or T < dt:
        raise ValueError(f"need 0 < dt <= T, got dt={dt}, T={T}")
    n, h = grid.n_nodes, grid.h
    x = grid.x
    steps = _step_count(T, dt)
    h_t = T / steps

    # backward-Euler matrix (1 + h_t) - h_t * Delta with Dirichlet rows
    sub, diag, sup = dirichlet_bands(n, h, -h_t, -(1.0 + h_t))

    u = np.zeros(n)
    times = np.linspace(0.0, T, steps + 1)
    ratios = np.zeros(steps + 1)
    weight = x[1:-1] ** gamma
    for m in range(1, steps + 1):
        tm = times[m]
        rhs = u + h_t * (x ** gamma) * np.asarray(g(x, tm), dtype=float)
        rhs[0] = 0.0
        rhs[-1] = 0.0
        u = solve_tridiagonal(sub, diag, sup, rhs)
        ratios[m] = float(np.max(np.abs(u[1:-1]) / weight))

    positive = ratios > 0
    if not np.any(positive):
        return DecayCertificate(gamma, times, ratios, 0.0, 0.0, 0.0)
    # fit c from the later half of the positive slices, then the smallest
    # K making K e^{c t} a true bound
    idx = np.where(positive)[0]
    tail = idx[idx >= idx[0] + (idx[-1] - idx[0]) // 2]
    if len(tail) >= 2:
        slope = _lsq_slope(times[tail], np.log(ratios[tail]))
        c_fit = max(0.0, float(slope))
    else:
        c_fit = 0.0
    K = float(np.max(ratios * np.exp(-c_fit * times)))
    return DecayCertificate(gamma, times, ratios, float(np.max(ratios)), K, c_fit)
