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
c_t = 1 + e^{-t} (c_0 - 1), the closed form of dc/dt = 1 - c.  Beside the
flow sit two checks no CLI command runs: the linear decay certificate, on
one symmetric factorization, and the restricted ODE, RK4 against one
vectorized Gauss quadrature.

Every stepper takes its steps from one time grid, ``_time_grid``, a step
count: ``_TimeGrid.time(k)`` is exactly k*T/steps, T itself last, and
``_TimeGrid.step_of`` the step serving an output time.  The Newton loop
(``damped_newton``, set by ``_FLOW_NEWTON``) and the band layout
(``dirichlet_bands``) live in ``radial``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import SolverError
from .fitting import _lsq_slope
from .geometry import ModelMetric
from .radial import (
    NewtonParams,
    NewtonWorkspace,
    RadialField,
    RadialGrid,
    damped_newton,
    dirichlet_bands,
    factor_symmetric_tridiagonal,
    laplacian_coefficients,
    unit_laplacian,
    unit_laplacian_interior,
)

#: the inner Newton solve of every backward-Euler step
_FLOW_NEWTON = NewtonParams(max_iter=30, tol=1e-12, damping_min=2.0 ** -30)
#: a step halved below dt * _DT_MIN_FACTOR fails the flow
_DT_MIN_FACTOR = 2.0 ** -10
#: the most steps a time grid may have (see ``_time_grid``)
_MAX_STEPS = 10 ** 8
#: the widest panel and the two Gauss-Legendre orders of the restricted ODE
_PANEL_WIDTH, _GAUSS_ORDERS = 0.125, (8, 16)


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
    return float(_rk4(lambda s, c: 1.0 - c, c0, _time_grid(t, dt))[-1])


class _TimeGrid(NamedTuple):
    """``steps`` steps of h = T/steps from 0 to T."""
    T: float
    steps: int

    @property
    def h(self) -> float:
        return self.T / self.steps

    def time(self, k: int) -> float:
        """The time of step k: k*(T/steps), T itself last; bit for bit
        ``np.linspace(0, T, steps + 1)[k]``."""
        return self.T if k == self.steps else k * (self.T / self.steps)

    def step_of(self, t: float) -> Optional[int]:
        """The nearest step to output time t, if its time is t to 1e-9
        relative; None for a non-finite or unreachable t.  Needs T > 0."""
        if not math.isfinite(t):
            return None
        k = round(min(max(t / self.T * self.steps, 0.0), self.steps))
        return k if abs(self.time(k) - t) <= 1e-9 * max(1.0, abs(t)) else None

    def times(self) -> np.ndarray:
        """Every step time, for the results that report them."""
        return np.fromiter(map(self.time, range(self.steps + 1)), float, self.steps + 1)


def _time_grid(T: float, dt: float) -> _TimeGrid:
    """The one time grid of every stepper here, as a step count: steps is
    round(T/dt) when that lands on T to within 1e-9 relative, ceil(T/dt)
    otherwise, at least 1 and at most ``_MAX_STEPS``.  At 10^8 steps the
    cheapest stepper, the scalar RK4, runs 85 s (0.85 us a step on a 2-vCPU
    shared Xeon) and a flow on 8 nodes about 4 h (140 us a step)."""
    if not (T >= 0 and dt > 0 and math.isfinite(T / dt)):
        raise ValueError(f"need T >= 0, dt > 0 and finite T/dt, got T={T}, dt={dt}")
    steps = round(T / dt)
    if abs(steps * dt - T) > 1e-9 * T:
        steps = math.ceil(T / dt)
    steps = max(1, steps)
    if steps > _MAX_STEPS:
        raise ValueError(f"T={T} with dt={dt} takes {steps} steps, "
                         f"more than the {_MAX_STEPS} a run may take")
    return _TimeGrid(float(T), steps)


def _rk4(f: Callable[[float, float], float], y0: float,
         time_grid: _TimeGrid) -> np.ndarray:
    """Classical RK4 for dy/dt = f(t, y) over ``time_grid``; returns y at
    every step time."""
    h = time_grid.h
    out = np.empty(time_grid.steps + 1)
    out[0] = y = y0
    for m in range(time_grid.steps):
        tm = time_grid.time(m)
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


def _restricted_source(c_list: Sequence[float], xp=math) -> Callable:
    """The source sum_i log((1 + e^{-s}(c_i - 1)) / c_i): for scalar s with
    ``xp = math`` (RK4), for arrays with ``xp = np`` (the quadrature)."""
    pairs = [(c - 1.0, c) for c in c_list]

    def source(s):
        # the terms of sum(...) in its order, from 0, with e^{-s} taken once
        decay = xp.exp(-s)
        total = 0
        for c_minus_1, c in pairs:
            total = total + xp.log((1.0 + decay * c_minus_1) / c)
        return total
    return source


def restricted_ode_solution(c_list: Sequence[float], T: float,
                            dt: float = 1e-3) -> RestrictedOdeResult:
    """du/dt = -u + sum_i log((1 + e^{-t}(c_i - 1)) / c_i), u(0) = 0.

    Solved two independent ways, which act as mutual oracles (their maximum
    discrepancy over the step times is reported): an RK4 trajectory with
    step dt on the scalar source, and the variation-of-constants integral
    I_m = e^{-t_m} int_0^{t_m} e^s source(s) ds by the exact recursion
    I_m = e^{-(t_m - t_{m-1})} I_{m-1} + J_m.  Each J_m, the integral over
    one step, is a composite Gauss rule, vectorized over the steps, on equal
    panels no wider than ``_PANEL_WIDTH``, at both ``_GAUSS_ORDERS``.  Their
    difference, carried by the same recursion, is the error estimate, a
    SolverError above 1e-13 (1 + |I_m|); a c_i near 0 puts a log
    singularity next to t = 0.  As t -> infty u tends to -sum_i log c_i.
    """
    from numpy.polynomial.legendre import leggauss

    c_list = [float(c) for c in c_list]
    if any(c <= 0 for c in c_list):
        raise ValueError(f"all cusp constants must be positive, got {c_list}")
    time_grid = _time_grid(T, dt)
    times = time_grid.times()
    source = _restricted_source(c_list)
    rk4 = _rk4(lambda s, u: -u + source(s), 0.0, time_grid)

    source_at, lengths = _restricted_source(c_list, np), np.diff(times)
    panels = max(1, math.ceil(float(np.max(lengths)) / _PANEL_WIDTH))
    low, high = np.zeros((2, len(lengths)))
    for total, (nodes, weights) in zip((low, high), map(leggauss, _GAUSS_ORDERS)):
        fractions = (np.arange(panels)[:, None] + 0.5 * (nodes + 1.0)) / panels   # of a step
        for f, w in zip(fractions.ravel().tolist(), np.tile(weights, panels).tolist()):
            total += w * np.exp((f - 1.0) * lengths) * source_at(times[:-1] + f * lengths)
    scale = lengths / (2 * panels)
    steps = zip(np.exp(-lengths).tolist(), (high * scale).tolist(),
                (abs(high - low) * scale).tolist())
    quadrature, value, error = np.zeros(len(times)), 0.0, 0.0
    for m, (decay, step, step_error) in enumerate(steps, 1):
        value, error = decay * value + step, decay * error + step_error
        if not error <= 1e-13 * (1.0 + abs(value)):
            raise SolverError(f"restricted-ODE quadrature error estimate {error:.3e} at "
                              f"t={times[m]:.6g} exceeds 1e-13 (1 + |I|)")
        quadrature[m] = value
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

@dataclass(frozen=True)
class FlowProblem:
    """The flow from ``omega0`` on [0, T] in steps of about dt.  The grid,
    the time grid and the steps kept (those of ``output_times``; all when
    None) are resolved once, when it is built."""
    omega0: ModelMetric
    T: float
    dt: float
    grid: Optional[RadialGrid] = None
    output_times: Optional[Sequence[float]] = None
    #: (time grid, steps whose states are kept, None for every step)
    _plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dt <= 0 or self.T < self.dt:
            raise ValueError(f"need 0 < dt <= T, got dt={self.dt}, T={self.T}")
        object.__setattr__(self, "grid", self.omega0._resolve_grid(self.grid))
        time_grid, kept = _time_grid(self.T, self.dt), None
        if self.output_times is not None:
            object.__setattr__(self, "output_times", tuple(self.output_times))
            steps = [time_grid.step_of(ot) for ot in self.output_times]
            if None in steps:
                raise ValueError(f"output time {self.output_times[steps.index(None)]} is not "
                                 f"a step time k*T/{time_grid.steps} in [0, {self.T}] "
                                 f"(dt={self.dt})")
            kept = frozenset(steps)
        object.__setattr__(self, "_plan", (time_grid, kept))

    @property
    def snapshot_times(self) -> tuple[float, ...]:
        """The time of each state ``run_flow`` keeps, ascending."""
        time_grid, kept = self._plan
        steps = range(time_grid.steps + 1) if kept is None else sorted(kept)
        return tuple(map(time_grid.time, steps))


@dataclass
class FlowState:
    t: float
    u: RadialField
    flow_metric_density: RadialField   # S(t) + Delta u, the evolving metric
    positivity_margin: float           # min of the evolving density


@dataclass
class FlowResult:
    """One entry per step time (t = 0 first); states at output times only.

    ``newton_iterations`` sums the iterations of every accepted sub-step
    that reached the step time; attempts rejected by step halving count
    only in ``step_rejections``.
    """
    states: list[FlowState]
    times: np.ndarray
    sup_u: np.ndarray
    positivity_margin: np.ndarray
    newton_iterations: np.ndarray
    newton_residuals: np.ndarray       # residual of the last accepted sub-step
    step_rejections: int


def fitted_boundary_constant(state: FlowState) -> float:
    """Average of the evolving metric density over the deepest nodes.

    The boundary constant is the x -> 0 limit of the density; averaging the
    deepest tenth of the grid suppresses the O(x) contamination.
    """
    sl = state.u.grid.deepest_indices()
    return float(np.mean(state.flow_metric_density.values[sl]))


def run_flow(problem: FlowProblem) -> FlowResult:
    """Backward-Euler integration of the normalized potential flow.

    Each step solves the implicit equation with an inner damped Newton
    iteration, maintains positivity of the evolving density S + Delta u,
    and falls back to halving the step on failure (an error below
    dt * _DT_MIN_FACTOR).  Boundary values at both ends follow the
    backward-Euler restriction of the flow to the endpoints.
    """
    grid = problem.grid
    work = NewtonWorkspace.for_thread(grid.n_nodes)   # every Newton solve of the run
    density, combo = _schedule_data(problem.omega0, grid)
    time_grid, keep = problem._plan
    u, bc, t = np.zeros(grid.n_nodes), np.zeros(2), 0.0
    res_accept, rejections = 0.0, 0
    states: list[FlowState] = []
    records = []   # (t, sup|u|, margin, Newton iterations, residual) per step time
    for k in range(time_grid.steps + 1):
        target = time_grid.time(k)
        iters = 0
        while t < target - 1e-12 * max(1.0, target):
            dt_loc = min(time_grid.h, target - t)
            while True:
                try:
                    u_new, bc_new, step_iters, res_accept = _flow_step(
                        u, bc, t, dt_loc, density, combo, problem, work)
                    break
                except SolverError:
                    rejections += 1
                    dt_loc /= 2.0
                    if dt_loc < problem.dt * _DT_MIN_FACTOR:
                        raise
            np.copyto(u, u_new)
            bc = bc_new
            iters += step_iters
            t += dt_loc
        t = target
        evolving = _schedule_values(grid, density, combo, t) + unit_laplacian(u, grid.h)
        margin = float(np.min(evolving))
        if margin <= 0:
            raise SolverError(f"Kahler positivity lost at t={t:.6g}: margin {margin:.3e}")
        records.append((t, float(np.max(np.abs(u))), margin, iters, res_accept))
        if keep is None or k in keep:
            states.append(FlowState(t, RadialField(grid, u.copy()),
                                    RadialField(grid, evolving), margin))

    times, sup_u, margins, newton_iters, residuals = map(np.asarray, zip(*records))
    return FlowResult(states, times, sup_u, margins, newton_iters, residuals, rejections)


def _flow_step(u, bc, t, dt, density, combo, problem: FlowProblem,
               work: NewtonWorkspace):
    """One backward-Euler step of the potential flow, solved in ``work``;
    returns the new potential (a buffer of ``work``), new boundary pair,
    Newton iteration count and the accepted residual."""
    n, h = len(u), problem.grid.h
    t_next = t + dt
    S_next = _schedule_values(problem.grid, density, combo, t_next)
    s_minus_d0 = S_next - density
    tmp = work.scratch[1:-1]

    # backward-Euler update of the endpoint restriction
    bc_new = np.empty(2)
    for pos, j in ((0, 0), (1, n - 1)):
        src = math.log1p(s_minus_d0[j] / density[j])
        bc_new[pos] = (bc[pos] + dt * src) / (1.0 + dt)

    def residual(v: np.ndarray, r: np.ndarray, lap: np.ndarray) -> bool:
        unit_laplacian_interior(v, h, out=lap, scratch=work.scratch)
        r[0] = v[0] - bc_new[0]
        r[-1] = v[-1] - bc_new[1]
        np.add(S_next[1:-1], lap[1:-1], out=tmp)
        if np.fmin.reduce(tmp) <= 0:   # np.any(tmp <= 0): NaN ignored
            return False
        # (1 + dt) v - u - dt log1p((S - D0 + Delta v) / D0)
        inner = r[1:-1]
        np.add(s_minus_d0[1:-1], lap[1:-1], out=tmp)
        np.divide(tmp, density[1:-1], out=tmp)
        np.log1p(tmp, out=inner)
        np.multiply(dt, inner, out=tmp)
        np.multiply(1.0 + dt, v[1:-1], out=inner)
        np.subtract(inner, u[1:-1], out=inner)
        np.subtract(inner, tmp, out=inner)
        return True

    def jacobian_bands(lap: np.ndarray, out) -> None:
        # (1 + dt) - dt / (S + Delta u) * Delta
        np.add(S_next[1:-1], lap[1:-1], out=tmp)
        np.divide(-dt, tmp, out=tmp)
        dirichlet_bands(n, h, tmp, -(1.0 + dt), out=out)

    v, _, iters, residuals, *_ = damped_newton(
        residual, jacobian_bands, u, _FLOW_NEWTON, f"flow Newton (t={t_next:.6g})", work)
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


def decay_certificate(grid: RadialGrid, gamma: float,
                      g: Callable[[np.ndarray, float], np.ndarray],
                      T: float, dt: float) -> DecayCertificate:
    """Empirical barrier bound for du/dt = Delta u - u + x^gamma g(x, t).

    Integrates the linear equation by backward Euler (zero Dirichlet data,
    u(0) = 0) and reports, per time slice, the sup of |u| / x^gamma over the
    interior nodes where the weight is a normal float (none is a ValueError),
    with fitted constants K and c such that every slice ratio is below K e^{c t}.

    The step matrix (1 + h_t) - h_t Delta has constant coefficients, and
    its interior rows decouple from the zero end rows.  The similarity
    y = D u, D_j = (c_sup/c_sub)^{j/2} relative to the middle node, makes
    them symmetric positive definite: factored once (LAPACK pttrf), solved
    for y at each step (pttrs), with D folded into the forcing and the
    weight D x^gamma.  A spacing h >= 2 (c_sub <= 0, no real D) is an error.
    """
    if gamma < 0:
        raise ValueError(f"decay weight gamma must be >= 0, got {gamma}")
    if dt <= 0 or T < dt:
        raise ValueError(f"need 0 < dt <= T, got dt={dt}, T={T}")
    n, h, x = grid.n_nodes, grid.h, grid.x
    c_sub, c_diag, c_sup = laplacian_coefficients(h)
    if not (c_sub > 0 and 0.25 * math.log(c_sup / c_sub) * n < 700):
        raise ValueError(f"the decay certificate needs a grid spacing h < 2 whose "
                         f"similarity D stays below e^700, got h={h} on {n} nodes")
    time_grid = _time_grid(T, dt)
    h_t, times = time_grid.h, time_grid.times()

    # the interior rows of (1 + h_t) - h_t * Delta by dirichlet_bands' arithmetic
    diag, off = -h_t * c_diag + (1.0 + h_t), -math.sqrt((-h_t * c_sub) * (-h_t * c_sup))
    solve = factor_symmetric_tridiagonal(np.full(n - 2, diag), np.full(n - 3, off))
    weight = np.arange(1 - n // 2, n - 1 - n // 2, dtype=float)   # D x^gamma, in place
    np.exp(np.multiply(0.5 * math.log(c_sup / c_sub), weight, out=weight), out=weight)
    np.multiply(weight, x[1:-1] ** gamma, out=weight)
    if not weight[-1] >= np.finfo(float).tiny:   # the weight grows with x
        raise ValueError(f"decay weight gamma={gamma} makes x^gamma underflow at every node")
    kept = slice(int(np.argmax(weight >= np.finfo(float).tiny)), None)   # normal weights

    y, rhs, ratios = np.zeros(n - 2), np.empty(n - 2), np.zeros(len(times))
    forcing = h_t * weight
    for m in range(1, len(times)):
        np.multiply(forcing, np.asarray(g(x, times[m]), dtype=float)[1:-1], out=rhs)
        np.add(rhs, y, out=rhs)
        y, rhs = solve(rhs), y   # solved in place; the old y is scratch now
        ratio = np.abs(y[kept], out=rhs[kept])
        ratios[m] = float(np.max(np.divide(ratio, weight[kept], out=ratio)))

    idx = np.flatnonzero(ratios > 0)
    if len(idx) == 0:
        return DecayCertificate(gamma, times, ratios, 0.0, 0.0, 0.0)
    # fit c from the later half of the positive slices, then the smallest
    # K making K e^{c t} a true bound
    tail = idx[idx >= idx[0] + (idx[-1] - idx[0]) // 2]
    slope = _lsq_slope(times[tail], np.log(ratios[tail])) if len(tail) >= 2 else 0.0
    c_fit = max(0.0, float(slope))
    K = float(np.max(ratios * np.exp(-c_fit * times)))
    return DecayCertificate(gamma, times, ratios, float(np.max(ratios)), K, c_fit)
