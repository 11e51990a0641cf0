"""Normalized Ricci-flow potential equation and linear parabolic harness.

The background schedule interpolates between the initial Kahler form and
the negative of its Ricci form,

    omega_t = -Ric(omega_0) + e^{-t} (omega_0 + Ric(omega_0)),

so in radial densities relative to the unit model, S(t) = D0 + expm1(-t)
(D0 + R0) with D0 the initial density and R0 the Ricci density, both read
off the metric (``ModelMetric.solver_density`` and ``einstein_defect``).  The
potential then evolves by

    du/dt = log((S(t) + Delta u) / D0) - u,      u(0) = 0,

where Delta u is the density contribution of the Hessian term, and is
stepped by linearly implicit Euler (the one-stage Rosenbrock method: first
order and L-stable like backward Euler, whose equation it solves by one
Newton step from u_n; the log nonlinearity is stiff near positivity loss).
Boundary values at both ends follow the zero-dimensional restriction

    dv/dt = log(S(t, x_end) / D0(x_end)) - v,

the flow with Delta v dropped, stepped by the same rule, so that
spatially constant initial data stays spatially constant, with no
artificial boundary layer polluting the density extraction.

The deepest-boundary constant of the evolving metric relaxes as
c_t = 1 + e^{-t} (c_0 - 1), the closed form of dc/dt = 1 - c.  Beside the
flow sit two checks no CLI command runs: the linear decay certificate, on
one symmetric factorization, and the restricted ODE, RK4 against its
exact solution.

A step is one instance of ``radial``'s log-density equation, stated once
in ``_flow_step``: backward Euler's equation, (1 + dt) v - u_n - dt
log1p((excess + Delta v) / D0) = 0, with (S, excess, D0, alpha, beta,
gamma) = (S(t_{n+1}), expm1(-t_{n+1}) (D0 + R0), D0, 1 + dt, -u_n, dt).
The excess is formed once, never as S - D0, which rounds an O(x) forcing
to 0 at deep nodes.  Inside, the step linearizes it at u_n (one
tridiagonal solve, by LAPACK ptsv on the symmetric positive definite
matrix its Jacobian is similar to by the grid's similarity D); at the two
ends it is the same instance with Delta v dropped, solved exactly.  It
owns the evolving density it reaches, rho = S(t_{n+1}) + Delta v on every
node from one full-grid ``unit_laplacian`` of v, whose interior is the
next step's Delta u_n.  It is refused, and halved, when S(t_{n+1}) +
Delta u_n (inside) or rho (on any node) is not positive, or when the
residual's rounding floor at v passes ``_FLOW_FLOOR_MAX`` (computed only
when a bound from alpha, gamma, sup|v|, min rho and sup|beta| passes it).
``u`` is the flow's only state, its ends the boundary values, and
``run_flow`` only schedules: a step time's record (the evolving density,
its margin and sup|u|) is the last sub-step's rho, min rho and sup|v|.

Every stepper takes its steps from one time grid, ``_time_grid``, a step
count: ``_TimeGrid.time(k)`` is exactly k*T/steps, T itself last, and
``_TimeGrid.step_of`` the step serving an output time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import SolverError
from .geometry import ModelMetric
from .radial import (
    NewtonWorkspace,
    RadialField,
    RadialGrid,
    _log_density_equation,
    factor_symmetric_tridiagonal,
    laplacian_coefficients,
    stencil_symbol,
    unit_laplacian,
)

#: the largest rounding floor a flow step's residual may have at its new
#: state.  The step's Jacobian (1 + dt) I - dt Delta / (S + Delta v) is
#: diagonally dominant by 1 + dt, so such a floor puts v about 1e-6 / (1 + dt)
#: in doubt at most
_FLOW_FLOOR_MAX = 1e-6
#: a step halved below dt * _DT_MIN_FACTOR fails the flow
_DT_MIN_FACTOR = 2.0 ** -10
#: the most steps a time grid may have (see ``_time_grid``)
_MAX_STEPS = 10 ** 8


# ---------------------------------------------------------------------------
# Cusp-constant ODE
# ---------------------------------------------------------------------------

def _cusp_constant(c: float) -> float:
    """c as a float, refused unless it is finite and positive."""
    if not 0 < (c := float(c)) < math.inf:
        raise ValueError(f"cusp constant must be positive and finite, got {c}")
    return c


def cusp_constant_evolution(c0: float, t: float) -> float:
    """Closed-form relaxation 1 + e^{-t} (c0 - 1) of dc/dt = 1 - c, for a
    time t >= 0 (t = inf gives the limit 1.0); a ValueError for a NaN or
    negative t, as :func:`cusp_constant_rk4` refuses it."""
    c0 = _cusp_constant(c0)
    if not t >= 0:
        raise ValueError(f"time t must be >= 0, got {t}")
    return 1.0 + math.exp(-t) * (c0 - 1.0)


def cusp_constant_rk4(c0: float, t: float, dt: float = 1e-3) -> float:
    """Generic RK4 integration of dc/dt = 1 - c, for cross-checking."""
    return float(_rk4(lambda s, c: 1.0 - c, _cusp_constant(c0), _time_grid(t, dt))[-1])


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
    shared Xeon) and a flow on 8 nodes about 2.2 h (80 us a step)."""
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


def _run_grid(T: float, dt: float) -> _TimeGrid:
    """The time grid of a run that takes steps of about dt up to T: 0 < dt <= T."""
    if dt <= 0 or T < dt:
        raise ValueError(f"need 0 < dt <= T, got dt={dt}, T={T}")
    return _time_grid(T, dt)


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
    """The restricted ODE at its step times (``restricted_ode_solution``):
    the closed-form and RK4 solutions and their largest discrepancy."""
    times: np.ndarray
    exact: np.ndarray          # the closed-form solution per time
    rk4: np.ndarray
    max_discrepancy: float

    def final(self) -> float:
        return float(self.exact[-1])


def _restricted_source(c_list: Sequence[float]) -> Callable[[float], float]:
    """The source sum_i log((1 + e^{-s}(c_i - 1)) / c_i) at scalar s."""
    pairs = [(c - 1.0, c) for c in c_list]

    def source(s: float) -> float:
        # the terms of sum(...) in its order, from 0, with e^{-s} taken once
        decay = math.exp(-s)
        total = 0
        for c_minus_1, c in pairs:
            total = total + math.log((1.0 + decay * c_minus_1) / c)
        return total
    return source


def _restricted_exact(c_list: Sequence[float], times: np.ndarray) -> np.ndarray:
    """u(t) = sum_i (1 + q_i) log((1 + q_i) / c_i) + q_i t, q_i = (c_i - 1) e^{-t},
    as sum_i (1 + q_i) L_i - t: L_i = log1p(expm1(t) / c_i) as a logaddexp that
    no c_i overflows, 1 + q_i = c_i e^{-t} - expm1(-t), two terms >= 0."""
    u = np.zeros(len(times))
    rise = -np.expm1(-times)
    with np.errstate(divide="ignore"):      # log expm1(t) is -inf at t = 0
        log_expm1 = times + np.log(rise)
    decay = np.exp(-times)
    for c in c_list:
        if c != 1.0:   # its term is identically 0
            u += (c * decay + rise) * np.logaddexp(0.0, log_expm1 - math.log(c)) - times
    return u


def restricted_ode_solution(c_list: Sequence[float], T: float,
                            dt: float = 1e-3) -> RestrictedOdeResult:
    """du/dt = -u + sum_i log((1 + e^{-t}(c_i - 1)) / c_i), u(0) = 0.

    Solved two independent ways, which act as mutual oracles (their maximum
    discrepancy over the step times is reported): an RK4 trajectory with
    step dt on the scalar source, and the exact solution, within 5e-14 (1 + |u|)
    up to t = 745.  As t -> infty u tends to -sum_i log c_i.  A c_i whose
    c_i - 1 rounds to -1 (below about 5.6e-17) is refused: RK4's source is
    log 0 there at t = 0.
    """
    c_list = list(map(_cusp_constant, c_list))
    for c in c_list:
        if c - 1.0 == -1.0:
            raise ValueError(f"cusp constant {c} is too small for the RK4 route: "
                             f"c - 1 rounds to -1, so its source is log 0 at t = 0")
    time_grid = _time_grid(T, dt)
    times = time_grid.times()
    source = _restricted_source(c_list)
    rk4 = _rk4(lambda s, u: -u + source(s), 0.0, time_grid)
    exact = _restricted_exact(c_list, times)
    max_disc = float(np.max(np.abs(exact - rk4)))
    return RestrictedOdeResult(times=times, exact=exact, rk4=rk4,
                               max_discrepancy=max_disc)


# ---------------------------------------------------------------------------
# Flow background schedule
# ---------------------------------------------------------------------------

def _schedule_values(grid: RadialGrid, density: np.ndarray, combo: np.ndarray,
                     t: float) -> tuple[np.ndarray, np.ndarray]:
    """S(t) = D0 + excess and the excess expm1(-t) (D0 + R0), ``combo`` the
    metric's D0 + R0, taken once so that S - D0 is never formed; an error
    where S is not positive."""
    excess = math.expm1(-t) * combo
    values = density + excess
    if not values.min() > 0:   # np.all(values > 0) in one reduction
        j = int(np.argmax(~(values > 0)))
        raise SolverError(
            f"flow background degenerates at t={t:.6g}, node {j} "
            f"(x={grid.x[j]:.6g})")
    return values, excess


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
        time_grid, kept = _run_grid(self.T, self.dt), None
        object.__setattr__(self, "grid", self.omega0._resolve_grid(self.grid))
        if self.output_times is not None:
            object.__setattr__(self, "output_times", tuple(self.output_times))
            steps = [time_grid.step_of(ot) for ot in self.output_times]
            if None in steps:
                raise ValueError(f"output time {self.output_times[steps.index(None)]} in "
                                 f"output_times is not a step time k*T/{time_grid.steps} "
                                 f"in [0, {self.T}] (dt={self.dt})")
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
    """The flow at one kept step time: the potential, the evolving metric
    density and that density's minimum."""
    t: float
    u: RadialField
    flow_metric_density: RadialField   # S(t) + Delta u, the evolving metric
    positivity_margin: float           # min of the evolving density


@dataclass
class FlowResult:
    """One entry per step time (t = 0 first); states at output times only.

    ``newton_iterations`` counts the linear solves of the accepted sub-steps
    that reached the step time, one each (0 at t = 0); attempts refused and
    halved count only in ``step_rejections``.
    """
    states: list[FlowState]
    times: np.ndarray
    sup_u: np.ndarray
    positivity_margin: np.ndarray
    newton_iterations: np.ndarray
    step_rejections: int


def fitted_boundary_constant(state: FlowState) -> float:
    """Average of the evolving metric density over the deepest nodes.

    The boundary constant is the x -> 0 limit of the density; averaging the
    deepest tenth of the grid suppresses the O(x) contamination.
    """
    sl = state.u.grid.deepest_indices()
    return float(np.mean(state.flow_metric_density.values[sl]))


def run_flow(problem: FlowProblem) -> FlowResult:
    """Linearly implicit Euler integration of the normalized potential
    flow: a refused step is halved and retried, and one halved below
    dt * _DT_MIN_FACTOR fails the flow with its refusal.  Each step time
    records the last sub-step's evolving density, its minimum and sup|u|."""
    grid = problem.grid
    work = NewtonWorkspace.for_thread(grid.n_nodes)   # every step of the run
    grid.similarity   # the steps' similarity D, formed here and not in a step
    density = np.broadcast_to(problem.omega0.solver_density(grid), grid.n_nodes)
    combo = problem.omega0.einstein_defect(grid)
    time_grid, keep = problem._plan
    u, t, rejections = np.zeros(grid.n_nodes), 0.0, 0
    lap, spare = work.r_new, work.candidate   # Delta u, and Delta of the next state
    lap.fill(0.0)
    # the last sub-step's rho = S + Delta u, min rho and sup|u|; at t = 0, rho is D0
    rho, rho_min, sup_v = density, float(density.min()), 0.0
    states: list[FlowState] = []
    sup_u, margins = np.empty((2, time_grid.steps + 1))
    solves = np.empty(time_grid.steps + 1, dtype=int)
    for k in range(time_grid.steps + 1):
        target = time_grid.time(k)
        solves[k] = 0
        while t < target - 1e-12 * target:
            dt_loc = min(time_grid.h, target - t)
            while True:
                try:
                    v, rho, rho_min, sup_v = _flow_step(
                        u, lap, spare, t, dt_loc, density, combo, problem, work, sup_v)
                    break
                except SolverError:
                    rejections += 1
                    dt_loc /= 2.0
                    if dt_loc < problem.dt * _DT_MIN_FACTOR:
                        raise
            np.copyto(u, v)
            lap, spare = spare, lap
            solves[k] += 1
            t += dt_loc
        t = target
        sup_u[k], margins[k] = sup_v, rho_min
        if keep is None or k in keep:
            states.append(FlowState(t, RadialField(grid, u), RadialField(grid, rho), rho_min))

    return FlowResult(states, time_grid.times(), sup_u, margins, solves, rejections)


def _flow_step(u, lap, spare, t, dt, density, combo, problem: FlowProblem,
               work: NewtonWorkspace, sup_u: float):
    """One linearly implicit Euler step from u, whose interior Laplacian
    ``lap`` holds and whose sup|u| is ``sup_u``, worked in ``work``: the
    instance (alpha, beta, gamma) = (1 + dt, -u, dt), stated here once,
    linearized at u inside and solved exactly, with Delta v dropped, at the
    two ends.  Delta v goes into ``spare``.  Returns v (``work.v``), the
    evolving density rho = S(t + dt) + Delta v on every node
    (``work.aux_new``; the one-sided rows at the two ends), min rho and
    sup|v|.  A step is refused, raising SolverError, when rho_n = S(t + dt) +
    Delta u (inside) or rho (on any node) is not positive, or when the
    residual's rounding floor at v passes ``_FLOW_FLOOR_MAX``."""
    grid, h = problem.grid, problem.grid.h
    t_next = t + dt
    S_next, excess = _schedule_values(grid, density, combo, t_next)
    alpha, beta, gamma = 1.0 + dt, np.negative(u, out=work.step), dt
    ends = [(gamma * math.log1p(excess[j] / density[j]) - beta[j]) / alpha for j in (0, -1)]

    _, solve, floor, from_laplacian = _log_density_equation(
        h, grid.similarity, S_next[1:-1], excess[1:-1], density[1:-1], alpha, beta[1:-1],
        gamma, ends, work)
    r = work.r
    if not from_laplacian(u, lap, r, work.aux):
        raise _refusal(grid, t_next, "the evolving density before the solve has minimum",
                       work.aux, 1 + int(np.argmin(work.aux[1:-1])))
    try:   # J c = r, solved in r's buffer; the step is -c
        v = np.subtract(u, solve(work.aux, r), out=work.v)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SolverError(f"flow step to t={t_next:.6g} refused: its linear system is "
                          f"singular or not finite ({exc})") from exc
    v[0], v[-1] = ends
    rho = np.add(S_next, unit_laplacian(v, h, out=spare, scratch=work.scratch), out=work.aux_new)
    rho_min = float(rho.min())
    if not rho_min > 0:
        raise _refusal(grid, t_next, "the evolving density after the solve has minimum",
                       rho, int(np.argmin(rho)))
    sup_v = float(max(v.max(), -v.min()))
    # the floor is at most eps (gamma sum|c_k| sup|v| / min rho + alpha sup|v| + sup|beta|)
    stencil = sum(map(abs, laplacian_coefficients(h)))
    bound = sys.float_info.epsilon * (gamma * stencil * sup_v / rho_min + alpha * sup_v + sup_u)
    if not bound <= _FLOW_FLOOR_MAX:
        with np.errstate(over="ignore", invalid="ignore"):
            if not floor(v, rho, r) <= _FLOW_FLOOR_MAX:   # r's interior holds each node's term
                raise _refusal(grid, t_next, f"the rounding floor (bound {_FLOW_FLOOR_MAX:g}) is",
                               sys.float_info.epsilon * r, 1 + int(np.argmax(r[1:-1])))
    return v, rho, rho_min, sup_v


def _refusal(grid: RadialGrid, t: float, what: str, values: np.ndarray, j: int) -> SolverError:
    """The error of a flow step to t refused at node j, where ``what`` is
    ``values[j]`` (the first NaN, if any, when j comes from np.argmin or np.argmax)."""
    return SolverError(f"flow step to t={t:.6g} refused: {what} {values[j]:.3e} "
                       f"at node {j} (x={grid.x[j]:.6g})")


# ---------------------------------------------------------------------------
# Linear parabolic decay certificate
# ---------------------------------------------------------------------------

@dataclass
class DecayCertificate:
    """A barrier bound K e^{c t} on sup |u| / x^gamma (``decay_certificate``):
    the ratio on each time slice, its largest value, K and the rate c."""
    gamma: float
    times: np.ndarray
    slice_ratios: np.ndarray     # sup |u| / x^gamma per time slice
    sup_ratio: float
    K: float
    growth_rate: float           # the barrier's rate c in the bound K e^{c t}


def decay_certificate(grid: RadialGrid, gamma: float,
                      g: Callable[[np.ndarray, float], np.ndarray],
                      T: float, dt: float) -> DecayCertificate:
    """Barrier bound K e^{c t} for du/dt = Delta u - u + x^gamma g(x, t).

    Integrates the linear equation by backward Euler (zero Dirichlet data,
    u(0) = 0) and reports, per time slice, the sup of |u| / x^gamma over the
    interior nodes where the weight is a normal float (none is a ValueError).
    A step maps x^gamma to q x^gamma, q = 1 + h_t (1 - P_h(gamma)) (``stencil_symbol``),
    so the maximum principle bounds slice m by K_m = (K_{m-1} + h_t sup|g|) / q:
    c = max(0, -log(q) / h_t) is its rate, K the smallest constant; q <= 0 is an error.

    The step matrix (1 + h_t) - h_t Delta has constant coefficients, and
    its interior rows decouple from the zero end rows.  The grid's read-only
    similarity y = D u (``RadialGrid.similarity``: D_j = (c_sup/c_sub)^{j/2}
    relative to the middle node) makes them symmetric positive definite:
    factored once (LAPACK pttrf), solved for y at each step (pttrs), with D
    folded into the forcing and the weight D x^gamma.  A grid without that D,
    of spacing h >= 2 (c_sub <= 0) or with D past e^700, is an error.
    """
    if not gamma >= 0:
        raise ValueError(f"decay weight gamma must be >= 0, got {gamma}")
    time_grid = _run_grid(T, dt)
    n, h, x = grid.n_nodes, grid.h, grid.x
    c_sub, c_diag, c_sup = laplacian_coefficients(h)
    D = grid.similarity
    if D is None:
        raise ValueError(f"the decay certificate needs a grid spacing h < 2 whose "
                         f"similarity D stays below e^700, got h={h} on {n} nodes")
    h_t, times = time_grid.h, time_grid.times()

    # the interior rows of (1 + h_t) - h_t * Delta by dirichlet_bands' arithmetic
    diag, off = -h_t * c_diag + (1.0 + h_t), -math.sqrt((-h_t * c_sub) * (-h_t * c_sup))
    solve = factor_symmetric_tridiagonal(np.full(n - 2, diag), np.full(n - 3, off))
    weight = x[1:-1] ** gamma
    np.multiply(weight, D[1:-1], out=weight)   # D x^gamma
    if not weight[-1] >= np.finfo(float).tiny:   # the weight grows with x
        raise ValueError(f"decay weight gamma={gamma} makes x^gamma underflow at every node")
    kept = slice(int(np.argmax(weight >= np.finfo(float).tiny)), None)   # normal weights
    try:   # log1p raises where q <= 0, and stencil_symbol once gamma h passes about 709
        rate = max(0.0, -math.log1p(h_t * (1.0 - stencil_symbol(h, gamma))) / h_t)
    except (OverflowError, ValueError):
        raise ValueError(f"no barrier K x^gamma for gamma={gamma} at dt={dt} on h={h}: the "
                         f"step's factor q = 1 + h_t (1 - P_h(gamma)) is not positive") from None

    y, rhs, ratios = np.zeros(n - 2), np.empty(n - 2), np.zeros(len(times))
    forcing = h_t * weight
    for m in range(1, len(times)):
        np.multiply(forcing, np.asarray(g(x, times[m]), dtype=float)[1:-1], out=rhs)
        np.add(rhs, y, out=rhs)
        y, rhs = solve(rhs), y   # solved in place; the old y is scratch now
        # sup |y| / w as the signed extremes of y / w (w > 0), written once;
        # + 0.0 turns an all-zero slice's -0.0 into +0.0 and keeps a NaN
        ratio = np.divide(y[kept], weight[kept], out=rhs[kept])
        ratios[m] = max(float(ratio.max()), -float(ratio.min())) + 0.0

    K = float(np.max(ratios * np.exp(-rate * times)))
    return DecayCertificate(gamma, times, ratios, float(np.max(ratios)), K, rate)
