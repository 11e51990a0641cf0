"""Radial linear and Monge-Ampere solves with Dirichlet truncation.

The linear problem is (Delta_g - lambda) u = f on the log grid with
Dirichlet values at both ends; the system is tridiagonal in t = log x and
solved directly by radial's Jacobian solve (``_jacobian_solver``) of
(lambda - Delta_g) u = -f, the instance (rho, gamma, alpha) = (D, 1, lambda).
The fully nonlinear problem is the dimension-1 complex Monge-Ampere equation

    (1 + Delta_g u) e^{-u} = e^F,

handled in logarithmic residual form (u + F) - log1p(Delta_g u) = 0 by a
damped Newton iteration whose linearization at u = 0 is (1 - Delta_g).
With D the background density and Delta_g = Delta / D, that is ``radial``'s
log-density equation with (S, excess, D0, alpha, beta, gamma) = (D, 0, D,
1, F, 1), whose residual, Jacobian solve, positivity test and rounding floor
live there, beside the Newton loop (``damped_newton``), its settings
(``NewtonParams``, from ``defaults``) and the band layout of the Dirichlet
matrices (``dirichlet_bands``).  Both solvers read D off the metric
(``ModelMetric.solver_density``).  Identity coefficients (the unit
metric's D = 1, and alpha = gamma = 1) cost no pass, bit for bit.  Each
Newton step solves its Jacobian 1 - Delta / (D + Delta u) by the solve
prepared with the instance, the one the linear problem uses, as the
symmetric positive definite matrix it is similar to after a row scaling,
by LAPACK ptsv.
Backtracking halves the step until the residual decreases and the Kahler
positivity D + Delta u > 0 is preserved; reaching the damping floor is a
hard failure.

All residuals are measured in the discrete sup norm.  The log1p form keeps
full relative accuracy at deep-cusp nodes where every quantity in the
equation is of size x ~ 1e-17.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import SolverError
from .geometry import ModelMetric
from .radial import (
    NewtonParams,
    NewtonWorkspace,
    RadialField,
    _all_finite,
    _jacobian_solver,
    _log_density_equation,
    damped_newton,
)


def _require_finite_bcs(problem) -> None:
    if not (math.isfinite(problem.bc_left) and math.isfinite(problem.bc_right)):
        raise ValueError(f"bc_left and bc_right must be finite, "
                         f"got {problem.bc_left} and {problem.bc_right}")


@dataclass(frozen=True)
class LinearProblem:
    """(Delta_g - lambda) u = rhs with Dirichlet data at both ends."""

    metric: ModelMetric
    lam: float
    rhs: RadialField
    bc_left: float = 0.0
    bc_right: float = 0.0

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        self.metric._resolve_grid(self.rhs.grid)
        _require_finite_bcs(self)


@dataclass(frozen=True)
class MongeAmpereProblem:
    """(1 + Delta_g u) e^{-u} = e^F with Dirichlet data at both ends."""

    background: ModelMetric
    F: RadialField
    bc_left: float = 0.0
    bc_right: float = 0.0
    newton: NewtonParams = NewtonParams()

    def __post_init__(self):
        self.background._resolve_grid(self.F.grid)
        _require_finite_bcs(self)


@dataclass
class NewtonReport:
    """How a Monge-Ampere solve converged: its Newton iterations and the
    residual norm after each, the least Kahler density ratio at the solution,
    the damped steps taken and the rounding floor that stopped it, if one did."""
    converged: bool
    iterations: int
    residuals: list[float]
    final_residual: float
    min_kahler: float            # min of 1 + Delta_g u at the solution
    damping_events: int
    residual_floor: float | None = None   # the rounding floor that stopped Newton, if one did


def solve_linear(problem: LinearProblem) -> RadialField:
    """Direct solve of the Dirichlet-truncated linear problem in the thread's
    workspace: ``radial``'s Jacobian solve of the instance (rho, gamma,
    alpha) = (D, 1, lambda), D the metric's ``solver_density`` (a scalar
    without a conformal factor)."""
    grid = problem.rhs.grid
    work = NewtonWorkspace.for_thread(grid.n_nodes)
    rhs = np.negative(problem.rhs.values, out=work.step)
    rhs[0], rhs[-1] = problem.bc_left, problem.bc_right
    solve = _jacobian_solver(grid.h, grid.similarity, 1.0, problem.lam, work)
    try:
        u = solve(problem.metric.solver_density(grid), rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - exact collision
        raise SolverError(f"singular linear system: {exc}") from exc
    if not _all_finite(u):   # from finite data: the elimination overflowed
        data = max(abs(problem.bc_left), abs(problem.bc_right),
                   np.abs(problem.rhs.values[1:-1]).max())
        raise SolverError(f"linear solve overflowed: the tridiagonal elimination gave a non-finite "
                          f"solution from data of magnitude up to {data:.3e}")
    # the Dirichlet rows are identities; pin the returned values exactly
    u[0], u[-1] = problem.bc_left, problem.bc_right
    return RadialField(grid, u)


def solve_monge_ampere_radial(problem: MongeAmpereProblem) -> tuple[RadialField, NewtonReport]:
    """Damped Newton solve of the radial Monge-Ampere equation.

    Starts from u = 0 (which keeps D + Delta u = D > 0) and iterates on
    the residual (u + F) - log1p(Delta_g u) at interior nodes together with
    the Dirichlet mismatch at the two boundary rows: ``radial``'s
    log-density equation with (S, excess, D0, alpha, beta, gamma) = (D, 0,
    D, 1, F, 1), D the background's ``solver_density`` (the scalar sqrt(ab)
    without a conformal factor, so the unit metric's D0 = 1 costs no pass).
    Every accepted iterate satisfies min(D + Delta u) > 0.
    """
    grid = problem.F.grid
    work = NewtonWorkspace.for_thread(grid.n_nodes)
    D = problem.background.solver_density(grid)
    if isinstance(D, np.ndarray):
        D = D[1:-1]
    residual, solve, floor, _ = _log_density_equation(
        grid.h, grid.similarity, D, 0.0, D, 1.0, problem.F.values[1:-1], 1.0,
        (problem.bc_left, problem.bc_right), work)
    u, rho, iterations, residuals, damping_events, floor_value = damped_newton(
        residual, solve, 0.0, problem.newton, "Newton", work, floor)
    min_kahler = float(np.divide(rho[1:-1], D, out=work.scratch[1:-1]).min())
    report = NewtonReport(True, iterations, residuals, residuals[-1], min_kahler,
                          damping_events, floor_value)
    return RadialField(grid, u), report

