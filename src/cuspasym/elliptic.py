"""Radial linear and Monge-Ampere solves with Dirichlet truncation.

The linear problem is (Delta_g - lambda) u = f on the log grid with
Dirichlet values at both ends; the system is tridiagonal in t = log x and
solved by direct banded elimination.  The fully nonlinear problem is the
dimension-1 complex Monge-Ampere equation

    (1 + Delta_g u) e^{-u} = e^F,

handled in logarithmic residual form log1p(Delta_g u) - u - F = 0 by a
damped Newton iteration whose linearization at u = 0 is (Delta_g - 1).
Backtracking halves the step until the residual decreases and the Kahler
positivity 1 + Delta_g u > 0 is preserved; reaching the damping floor is a
hard failure.  The Newton loop (``damped_newton``) and the band layout of
the Dirichlet matrices (``dirichlet_bands``) live in ``radial``.

All residuals are measured in the discrete sup norm.  The log1p form keeps
full relative accuracy at deep-cusp nodes where every quantity in the
equation is of size x ~ 1e-17.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .errors import SolverError
from .geometry import ModelMetric
from .radial import (
    RadialField,
    damped_newton,
    dirichlet_bands,
    solve_tridiagonal,
    unit_laplacian_interior,
)

# at this size the probe's dense (n-2)^2 matrix is 34 MB, and the SVD copies it
_PROBE_MAX_NODES = 2048


@dataclass(frozen=True)
class NewtonParams:
    max_iter: int = 40
    tol: float = 1e-11
    damping_min: float = 2.0 ** -20


@dataclass
class LinearProblem:
    """(Delta_g - lambda) u = rhs with Dirichlet data at both ends."""

    metric: ModelMetric
    lam: float
    rhs: RadialField
    bc_left: float = 0.0
    bc_right: float = 0.0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if self.metric.conformal is not None and self.metric.conformal.grid != self.rhs.grid:
            raise ValueError("rhs grid does not match the metric grid")


@dataclass
class MongeAmpereProblem:
    """(1 + Delta_g u) e^{-u} = e^F with Dirichlet data at both ends."""

    background: ModelMetric
    F: RadialField
    bc_left: float = 0.0
    bc_right: float = 0.0
    newton: NewtonParams = field(default_factory=NewtonParams)

    def __post_init__(self):
        if (self.background.conformal is not None
                and self.background.conformal.grid != self.F.grid):
            raise ValueError("F grid does not match the background metric grid")


@dataclass
class NewtonReport:
    converged: bool
    iterations: int
    residuals: list[float]
    final_residual: float
    min_kahler: float            # min of 1 + Delta_g u at the solution
    damping_events: int


@dataclass(frozen=True)
class ProbeReport:
    delta: float
    condition_number: float
    min_singular_value: float
    matrix_size: int


def solve_linear(problem: LinearProblem) -> RadialField:
    """Direct banded solve of the Dirichlet-truncated linear problem."""
    grid = problem.rhs.grid
    density = problem.metric.density(grid)
    sub, diag, sup = dirichlet_bands(grid.n_nodes, grid.h, 1.0 / density[1:-1],
                                     problem.lam)
    rhs = problem.rhs.values.copy()
    rhs[0] = problem.bc_left
    rhs[-1] = problem.bc_right
    try:
        u = solve_tridiagonal(sub, diag, sup, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - exact collision
        raise SolverError(f"singular linear system: {exc}") from exc
    if not np.all(np.isfinite(u)):
        raise SolverError("singular linear system: non-finite solution "
                          "(lambda collides with a discrete eigenvalue?)")
    # the Dirichlet rows are identities; pin the returned values exactly
    u[0], u[-1] = problem.bc_left, problem.bc_right
    return RadialField(grid, u)


def solve_monge_ampere_radial(problem: MongeAmpereProblem) -> tuple[RadialField, NewtonReport]:
    """Damped Newton solve of the radial Monge-Ampere equation.

    Starts from u = 0 (which keeps 1 + Delta_g u = 1 > 0) and iterates on
    the residual log1p(Delta_g u) - u - F at interior nodes together with
    the Dirichlet mismatch at the two boundary rows.  Every accepted
    iterate satisfies min(1 + Delta_g u) > 0.
    """
    grid = problem.F.grid
    n, h = grid.n_nodes, grid.h
    density = problem.background.density(grid)
    F = problem.F.values
    params = problem.newton

    def residual(u: np.ndarray):
        lap = unit_laplacian_interior(u, h) / density
        r = np.empty(n)
        r[0] = u[0] - problem.bc_left
        r[-1] = u[-1] - problem.bc_right
        positive = bool(np.all(1.0 + lap[1:-1] > 0))
        if positive:
            r[1:-1] = np.log1p(lap[1:-1]) - u[1:-1] - F[1:-1]
        return r, lap, positive

    def jacobian_bands(lap: np.ndarray):
        # d/du of log1p(Delta_g u) - u
        return dirichlet_bands(n, h, 1.0 / (1.0 + lap[1:-1]) / density[1:-1], 1.0)

    u, lap, iterations, residuals, damping_events = damped_newton(
        residual, jacobian_bands, np.zeros(n), params.tol, params.max_iter,
        params.damping_min, "Newton")
    report = NewtonReport(True, iterations, residuals, residuals[-1],
                          float(np.min(1.0 + lap[1:-1])), damping_events)
    return RadialField(grid, u), report


def weighted_invertibility_probe(problem: LinearProblem, delta: float) -> ProbeReport:
    """Condition diagnostics of the x^delta-conjugated Dirichlet operator.

    Assembles the interior matrix of (Delta_g - lambda), conjugates it by
    the weight x^delta (which multiplies the off-diagonal bands by
    e^{-+ delta h}) and reports the dense condition number and smallest
    singular value.  Conditioning degrades as delta approaches the smallest
    positive indicial root, where the weighted problem loses invertibility.
    Grids above 2048 nodes are rejected before anything is allocated.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    grid = problem.rhs.grid
    if grid.n_nodes > _PROBE_MAX_NODES:
        raise ValueError(
            f"weighted_invertibility_probe takes at most {_PROBE_MAX_NODES} nodes, "
            f"got {grid.n_nodes} (a dense {grid.n_nodes - 2}^2 matrix)")
    density = problem.metric.density(grid)
    # the weighted problem loses invertibility at the smallest positive
    # indicial root of the deep-cusp model; reject delta at or beyond it
    z_plus = -0.5 + math.sqrt(2.0 * density[0] * problem.lam + 0.25)
    if problem.lam > 0 and delta >= z_plus:
        raise ValueError(
            f"delta={delta} reaches the smallest positive indicial root "
            f"{z_plus:.6g}; the weighted operator is not invertible there")
    if problem.lam == 0 and delta > 0:
        raise ValueError("lambda = 0 has indicial root 0; only delta = 0 is valid")
    sub, diag, sup = dirichlet_bands(grid.n_nodes, grid.h, 1.0 / density[1:-1],
                                     problem.lam)
    # interior block (Dirichlet columns eliminated)
    m = grid.n_nodes - 2
    scale = np.exp(delta * grid.h)
    A = np.zeros((m, m))
    idx = np.arange(m)
    A[idx, idx] = diag[1:-1]
    A[idx[1:], idx[:-1]] = sub[2:-1] / scale
    A[idx[:-1], idx[1:]] = sup[1:-2] * scale
    sv = np.linalg.svd(A, compute_uv=False)
    return ProbeReport(delta=float(delta),
                       condition_number=float(sv[0] / sv[-1]),
                       min_singular_value=float(sv[-1]),
                       matrix_size=m)
