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
hard failure.  The Newton loop (``damped_newton``), its settings
(``NewtonParams``) and the band layout of the Dirichlet matrices
(``dirichlet_bands``) live in ``radial``.

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
    _gtsv,
    damped_newton,
    dirichlet_bands,
    laplacian_coefficients,
    unit_laplacian_interior,
)

# at this size the probe's dense (n-2)^2 matrix is 34 MB, and the SVD copies it
_PROBE_MAX_NODES = 2048


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
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
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
    converged: bool
    iterations: int
    residuals: list[float]
    final_residual: float
    min_kahler: float            # min of 1 + Delta_g u at the solution
    damping_events: int
    residual_floor: float | None = None   # the rounding floor that stopped Newton, if one did


@dataclass(frozen=True)
class ProbeReport:
    delta: float
    condition_number: float
    min_singular_value: float
    matrix_size: int


def solve_linear(problem: LinearProblem) -> RadialField:
    """Direct banded solve of the Dirichlet-truncated linear problem, in the thread's workspace."""
    grid = problem.rhs.grid
    work, density = NewtonWorkspace.for_thread(grid.n_nodes), problem.metric.density(grid)
    dirichlet_bands(grid.n_nodes, grid.h, np.divide(1.0, density[1:-1], out=work.scratch[1:-1]),
                    problem.lam, out=work.bands)
    np.copyto(work.step, problem.rhs.values)
    work.step[0], work.step[-1] = problem.bc_left, problem.bc_right
    try:
        u = _gtsv(*work.bands, work.step, overwrite=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - exact collision
        raise SolverError(f"singular linear system: {exc}") from exc
    if not _all_finite(u):   # from finite data (_gtsv checked): the elimination overflowed
        data = max(abs(problem.bc_left), abs(problem.bc_right),
                   np.abs(problem.rhs.values[1:-1]).max())
        raise SolverError(f"linear solve overflowed: the tridiagonal elimination gave a non-finite "
                          f"solution from data of magnitude up to {data:.3e}")
    # the Dirichlet rows are identities; pin the returned values exactly
    u[0], u[-1] = problem.bc_left, problem.bc_right
    return RadialField(grid, u.copy())


def solve_monge_ampere_radial(problem: MongeAmpereProblem) -> tuple[RadialField, NewtonReport]:
    """Damped Newton solve of the radial Monge-Ampere equation.

    Starts from u = 0 (which keeps 1 + Delta_g u = 1 > 0) and iterates on
    the residual log1p(Delta_g u) - u - F at interior nodes together with
    the Dirichlet mismatch at the two boundary rows.  Every accepted
    iterate satisfies min(1 + Delta_g u) > 0.
    """
    grid = problem.F.grid
    n, h = grid.n_nodes, grid.h
    work = NewtonWorkspace.for_thread(n)
    density = problem.background.density(grid)
    F = problem.F.values
    tmp = work.scratch[1:-1]

    def residual(u: np.ndarray, r: np.ndarray, lap: np.ndarray) -> bool:
        unit_laplacian_interior(u, h, out=lap, scratch=work.scratch)
        np.divide(lap, density, out=lap)
        r[0] = u[0] - problem.bc_left
        r[-1] = u[-1] - problem.bc_right
        np.add(1.0, lap[1:-1], out=tmp)
        positive = bool(tmp.min() > 0)   # np.all(tmp > 0): False on NaN
        if positive:
            inner = r[1:-1]
            np.log1p(lap[1:-1], out=inner)
            np.subtract(inner, u[1:-1], out=inner)
            np.subtract(inner, F[1:-1], out=inner)
        return positive

    def jacobian_bands(lap: np.ndarray, out) -> None:
        # d/du of log1p(Delta_g u) - u: weight 1 / (1 + Delta_g u) / density
        np.add(1.0, lap[1:-1], out=tmp)
        np.divide(1.0, tmp, out=tmp)
        np.divide(tmp, density[1:-1], out=tmp)
        dirichlet_bands(n, h, tmp, 1.0, out=out)

    def floor(u: np.ndarray, lap: np.ndarray, out: np.ndarray) -> float:
        # eps max_j (|s u_j-1| + |d u_j| + |p u_j+1|) / (density_j (1 + Delta_g u_j))
        inner = out[1:-1]
        inner.fill(0.0)
        for k, c in enumerate(laplacian_coefficients(h)):   # neighbours j - 1, j, j + 1
            np.add(inner, np.multiply(np.abs(u[k:n - 2 + k], out=tmp), abs(c), out=tmp), out=inner)
        np.multiply(np.add(1.0, lap[1:-1], out=tmp), density[1:-1], out=tmp)
        return np.finfo(float).eps * float(np.max(np.divide(inner, tmp, out=inner)))

    u, lap, iterations, residuals, damping_events, floor_value = damped_newton(
        residual, jacobian_bands, 0.0, problem.newton, "Newton", work, floor)
    report = NewtonReport(True, iterations, residuals, residuals[-1],
                          float(np.min(np.add(1.0, lap[1:-1], out=tmp))), damping_events,
                          floor_value)
    return RadialField(grid, u.copy()), report


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
