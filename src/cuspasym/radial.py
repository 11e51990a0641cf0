"""Logarithmic radial grids and scalar fields on them.

All radial discretization lives in the variable t = log x, where the cusp
coordinate x ranges over (0, x_max] with x_max < 1.  In t the scaling
vector field x d/dx becomes d/dt, so the model Laplacian

    (1/2) ((x d/dx)^2 + x d/dx)  =  (1/2) (d^2/dt^2 + d/dt)

has constant coefficients and the x -> 0 degeneracy disappears from the
stencil.  Grids are uniform in t; centered second-order differences are
used at interior nodes and one-sided second-order differences at the two
endpoints (the latter only ever for diagnostics, never inside solves).

The module also owns the numerics every radial solver shares: the band
layout of Dirichlet-truncated operators (:func:`dirichlet_bands`) and the
backtracking Newton loop (:func:`damped_newton`) with the buffers it works
in (:class:`NewtonWorkspace`).
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import PathFinder
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SolverError

CSV_FLOAT_FMT = "%.17g"
_MIN_NODES = 8
#: share of the nodes, deepest first, that stands for the x -> 0 limit
DEEPEST_FRACTION = 0.1
#: a stalled Newton loop stops within this factor of the caller's rounding floor
_FLOOR_FACTOR = 4.0


def laplacian_coefficients(h: float) -> tuple[float, float, float]:
    """(sub, diag, sup) coefficients of the interior centered stencil."""
    return 0.5 / h**2 - 0.25 / h, -1.0 / h**2, 0.5 / h**2 + 0.25 / h


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid in t = log x on [t_min, t_max], t_max < 0."""

    t_min: float
    t_max: float
    n_nodes: int

    def __post_init__(self):
        if not (self.t_min < self.t_max):
            raise ValueError(f"need t_min < t_max, got [{self.t_min}, {self.t_max}]")
        if not (self.t_max < 0):
            raise ValueError(f"need t_max < 0 so that x stays below 1, got {self.t_max}")
        if self.n_nodes < _MIN_NODES:
            raise ValueError(f"need at least {_MIN_NODES} nodes, got {self.n_nodes}")
        try:   # h**2 overflows, or underflows to 0, on an extreme span
            finite = all(map(math.isfinite, (self.t_min, *laplacian_coefficients(self.h))))
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise ValueError(f"need a finite t_min and finite stencil coefficients, got "
                             f"[{self.t_min}, {self.t_max}] with {self.n_nodes} nodes")
        if not math.exp(self.t_min) >= sys.float_info.min:   # a subnormal x reads back skewed
            raise ValueError(f"need x = exp(t_min) > 0 as a normal float (t_min >= "
                             f"{math.log(sys.float_info.min):.6g}), got t_min={self.t_min}")

    @cached_property
    def t(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n_nodes)

    @cached_property
    def x(self) -> np.ndarray:
        return np.exp(self.t)

    @property
    def h(self) -> float:
        return (self.t_max - self.t_min) / (self.n_nodes - 1)

    @property
    def x_min(self) -> float:
        return math.exp(self.t_min)

    @property
    def x_max(self) -> float:
        return math.exp(self.t_max)

    def refined(self) -> "RadialGrid":
        """Same span with halved spacing (nodes are nested)."""
        return RadialGrid(self.t_min, self.t_max, 2 * self.n_nodes - 1)

    def window_mask(self, x_lo: float, x_hi: float) -> np.ndarray:
        if not (0 < x_lo <= x_hi):
            raise ValueError(f"invalid window [{x_lo}, {x_hi}]")
        return (self.x >= x_lo) & (self.x <= x_hi)

    def deepest_indices(self) -> slice:
        """Indices of the deepest ``DEEPEST_FRACTION`` of nodes (smallest x)."""
        count = max(1, int(round(self.n_nodes * DEEPEST_FRACTION)))
        return slice(0, count)


DEFAULT_GRID = RadialGrid(t_min=-40.0, t_max=math.log(0.5), n_nodes=4096)


@dataclass
class RadialField:
    """Scalar samples on a radial grid; values must be finite everywhere."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n_nodes} nodes)")
        if not _all_finite(self.values):
            raise ValueError("field values must be finite at every node")

    @classmethod
    def from_function(cls, grid: RadialGrid, fn: Callable[[np.ndarray], np.ndarray]) -> "RadialField":
        """Sample fn(x) on the grid."""
        return cls(grid, np.asarray(fn(grid.x), dtype=float))

    @classmethod
    def zeros(cls, grid: RadialGrid) -> "RadialField":
        return cls(grid, np.zeros(grid.n_nodes))

    @classmethod
    def constant(cls, grid: RadialGrid, value: float) -> "RadialField":
        return cls(grid, np.full(grid.n_nodes, float(value)))

    def write_csv(self, path) -> None:
        """Write as "x,value" rows, ascending x, 17 significant digits."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("x,value\n")
            for xv, val in zip(self.grid.x, self.values):
                fh.write(f"{CSV_FLOAT_FMT % xv},{CSV_FLOAT_FMT % val}\n")

    @classmethod
    def read_csv(cls, path) -> "RadialField":
        with open(path) as fh:
            rows = fh.read().splitlines()[1:]
        # loadtxt warns on empty input, so an empty body skips the parse
        data = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.empty((0, 2))
        if len(data) < _MIN_NODES:
            raise ValueError(f"need at least {_MIN_NODES} data rows in {path}, got {len(data)}")
        if data.shape[1] != 2:
            raise ValueError(f"expected two columns x,value in {path}")
        x, values = data[:, 0], data[:, 1]
        if np.any(x <= 0) or np.any(np.diff(x) <= 0):
            raise ValueError(f"x column in {path} must be positive and ascending")
        t = np.log(x)
        h = (t[-1] - t[0]) / (len(t) - 1)
        if np.max(np.abs(np.diff(t) - h)) > 1e-8 * abs(h):
            raise ValueError(f"x column in {path} is not log-uniform")
        grid = RadialGrid(float(t[0]), float(t[-1]), len(t))
        return cls(grid, values)


# ---------------------------------------------------------------------------
# Stencils for the unit model Laplacian (1/2)(d^2/dt^2 + d/dt)
# ---------------------------------------------------------------------------

def unit_laplacian_interior(values: np.ndarray, h: float, out: Optional[np.ndarray] = None,
                            scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Centered stencil on interior nodes; endpoints returned as 0.

    ``out`` receives the result and ``scratch`` one intermediate product;
    both are arrays shaped like ``values`` that do not overlap it, fresh
    ones when omitted.  The interior sum is (s v[j-1] + d v[j]) + p v[j+1].
    """
    sub, diag, sup = laplacian_coefficients(h)
    out = np.empty_like(values) if out is None else out
    tmp = (np.empty_like(values) if scratch is None else scratch)[1:-1]
    inner = out[1:-1]
    out[0] = out[-1] = 0.0
    np.multiply(sub, values[:-2], out=inner)
    np.multiply(diag, values[1:-1], out=tmp)
    np.add(inner, tmp, out=inner)
    np.multiply(sup, values[2:], out=tmp)
    np.add(inner, tmp, out=inner)
    return out


def unit_laplacian(values: np.ndarray, h: float) -> np.ndarray:
    """Full-grid stencil: centered inside, one-sided second order at ends.

    The one-sided rows are diagnostic only; solves impose boundary
    conditions instead of using them.
    """
    out = unit_laplacian_interior(values, h)
    v = values
    d1_left, d1_right = _end_dt_rows(v, h)
    out[0] = 0.5 * ((2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / h**2 + d1_left)
    out[-1] = 0.5 * ((2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / h**2 + d1_right)
    return out


def _end_dt_rows(v: np.ndarray, h: float) -> tuple[float, float]:
    """One-sided second-order d/dt at the left and right endpoints."""
    return ((-3 * v[0] + 4 * v[1] - v[2]) / (2 * h),
            (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h))


def dt_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """d/dt: centered inside, one-sided second order at the two ends."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2 * h)
    out[0], out[-1] = _end_dt_rows(values, h)
    return out


def dirichlet_bands(n: int, h: float, weight, shift, out=None):
    """(sub, diag, sup) bands of the Dirichlet-truncated operator
    weight * Delta_unit - shift.

    ``weight`` and ``shift`` are scalars or arrays over the n - 2 interior
    nodes; the two end rows are identity rows carrying Dirichlet data.
    ``out`` is a triple of n-arrays that receives every entry of the bands
    (fresh ones when omitted); ``weight`` must not be a view of them.
    """
    c_sub, c_diag, c_sup = laplacian_coefficients(h)
    sub, diag, sup = (np.empty(n), np.empty(n), np.empty(n)) if out is None else out
    sub[0] = sub[-1] = sup[0] = sup[-1] = 0.0
    diag[0] = diag[-1] = 1.0
    np.multiply(weight, c_sub, out=sub[1:-1])
    np.multiply(weight, c_diag, out=diag[1:-1])
    np.subtract(diag[1:-1], shift, out=diag[1:-1])
    np.multiply(weight, c_sup, out=sup[1:-1])
    return sub, diag, sup


def solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """Direct solve of A u = rhs with A[j,j-1]=sub[j], A[j,j]=diag[j],
    A[j,j+1]=sup[j] (LAPACK gtsv, partial pivoting); sub[0] and sup[-1]
    lie outside A and are never read.  The inputs are not written."""
    return _gtsv(sub, diag, sup, rhs, overwrite=False)


def _gtsv(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray,
          overwrite: bool) -> np.ndarray:
    """:func:`solve_tridiagonal`, checks included; with ``overwrite`` LAPACK
    works in the caller's contiguous float64 arrays: the solution is
    written into ``rhs`` (and returned) and the bands are destroyed."""
    _require_finite(sub[1:], diag, sup[:-1], rhs)
    *_, u, info = _lapack().dgtsv(sub[1:], diag, sup[:-1], rhs,
                                  overwrite, overwrite, overwrite, overwrite)
    _check_lapack_info(info, "gtsv")
    return u


def factor_symmetric_tridiagonal(diag: np.ndarray,
                                 off: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """LDL^T-factor once (LAPACK pttrf, inputs not written) the symmetric
    positive definite tridiagonal matrix with diagonal ``diag`` and the one
    entry shorter off-diagonal ``off``; ``solve(rhs)`` (pttrs) writes the
    solution into a contiguous float64 ``rhs`` and returns it."""
    lapack = _lapack()
    _require_finite(diag, off)
    *ldl, info = lapack.dpttrf(diag, off)
    _check_lapack_info(info, "pttrf", "matrix not positive definite")

    def solve(rhs: np.ndarray) -> np.ndarray:
        _require_finite(rhs)
        u, info = lapack.dpttrs(*ldl, rhs, True)
        _check_lapack_info(info, "pttrs")
        return u
    return solve


_FLAPACK = "scipy.linalg._flapack"
_FLAPACK_LOCK = threading.Lock()


def _lapack():
    """scipy's LAPACK extension ``scipy.linalg._flapack`` (``dgtsv``,
    ``dpttrf``, ``dpttrs``), the package's one way to LAPACK.  It is loaded
    alone, without the inits of ``scipy.linalg`` (about 0.35 s) or ``scipy``
    (about 20 ms), once under a lock, and registered in ``sys.modules``, so
    a later ``import scipy.linalg`` binds the same module (see README)."""
    module = sys.modules.get(_FLAPACK)
    if module is None:
        with _FLAPACK_LOCK:
            module = sys.modules.get(_FLAPACK) or _load_flapack()
    return module


def _load_flapack():
    scipy_spec = importlib.util.find_spec("scipy")   # executes nothing
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    where = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    spec = PathFinder.find_spec(_FLAPACK, [where])
    if spec is None:
        from importlib.metadata import version

        raise ImportError(f"scipy {version('scipy')} has no LAPACK extension "
                          f"_flapack in {where}")

    def load():
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    try:
        module = load()
    except ImportError:
        # the OS loader may need what scipy's own init sets up first, such
        # as the DLL directory of a Windows wheel: run it, then load again
        import scipy  # noqa: F401

        module = load()
    sys.modules[_FLAPACK] = module
    return module


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry is finite, in one pass when a finite sum of squares
    proves it (``np.vdot`` raises no FP flag, where ``a @ a`` warns above 1e154)."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(map(_all_finite, arrays)):
        raise ValueError("array must not contain infs or NaNs")


def _check_lapack_info(info: int, routine: str, fault: str = "singular matrix") -> None:
    if info > 0:
        raise np.linalg.LinAlgError(fault)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")


@dataclass(frozen=True)
class NewtonParams:
    """Settings of :func:`damped_newton`: the step budget, the sup-norm
    residual to reach and the smallest step fraction backtracking tries."""

    max_iter: int = 40
    tol: float = 1e-11
    damping_min: float = 2.0 ** -20

    def __post_init__(self):
        count = self.max_iter >= 0 and self.max_iter % 1 == 0
        for name, ok, need in (("max_iter", count, "an integer >= 0"),
                               ("tol", 0 < self.tol < math.inf, "finite and > 0"),
                               ("damping_min", 0 < self.damping_min < 1, "in (0, 1)")):
            if not ok:
                raise ValueError(f"{name} must be {need}, got {getattr(self, name)}")


class NewtonWorkspace:
    """The arrays :func:`damped_newton` works in on ``n`` nodes, one solve at
    a time: ``v``/``candidate``, ``r``/``r_new`` and ``aux``/``aux_new`` are
    double buffers, swapped on an accepted step; ``step`` holds the right-hand
    side, then the step; ``bands`` the Jacobian's (sub, diag, sup); ``scratch``
    is the callbacks' (the loop's between calls).  The package's solvers use
    :meth:`for_thread`'s and return copies, never these buffers."""

    _slot = threading.local()

    def __init__(self, n: int):
        self.v, self.candidate = np.empty(n), np.empty(n)
        self.r, self.r_new = np.empty(n), np.empty(n)
        self.aux, self.aux_new = np.empty(n), np.empty(n)
        self.step = np.empty(n)
        self.bands = (np.empty(n), np.empty(n), np.empty(n))
        self.scratch = np.empty(n)

    @classmethod
    def for_thread(cls, n: int) -> "NewtonWorkspace":
        """The calling thread's workspace, kept for its next solve.  Take it
        first, so that a solve's own arrays can reuse a dropped one's memory."""
        work = getattr(cls._slot, "work", None)
        if work is None or len(work.v) != n:
            cls._slot.work = None   # at most one a thread: drop the old one first
            cls._slot.work = work = cls(n)
        return work


def damped_newton(residual: Callable, bands: Callable, v0: np.ndarray | float,
                  params: NewtonParams, label: str, work: NewtonWorkspace,
                  floor: Optional[Callable] = None):
    """Backtracking Newton iteration on a tridiagonal Jacobian.

    ``residual(v, r_out, aux_out)`` writes the residual at v and the data
    its Jacobian needs, and returns False when v is not admissible
    (positivity lost); ``bands(aux, bands_out)`` writes the Jacobian bands
    at that iterate.  Each step is halved until the iterate is admissible
    and the sup-norm residual drops by the factor 1 - 1e-4 s.  A step below
    ``params.damping_min``, ``params.max_iter`` steps without reaching
    ``params.tol`` (a NaN residual never does) or a singular linearization
    raise SolverError naming ``label`` (and the last residual, if any).

    ``floor(v, aux, out)``, if given, is the residual's rounding floor at an
    iterate, computed in ``out`` and ``work.scratch``.  Once Newton stalls (a
    full step rejected, or an accepted one above tol and half the last
    residual), an iterate within ``_FLOOR_FACTOR`` of a finite floor counts as
    converged.  Trials and floors overflow quietly: a non-finite trial fails.

    No array of the grid's size is allocated: the loop works in ``work``
    from a copy of ``v0`` (an array, or a scalar for a constant start) and
    solves each step in place.  Returns ``(v, aux, iterations, residual_history,
    damping_events, floor_value)``, ``v`` and ``aux`` buffers of ``work`` and
    ``floor_value`` the floor that stopped the loop, else None.
    """
    v, candidate, r, r_new = work.v, work.candidate, work.r, work.r_new
    aux, aux_new = work.aux, work.aux_new
    np.copyto(v, v0)
    if not residual(v, r, aux):
        raise SolverError(f"{label} started from an iterate violating positivity")
    res_norm = _sup_norm(r, work.scratch)
    residuals = [res_norm]
    damping_events = iteration = 0
    while not res_norm <= params.tol:
        if iteration == params.max_iter:
            raise SolverError(f"{label} did not converge in {params.max_iter} iterations; "
                              f"last residual {res_norm:.3e}")
        iteration += 1
        bands(aux, work.bands)
        np.negative(r, out=work.step)
        try:
            step = _gtsv(*work.bands, work.step, overwrite=True)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular {label} linearization at iteration "
                              f"{iteration}: {exc}") from exc
        s = 1.0
        while True:
            # 1.0 * step is exact, so the full step skips the multiply
            np.add(v, step if s == 1.0 else np.multiply(step, s, out=candidate), out=candidate)
            with np.errstate(over="ignore", invalid="ignore"):
                ok = residual(candidate, r_new, aux_new)
                new_norm = _sup_norm(r_new, work.scratch) if ok else np.inf
            if ok and new_norm <= (1.0 - 1e-4 * s) * res_norm:
                break
            if s == 1.0 and floor and (at := _at_floor(floor, v, aux, r_new, res_norm)):
                return v, aux, iteration - 1, residuals, damping_events, at
            s *= 0.5
            damping_events += 1
            if s < params.damping_min:
                raise SolverError(
                    f"{label} damping floor reached at iteration {iteration}; "
                    f"last residual {res_norm:.3e}")
        v, candidate, r, r_new, aux, aux_new = candidate, v, r_new, r, aux_new, aux
        res_norm = new_norm
        residuals.append(res_norm)
        if floor and res_norm > max(params.tol, 0.5 * residuals[-2]) and \
                (at := _at_floor(floor, v, aux, r_new, res_norm)):
            return v, aux, iteration, residuals, damping_events, at
    return v, aux, iteration, residuals, damping_events, None


def _at_floor(floor: Callable, v, aux, out, res_norm: float) -> Optional[float]:
    """The floor at (v, aux), positive, if the residual has reached it; else None."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = floor(v, aux, out)
    return value if math.isfinite(value) and res_norm <= _FLOOR_FACTOR * value else None


def _sup_norm(r: np.ndarray, scratch: np.ndarray) -> float:
    return float(np.abs(r, out=scratch).max())


def evaluate_expansion(terms: Sequence[tuple[float, float, int]], x: np.ndarray) -> np.ndarray:
    """Evaluate sum of a * x^z * (log x)^k term triples on samples x."""
    x = np.asarray(x, dtype=float)
    t = np.log(x)
    out = np.zeros_like(x)
    for a, z, k in terms:
        out += float(a) * np.exp(float(z) * t) * t ** int(k)
    return out
