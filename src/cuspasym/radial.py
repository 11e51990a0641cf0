"""Logarithmic radial grids and scalar fields on them.

All radial discretization lives in the variable t = log x, where the cusp
coordinate x ranges over (0, x_max] with x_max < 1.  In t the scaling
vector field x d/dx becomes d/dt, so the model Laplacian

    (1/2) ((x d/dx)^2 + x d/dx)  =  (1/2) (d^2/dt^2 + d/dt)

has constant coefficients and the x -> 0 degeneracy disappears from the
stencil.  Grids are uniform in t; centered second-order differences are
used at interior nodes and one-sided second-order differences at the two
endpoints (the latter for diagnostics and a flow step's positivity test at
the ends, never as rows of a solve).

The module also owns the numerics every radial solver shares: the band
layout of Dirichlet-truncated operators (:func:`dirichlet_bands`), the
diagonal similarity D that makes the stencil's interior rows symmetric
(:func:`similarity_diagonal`, each grid's one read-only ``similarity``),
the one solve of every Dirichlet system, symmetric positive definite after
a row scaling and D, prepared once an instance (:func:`_jacobian_solver`),
the backtracking Newton loop (:func:`damped_newton`), the buffers every
solve works in (:class:`NewtonWorkspace`), and the one equation of the MA
and the flow,

    (alpha v + beta) - gamma log1p((S - D0 + Delta v) / D0) = 0,   S + Delta v > 0,

with its residual, Jacobian solve, positivity test and rounding floor
(:func:`_log_density_equation`).  An instance states its coefficients in
one place, where it calls that function (:func:`_jacobian_solver` for the
linear solve, which needs only the Jacobian), constants as scalars, arrays
over the interior nodes:

    Monge-Ampere      (S, excess, D0, alpha, beta, gamma) = (rho0, 0, rho0, 1, F, 1)
    flow step         (S_{n+1}, expm1(-t_{n+1}) (D0 + R0), D0, 1 + dt, -u_n, dt)
    linear solve      the Jacobian solve alone: (rho, gamma, alpha) = (rho0, 1, lambda)

with rho0 the background density and D0 + R0 the flow's driving density,
both the metric's own (``ModelMetric.solver_density``, the scalar sqrt(ab)
without a conformal factor, and ``ModelMetric.einstein_defect``), so the
unit metric's MA instance has excess 0, D0 = 1 and alpha = gamma = 1.  The
equation and its solver find the identity coefficients once, when an
instance is built, and an identity costs no pass; the results keep every
bit of the general arithmetic.  The MA is solved by Newton, a flow step
linearized once at u_n.
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

from .defaults import DEFAULT_GRID_SPAN, NewtonParams
from .errors import SolverError

CSV_FLOAT_FMT = "%.17g"
_CSV_HEADER = "x,value"
_MIN_NODES = 8
_MAX_NODES = 2 ** 22 + 1   # 32 MB an array, above every documented grid
#: share of the nodes, deepest first, that stands for the x -> 0 limit
DEEPEST_FRACTION = 0.1
#: a stalled Newton loop stops within this factor of the caller's rounding floor
_FLOOR_FACTOR = 4.0


def laplacian_coefficients(h: float) -> tuple[float, float, float]:
    """(sub, diag, sup) coefficients of the interior centered stencil."""
    return 0.5 / h**2 - 0.25 / h, -1.0 / h**2, 0.5 / h**2 + 0.25 / h


def stencil_symbol(h: float, z: float) -> float:
    """P_h(z), the centred stencil's exact action on powers: Delta_h x^z = P_h(z) x^z."""
    c_sub, c_diag, c_sup = laplacian_coefficients(h)
    return c_sub * math.exp(-z * h) + c_diag + c_sup * math.exp(z * h)


def stencil_root(h: float, lam: float) -> float:
    """The upper root z_h of P_h(z) = lam: s = e^{z_h h} is the larger root
    of c_sup s^2 - (lam - c_diag) s + c_sub = 0."""
    c_sub, c_diag, c_sup = laplacian_coefficients(h)
    b = lam - c_diag
    return math.log((b + math.sqrt(b * b - 4.0 * c_sup * c_sub)) / (2.0 * c_sup)) / h


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
            raise ValueError(f"need n_nodes >= {_MIN_NODES}, got {self.n_nodes}")
        if self.n_nodes > _MAX_NODES:   # refused before any array of that size exists
            raise ValueError(f"need n_nodes <= {_MAX_NODES}, got {self.n_nodes}")
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
        return _read_only(np.linspace(self.t_min, self.t_max, self.n_nodes))

    @cached_property
    def x(self) -> np.ndarray:
        return _read_only(np.exp(self.t))

    @cached_property
    def similarity(self) -> Optional[np.ndarray]:
        """The grid's one D, read-only: :func:`similarity_diagonal` (or None)."""
        return None if (D := similarity_diagonal(self.n_nodes, self.h)) is None else _read_only(D)

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

    def __reduce__(self):   # a copy or an unpickled grid fills its read-only caches anew
        return type(self), (self.t_min, self.t_max, self.n_nodes)


DEFAULT_GRID = RadialGrid(*DEFAULT_GRID_SPAN)


@dataclass(frozen=True, eq=False)
class RadialField:
    """Scalar samples on a radial grid, finite everywhere.  The one rule: a
    field's values (a copy, taken when it is built), a grid's ``t``, ``x`` and
    ``similarity``, a metric's D0 and the fit designs are read-only, their owner's own;
    a copy or an unpickled one is built anew.  A field equals only itself."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):   # np.array copies, always
        object.__setattr__(self, "values", _read_only(np.array(self.values, dtype=float)))
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError(f"values shape {self.values.shape} does not match grid "
                             f"({self.grid.n_nodes} nodes)")
        if not _all_finite(self.values):
            raise ValueError("field values must be finite at every node")

    def __reduce__(self):
        return type(self), (self.grid, self.values)

    @classmethod
    def from_function(cls, grid: RadialGrid, fn: Callable[[np.ndarray], np.ndarray]) -> "RadialField":
        """Sample fn(x) on the grid."""
        return cls(grid, fn(grid.x))

    @classmethod
    def zeros(cls, grid: RadialGrid) -> "RadialField":
        return cls.constant(grid, 0.0)

    @classmethod
    def constant(cls, grid: RadialGrid, value: float) -> "RadialField":
        return cls(grid, np.broadcast_to(float(value), grid.n_nodes))   # no array before the copy

    def write_csv(self, path) -> None:
        """Write as "x,value" rows, ascending x, 17 significant digits."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(_CSV_HEADER + "\n")
            for xv, val in zip(self.grid.x, self.values):
                fh.write(f"{CSV_FLOAT_FMT % xv},{CSV_FLOAT_FMT % val}\n")

    @classmethod
    def read_csv(cls, path) -> "RadialField":
        with open(path) as fh:
            header, *rows = fh.read().splitlines() or [""]
        if header != _CSV_HEADER:   # else a headerless file would lose its first sample
            raise ValueError(f"expected the header line {_CSV_HEADER} first in {path}, "
                             f"got {header!r}")
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
        # log(exp(t)) is off from t by up to about eps (1 + |t|), which on a
        # tiny spacing is far more than 1e-8 h
        slack = 4 * sys.float_info.epsilon * (1.0 + np.abs(t).max())
        if np.max(np.abs(np.diff(t) - h)) > 1e-8 * abs(h) + slack:
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


def unit_laplacian(values: np.ndarray, h: float, out: Optional[np.ndarray] = None,
                   scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """The one full-grid stencil: :func:`unit_laplacian_interior` inside,
    with its ``out`` and ``scratch``, and one-sided second order at the first
    and the last node, rows that diagnostics and a flow step's density read
    and solves replace by Dirichlet rows."""
    v, out = values, unit_laplacian_interior(values, h, out, scratch)
    out[0] = 0.5 * ((2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / h**2
                    + (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h))
    out[-1] = 0.5 * ((2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / h**2
                     + (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h))
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


def similarity_diagonal(n: int, h: float) -> Optional[np.ndarray]:
    """The diagonal similarity D of a grid of n nodes and spacing h, relative
    to the middle node: D_j = (c_sup/c_sub)^((j - n//2)/2), with (c_sub, c_sup)
    :func:`laplacian_coefficients`' off-diagonal ones.  D M D^-1 is symmetric
    for every tridiagonal M whose interior rows have the constant
    off-diagonals (-c_sub, -c_sup) (off-diagonal -sqrt(c_sub c_sup)).  None
    where D is not a real, normal scaling: spacing h >= 2 (c_sub <= 0), or
    an exponent past 700 (1/4 log(c_sup/c_sub) n >= 700)."""
    c_sub, _, c_sup = laplacian_coefficients(h)
    if not (c_sub > 0 and 0.25 * math.log(c_sup / c_sub) * n < 700):
        return None
    D = np.arange(-(n // 2), n - n // 2, dtype=float)
    return np.exp(np.multiply(0.5 * math.log(c_sup / c_sub), D, out=D), out=D)


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
    ``dptsv``, ``dpttrf``, ``dpttrs``), the package's one way to scipy's LAPACK.  It is
    loaded alone, without the inits of ``scipy.linalg`` (about 0.35 s) or
    ``scipy`` (about 20 ms), once under a lock, and registered in
    ``sys.modules``, so a later ``import scipy.linalg`` uses the same module,
    though it leaves the attribute ``scipy.linalg._flapack`` unset (see README)."""
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
    """Whether every entry is finite: no BLAS call, whose threads can stall a
    scan of a large array, and no squares, which are subnormal on tiny data."""
    return bool(np.isfinite(a).all())


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(map(_all_finite, arrays)):
        raise ValueError("array must not contain infs or NaNs")


def _check_lapack_info(info: int, routine: str, fault: str = "singular matrix") -> None:
    if info > 0:
        raise np.linalg.LinAlgError(fault)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")


class NewtonWorkspace:
    """The buffers a radial solve works in on ``n`` nodes, one solve at a
    time: ``v``/``candidate``, ``r``/``r_new`` and ``aux``/``aux_new`` are
    double buffers, swapped on an accepted step, and ``r`` receives each Newton
    correction; ``step`` holds a linear solve's right-hand side, then its
    solution; ``bands`` the three bands of a tridiagonal solve; ``scratch``
    is the callbacks' (the loop's between calls).  The package's solvers use
    :meth:`for_thread`'s; the similarity D is the grid's
    (``RadialGrid.similarity``), not the workspace's."""

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


def damped_newton(residual: Callable, solve: Callable, start: np.ndarray | float,
                  params: NewtonParams, label: str, work: NewtonWorkspace, floor: Callable):
    """Backtracking Newton iteration on a tridiagonal Jacobian.

    ``residual(v, r_out, aux_out)`` writes the residual at v and the data
    its Jacobian needs, and returns False when v is not admissible: when
    the evolving density's ``min() > 0`` fails, which NaN fails too.
    ``solve(aux, r)`` solves J c = r with J the Jacobian at that iterate,
    writes c into r's buffer and returns it (the Newton step is -c), and
    raises ``np.linalg.LinAlgError`` where J is singular.
    The loop starts from ``start`` (an array, or a scalar for a constant
    start); when it is not admissible, it raises SolverError.
    Each step is halved until the iterate is admissible and the sup-norm
    residual drops by the factor 1 - 1e-4 s.  A step below
    ``params.damping_min``, ``params.max_iter`` steps without reaching
    ``params.tol`` (a NaN residual never does) or a singular linearization
    raise SolverError naming ``label`` (and the last residual, if any).

    ``floor(v, aux, out)`` is the residual's rounding floor at an iterate,
    as :func:`_rounding_floor` states it, computed in the n-array ``out``
    and in ``work.scratch``.  Once Newton stalls (a
    full step rejected, or an accepted one above tol and half the last
    residual), an iterate within ``_FLOOR_FACTOR`` of a finite floor counts as
    converged.  ``params.tol`` is absolute, so a start already within it is
    accepted only within ``_FLOOR_FACTOR`` of its floor (which may be 0);
    otherwise Newton takes a step, and data far below tol still moves the
    solution.  Trials and floors overflow quietly: a non-finite trial fails.

    No array of the grid's size is allocated: the loop works in ``work``
    from a copy of the start and solves each step in the residual's buffer.
    Returns ``(v, aux, iterations, residual_history, damping_events,
    floor_value)``, ``v`` and ``aux`` buffers of ``work`` and
    ``floor_value`` the floor that stopped a stalled loop, else None (so
    always None at a residual within tol).
    """
    v, candidate, r, r_new = work.v, work.candidate, work.r, work.r_new
    aux, aux_new = work.aux, work.aux_new
    np.copyto(v, start)
    if not residual(v, r, aux):
        raise SolverError(f"{label} started from an iterate violating positivity")
    res_norm = _sup_norm(r, work.scratch)
    residuals = [res_norm]
    damping_events = iteration = 0
    while not res_norm <= params.tol or (
            iteration == 0 and _at_floor(floor, v, aux, r_new, res_norm) is None):
        if iteration == params.max_iter:
            raise SolverError(f"{label} did not converge in {params.max_iter} iterations; "
                              f"last residual {res_norm:.3e}")
        iteration += 1
        try:   # J c = r, solved in r's buffer; the Newton step is -c
            correction = solve(aux, r)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular {label} linearization at iteration "
                              f"{iteration}: {exc}") from exc
        s = 1.0
        while True:
            # 1.0 * c is exact, so the full step skips the multiply
            np.subtract(v, correction if s == 1.0
                        else np.multiply(correction, s, out=candidate), out=candidate)
            with np.errstate(over="ignore", invalid="ignore"):
                ok = residual(candidate, r_new, aux_new)
                new_norm = _sup_norm(r_new, work.scratch) if ok else np.inf
            if ok and new_norm <= (1.0 - 1e-4 * s) * res_norm:
                break
            if s == 1.0 and (at := _at_floor(floor, v, aux, r_new, res_norm)) is not None:
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
        if res_norm > max(params.tol, 0.5 * residuals[-2]) and \
                (at := _at_floor(floor, v, aux, r_new, res_norm)) is not None:
            return v, aux, iteration, residuals, damping_events, at
    return v, aux, iteration, residuals, damping_events, None


def _at_floor(floor: Callable, v, aux, out, res_norm: float) -> Optional[float]:
    """The floor at (v, aux), positive, if the residual has reached it; else None."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = floor(v, aux, out)
    return value if math.isfinite(value) and res_norm <= _FLOOR_FACTOR * value else None


def _rounding_floor(v: np.ndarray, h: float, gamma: float, alpha: float, beta: np.ndarray,
                    rho: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> float:
    """eps max_j [gamma sum_k |c_k v_{j+k}| / rho_j + alpha |v_j| + |beta_j|]
    over the interior nodes j, with c_k the centred stencil's coefficients:
    the rounding floor of a residual made of gamma log(rho), alpha v and beta
    terms, rho the evolving density at v, which holds the stencil.  ``beta``
    and ``rho`` are over the n - 2 interior nodes; ``out`` and ``scratch``,
    shaped like ``v``, are worked in and overlap neither."""
    n, inner, tmp = len(v), out[1:-1], scratch[1:-1]
    inner.fill(0.0)
    for k, c in enumerate(laplacian_coefficients(h)):   # neighbours j - 1, j, j + 1
        np.add(inner, np.multiply(np.abs(v[k:n - 2 + k], out=tmp), abs(c), out=tmp), out=inner)
    np.divide(inner, rho, out=inner)
    np.multiply(gamma, inner, out=inner)
    np.add(inner, np.multiply(np.abs(v[1:-1], out=tmp), alpha, out=tmp), out=inner)
    np.add(inner, np.abs(beta, out=tmp), out=inner)
    return np.finfo(float).eps * float(np.max(inner))


def _jacobian_solver(h: float, D: Optional[np.ndarray], gamma: float, alpha: float,
                     work: NewtonWorkspace) -> Callable:
    """``solve(rho, r)``, prepared once for an instance: it solves J c = r in
    r's buffer (in ``work.bands`` and ``work.scratch``) and returns it, J =
    alpha - (gamma / rho) Delta at the interior nodes of the n-arrays,
    identity rows at the ends, gamma > 0, alpha >= 0 and rho an n-array or a
    scalar (a constant density): the Newton and flow steps' Jacobian, and
    (Delta_g - lambda) u = f as (rho, gamma, alpha) = (density, 1, lambda) on
    -f.  With w = rho / gamma, the interior rows of w J have the diagonal
    alpha w - c_diag and the constant off-diagonals (-c_sub, -c_sup), so the
    similarity D (the grid's read-only ``RadialGrid.similarity``) makes them
    the symmetric S = D (w J) D^-1: off-diagonal -sqrt(c_sub c_sup), diagonal
    larger than twice that by alpha w + (sqrt(c_sup) - sqrt(c_sub))^2 > 0.
    The two Dirichlet columns move to the right-hand side, one LDL^T (LAPACK
    ptsv, no pivoting, stable on this diagonally dominant matrix) solves S y
    = D (w r) and c = y / D.  Where D is None (h >= 2, or D past e^700), or D
    (w r) overflows or the factorization fails, pivoting gtsv solves J's
    bands (:func:`dirichlet_bands`) instead, raising what gtsv raises.

    Prepared here, not in a solve: the stencil coefficients, the Dirichlet
    columns' entries c_sub D[1] and c_sup D[-2] of D (w J) (D taken first:
    they meet bc-sized data), the off-diagonal and the LAPACK routine.  An
    identity coefficient costs no pass: gamma = 1 skips w's division, alpha
    = 1 the product alpha w, and a scalar rho fills the diagonal; x / 1 and
    1 x are x, so each instance solves bit for bit as the general rows do."""
    c_sub, c_diag, c_sup = laplacian_coefficients(h)
    unit_gamma, unit_alpha = gamma == 1.0, alpha == 1.0

    def pivoting(rho, r: np.ndarray) -> np.ndarray:
        weight = (np.divide(-gamma, rho[1:-1], out=work.scratch[1:-1])
                  if isinstance(rho, np.ndarray) else -gamma / rho)
        return _gtsv(*dirichlet_bands(len(r), h, weight, -alpha, out=work.bands), r,
                     overwrite=True)

    if D is None:
        return pivoting
    scale, left, right = D[1:-1], c_sub * float(D[1]), c_sup * float(D[-2])
    off, ptsv = -math.sqrt(c_sub * c_sup), _lapack().dptsv
    e, d, y = work.bands[0][1:-2], work.bands[1][1:-1], work.bands[2][1:-1]

    def solve(rho, r: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(rho, np.ndarray):   # w, then d = alpha w - c_diag
                w = rho[1:-1] if unit_gamma else np.divide(rho[1:-1], gamma, out=y)
                np.subtract(w if unit_alpha else np.multiply(w, alpha, out=d), c_diag, out=d)
            else:
                w = rho if unit_gamma else rho / gamma
                d.fill((w if unit_alpha else w * alpha) - c_diag)
            np.multiply(np.multiply(w, scale, out=y), r[1:-1], out=y)
            y[0] += left * r[0]
            y[-1] += right * r[-1]
            if _all_finite(y):
                e.fill(off)
                if not ptsv(d, e, y, True, True, True)[-1]:
                    np.divide(y, scale, out=r[1:-1])
                    return r
        # r is intact: the scaled system overflowed or failed
        return pivoting(rho, r)

    return solve


def _is_scalar(value, c: float) -> bool:
    """Whether ``value`` is the scalar c; an array never is."""
    return np.ndim(value) == 0 and value == c


def _log_density_equation(h: float, D: Optional[np.ndarray], S, excess, D0, alpha: float,
                          beta, gamma: float, bc: Sequence[float], work: NewtonWorkspace):
    """``damped_newton``'s ``residual``, ``solve`` and ``floor`` for the
    equation (alpha v + beta) - gamma log1p((excess + Delta v) / D0) = 0 at
    the interior nodes, excess = S - D0, with v = bc at the two ends, and
    ``from_laplacian(v, lap, r, rho)``, the residual from Delta v held in
    ``lap`` (which may be ``r``).  Each writes rho = S + Delta v into the
    interior of ``rho`` and answers ``min(rho) > 0``; the Jacobian is J =
    alpha - (gamma / rho) Delta inside, identity rows at the ends, and the
    floor :func:`_rounding_floor`'s.  ``S``, ``excess``, ``D0`` and ``beta``
    are scalars or arrays over the n - 2 interior nodes, scalars where they
    are constant; alpha and gamma are positive.  The callbacks work in
    ``work.scratch``, and ``solve(rho, r)``, :func:`_jacobian_solver`'s of J
    with D the grid's similarity, prepared here once, in ``work.bands`` too.

    An instance states only its coefficients, in its call of this function;
    which of them are identities (excess 0, scalar D0 = 1, gamma = 1, alpha = 1) is decided
    once, and an identity costs no pass.  Every skip keeps every bit: 1 x
    and x / 1 are x, and excess + Delta v with excess 0 differs from Delta v
    only at Delta v = -0, which needs v_j >= +0 (c_diag < 0, so alpha v_j +
    beta is not -0), where subtracting gamma log1p(+-0) gives the same."""
    tmp = work.scratch[1:-1]
    zero_excess, unit_D0 = _is_scalar(excess, 0.0), _is_scalar(D0, 1.0)
    unit_gamma, unit_alpha = gamma == 1.0, alpha == 1.0

    def from_laplacian(v: np.ndarray, lap: np.ndarray, r: np.ndarray, rho: np.ndarray) -> bool:
        inner, laplacian, positivity = r[1:-1], lap[1:-1], rho[1:-1]   # rho's ends unwritten
        np.add(S, laplacian, out=positivity)
        positive = bool(positivity.min() > 0)   # np.all(rho > 0): False on NaN
        if positive:
            ratio = laplacian if zero_excess else np.add(excess, laplacian, out=tmp)
            np.log1p(ratio if unit_D0 else np.divide(ratio, D0, out=tmp), out=tmp)
            if not unit_gamma:
                np.multiply(gamma, tmp, out=tmp)
            np.add(v[1:-1] if unit_alpha else np.multiply(alpha, v[1:-1], out=inner), beta,
                   out=inner)
            np.subtract(inner, tmp, out=inner)
        r[0] = v[0] - bc[0]
        r[-1] = v[-1] - bc[1]
        return positive

    def residual(v: np.ndarray, r: np.ndarray, rho: np.ndarray) -> bool:
        return from_laplacian(v, unit_laplacian_interior(v, h, out=r, scratch=work.scratch),
                              r, rho)

    def floor(v: np.ndarray, rho: np.ndarray, out: np.ndarray) -> float:
        return _rounding_floor(v, h, gamma, alpha, beta, rho[1:-1], out, work.scratch)

    return residual, _jacobian_solver(h, D, gamma, alpha, work), floor, from_laplacian


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


def sample_terms(terms: Sequence[tuple[float, float, int]], grid: RadialGrid) -> RadialField:
    """The term list ``terms`` sampled on ``grid``; a ValueError where it is not
    finite (an overflowing power of x, say) or a term's exponent is not
    (x^inf is 0 on the grid, but no JSON number)."""
    if not all(math.isfinite(z) for _, z, _ in terms):
        raise ValueError("a term exponent is not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        values = evaluate_expansion(terms, grid.x)
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise ValueError(f"the terms are not finite at x={grid.x[np.argmax(bad)]:.6g}")
    return RadialField(grid, values)
