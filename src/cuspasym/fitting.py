"""Least-squares fitting of truncated polyhomogeneous expansions.

A sampled radial function is matched against a finite family of profiles
x^z (log x)^k prescribed by an index set.  The monomials are severely
collinear on narrow windows, so the fit works in t = log x with basis
e^{z t} t^k, scales each column to unit norm, and weights rows by
x^{-N} (N the truncation order) so that the least squares runs in the
remainder's natural units.  Remainder decay is measured as the slope of
log |residual| against log x over the deepest decade of the window, with
a spread estimated from the even/odd node subsamples.

The two-term detector for b * x log x + c * x slides a window toward the
cusp and reports the deepest stable estimate; windows hugging the left
boundary are excluded because Dirichlet truncation errors there decay only
like (x_left / x)^3 in relative size.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import FitError
from .indexsets import IndexSet, IndexTerm, exponent_gt
from .radial import RadialField, RadialGrid, evaluate_expansion

LN10 = math.log(10.0)

#: Nodes next to t_min excluded from every default window.
BOUNDARY_GUARD_NODES = 5

#: Extra guard, in decades, for the sliding log-term detector.
DETECTOR_GUARD_DECADES = 1.25
#: Width and stride, in decades, and the most windows of that detector.
DETECTOR_WIDTH_DECADES = 1.5
DETECTOR_STRIDE_DECADES = 0.75
DETECTOR_MAX_WINDOWS = 4
_DETECTOR_BASIS = (IndexTerm(1, 1), IndexTerm(1, 0))   # b x log x + c x


@dataclass
class PolyhomFit:
    """Result of a truncated-expansion fit."""

    index_set: IndexSet
    terms: tuple[IndexTerm, ...]
    coefficients: dict[IndexTerm, float]
    residual_sup: float               # sup |residual| / x^N over the window
    remainder_exponent: Optional[float]   # None when the remainder saturates
    remainder_spread: Optional[tuple[float, float]]
    window: tuple[float, float]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return evaluate_expansion(
            [(a, tm.z, tm.k) for tm, a in self.coefficients.items()], x)


@dataclass
class RemainderReport:
    slope: Optional[float]        # None when saturated
    spread: Optional[tuple[float, float]]
    saturated: bool
    target_order: float
    meets_target: bool            # slope >= N - 0.25 (True when saturated)


@dataclass
class LogTermEstimate:
    value: float                  # coefficient of x log x, deepest window
    linear_value: float           # coefficient of x in the same window
    uncertainty: float            # max spread across the sliding windows
    reliable: bool
    window_values: list[float]
    windows: list[tuple[float, float]]
    message: str = ""


def default_fit_window(grid: RadialGrid) -> tuple[float, float]:
    """Deepest two decades of the grid, excluding the nodes nearest t_min."""
    x_lo = float(grid.x[BOUNDARY_GUARD_NODES])
    x_hi = min(float(grid.x_max), x_lo * 100.0)
    return (x_lo, x_hi)


#: what a fit on one window needs of the grid alone (read-only): the rows, the
#: weights x^-N, the design, its weighted columns scaled to unit norm, their norms
_FitDesign = namedtuple("_FitDesign", "rows w A A_scaled col_norms")


@functools.lru_cache(maxsize=32)
def _fit_design(grid: RadialGrid, window: tuple[float, float], terms: tuple[IndexTerm, ...],
                weight_exponent: float) -> _FitDesign:
    nodes = np.flatnonzero(grid.window_mask(*window))   # one run, as x ascends
    if len(nodes) < 3 * len(terms):
        raise ValueError(f"window [{window[0]:.3g}, {window[1]:.3g}] holds {len(nodes)} "
                         f"samples; need at least {3 * len(terms)} for {len(terms)} terms")
    rows = slice(int(nodes[0]), int(nodes[-1]) + 1)
    t = grid.t[rows]
    w = np.exp(-weight_exponent * t)        # x^{-weight_exponent}
    A = np.column_stack([np.exp(float(tm.z) * t) * t ** tm.k for tm in terms])
    weighted = A * w[:, None]
    col_norms = np.linalg.norm(weighted, axis=0)
    if np.any(col_norms == 0):
        j = int(np.argmax(col_norms == 0))
        raise FitError(f"basis term {terms[j]} vanishes identically on the window")
    design = _FitDesign(rows, w, A, weighted / col_norms, col_norms)
    for array in design[1:]:
        array.flags.writeable = False
    return design


def _weighted_lstsq(design: _FitDesign, y: np.ndarray, terms: Sequence[IndexTerm]):
    A_scaled, b = design.A_scaled, y * design.w
    coef_scaled, _, _, sv = np.linalg.lstsq(A_scaled, b, rcond=None)
    if sv[-1] < 1e-12 * sv[0]:
        gram = A_scaled.T @ A_scaled
        np.fill_diagonal(gram, 0.0)
        i, j = np.unravel_index(np.argmax(np.abs(gram)), gram.shape)
        raise FitError(
            f"near-collinear basis on this window: terms {terms[i]} and "
            f"{terms[j]} are numerically indistinguishable")
    # two sweeps of iterative refinement recover digits lost to the mild
    # ill-conditioning of the scaled design
    for _ in range(2):
        correction = np.linalg.lstsq(A_scaled, b - A_scaled @ coef_scaled,
                                     rcond=None)[0]
        coef_scaled = coef_scaled + correction
    return coef_scaled / design.col_norms


def fit_polyhom(samples: RadialField, E: IndexSet,
                fit_window: Optional[tuple[float, float]] = None) -> PolyhomFit:
    """Weighted least-squares fit of the expansion prescribed by E.

    Uses every term of E with exponent below the cutoff N; requires at
    least three samples per term inside the window.  ``residual_sup`` is
    the sup over the window of |data - expansion| / x^N, the natural size
    for a remainder that should vanish to order N.
    """
    grid = samples.grid
    window = fit_window if fit_window is not None else default_fit_window(grid)
    x_lo, x_hi = window
    N = float(E.cutoff)
    terms = tuple(tm for tm in E if not exponent_gt(tm.z, E.cutoff))
    if not terms:
        raise ValueError("index set has no terms below its cutoff")
    design = _fit_design(grid, (x_lo, x_hi), terms, N)
    x, y = grid.x[design.rows], samples.values[design.rows]
    # Rows are weighted by x^{-N}, the expected remainder scale: the least
    # squares then minimizes the remainder in its natural units, which pins
    # low-order coefficients from the deepest rows and keeps omitted-term
    # leakage below the remainder there.
    coefs = _weighted_lstsq(design, y, terms)
    r = y - design.A @ coefs
    residual_sup = float((np.abs(r) / x ** N).max())
    slope, spread = _remainder_slope(x, r, noise_scale=float(np.abs(y).max()))
    return PolyhomFit(
        index_set=E,
        terms=terms,
        coefficients={tm: float(c) for tm, c in zip(terms, coefs)},
        residual_sup=residual_sup,
        remainder_exponent=slope,
        remainder_spread=spread,
        window=(float(x_lo), float(x_hi)),
    )


def _remainder_slope(x: np.ndarray, r: np.ndarray, noise_scale: float):
    """Slope of log |r| vs log x over the deepest decade, or None if the
    remainder sits below the double-precision noise floor."""
    x_lo = float(x.min())
    mask = x <= x_lo * 10.0
    xs, rs = x[mask], np.abs(r[mask])
    floor = 1e-12 * max(noise_scale, np.abs(r).max() if len(r) else 0.0)
    keep = rs > max(floor, 1e-300)
    if np.count_nonzero(keep) < 4:   # each half-sample slope needs two points
        return None, None
    ts, ls = np.log(xs[keep]), np.log(rs[keep])
    slope = _lsq_slope(ts, ls)
    even = _lsq_slope(ts[::2], ls[::2])
    odd = _lsq_slope(ts[1::2], ls[1::2])
    lo, hi = min(even, odd), max(even, odd)
    return float(slope), (float(lo), float(hi))


def _lsq_slope(t: np.ndarray, y: np.ndarray) -> float:
    # sum() / len is np.mean's own arithmetic, without its wrapper
    t_mean, y_mean = t.sum() / len(t), y.sum() / len(y)
    denom = ((t - t_mean) ** 2).sum()
    return float(((t - t_mean) * (y - y_mean)).sum() / denom)


def remainder_check(fit: PolyhomFit, samples: RadialField) -> RemainderReport:
    """Decay report for the remainder of a fit against its own samples.

    Computes r = samples - expansion over the fit window and fits
    log |r| against log x over the deepest decade; the slope should reach
    N, the cutoff of the fit's index set.  A remainder below the
    double-precision noise floor is reported as saturated rather than
    given a meaningless slope.
    """
    N = float(fit.index_set.cutoff)
    grid = samples.grid
    mask = grid.window_mask(*fit.window)
    x = grid.x[mask]
    r = samples.values[mask] - fit.evaluate(x)
    slope, spread = _remainder_slope(
        x, r, noise_scale=float(np.max(np.abs(samples.values[mask]))))
    if slope is None:
        return RemainderReport(None, None, True, N, True)
    return RemainderReport(slope, spread, False, N, bool(slope >= N - 0.25))


@functools.lru_cache(maxsize=32)
def _detector_windows(grid: RadialGrid) -> tuple[tuple[float, float], ...]:
    t_start = grid.t_min + max(BOUNDARY_GUARD_NODES * grid.h,
                               DETECTOR_GUARD_DECADES * LN10)
    width = DETECTOR_WIDTH_DECADES * LN10
    stride = DETECTOR_STRIDE_DECADES * LN10
    windows = []
    for k in range(DETECTOR_MAX_WINDOWS):
        lo = t_start + k * stride
        hi = lo + width
        if hi > grid.t_max:
            break
        windows.append((math.exp(lo), math.exp(hi)))
    if not windows:
        raise ValueError("grid too shallow for the sliding-window detector")
    return tuple(windows)


@functools.lru_cache(maxsize=32)
def _detector_designs(grid: RadialGrid) -> tuple[tuple[tuple[float, float], _FitDesign], ...]:
    """Each detector window with its design: one cached lookup a detection."""
    return tuple((w, _fit_design(grid, w, _DETECTOR_BASIS, 1.0)) for w in _detector_windows(grid))


def detect_log_term(samples: RadialField) -> LogTermEstimate:
    """Estimate the coefficient of x log x in a field vanishing at the cusp.

    Fits b * x log x + c * x on each sliding window (placed by the
    ``DETECTOR_*`` constants); the deepest window gives the reported value
    and the spread across windows the uncertainty.  Estimates whose spread
    exceeds half their size are flagged as unreliable ("no reliable log
    term").
    """
    grid = samples.grid
    windowed = _detector_designs(grid)
    values, linear_values = [], []
    for _, design in windowed:
        coefs = _weighted_lstsq(design, samples.values[design.rows], _DETECTOR_BASIS)
        values.append(float(coefs[0]))
        linear_values.append(float(coefs[1]))
    value = values[0]
    uncertainty = max(abs(v - value) for v in values)
    # scale of the data measured against x on the deepest window
    rows = windowed[0][1].rows
    data_scale = float((np.abs(samples.values[rows]) / grid.x[rows]).max())
    floor = 1e-8 * (1.0 + data_scale)
    reliable = uncertainty <= max(0.5 * abs(value), floor)
    message = "" if reliable else "no reliable log term (non-stabilizing estimates)"
    return LogTermEstimate(
        value=value,
        linear_value=linear_values[0],
        uncertainty=uncertainty,
        reliable=reliable,
        window_values=values,
        windows=[window for window, _ in windowed],   # the caller's own
        message=message,
    )
