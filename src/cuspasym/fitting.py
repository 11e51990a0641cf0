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

import math
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


def _design(t: np.ndarray, terms: Sequence[IndexTerm]) -> np.ndarray:
    cols = [np.exp(float(tm.z) * t) * t ** tm.k for tm in terms]
    return np.column_stack(cols)


def _weighted_lstsq(t: np.ndarray, y: np.ndarray, terms: Sequence[IndexTerm],
                    weight_exponent: float):
    w = np.exp(-weight_exponent * t)        # x^{-weight_exponent}
    A = _design(t, terms) * w[:, None]
    b = y * w
    col_norms = np.linalg.norm(A, axis=0)
    if np.any(col_norms == 0):
        j = int(np.argmax(col_norms == 0))
        raise FitError(f"basis term {terms[j]} vanishes identically on the window")
    A_scaled = A / col_norms
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
    return coef_scaled / col_norms


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
    mask = grid.window_mask(x_lo, x_hi)
    count = int(np.count_nonzero(mask))
    if count < 3 * len(terms):
        raise ValueError(
            f"window [{x_lo:.3g}, {x_hi:.3g}] holds {count} samples; "
            f"need at least {3 * len(terms)} for {len(terms)} terms")
    t = grid.t[mask]
    x = grid.x[mask]
    y = samples.values[mask]
    # Rows are weighted by x^{-N}, the expected remainder scale: the least
    # squares then minimizes the remainder in its natural units, which pins
    # low-order coefficients from the deepest rows and keeps omitted-term
    # leakage below the remainder there.
    coefs = _weighted_lstsq(t, y, terms, weight_exponent=N)
    r = y - _design(t, terms) @ coefs
    residual_sup = float(np.max(np.abs(r) / x ** N))
    slope, spread = _remainder_slope(x, r, noise_scale=float(np.max(np.abs(y))))
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
    x_lo = float(np.min(x))
    mask = x <= x_lo * 10.0
    xs, rs = x[mask], np.abs(r[mask])
    floor = 1e-12 * max(noise_scale, np.max(np.abs(r)) if len(r) else 0.0)
    if np.max(rs) <= floor or np.count_nonzero(rs > 0) < 4:
        return None, None
    keep = rs > max(floor, 1e-300)
    ts, ls = np.log(xs[keep]), np.log(rs[keep])
    slope = _lsq_slope(ts, ls)
    even = _lsq_slope(ts[::2], ls[::2])
    odd = _lsq_slope(ts[1::2], ls[1::2])
    lo, hi = min(even, odd), max(even, odd)
    return float(slope), (float(lo), float(hi))


def _lsq_slope(t: np.ndarray, y: np.ndarray) -> float:
    t_mean, y_mean = np.mean(t), np.mean(y)
    denom = np.sum((t - t_mean) ** 2)
    return float(np.sum((t - t_mean) * (y - y_mean)) / denom)


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


def _detector_windows(grid: RadialGrid):
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
    return windows


def detect_log_term(samples: RadialField) -> LogTermEstimate:
    """Estimate the coefficient of x log x in a field vanishing at the cusp.

    Fits b * x log x + c * x on each sliding window (placed by the
    ``DETECTOR_*`` constants); the deepest window gives the reported value
    and the spread across windows the uncertainty.  Estimates whose spread
    exceeds half their size are flagged as unreliable ("no reliable log
    term").
    """
    grid = samples.grid
    windows = _detector_windows(grid)
    basis = (IndexTerm(1, 1), IndexTerm(1, 0))
    values = []
    linear_values = []
    for x_lo, x_hi in windows:
        mask = grid.window_mask(x_lo, x_hi)
        t, y = grid.t[mask], samples.values[mask]
        if len(t) < 6:
            raise ValueError("detector window holds fewer than 6 samples")
        coefs = _weighted_lstsq(t, y, basis, weight_exponent=1.0)
        values.append(float(coefs[0]))
        linear_values.append(float(coefs[1]))
    value = values[0]
    uncertainty = max(abs(v - value) for v in values)
    # scale of the data measured against x on the deepest window
    mask = grid.window_mask(*windows[0])
    data_scale = float(np.max(np.abs(samples.values[mask]) / grid.x[mask]))
    floor = 1e-8 * (1.0 + data_scale)
    reliable = uncertainty <= max(0.5 * abs(value), floor)
    message = "" if reliable else "no reliable log term (non-stabilizing estimates)"
    return LogTermEstimate(
        value=value,
        linear_value=linear_values[0],
        uncertainty=uncertainty,
        reliable=reliable,
        window_values=values,
        windows=windows,
        message=message,
    )
