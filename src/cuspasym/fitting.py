"""Least-squares fitting of truncated polyhomogeneous expansions.

A sampled radial function is matched against a finite family of profiles
x^z (log x)^k prescribed by an index set.  The monomials are severely
collinear on narrow windows, so the fit works in t = log x with basis
e^{z t} t^k, scales each column to unit norm, and weights rows by
x^{-N} (N the truncation order) so that the least squares runs in the
remainder's natural units.  A window's scaled design is factored once, when
it is built: its thin SVD gives the pseudo-inverse P (singular values at or
below dgelsd's cutoff eps max(m, n) s[0] dropped), and each fit is P b with
two sweeps of iterative refinement, all numpy.  ``fit_polyhom`` is the only
fit: it returns the coefficients alone.  ``remainder_check`` is the only
remainder: it forms the residual on the fit's cached design and measures its
decay as the slope of log |residual| against log x over the deepest decade of
the window, with a spread estimated from the even/odd node subsamples.

The log-term detector is ``fit_polyhom`` of b * x log x + c * x + d * x^-2
(cutoff 1, so rows weighted by x^-1) on windows that slide toward the cusp;
it reports the deepest estimate.  x^-2 is the Dirichlet truncation mode: the
other root of the Monge-Ampere linearization's indicial polynomial
P(z) = (z^2 + z)/2 - 1, whose contamination decays only like (x_left / x)^3
in relative size.  Fitted, it leaves the detector a clean second-order error,
and ``extrapolate_log_term`` removes that over grids h, 2h and 4h
(Richardson's deferred approach to the limit).
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
from .indicial import HALF, IndicialFamily, spec_b_roots
from .radial import RadialField, RadialGrid, _all_finite, _read_only, stencil_root

LN10 = math.log(10.0)

#: Nodes next to t_min excluded from every default window.
BOUNDARY_GUARD_NODES = 5

#: Extra guard, in decades, for the sliding log-term detector.
DETECTOR_GUARD_DECADES = 1.25
#: Width and stride, in decades, and the most windows of that detector.
DETECTOR_WIDTH_DECADES = 1.5
DETECTOR_STRIDE_DECADES = 0.75
DETECTOR_MAX_WINDOWS = 4
#: the indicial family of the Monge-Ampere linearization at the cusp,
#: P(z) = (c/2)(z^2 + z) - lambda = (z^2 + z)/2 - 1, with roots -2 and 1
MA_LINEARIZATION = IndicialFamily(lam=1, c=1, spectrum=(0,))
_MA_ROOTS = spec_b_roots(MA_LINEARIZATION)
#: the log term's exponent, the upper root, and P' = c (z + 1/2) there,
#: exactly: a source a x^z gives b~ = a / P'
LOG_ROOT = _MA_ROOTS[-1].z
P_PRIME_AT_LOG_ROOT = MA_LINEARIZATION.c * (LOG_ROOT + HALF)
_LOG_TERM, _LINEAR_TERM = IndexTerm(LOG_ROOT, 1), IndexTerm(LOG_ROOT, 0)
#: b x log x + c x and the Dirichlet modes, the roots of the linearization
#: below the log term's, with the cutoff 1 weighting rows by x^-1
_DETECTOR_SET = IndexSet((_LOG_TERM, _LINEAR_TERM, *(
    IndexTerm(r.z, k) for r in _MA_ROOTS
    if exponent_gt(LOG_ROOT, r.z) for k in range(r.order))), 1)
#: the same without the Dirichlet modes, for windows that cannot hold them
_LOG_AND_LINEAR_SET = IndexSet((_LOG_TERM, _LINEAR_TERM), 1)
#: safety factor on the Richardson estimate of an extrapolated value's error,
#: which read 0.67-0.85 of the true error from 2048 to 16384 nodes (README)
RICHARDSON_SAFETY = 2.0


@dataclass
class PolyhomFit:
    """Result of a truncated-expansion fit: its coefficients on its window.
    ``remainder_check`` measures what it leaves over."""

    index_set: IndexSet
    terms: tuple[IndexTerm, ...]
    coefficients: dict[IndexTerm, float]
    window: tuple[float, float]


@dataclass
class RemainderReport:
    """What a fit leaves over on its window (``remainder_check``): the
    weighted sup of the remainder, its decay slope against log x and that
    slope's spread, or saturated where it is below the noise floor."""
    residual_sup: float           # sup |residual| / x^N over the window
    slope: Optional[float]        # None when saturated
    spread: Optional[tuple[float, float]]
    saturated: bool
    meets_target: bool            # slope >= N - 0.25 (True when saturated)


@dataclass
class LogTermEstimate:
    """The detector's x log x coefficient on one grid (``detect_log_term``):
    the deepest window's value and x coefficient, the value on every sliding
    window, their spread, the basis fitted and why it is unreliable, if it is."""
    value: float                  # coefficient of x log x, deepest window
    linear_value: float           # coefficient of x in the same window
    uncertainty: float            # max spread across the sliding windows
    reliable: bool
    window_values: list[float]
    windows: list[tuple[float, float]]
    basis: IndexSet               # the fitted set: _DETECTOR_SET where the windows hold it
    message: str = ""


@dataclass
class ExtrapolatedLogTerm:
    """The x log x coefficient extrapolated over three grids
    (``extrapolate_log_term``): the deepest window's value, its error bar and
    the extrapolated value on every window."""
    value: float                  # b_R on the two finest grids, deepest window
    uncertainty: float            # error bar of value: see extrapolate_log_term
    window_values: list[float]    # b_R on each window


def default_fit_window(grid: RadialGrid) -> tuple[float, float]:
    """Deepest two decades of the grid, excluding the nodes nearest t_min."""
    x_lo = float(grid.x[BOUNDARY_GUARD_NODES])
    x_hi = min(float(grid.x_max), x_lo * 100.0)
    return (x_lo, x_hi)


#: what a fit on one window needs of the grid alone (read-only): the rows, the
#: weights x^-N, x^N, the design, its weighted columns scaled to unit norm,
#: their norms, and the pseudo-inverse and singular values of the scaled design
_FitDesign = namedtuple("_FitDesign", "rows w x_N A A_scaled col_norms pinv sv")


@functools.lru_cache(maxsize=32)
def _fit_design(grid: RadialGrid, window: tuple[float, float], terms: tuple[IndexTerm, ...],
                weight_exponent: float) -> _FitDesign:
    nodes = np.flatnonzero(grid.window_mask(*window))   # one run, as x ascends
    if len(nodes) < 3 * len(terms):
        raise ValueError(f"window [{window[0]:.3g}, {window[1]:.3g}] holds {len(nodes)} "
                         f"samples; need at least {3 * len(terms)} for {len(terms)} terms")
    rows = slice(int(nodes[0]), int(nodes[-1]) + 1)
    t = grid.t[rows]
    on_window = f"on the window [{window[0]:.3g}, {window[1]:.3g}]"
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(-weight_exponent * t)        # x^{-weight_exponent}
        A = np.column_stack([np.exp(float(tm.z) * t) * t ** tm.k for tm in terms])
        weighted = A * w[:, None]
        col_norms = np.linalg.norm(weighted, axis=0)
    if not _all_finite(w):
        raise FitError(f"the row weights x^-{weight_exponent:g} overflow {on_window}")
    # a column that overflows, alone or weighted, has a norm that is not finite
    for tm, norm in zip(terms, col_norms.tolist()):
        if not math.isfinite(norm):
            raise FitError(f"basis term {tm} overflows {on_window}")
        if norm == 0:
            raise FitError(f"basis term {tm} vanishes identically {on_window}")
    A_scaled = weighted / col_norms
    U, sv, Vt = np.linalg.svd(A_scaled, full_matrices=False)
    if sv[-1] < 1e-12 * sv[0]:
        gram = A_scaled.T @ A_scaled
        np.fill_diagonal(gram, 0.0)
        i, j = np.unravel_index(np.argmax(np.abs(gram)), gram.shape)
        raise FitError(
            f"near-collinear basis on this window: terms {terms[i]} and "
            f"{terms[j]} are numerically indistinguishable")
    # P = V diag(1/s) U^T without each s <= eps max(m, n) s[0], the values
    # LAPACK dgelsd treats as zero under numpy.linalg.lstsq's rcond=None
    keep = sv > np.finfo(float).eps * max(A.shape) * sv[0]
    pinv = (Vt[keep].T / sv[keep]) @ U[:, keep].T
    return _FitDesign(rows, *map(_read_only, (w, grid.x[rows] ** weight_exponent, A, A_scaled,
                                              col_norms, pinv, sv)))


def _weighted_lstsq(design: _FitDesign, y: np.ndarray) -> np.ndarray:
    """The coefficients of the weighted least squares of y on the design; a
    FitError where the weighted samples or the coefficients are not finite."""
    A_scaled, pinv = design.A_scaled, design.pinv
    with np.errstate(over="ignore", invalid="ignore"):
        b = y * design.w
        if not _all_finite(b):
            raise FitError(f"the weighted samples overflow: samples up to "
                           f"{np.abs(y).max():.3e} times weights up to {design.w.max():.3e}")
        coef_scaled = pinv @ b
        # two sweeps of iterative refinement recover digits lost to the mild
        # ill-conditioning of the scaled design
        for _ in range(2):
            coef_scaled = coef_scaled + pinv @ (b - A_scaled @ coef_scaled)
        coefs = coef_scaled / design.col_norms
    if not _all_finite(coefs):
        raise FitError(f"the fit's coefficients overflow on samples up to {np.abs(y).max():.3e}")
    return coefs


def fit_polyhom(samples: RadialField, E: IndexSet,
                fit_window: Optional[tuple[float, float]] = None) -> PolyhomFit:
    """Weighted least-squares fit of the expansion prescribed by E.

    Uses every term of E (each has exponent at most the cutoff N); requires
    at least three samples per term inside the window.  The window defaults
    to :func:`default_fit_window`.
    """
    grid = samples.grid
    x_lo, x_hi = fit_window if fit_window is not None else default_fit_window(grid)
    window = (float(x_lo), float(x_hi))
    if not E.terms:
        raise ValueError("index set has no terms")
    design = _fit_design(grid, window, E.terms, float(E.cutoff))
    # Rows are weighted by x^{-N}, the expected remainder scale: the least
    # squares then minimizes the remainder in its natural units, which pins
    # low-order coefficients from the deepest rows and keeps omitted-term
    # leakage below the remainder there.
    coefs = _weighted_lstsq(design, samples.values[design.rows])
    return PolyhomFit(index_set=E, terms=E.terms,
                      coefficients={tm: float(c) for tm, c in zip(E.terms, coefs)},
                      window=window)


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
    """Size and decay of r = samples - expansion over the fit window, formed
    on the fit's cached design: ``residual_sup`` is the sup of |r| / x^N, N
    the cutoff of the fit's index set, and the slope of log |r| against
    log x over the deepest decade should reach N.  A remainder below the
    double-precision noise floor is reported as saturated rather than given
    a meaningless slope.
    """
    N = float(fit.index_set.cutoff)
    grid = samples.grid
    design = _fit_design(grid, fit.window, fit.terms, N)
    y = samples.values[design.rows]
    r = y - design.A @ np.array([fit.coefficients[tm] for tm in fit.terms])
    residual_sup = float((np.abs(r) / design.x_N).max())
    slope, spread = _remainder_slope(grid.x[design.rows], r,
                                     noise_scale=float(np.abs(y).max()))
    if slope is None:
        return RemainderReport(residual_sup, None, None, True, True)
    return RemainderReport(residual_sup, slope, spread, False, bool(slope >= N - 0.25))


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


def detect_log_term(samples: RadialField) -> LogTermEstimate:
    """Estimate the coefficient of x log x in a field vanishing at the cusp.

    Fits b * x log x + c * x + d * x^-2 with :func:`fit_polyhom` on each
    sliding window (placed by the ``DETECTOR_*`` constants); the deepest
    window gives the reported value and the spread across windows the
    uncertainty, which is no error bar.  A grid whose windows cannot hold
    the Dirichlet mode x^-2 (three samples a term, and its column a finite
    float) is fitted without it.  The estimate is unreliable ("no reliable
    log term") where the spread exceeds half its size, or where it is
    within twice the stencil's own log term: a field c x reads
    b = c (z_h - 1), z_h the stencil's root near 1 (1 - z_h ~ h^2/12).
    """
    grid = samples.grid
    windows = _detector_windows(grid)
    basis = _DETECTOR_SET
    try:
        fits = [fit_polyhom(samples, basis, window) for window in windows]
    except (ValueError, FitError):   # too few samples, or x^-2 overflows
        basis = _LOG_AND_LINEAR_SET
        fits = [fit_polyhom(samples, basis, window) for window in windows]
    values = [fit.coefficients[_LOG_TERM] for fit in fits]
    value, linear_value = values[0], fits[0].coefficients[_LINEAR_TERM]
    uncertainty = max(abs(v - value) for v in values)
    # scale of the data measured against x on the deepest window (its rows
    # from the cached design: a slice, where a mask costs a pass over the grid)
    rows = _fit_design(grid, windows[0], basis.terms, 1.0).rows
    data_scale = float((np.abs(samples.values[rows]) / grid.x[rows]).max())
    floor = 1e-8 * (1.0 + data_scale)
    stable = uncertainty <= max(0.5 * abs(value), floor)
    stencil_term = abs(linear_value) * (float(_LOG_TERM.z)
                                        - stencil_root(grid.h, float(MA_LINEARIZATION.lam)))
    reliable = stable and abs(value) > 2.0 * stencil_term
    message = ("" if reliable else
               "no reliable log term (non-stabilizing estimates)" if not stable else
               "no reliable log term (within twice the stencil's own x log x term)")
    return LogTermEstimate(
        value=value,
        linear_value=linear_value,
        uncertainty=uncertainty,
        reliable=reliable,
        window_values=values,
        windows=list(windows),   # the caller's own
        basis=basis,
        message=message,
    )


def extrapolate_log_term(estimates: Sequence[LogTermEstimate],
                         spacings: Sequence[float]) -> ExtrapolatedLogTerm:
    """Richardson's deferred approach to the limit of the detector's value.

    ``estimates`` are :func:`detect_log_term` of one problem solved on
    grids of spacing ``spacings`` over one span, finest first: h, about 2h
    and about 4h.  Each window's value becomes
    b_R = (r^2 b_h - b_2h)/(r^2 - 1), r = h_2h/h_h the ratio of the
    spacings, which removes the detector's h^2 error.  The error bar is the
    largest of ``RICHARDSON_SAFETY`` |b_R(h) - b_R(2h)|/(r^4 - 1), the
    estimate of b_R's own h^4 error from the coarser pair; the spread of
    b_R across the windows, for what depends on the window and not on h;
    and eps |b_R|/h^2, the rounding of a second difference on the finest
    grid.  A ValueError where the grids do not share the detector's
    windows and basis.
    """
    (fine, half, quarter), (h, h2, h4) = estimates, spacings
    if any(e.windows != fine.windows or e.basis != fine.basis for e in (half, quarter)):
        raise ValueError("the coarser grids do not hold the detector's windows and basis")

    def richardson(b_fine: float, b_coarse: float, r: float) -> float:
        return (r * r * b_fine - b_coarse) / (r * r - 1.0)

    r = h2 / h
    values = [richardson(a, b, r) for a, b in zip(fine.window_values, half.window_values)]
    value = values[0]
    coarse = richardson(half.value, quarter.value, h4 / h2)
    uncertainty = max(RICHARDSON_SAFETY * abs(value - coarse) / (r ** 4 - 1.0),
                      max(abs(v - value) for v in values),
                      np.finfo(float).eps * abs(value) / (h * h))
    return ExtrapolatedLogTerm(value=value, uncertainty=uncertainty, window_values=values)
