"""Model cusp metrics in the circle-symmetric radial reduction.

The model metric transverse to the divisor is

    g = a dx^2/x^2 + b x^2 dtheta^2,           a, b > 0,

optionally rescaled by a conformal factor e^{2 phi(x)}.  Relative to the
unit model (a = b = 1, phi = 0) its area density is sqrt(ab) e^{2 phi}, the
associated dbar-Laplacian on radial functions is

    Delta_g u = e^{-2 phi} / sqrt(ab) * (1/2)((x d/dx)^2 + x d/dx) u,

and the Ricci form has density -1 - 2 Delta_unit(phi) relative to the unit
model area form, so the unperturbed cusp satisfies Ric = -omega exactly.

Boundary defining functions transform under a change of Hermitian metric
rho -> rho * e^{phi0} as x' = x / (1 - x phi0), whose expansion
x' = x (1 + x phi0 + x^2 phi0^2/(1 - x phi0)) isolates the first-order
coefficient phi0 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SolverError
from .radial import RadialField, RadialGrid, dt_derivative, unit_laplacian


@dataclass(frozen=True)
class ModelMetric:
    """Constant-coefficient cusp model a dx^2/x^2 + b x^2 dtheta^2, with an
    optional conformal factor e^{2 phi} sampled on a radial grid."""

    a: float = 1.0
    b: float = 1.0
    conformal: Optional[RadialField] = None  # phi, the log of the factor

    def __post_init__(self):   # the solvers divide by a, b and the density
        tiny = np.finfo(float).tiny
        for name in ("a", "b"):
            if not tiny <= getattr(self, name) < math.inf:
                raise ValueError(f"metric coefficient {name} must be a finite positive "
                                 f"normal float, got {getattr(self, name)}")
        with np.errstate(over="ignore", under="ignore"):
            density = np.sqrt([self.a * self.b]) if self.conformal is None else self.density()
        bad = ~((density >= tiny) & (density < math.inf))
        if bad.any():
            where = ("" if self.conformal is None
                     else f" at x={self.conformal.grid.x[bad.argmax()]:.6g}")
            raise ValueError(f"metric density sqrt(ab) e^(2 phi) is {density[bad][0]:.6g}{where}, "
                             "not a finite positive normal float")

    def density(self, grid: Optional[RadialGrid] = None) -> np.ndarray:
        """Area density sqrt(ab) e^{2 phi} relative to the unit model."""
        grid = self._resolve_grid(grid)
        base = np.sqrt(self.a * self.b)
        if self.conformal is None:  # np.exp of phi_values' zeros costs 3-35x more
            return np.full(grid.n_nodes, base)
        return base * np.exp(2.0 * self.conformal.values)

    def phi_values(self, grid: Optional[RadialGrid] = None) -> np.ndarray:
        grid = self._resolve_grid(grid)
        if self.conformal is None:
            return np.zeros(grid.n_nodes)
        return self.conformal.values

    def _resolve_grid(self, grid: Optional[RadialGrid]) -> RadialGrid:
        """The grid a field on this metric lives on: the conformal factor's,
        which ``grid`` must then equal, or else ``grid`` itself."""
        if self.conformal is not None:
            if grid is not None and grid != self.conformal.grid:
                raise ValueError("grid mismatch with the metric's conformal factor")
            return self.conformal.grid
        if grid is None:
            raise ValueError("metric has no conformal factor; a grid is required")
        return grid


@dataclass(frozen=True)
class BdfTransform:
    """Change of boundary defining function x -> x' = x(1 + x bbar + x^2 btilde)."""

    bbar: float
    btilde: np.ndarray          # phi0^2 / (1 - x phi0) per sample
    x_original: np.ndarray
    x_transformed: np.ndarray


def bdf_transform(phi0: float, x_values) -> BdfTransform:
    """Transform of x = -1/log(rho) under rho -> rho e^{phi0}.

    Exactly x' = x / (1 - x phi0); the expansion coefficients returned are
    bbar = phi0 and btilde = phi0^2 / (1 - x phi0).  Samples with
    1 - x phi0 <= 0 (the rescaled rho reaching 1) are rejected.
    """
    x = np.asarray(x_values, dtype=float)
    if np.any(x <= 0) or np.any(x >= 1):
        raise ValueError("x samples must lie in (0, 1)")
    denom = 1.0 - x * phi0
    if np.any(denom <= 0):
        j = int(np.argmax(denom <= 0))
        raise ValueError(
            f"1 - x*phi0 <= 0 at sample {j} (x={x[j]:.6g}): rescaled rho reaches 1")
    x_new = x / denom
    btilde = phi0**2 / denom
    # Second-order expansion control: |x' - x(1 + x phi0)| <= max(btilde) x^3.
    excess = np.abs(x_new - x * (1.0 + x * phi0)) - np.max(btilde) * x**3
    if np.any(excess > 1e-12 * np.maximum(x_new, x)):
        raise AssertionError("bdf expansion remainder bound violated")
    return BdfTransform(bbar=float(phi0), btilde=btilde, x_original=x,
                        x_transformed=x_new)


def cusp_laplacian(metric: ModelMetric, u: RadialField) -> RadialField:
    """dbar-Laplacian of the metric applied to a radial field.

    For the unit model this is (1/2)((x d/dx)^2 + x d/dx) u, i.e.
    (1/2)(u'' + u') in t = log x; a conformal factor and the coefficients
    a, b divide the result by the area density.  Endpoint rows use the
    one-sided diagnostic stencil.
    """
    lap = unit_laplacian(u.values, u.grid.h)
    return RadialField(u.grid, lap / metric.density(u.grid))


def ricci_radial(metric: ModelMetric, grid: Optional[RadialGrid] = None) -> RadialField:
    """Density of the Ricci form relative to the unit model area form.

    Equals -1 - 2 Delta_unit(phi); constants a, b drop out.  The pure model
    (phi = 0) returns the constant -1, i.e. Ric = -omega.
    """
    grid = metric._resolve_grid(grid)
    lap_phi = unit_laplacian(metric.phi_values(grid), grid.h)
    return RadialField(grid, -1.0 - 2.0 * lap_phi)


def cusp_volume(metric: ModelMetric, x_lo: float, x_hi: float) -> float:
    """Volume of the annulus x_lo <= x <= x_hi: 2 pi sqrt(ab) integral of
    e^{2 phi} dx.  Finite down to x_lo = 0; exact for constant metrics.
    """
    if not (0 <= x_lo <= x_hi) or x_hi >= 1:
        raise ValueError(f"invalid volume range [{x_lo}, {x_hi}]")
    base = 2.0 * np.pi * np.sqrt(metric.a * metric.b)
    if metric.conformal is None:
        return base * (x_hi - x_lo)
    # Piecewise-linear interpolant of the density in x; constant below the
    # grid and above it, which keeps the integral additive over ranges.
    dens = np.exp(2.0 * metric.conformal.values)
    return base * _integrate_piecewise_linear(metric.conformal.grid.x, dens, x_lo, x_hi)


def _integrate_piecewise_linear(xs, ys, lo: float, hi: float) -> float:
    """Integral over [lo, hi] of the piecewise-linear interpolant of ys at
    the nodes xs, which np.interp extends as a constant past both ends."""
    if hi <= lo:
        return 0.0
    pts = np.concatenate(([lo], xs[(xs > lo) & (xs < hi)], [hi]))
    return float(np.trapezoid(np.interp(pts, xs, ys), pts))


@dataclass(frozen=True)
class CuspDensityReport:
    """Radial density of the curvature-potential cusp term and its deviation
    from the pure model."""

    metric: ModelMetric
    density: RadialField
    deviation: RadialField       # density - 1
    deviation_rate: float        # max |deviation| / x over the grid


def carlson_griffiths_radial(epsilon: float, h: RadialField) -> CuspDensityReport:
    """Cusp part of the curvature-potential Kahler form, radially reduced.

    With section norm ||s||^2 = h(x) rho^2 and rho = e^{-1/x}, the density
    of 2 (d log(eps ||s||^2)) (dbar log(eps ||s||^2)) / (log eps ||s||^2)^2
    relative to the unit cusp model is

        ((x dlog(h)/dt + 2) / (x (log eps + log h) - 2))^2,

    which is exactly 1 for h = 1, eps = 1 and deviates by O(x) relative for
    admissible data.  Positivity of the construction requires
    x (log eps + log h) < 2 at every node; the first failure is reported.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if np.any(h.values <= 0):
        j = int(np.argmax(h.values <= 0))
        raise ValueError(f"Hermitian factor must be positive; h <= 0 at node {j}")
    grid = h.grid
    x = grid.x
    log_h = np.log(h.values)
    dlogh_dt = dt_derivative(log_h, grid.h)
    numer = x * dlogh_dt + 2.0
    denom = x * (np.log(epsilon) + log_h) - 2.0
    bad = denom >= 0
    if np.any(bad):
        j = int(np.argmax(bad))
        raise SolverError(
            f"positivity failure at node {j} (x={x[j]:.6g}): "
            f"epsilon ||s||^2 reaches 1; decrease epsilon")
    density = (numer / denom) ** 2
    if np.any(density <= 0):
        j = int(np.argmax(density <= 0))
        raise SolverError(f"degenerate cusp density at node {j} (x={x[j]:.6g})")
    deviation = density - 1.0
    metric = ModelMetric(a=1.0, b=1.0,
                         conformal=RadialField(grid, 0.5 * np.log(density)))
    return CuspDensityReport(
        metric=metric,
        density=RadialField(grid, density),
        deviation=RadialField(grid, deviation),
        deviation_rate=float(np.max(np.abs(deviation) / x)),
    )


def carlson_griffiths_epsilon_threshold(h: RadialField) -> float:
    """Largest epsilon keeping x (log eps + log h) < 2 on the whole grid.

    Every epsilon strictly below the threshold yields a positive cusp
    density in :func:`carlson_griffiths_radial`.
    """
    if np.any(h.values <= 0):
        raise ValueError("Hermitian factor must be positive")
    margin = 2.0 / h.grid.x - np.log(h.values)
    return float(np.exp(np.min(margin)))
