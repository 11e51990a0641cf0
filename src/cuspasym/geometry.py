"""Model cusp metrics in the circle-symmetric radial reduction.

The model metric transverse to the divisor is

    g = a dx^2/x^2 + b x^2 dtheta^2,           a, b > 0,

optionally rescaled by a conformal factor e^{2 phi(x)}.  Relative to the
unit model (a = b = 1, phi = 0) its area density is sqrt(ab) e^{2 phi}, the
associated dbar-Laplacian on radial functions is

    Delta_g u = e^{-2 phi} / sqrt(ab) * (1/2)((x d/dx)^2 + x d/dx) u,

and the Ricci form has density -1 - 2 Delta_unit(phi) relative to the unit
model area form, so the unperturbed cusp satisfies Ric = -omega exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .radial import RadialField, RadialGrid, unit_laplacian


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
            density = np.array([self.base_density]) if self.conformal is None else self.density()
        bad = ~((density >= tiny) & (density < math.inf))
        if bad.any():
            where = ("" if self.conformal is None
                     else f" at x={self.conformal.grid.x[bad.argmax()]:.6g}")
            raise ValueError(f"metric density sqrt(ab) e^(2 phi) is {density[bad][0]:.6g}{where}, "
                             "not a finite positive normal float")

    @property
    def base_density(self) -> float:
        """sqrt(ab), the area density without the conformal factor: the one
        place it is formed."""
        return math.sqrt(self.a * self.b)

    def density(self, grid: Optional[RadialGrid] = None) -> np.ndarray:
        """Area density sqrt(ab) e^{2 phi} relative to the unit model."""
        grid = self._resolve_grid(grid)
        if self.conformal is None:  # np.exp of phi_values' zeros costs 3-35x more
            return np.full(grid.n_nodes, self.base_density)
        return self.base_density * np.exp(2.0 * self.conformal.values)

    def solver_density(self, grid: RadialGrid) -> float | np.ndarray:
        """The density as the solvers take it: the scalar ``base_density``
        where there is no conformal factor (a constant needs no array), else
        :meth:`density` on ``grid``."""
        return self.base_density if self.conformal is None else self.density(grid)

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


def cusp_laplacian(metric: ModelMetric, u: RadialField) -> RadialField:
    """dbar-Laplacian of the metric applied to a radial field.

    For the unit model this is (1/2)((x d/dx)^2 + x d/dx) u, i.e.
    (1/2)(u'' + u') in t = log x; a conformal factor and the coefficients
    a, b divide the result by the area density.  Endpoint rows use the
    one-sided diagnostic stencil.
    """
    lap = unit_laplacian(u.values, u.grid.h)
    return RadialField(u.grid, lap / metric.density(u.grid))
