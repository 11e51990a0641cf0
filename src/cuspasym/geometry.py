"""Model cusp metrics in the circle-symmetric radial reduction.

The model metric transverse to the divisor is

    g = a dx^2/x^2 + b x^2 dtheta^2,           a, b > 0,

optionally rescaled by a conformal factor e^{2 phi(x)}.  Relative to the
unit model (a = b = 1, phi = 0) its area density is sqrt(ab) e^{2 phi}, the
associated dbar-Laplacian on radial functions is

    Delta_g u = e^{-2 phi} / sqrt(ab) * (1/2)((x d/dx)^2 + x d/dx) u,

and the Ricci form has density -1 - 2 Delta_unit(phi) relative to the unit
model area form, so the unperturbed cusp satisfies Ric = -omega exactly.
A ``ModelMetric`` owns the densities the solvers and the flow read: D0 and
D0 + R0, the density of omega + Ric(omega) (``einstein_defect``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .radial import RadialField, RadialGrid, _read_only, unit_laplacian


@dataclass(frozen=True)
class ModelMetric:
    """Constant-coefficient cusp model a dx^2/x^2 + b x^2 dtheta^2, with an
    optional conformal factor e^{2 phi} sampled on a radial grid.  Its area
    density D0 (``solver_density``) is formed when it is built."""

    a: float = 1.0
    b: float = 1.0
    conformal: Optional[RadialField] = None  # phi, the log of the factor
    _density: float | np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):   # the solvers divide by a, b and the density
        tiny = np.finfo(float).tiny
        for name in ("a", "b"):
            if not tiny <= getattr(self, name) < math.inf:
                raise ValueError(f"metric coefficient {name} must be a finite positive "
                                 f"normal float, got {getattr(self, name)}")
        density = math.sqrt(self.a * self.b)
        if self.conformal is not None:
            with np.errstate(over="ignore", under="ignore"):
                density = _read_only(density * np.exp(2.0 * self.conformal.values))
        values = np.atleast_1d(density)
        bad = ~((values >= tiny) & (values < math.inf))
        if bad.any():
            where = ("" if self.conformal is None
                     else f" at x={self.conformal.grid.x[bad.argmax()]:.6g}")
            raise ValueError(f"metric density sqrt(ab) e^(2 phi) is {values[bad][0]:.6g}{where}, "
                             "not a finite positive normal float")
        object.__setattr__(self, "_density", density)

    def __reduce__(self):   # a copy or an unpickled metric forms its own read-only D0
        return type(self), (self.a, self.b, self.conformal)

    def solver_density(self, grid: RadialGrid) -> float | np.ndarray:
        """D0 = sqrt(ab) e^{2 phi} relative to the unit model, the metric's own:
        the scalar sqrt(ab) without a conformal factor, else read-only."""
        self._resolve_grid(grid)
        return self._density

    def einstein_defect(self, grid: Optional[RadialGrid] = None) -> np.ndarray:
        """D0 + R0 = sqrt(ab) e^{2 phi} - 1 - 2 Delta(phi), which drives the
        normalized flow, its leading cancellation done by expm1 so that the
        unperturbed cusp (Ric = -omega) gives exactly zero."""
        grid = self._resolve_grid(grid)
        phi = np.zeros(grid.n_nodes) if self.conformal is None else self.conformal.values
        log_base = 0.5 * math.log(self.a * self.b)
        return np.expm1(2.0 * phi + log_base) - 2.0 * unit_laplacian(phi, grid.h)

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
    return RadialField(u.grid, lap / metric.solver_density(u.grid))
