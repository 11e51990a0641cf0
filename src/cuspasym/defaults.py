"""The defaults that the library and the CLI's schemas share, owned here once.

The CLI echoes every default into its output JSON, and it reads them while
it parses a config, before a command has loaded numpy (the exact commands
never do).  So this module imports the standard library alone:

- :class:`NewtonParams`, the settings of the Newton loop and their defaults;
- the span and node count of the default grid, ``radial.DEFAULT_GRID``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class NewtonParams:
    """Settings of :func:`radial.damped_newton`: the step budget, the sup-norm
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


class GridSpan(NamedTuple):
    """A ``RadialGrid``'s arguments: t = log x on [t_min, t_max], n_nodes nodes."""

    t_min: float
    t_max: float
    n_nodes: int


#: the default grid: x from e^-40 to 1/2 on 4096 nodes
DEFAULT_GRID_SPAN = GridSpan(t_min=-40.0, t_max=math.log(0.5), n_nodes=4096)
