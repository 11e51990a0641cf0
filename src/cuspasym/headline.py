"""The headline: the x log x coefficient b~ of the Monge-Ampere solution on
the unit background, as ``logterm-pipeline`` reports it.

The Kahler-Einstein potential carries an x log x term that no smooth
potential has; for a source with x coefficient a_1 its coefficient is
b~ = a_1 / P'(1), P the MA linearization's indicial polynomial
(``fitting.P_PRIME_AT_LOG_ROOT``).  :func:`log_term_headline` reads it off
one solve with the sliding-window detector (its ValueError on a grid too
shallow for the windows is raised), solves the same problem on n // 2 and
n // 4 nodes of the same span, and extrapolates over the three grids
(``fitting.extrapolate_log_term``).  Where a coarser grid is refused or
fails, it reports the fine grid's estimate and the error, "<n> nodes: ...".
A term list is a:z:k triples, a x^z (log x)^k, as the CLI's.

Solves and detections go through ``elliptic`` and ``fitting`` as module
attributes, so a wrapper installed there sees every one.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import elliptic, fitting, geometry, radial
from .errors import FitError, SolverError


@dataclass(frozen=True)
class LogTermHeadline:
    """The x log x coefficient of one solve (:func:`log_term_headline`): the
    detector's estimate on the solve's grid; Richardson's extrapolation over
    it and the two coarser grids, or None and the error of the grid that
    failed; each grid's node count and single-grid value, finest first; the
    source's x coefficient a_1 and the prediction a_1 / P'(1); the reported
    value's relative error from it and whether that is within the tolerance."""
    estimate: fitting.LogTermEstimate
    extrapolated: fitting.ExtrapolatedLogTerm | None
    extrapolation_error: str | None
    grids: tuple[tuple[int, float], ...]
    source_x_coefficient: float
    predicted: float
    rel_error: float
    passed: bool

    @property
    def reported(self):
        """b_R and its error bar where the extrapolation holds, else the
        fine grid's value and its window spread."""
        return self.extrapolated or self.estimate


def log_term_headline(f_terms, solution: radial.RadialField, tolerance: float,
                      **problem) -> LogTermHeadline:
    """The headline of ``solution``, the MA solution on the unit background with
    source ``f_terms`` and the other ``MongeAmpereProblem`` fields ``problem``."""
    coefficient_x = sum(a for a, z, k in f_terms if z == fitting.LOG_ROOT and k == 0)
    predicted = float(1 / fitting.P_PRIME_AT_LOG_ROOT) * coefficient_x
    grid = solution.grid
    estimates, grids, error, failing = [fitting.detect_log_term(solution)], [grid], None, ""
    try:
        for n in (grid.n_nodes // 2, grid.n_nodes // 4):
            failing = f"{n} nodes: "   # names the coarser grid at work in its error
            grids.append(radial.RadialGrid(grid.t_min, grid.t_max, n))
            source = radial.sample_terms(f_terms, grids[-1])
            estimates.append(fitting.detect_log_term(elliptic.solve_monge_ampere_radial(
                elliptic.MongeAmpereProblem(geometry.ModelMetric(), source, **problem))[0]))
        failing = ""
        extrapolated = fitting.extrapolate_log_term(estimates, [g.h for g in grids])
    except (ValueError, SolverError, FitError) as exc:
        extrapolated, estimates, error = None, estimates[:1], failing + str(exc)
    rel_error = abs((extrapolated or estimates[0]).value - predicted) / (abs(predicted) or 1.0)
    return LogTermHeadline(estimates[0], extrapolated, error,
                           tuple((g.n_nodes, e.value) for g, e in zip(grids, estimates)),
                           coefficient_x, predicted, rel_error, bool(rel_error <= tolerance))
