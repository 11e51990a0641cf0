"""Radial toolkit for complete cusp Kahler metrics at desk scale.

Exact index-set algebra for indicial roots, model cusp geometry on a
logarithmic grid, banded elliptic and Monge-Ampere solves, the normalized
flow of the Kahler potential, polyhomogeneous expansion fitting, and the
exact rational log-term coefficient from Chern numbers.
"""

from .chern import ChernData, log_coefficient, log_coefficient_plane_curve, plane_curve_chern
from .errors import ConfigError, FitError, SolverError
from .elliptic import (
    LinearProblem,
    MongeAmpereProblem,
    NewtonParams,
    solve_linear,
    solve_monge_ampere_radial,
)
from .fitting import (PolyhomFit, detect_log_term, extrapolate_log_term, fit_polyhom,
                      remainder_check)
from .geometry import ModelMetric, cusp_laplacian
from .indexsets import IndexSet, IndexTerm, closure, extended_union
from .indicial import (
    IndicialFamily,
    IndicialRoot,
    count_complex_root_eigenvalues,
    index_set_Eplus,
    index_set_hatEplus,
    spec_b_roots,
)
from .parabolic import (
    DecayCertificate,
    FlowProblem,
    FlowState,
    cusp_constant_evolution,
    cusp_constant_rk4,
    decay_certificate,
    fitted_boundary_constant,
    restricted_ode_solution,
    run_flow,
)
from .radial import DEFAULT_GRID, RadialField, RadialGrid, evaluate_expansion

__version__ = "0.1.0"
