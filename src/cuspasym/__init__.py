"""Radial toolkit for complete cusp Kahler metrics at desk scale.

Exact index-set algebra for indicial roots, model cusp geometry on a
logarithmic grid, banded elliptic and Monge-Ampere solves, the normalized
flow of the Kahler potential, polyhomogeneous expansion fitting, and the
exact rational log-term coefficient from Chern numbers.

Importing the package loads none of its modules (PEP 562): each public
name, and each submodule, is imported the normal way the first time it is
read, so ``from cuspasym import log_coefficient`` loads no numpy.
"""

import importlib

__version__ = "0.1.0"

#: each public name, by the module that owns it
_OWNERS = {name: module for module, names in {
    "chern": ("ChernData", "log_coefficient", "log_coefficient_plane_curve",
              "plane_curve_chern"),
    "defaults": ("NewtonParams",),
    "errors": ("ConfigError", "FitError", "SolverError"),
    "elliptic": ("LinearProblem", "MongeAmpereProblem", "solve_linear",
                 "solve_monge_ampere_radial"),
    "fitting": ("PolyhomFit", "detect_log_term", "extrapolate_log_term", "fit_polyhom",
                "remainder_check"),
    "geometry": ("ModelMetric", "cusp_laplacian"),
    "headline": ("LogTermHeadline", "log_term_headline"),
    "indexsets": ("IndexSet", "IndexTerm", "closure", "extended_union"),
    "indicial": ("IndicialFamily", "IndicialRoot", "count_complex_root_eigenvalues",
                 "index_set_Eplus", "index_set_hatEplus", "spec_b_roots"),
    "parabolic": ("DecayCertificate", "FlowProblem", "FlowState", "cusp_constant_evolution",
                  "cusp_constant_rk4", "decay_certificate", "fitted_boundary_constant",
                  "restricted_ode_solution", "run_flow"),
    "radial": ("DEFAULT_GRID", "RadialField", "RadialGrid", "evaluate_expansion"),
}.items() for name in names}

_SUBMODULES = frozenset({*_OWNERS.values(), "cli"})

__all__ = sorted(_OWNERS)


def __getattr__(name: str):
    if name in _OWNERS:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNERS[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:   # the import binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_OWNERS, *_SUBMODULES})
