"""Expansion fitting, the log-term detector, and remainder diagnostics."""

import math

import numpy as np
import pytest

from cuspasym.errors import FitError
from cuspasym.fitting import (
    default_fit_window,
    detect_log_term,
    fit_polyhom,
    remainder_check,
)
from cuspasym.geometry import ModelMetric
from cuspasym.elliptic import MongeAmpereProblem, solve_monge_ampere_radial
from cuspasym.indexsets import IndexTerm, closure
from cuspasym.radial import DEFAULT_GRID, RadialField, RadialGrid

GRID = DEFAULT_GRID
E_X = closure((IndexTerm(1, 0),), 2)          # {x, x^2}
WINDOW = (1e-6, 1e-2)


def test_exact_recovery_two_terms():
    f = RadialField.from_function(GRID, lambda x: 2 * x + 5 * x ** 2)
    fit = fit_polyhom(f, E_X, fit_window=WINDOW)
    assert abs(fit.coefficients[IndexTerm(1, 0)] - 2) < 1e-8
    assert abs(fit.coefficients[IndexTerm(2, 0)] - 5) < 1e-6


def test_exact_recovery_conditioned_window_residual():
    f = RadialField.from_function(GRID, lambda x: 2 * x + 5 * x ** 2)
    fit = fit_polyhom(f, E_X, fit_window=(1e-3, 1e-1))
    assert fit.residual_sup <= 1e-10
    assert abs(fit.coefficients[IndexTerm(1, 0)] - 2) < 1e-8


def test_exact_recovery_random_expansions():
    rng = np.random.default_rng(11)
    E = closure((IndexTerm(1, 1),), 3)
    terms = list(E)
    for _ in range(5):
        coefs = {tm: rng.uniform(-3, 3) for tm in terms}
        f = RadialField(GRID, sum(
            a * GRID.x ** float(tm.z) * np.log(GRID.x) ** tm.k
            for tm, a in coefs.items()))
        fit = fit_polyhom(f, E, fit_window=(1e-4, 1e-1))
        for tm, a in coefs.items():
            assert abs(fit.coefficients[tm] - a) < 1e-7 * max(1.0, abs(a))


def test_basis_element_recovery():
    g = RadialField.from_function(GRID, lambda x: x * np.log(x))
    fit = fit_polyhom(g, closure((IndexTerm(1, 1),), 1), fit_window=WINDOW)
    assert abs(fit.coefficients[IndexTerm(1, 1)] - 1) < 1e-8
    assert abs(fit.coefficients[IndexTerm(1, 0)]) < 1e-8


def test_missing_log_term_leaves_large_misfit():
    h = RadialField.from_function(GRID, lambda x: x * np.log(x) + x)
    fit_without = fit_polyhom(h, E_X, fit_window=WINDOW)
    mask = GRID.window_mask(*WINDOW)
    x = GRID.x[mask]
    misfit = np.max(np.abs(h.values[mask] - fit_without.evaluate(x)) / x)
    # a basis lacking x log x cannot beat the half log-range of the window
    assert misfit >= math.log(WINDOW[1] / WINDOW[0]) / 4.0
    fit_with = fit_polyhom(h, closure((IndexTerm(1, 1),), 2), fit_window=WINDOW)
    misfit_with = np.max(np.abs(h.values[mask] - fit_with.evaluate(x)) / x)
    assert misfit > 50 * misfit_with


def test_window_needs_enough_samples():
    f = RadialField.from_function(GRID, lambda x: x)
    with pytest.raises(ValueError, match="samples"):
        fit_polyhom(f, closure((IndexTerm(1, 2),), 4), fit_window=(1e-3, 1.05e-3))


def test_window_stability_of_leading_coefficient():
    f = RadialField.from_function(GRID, lambda x: 2 * x + 5 * x ** 2 + 3 * x ** 3)
    deep = fit_polyhom(f, E_X, fit_window=(1e-7, 1e-3))
    shallow = fit_polyhom(f, E_X, fit_window=(1e-6, 1e-2))
    drift = abs(deep.coefficients[IndexTerm(1, 0)]
                - shallow.coefficients[IndexTerm(1, 0)])
    assert drift <= 10 * 1e-2  # O(x_hi) contamination from the omitted x^3


def test_default_window_guards_boundary_nodes():
    lo, hi = default_fit_window(GRID)
    assert lo >= GRID.x[5] * (1 - 1e-12)
    assert hi <= lo * 100 * (1 + 1e-12)


def test_detector_synthetic_log_term():
    f = RadialField.from_function(GRID, lambda x: (8.0 / 3.0) * x * np.log(x) + x)
    est = detect_log_term(f)
    assert est.reliable
    assert abs(est.value - 8.0 / 3.0) <= 0.01 * 8.0 / 3.0


def test_detector_pure_quadratic_reads_zero():
    est = detect_log_term(RadialField.from_function(GRID, lambda x: x ** 2))
    assert abs(est.value) < 1e-6


def test_detector_scale_equivariance():
    base = RadialField.from_function(GRID, lambda x: 1.7 * x * np.log(x) + 0.3 * x)
    a = detect_log_term(base).value
    b = detect_log_term(RadialField(GRID, 5.0 * base.values)).value
    assert abs(b - 5.0 * a) <= 1e-9 * abs(b)


def test_detector_flags_non_stabilizing_data():
    # x^{1/2} decays more slowly than every basis profile: the window
    # estimates cannot stabilize
    f = RadialField.from_function(GRID, lambda x: np.sqrt(x))
    est = detect_log_term(f)
    assert not est.reliable
    assert "no reliable log term" in est.message


def test_detector_on_monge_ampere_solution():
    grid = RadialGrid(-40.0, math.log(0.5), 2048)
    F = RadialField.from_function(grid, lambda x: 1.5 * x)
    u, _ = solve_monge_ampere_radial(MongeAmpereProblem(ModelMetric(), F))
    est = detect_log_term(u)
    assert est.reliable
    assert abs(est.value - 1.0) <= 0.02


def test_remainder_saturates_on_exact_expansion():
    f = RadialField.from_function(GRID, lambda x: 3 * x + 2 * x ** 2)
    fit = fit_polyhom(f, E_X, fit_window=WINDOW)
    report = remainder_check(fit, f)
    assert report.saturated and report.meets_target


def test_remainder_slope_of_half_power():
    f = RadialField.from_function(GRID, lambda x: x + x ** 2.5)
    fit = fit_polyhom(f, E_X, fit_window=WINDOW)
    report = remainder_check(fit, f)
    assert not report.saturated
    assert 2.2 <= report.slope <= 2.8
    assert report.meets_target
    lo, hi = report.spread
    assert lo <= report.slope <= hi


def test_remainder_of_ma_manufactured_solution():
    grid = RadialGrid(-40.0, math.log(0.5), 2048)
    F = RadialField.from_function(grid, lambda x: np.log1p(3 * x ** 2) - x ** 2)
    u, _ = solve_monge_ampere_radial(
        MongeAmpereProblem(ModelMetric(), F,
                           bc_left=grid.x_min ** 2, bc_right=grid.x_max ** 2))
    fit = fit_polyhom(u, E_X, fit_window=(1e-6, 1e-2))
    report = remainder_check(fit, u)
    assert report.saturated or report.slope >= 1.75


def test_fit_reports_remainder_exponent():
    f = RadialField.from_function(GRID, lambda x: x + x ** 2.5)
    fit = fit_polyhom(f, E_X, fit_window=WINDOW)
    assert fit.remainder_exponent is not None
    assert fit.remainder_spread is not None


def test_near_collinear_basis_raises_named_error():
    # many log powers on a narrow window are numerically indistinguishable
    f = RadialField.from_function(GRID, lambda x: x)
    E = closure((IndexTerm(1, 6),), 3)
    with pytest.raises(FitError, match="terms"):
        fit_polyhom(f, E, fit_window=(1.0e-3, 1.9e-3))


def test_remainder_slope_needs_four_points_above_the_floor():
    # at 512 nodes the deepest decade of [1e-10, 1e-3] keeps 2 residuals above
    # the noise floor: too few for the even and odd half-sample slopes
    grid = RadialGrid(-40.0, math.log(0.5), 512)
    u, _ = solve_monge_ampere_radial(
        MongeAmpereProblem(ModelMetric(), RadialField(grid, 1.5 * grid.x)))
    E = closure((IndexTerm(1, 1),), 2)
    fit = fit_polyhom(u, E, fit_window=(1e-10, 1e-3))
    assert fit.remainder_exponent is None and fit.remainder_spread is None
    assert remainder_check(fit, u).saturated
