"""Expansion fitting, the log-term detector, and remainder diagnostics."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from cuspasym.errors import FitError
from cuspasym.fitting import (
    _DETECTOR_SET,
    MA_LINEARIZATION,
    _fit_design,
    _detector_windows,
    default_fit_window,
    detect_log_term,
    extrapolate_log_term,
    fit_polyhom,
    remainder_check,
)
from cuspasym.geometry import ModelMetric
from cuspasym.elliptic import MongeAmpereProblem, solve_monge_ampere_radial
from cuspasym.indexsets import IndexSet, IndexTerm, closure
from cuspasym.indicial import spec_b_roots
from cuspasym.radial import DEFAULT_GRID, RadialField, RadialGrid, evaluate_expansion, stencil_root

GRID = DEFAULT_GRID
E_X = closure((IndexTerm(1, 0),), 2)          # {x, x^2}
WINDOW = (1e-6, 1e-2)


def expansion_at(fit, x):
    return evaluate_expansion([(a, tm.z, tm.k) for tm, a in fit.coefficients.items()], x)


def test_exact_recovery_two_terms():
    f = RadialField.from_function(GRID, lambda x: 2 * x + 5 * x ** 2)
    fit = fit_polyhom(f, E_X, fit_window=WINDOW)
    assert abs(fit.coefficients[IndexTerm(1, 0)] - 2) < 1e-8
    assert abs(fit.coefficients[IndexTerm(2, 0)] - 5) < 1e-6


def test_exact_recovery_conditioned_window_residual():
    f = RadialField.from_function(GRID, lambda x: 2 * x + 5 * x ** 2)
    fit = fit_polyhom(f, E_X, fit_window=(1e-3, 1e-1))
    assert remainder_check(fit, f).residual_sup <= 1e-10
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
    misfit = np.max(np.abs(h.values[mask] - expansion_at(fit_without, x)) / x)
    # a basis lacking x log x cannot beat the half log-range of the window
    assert misfit >= math.log(WINDOW[1] / WINDOW[0]) / 4.0
    fit_with = fit_polyhom(h, closure((IndexTerm(1, 1),), 2), fit_window=WINDOW)
    misfit_with = np.max(np.abs(h.values[mask] - expansion_at(fit_with, x)) / x)
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


def test_detector_is_the_fit_on_each_of_its_windows():
    f = RadialField.from_function(GRID, lambda x: 1.7 * x * np.log(x) + 0.3 * x + x ** 2)
    est = detect_log_term(f)
    fits = [fit_polyhom(f, _DETECTOR_SET, window) for window in _detector_windows(GRID)]
    assert est.windows == [fit.window for fit in fits]
    assert est.window_values == [fit.coefficients[IndexTerm(1, 1)] for fit in fits]
    assert est.linear_value == fits[0].coefficients[IndexTerm(1, 0)]


def test_detector_basis_is_the_log_term_and_the_roots_below_it():
    # P(z) = (z^2 + z)/2 - 1 has roots -2 and 1: x^-2 is the Dirichlet mode
    assert [r.z for r in spec_b_roots(MA_LINEARIZATION)] == [-2, 1]
    assert _DETECTOR_SET.pairs() == [(-2.0, 0), (1.0, 0), (1.0, 1)]
    assert _DETECTOR_SET.cutoff == 1
    assert detect_log_term(RadialField(GRID, GRID.x)).basis == _DETECTOR_SET


def test_stencil_root_is_one_less_h_squared_over_twelve():
    for n in (2048, 4096, 16384):
        h = RadialGrid(GRID.t_min, GRID.t_max, n).h
        assert (1.0 - stencil_root(h, 1.0)) / (h * h / 12.0) == pytest.approx(1.0, abs=1e-4)


def _ma_solution(n, F, t_min=GRID.t_min):
    grid = RadialGrid(t_min, GRID.t_max, n)
    return solve_monge_ampere_radial(MongeAmpereProblem(ModelMetric(),
                                                        RadialField(grid, F(grid.x))))[0]


@pytest.mark.parametrize("F", [lambda x: 2 * x ** 2, lambda x: 3 * x ** 3, lambda x: x ** 1.5],
                         ids=["2x^2", "3x^3", "x^1.5"])
def test_detector_reads_no_log_term_where_the_stencil_makes_its_own(F):
    # no x log x in the solution: with x^-2 fitted the detector reads the
    # stencil's own term c (z_h - 1), which reliable must not take for one
    est = detect_log_term(_ma_solution(4096, F))
    stencil_term = abs(est.linear_value) * (1.0 - stencil_root(GRID.h, 1.0))
    assert 1.0 <= est.value / stencil_term <= 1.04
    assert not est.reliable
    assert est.message == "no reliable log term (within twice the stencil's own x log x term)"


@pytest.mark.parametrize("t_min, n", [(GRID.t_min, 100), (-300.0, 4096)],
                         ids=["9-samples-short", "x^-2-overflows"])
def test_detector_fits_without_the_dirichlet_mode_where_windows_cannot_hold_it(t_min, n):
    # windows of fewer than 9 samples, or so deep that x^-3 squared overflows:
    # the fit of x log x and x alone, as before the Dirichlet mode joined
    u = _ma_solution(n, lambda x: 1.5 * x, t_min)
    est = detect_log_term(u)
    two_terms = IndexSet((IndexTerm(1, 1), IndexTerm(1, 0)), 1)
    assert est.basis == two_terms
    assert est.window_values == [fit_polyhom(u, two_terms, window).coefficients[IndexTerm(1, 1)]
                                 for window in est.windows]


@functools.lru_cache(maxsize=None)
def _detected(n: int, a: float):
    """The detector on the MA solution of F = a x on n nodes, and the spacing."""
    u = _ma_solution(n, lambda x: a * x)
    return detect_log_term(u), u.grid.h


#: the ladder of finest grids; each is extrapolated with n // 2 and n // 4
LADDER = (2048, 4096, 8192, 16384, 32768, 65536)


@pytest.mark.parametrize("a", [0.5, 1.5, 4.5])
def test_extrapolated_log_term_lies_inside_its_error_bar_and_falls_with_h(a):
    b = 2.0 * a / 3.0
    errors, bars = [], []
    for n in LADDER:
        estimates, spacings = zip(*(_detected(m, a) for m in (n, n // 2, n // 4)))
        extrapolated = extrapolate_log_term(estimates, spacings)
        error = abs(extrapolated.value - b)
        assert error <= extrapolated.uncertainty, n
        if error > 1e-9 * b:   # above rounding, the bar is at most 10x the error
            assert extrapolated.uncertainty <= 10.0 * error, n
        assert extrapolated.window_values[0] == extrapolated.value
        errors.append(error)
        bars.append(extrapolated.uncertainty)
    # fourth order until rounding: each halving of h from 2048 to 16384 nodes
    # divides the error by at least 8 (16 in the limit) and the bar by 4
    assert errors[0] <= 2e-6 * b
    for k in range(3):
        assert errors[k + 1] <= errors[k] / 8 and bars[k + 1] <= bars[k] / 4


def test_extrapolation_needs_the_same_windows_and_basis_on_every_grid():
    (fine, h), (half, h2), (quarter, h4) = (_detected(n, 1.5) for n in (512, 256, 128))
    assert extrapolate_log_term((fine, half, quarter), (h, h2, h4)).value == \
        pytest.approx(1.0, abs=1e-3)
    two_terms, h_100 = _detected(100, 1.5)   # windows of 8 or 9 samples
    with pytest.raises(ValueError, match="do not hold the detector's windows and basis"):
        extrapolate_log_term((fine, half, two_terms), (h, h2, h_100))


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
    # the remainder formed on the fit's design is the data less the
    # evaluated expansion, to rounding
    f = RadialField.from_function(GRID, lambda x: x + x ** 2.5)
    fit = fit_polyhom(f, E_X, fit_window=WINDOW)
    report = remainder_check(fit, f)
    assert report.slope is not None and report.spread is not None
    mask = GRID.window_mask(*WINDOW)
    x = GRID.x[mask]
    evaluated = np.max(np.abs(f.values[mask] - expansion_at(fit, x)) / x ** 2)
    assert abs(report.residual_sup - evaluated) <= 1e-9 * evaluated


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
    report = remainder_check(fit, u)
    assert report.slope is None and report.spread is None and report.saturated


@pytest.mark.parametrize("scale, message", [
    (1e292, "the fit's coefficients overflow"),   # finite weighted samples
    (1e293, "the weighted samples overflow"),     # samples times x^-2 overflow
    (3e290, None),                                 # just below: fits as before
])
def test_fit_of_overflowing_weighted_samples_raises_a_named_error(scale, message):
    # s (x + x log x) / x^1.5 weighted by x^-2 on [1e-6, 1e-2]: a NaN fit
    # with a RuntimeWarning once the weighted samples overflowed
    E = closure((IndexTerm(1, 0), IndexTerm(1, 1)), 2)
    grid = RadialGrid(-16.0, -2.0, 64)
    f = RadialField(grid, scale * (grid.x + grid.x * grid.t) / grid.x ** 1.5)
    if message is None:
        fit = fit_polyhom(f, E, fit_window=WINDOW)
        assert all(map(math.isfinite, fit.coefficients.values()))
        assert math.isfinite(remainder_check(fit, f).residual_sup)
    else:
        with pytest.raises(FitError, match=message):
            fit_polyhom(f, E, fit_window=WINDOW)


def test_a_basis_term_that_overflows_on_its_window_is_named():
    # x^-20 passes the largest double below x = 3.9e-16: overflow warnings,
    # LAPACK argument errors and a non-converging SVD before this was named
    grid = RadialGrid(-40.0, math.log(0.5), 512)
    E = IndexSet((IndexTerm(-20.0, 0), IndexTerm(1.0, 0)), 2.0)
    with pytest.raises(FitError, match=r"^basis term IndexTerm\(z=-20.0, k=0\) overflows "
                                       r"on the window \[1e-17, 0\.01\]$"):
        fit_polyhom(RadialField(grid, grid.x), E, fit_window=(1e-17, 1e-2))


def _exact_lstsq(A: np.ndarray, b: np.ndarray) -> list[Fraction]:
    """The exact least-squares solution for the float matrix A and vector b:
    the normal equations in integers over one power-of-two denominator each,
    eliminated in Fractions."""
    def integers(a):
        ratios = [v.as_integer_ratio() for v in a.ravel().tolist()]
        scale = max(d for _, d in ratios)
        return np.array([n * (scale // d) for n, d in ratios], dtype=object).reshape(a.shape), scale

    (IA, sa), (Ib, sb) = integers(A), integers(b)
    n = A.shape[1]
    rows = [[Fraction(g) for g in row] + [Fraction(r * sa, sb)]
            for row, r in zip((IA.T @ IA).tolist(), (IA.T @ Ib).tolist())]
    for i in range(n):
        for j in range(i + 1, n):
            f = rows[j][i] / rows[i][i]
            rows[j] = [a - f * p for a, p in zip(rows[j], rows[i])]
    c = [Fraction(0)] * n
    for i in reversed(range(n)):
        c[i] = (rows[i][n] - sum(rows[i][j] * c[j] for j in range(i + 1, n))) / rows[i][i]
    return c


def test_fits_agree_with_exact_least_squares_to_rounding():
    # on the scaled design the fit's coefficients are those of the exact
    # least squares of its float matrix and weighted samples, to a few ulps
    grid = RadialGrid(-40.0, math.log(0.5), 4096)
    FIT_SET = IndexSet(tuple(IndexTerm(z, k) for z, k in ((1, 0), (1, 1), (2, 0), (2, 1))), 2)
    cases = ([(FIT_SET, window) for window in ((1e-6, 1e-2), (1e-9, 1e-3))]
             + [(_DETECTOR_SET, window) for window in _detector_windows(grid)])
    for a in (0.5, 1.5):
        u, _ = solve_monge_ampere_radial(
            MongeAmpereProblem(ModelMetric(), RadialField(grid, a * grid.x)))
        for E, window in cases:
            fit = fit_polyhom(u, E, fit_window=window)
            design = _fit_design(grid, fit.window, E.terms, float(E.cutoff))
            exact = _exact_lstsq(design.A_scaled, u.values[design.rows] * design.w)
            scaled = [Fraction(fit.coefficients[tm]) * Fraction(norm)
                      for tm, norm in zip(E.terms, design.col_norms.tolist())]
            error = max(abs(c - e) for c, e in zip(scaled, exact)) / max(map(abs, exact))
            assert error <= 16 * np.finfo(float).eps, (a, window, float(error))
