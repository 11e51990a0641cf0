"""The headline as a library result: ``log_term_headline`` computes what
``logterm.json`` reports of the x log x coefficient from one MA solution,
and these checks read it without ``main()`` or JSON."""

import math

import pytest

from cuspasym import (DEFAULT_GRID, ModelMetric, MongeAmpereProblem, NewtonParams, RadialGrid,
                      detect_log_term, log_term_headline, solve_monge_ampere_radial)
from cuspasym.radial import sample_terms

F_15X = [(1.5, 1.0, 0)]

#: ``b_tilde_fitted`` of the ``logterm-pipeline`` golden case, F = 1.5x
#: (and 0 x^2, which adds exact zeros) on the default grid
GOLDEN_B_R = 0.9999998651605279


def _solve(terms, grid, **problem):
    return solve_monge_ampere_radial(MongeAmpereProblem(
        ModelMetric(), sample_terms(terms, grid), **problem))[0]


def test_default_grid_reports_the_golden_b_R_within_its_error_bar():
    result = log_term_headline(F_15X, _solve(F_15X, DEFAULT_GRID), 0.02)
    b_R = result.extrapolated
    assert result.reported is b_R and result.extrapolation_error is None
    assert b_R.value == GOLDEN_B_R   # bit for bit
    assert abs(b_R.value - 1.0) <= b_R.uncertainty
    assert [n for n, _ in result.grids] == [4096, 2048, 1024]
    assert result.grids[0][1] == result.estimate.value and result.estimate.reliable
    assert (result.source_x_coefficient, result.predicted) == (1.5, 1.0)
    assert result.rel_error == abs(GOLDEN_B_R - 1.0) and result.passed


def test_a_coarser_grid_without_the_windows_leaves_the_fine_grid_estimate():
    # the logterm-coarse-fallback golden's config: 256 and 128 nodes hold the
    # detector's windows, 64 do not
    grid = RadialGrid(DEFAULT_GRID.t_min, DEFAULT_GRID.t_max, 256)
    result = log_term_headline(F_15X, _solve(F_15X, grid), 0.02)
    assert result.extrapolated is None and result.reported is result.estimate
    assert result.extrapolation_error == (
        "64 nodes: window [1.71e-14, 5.41e-13] holds 5 samples; need at least 6 for 2 terms")
    assert result.grids == ((256, result.estimate.value),)


def test_a_grid_too_shallow_for_the_detector_raises_its_value_error():
    # the CLI names the grid keys before it (test_cli.py)
    grid = RadialGrid(-4.0, DEFAULT_GRID.t_max, 64)
    with pytest.raises(ValueError) as caught:
        log_term_headline(F_15X, _solve(F_15X, grid), 0.02)
    assert type(caught.value) is ValueError
    assert str(caught.value) == "grid too shallow for the sliding-window detector"


def test_the_coarser_solves_take_the_fine_solve_s_boundary_data_and_newton_parameters():
    terms, grid = [(0.75, 1.0, 0)], RadialGrid(-40.0, math.log(0.5), 2048)
    problem = {"bc_right": 0.125, "newton": NewtonParams(max_iter=30, tol=1e-10)}
    result = log_term_headline(terms, _solve(terms, grid, **problem), 0.02, **problem)
    assert [n for n, _ in result.grids] == [2048, 1024, 512]
    for n, b_tilde in result.grids[1:]:
        coarse = RadialGrid(grid.t_min, grid.t_max, n)
        assert b_tilde == detect_log_term(_solve(terms, coarse, **problem)).value
        assert b_tilde != detect_log_term(_solve(terms, coarse)).value


def test_passed_is_the_relative_error_within_the_tolerance():
    solution = _solve(F_15X, RadialGrid(DEFAULT_GRID.t_min, DEFAULT_GRID.t_max, 256))
    rel_error = log_term_headline(F_15X, solution, 0.02).rel_error
    assert log_term_headline(F_15X, solution, rel_error).passed
    assert not log_term_headline(F_15X, solution, rel_error * (1 - 1e-12)).passed
