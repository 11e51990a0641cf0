"""Relations the equations obey under a change of their data, each stated
once: results on scaled data must be the scaled results.  They guard values
that no golden output pins, such as a solve or a flow driven by data far
below any absolute tolerance."""

import math

import numpy as np
import pytest

from cuspasym.elliptic import (LinearProblem, MongeAmpereProblem, solve_linear,
                               solve_monge_ampere_radial)
from cuspasym.fitting import detect_log_term
from cuspasym.geometry import ModelMetric
from cuspasym.parabolic import FlowProblem, run_flow
from cuspasym.radial import RadialField, RadialGrid

AMPLITUDES = (1e-6, 1e-8, 1e-9, 1e-10, 1e-12, 1e-14)


def _ma_solve(shift: float, F):
    """The MA solve on the default grid translated by ``shift`` in t = log x,
    with source F(x), and the detector's estimate on it."""
    grid = RadialGrid(-40.0 + shift, math.log(0.5) + shift, 4096)
    problem = MongeAmpereProblem(ModelMetric(), RadialField(grid, F(grid.x)))
    u, _ = solve_monge_ampere_radial(problem)
    return u.values, detect_log_term(u)


def test_log_term_is_linear_in_a_small_source():
    # F = a x: the solve is in its linear regime, where b~ / a is 2/3 up to
    # the detector's h^2 bias; a start whose residual was below the absolute
    # tol was once accepted untouched, and b~ read 0 for a <= 1e-11
    ratios = [_ma_solve(0.0, lambda x, a=a: a * x)[1].value / a for a in AMPLITUDES]
    assert ratios[0] == pytest.approx(0.6668272598219602, rel=1e-9)
    assert max(ratios) - min(ratios) <= 1e-9 * ratios[0], ratios


@pytest.mark.parametrize("s", [-1.0, -5.0])
def test_ma_solve_and_detector_are_covariant_under_translation(s):
    # x -> e^s x with F = 1.5 e^{-s} x: u is the same at each node, and in
    # u = b x log x + c x + ... b scales by e^{-s} and c by e^{-s} after its
    # shift -b s (log x picks up s)
    u, base = _ma_solve(0.0, lambda x: 1.5 * x)
    u_s, moved = _ma_solve(s, lambda x: 1.5 * math.exp(-s) * x)
    assert np.max(np.abs(u_s - u)) <= 1e-13
    assert abs(moved.value * math.exp(s) - base.value) <= 1e-12
    assert abs(moved.linear_value * math.exp(s) - (base.linear_value - base.value * s)) <= 1e-10


def _flow_sup_u_per_amplitude(eps: float) -> float:
    grid = RadialGrid(-5.0, -1.0, 64)
    metric = ModelMetric(conformal=RadialField(grid, eps * (0.2 + 0.1 * grid.x)))
    return float(run_flow(FlowProblem(metric, T=1.0, dt=0.01)).sup_u[-1]) / eps


def test_flow_potential_is_linear_in_a_small_conformal_factor():
    # the flow from eps (0.2 + 0.1 x) is eps times the linearized flow's, up
    # to O(eps^2): sup u(1) / eps is 0.1061080 however small eps is (a flow
    # that stopped at an absolute Newton tolerance never moved below 1e-11)
    ratios = [_flow_sup_u_per_amplitude(eps) for eps in AMPLITUDES]
    assert ratios[-1] == pytest.approx(0.106108040, rel=1e-8)
    assert max(ratios) - min(ratios) <= 1e-6 * ratios[-1], ratios


def _linear_solution(scale: float) -> np.ndarray:
    grid = RadialGrid(-40.0, math.log(0.5), 4096)
    rhs = RadialField(grid, scale * (1.5 * grid.x + grid.x ** 2))
    return solve_linear(LinearProblem(ModelMetric(), 1.0, rhs)).values


def test_solve_linear_is_linear_in_its_right_hand_side():
    base = _linear_solution(1.0)
    # a power of 2 scales every step of the elimination exactly
    for k in (-40, -1, 3):
        assert _linear_solution(2.0 ** k).tobytes() == (2.0 ** k * base).tobytes()
    for eps in AMPLITUDES:
        assert np.max(np.abs(_linear_solution(eps) / eps - base)) <= 1e-13 * np.abs(base).max()
    # additivity: the sum of two right-hand sides solves to the sum of the solutions
    grid = RadialGrid(-40.0, math.log(0.5), 4096)
    metric = ModelMetric()
    f, g = 1.5 * grid.x, np.sin(grid.t) * grid.x ** 2

    def solve(values):
        return solve_linear(LinearProblem(metric, 1.0, RadialField(grid, values))).values

    u_f, u_g = solve(f), solve(g)
    assert np.max(np.abs(solve(f + g) - (u_f + u_g))) <= 1e-13 * np.abs(u_f + u_g).max()
