"""Acceptance gate: one test per criterion, at the stated tolerance.

Each test prints a single PASS line after its assertions (visible with
pytest -s or in captured output); runtime budgets are asserted where the
criterion states one.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from cuspasym.chern import log_coefficient_plane_curve
from cuspasym.cli import main
from cuspasym.elliptic import (
    LinearProblem,
    MongeAmpereProblem,
    solve_linear,
    solve_monge_ampere_radial,
)
from cuspasym.fitting import detect_log_term
from cuspasym.geometry import ModelMetric
from cuspasym.indexsets import IndexTerm, closure, extended_union
from cuspasym.indicial import (
    IndicialFamily,
    index_set_Eplus,
    index_set_hatEplus,
    spec_b_roots,
)
from cuspasym.parabolic import (
    FlowProblem,
    cusp_constant_evolution,
    cusp_constant_rk4,
    decay_certificate,
    fitted_boundary_constant,
    restricted_ode_solution,
    run_flow,
)
from cuspasym.radial import DEFAULT_GRID, RadialField, RadialGrid


def report(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_criterion_01_indicial_roots_exact_and_fast():
    fam = IndicialFamily(1, 1, (0,))
    roots = spec_b_roots(fam)
    assert [r.z for r in roots] == [Fraction(-2), Fraction(1)]
    assert all(isinstance(r.z, Fraction) for r in roots)
    # float path against the brute-force polynomial root-finder
    oracle = sorted(np.roots([0.5, 0.5, -1.0]).real)
    float_fam = IndicialFamily(1.0 + 0.0, 1.0, (0.0,))
    got = sorted(float(r.z) for r in spec_b_roots(float_fam))
    assert max(abs(a - b) for a, b in zip(got, oracle)) < 1e-12
    reps = 200
    start = time.perf_counter()
    for _ in range(reps):
        spec_b_roots(fam)
    per_call = (time.perf_counter() - start) / reps
    assert per_call < 1e-3
    report(1, f"roots {{1, -2}} exact, float path within 1e-12, "
              f"{per_call * 1e6:.1f} us per call")


def test_criterion_02_log_coefficient_identity():
    start = time.perf_counter()
    assert log_coefficient_plane_curve(4) == Fraction(8, 3)
    assert log_coefficient_plane_curve(5) == Fraction(5, 3)
    for d in range(4, 101):
        assert log_coefficient_plane_curve(d) == Fraction(2 * d, 3 * (d - 3))
    elapsed = time.perf_counter() - start
    assert elapsed < 10e-3
    report(2, f"2d/(3(d-3)) exact for d in 4..100 in {elapsed * 1e3:.2f} ms")


def test_criterion_03_end_to_end_log_term_recovery():
    start = time.perf_counter()
    grid = DEFAULT_GRID
    F = RadialField.from_function(grid, lambda x: 1.5 * x + 0.0 * x ** 2)
    u, rep = solve_monge_ampere_radial(MongeAmpereProblem(ModelMetric(), F))
    assert rep.converged
    est = detect_log_term(u)
    assert est.reliable
    assert abs(est.value - 1.0) <= 0.02
    fine = grid.refined()
    F2 = RadialField.from_function(fine, lambda x: 1.5 * x)
    u2, _ = solve_monge_ampere_radial(MongeAmpereProblem(ModelMetric(), F2))
    est2 = detect_log_term(u2)
    shift = abs(est2.value - est.value) / abs(est.value)
    assert shift < 0.005
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, f"fitted b~ = {est.value:.5f} (target 1 within 2%), "
              f"h-refinement shift {shift * 100:.3f}% < 0.5%, {elapsed:.2f} s")


def test_criterion_04_cusp_constant_evolution():
    start = time.perf_counter()
    for c0, t in ((2.0, math.log(2.0)), (5.0, 3.0)):
        closed = cusp_constant_evolution(c0, t)
        rk4 = cusp_constant_rk4(c0, t, dt=1e-3)
        assert abs(closed - rk4) < 1e-10
    grid = RadialGrid(-40.0, math.log(0.5), 1024)
    c0 = 2.0
    metric = ModelMetric(conformal=RadialField.constant(grid, 0.5 * math.log(c0)))
    result = run_flow(FlowProblem(metric, T=0.5, dt=1e-2, output_times=[0.5]))
    fitted = fitted_boundary_constant(result.states[-1])
    expected = cusp_constant_evolution(c0, 0.5)
    rel = abs(fitted - expected) / expected
    assert rel < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, f"RK4 matches 1 + e^-t (c0 - 1) to 1e-10; flow-extracted "
              f"constant off by {rel * 100:.2e}% at t = 0.5; {elapsed:.2f} s")


def test_criterion_05_flow_fixed_point():
    start = time.perf_counter()
    result = run_flow(FlowProblem(ModelMetric(), T=1.0, dt=1e-2,
                                  grid=DEFAULT_GRID))
    sup = float(np.max(result.sup_u))
    assert sup <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(5, f"model-cusp potential stays at sup |u| = {sup:.2e} <= 1e-8 "
              f"over t in [0, 1]; {elapsed:.2f} s")


def test_criterion_06_restricted_ode_mutual_oracle():
    start = time.perf_counter()
    res = restricted_ode_solution([2.0], 1.0, dt=1e-3)
    assert res.max_discrepancy < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(6, f"exact solution vs RK4 discrepancy {res.max_discrepancy:.2e} < 1e-8; "
              f"{elapsed:.2f} s")


def test_criterion_07_decay_certificate_grid_stable():
    start = time.perf_counter()
    g = lambda x, t: np.ones_like(x)
    coarse = decay_certificate(DEFAULT_GRID, 1.0, g, T=1.0, dt=1e-2)
    fine = decay_certificate(DEFAULT_GRID.refined(), 1.0, g, T=1.0, dt=1e-2)
    assert math.isfinite(coarse.sup_ratio) and coarse.sup_ratio < 10.0
    change = abs(fine.sup_ratio - coarse.sup_ratio) / coarse.sup_ratio
    assert change < 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"sup |u|/x = {coarse.sup_ratio:.4f} bounded, refinement change "
              f"{change * 100:.3f}% < 2%; {elapsed:.2f} s")


def test_criterion_08_manufactured_convergence_order():
    start = time.perf_counter()
    t_min, t_max = -12.0, math.log(0.5)
    linear_errors, ma_errors = [], []
    for n in (256, 512, 1024):
        g = RadialGrid(t_min, t_max, n)
        f = RadialField.from_function(g, lambda x: 1.5 * x)
        u_true = g.x * np.log(g.x)
        u = solve_linear(LinearProblem(ModelMetric(), 1.0, f,
                                       bc_left=u_true[0], bc_right=u_true[-1]))
        linear_errors.append(np.max(np.abs(u.values - u_true)))
        F = RadialField.from_function(g, lambda x: np.log1p(3 * x ** 2) - x ** 2)
        v, _ = solve_monge_ampere_radial(
            MongeAmpereProblem(ModelMetric(), F, bc_left=g.x[0] ** 2,
                               bc_right=g.x[-1] ** 2))
        ma_errors.append(np.max(np.abs(v.values - g.x ** 2)))
    orders = []
    for errs in (linear_errors, ma_errors):
        orders += [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.5 <= o <= 2.5 for o in orders)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(8, f"observed orders {['%.2f' % o for o in orders]} all within "
              f"2.0 +/- 0.5; {elapsed:.2f} s")


def test_criterion_09_index_algebra_property_suite():
    start = time.perf_counter()
    rng = random.Random(20250808)
    lams = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2)]
    cs = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
    nus = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3),
           Fraction(9, 2), Fraction(6)]
    for _ in range(50):
        spectrum = tuple(sorted(rng.sample(nus, rng.randrange(1, 4))))
        fam = IndicialFamily(rng.choice(lams), rng.choice(cs), spectrum)
        cutoff = Fraction(4)
        E = index_set_Eplus(fam, 0, cutoff)
        hatE = index_set_hatEplus(fam, 0, cutoff)
        closed = closure(E.terms, cutoff)
        # containment of the closed pole set in the shift-augmented set
        assert set(closed.pairs()) <= set(hatE.pairs())
        # closure idempotence
        assert closure(closed.terms, cutoff).pairs() == closed.pairs()
        assert hatE.is_closed()
        # extended union: commutative and contains the plain union
        other = closure((IndexTerm(rng.choice([1, 2]), rng.randrange(2)),), cutoff)
        u1, u2 = extended_union(hatE, other), extended_union(other, hatE)
        assert set(u1.pairs()) == set(u2.pairs())
        assert set(hatE.pairs()) | set(other.pairs()) <= set(u1.pairs())
    # accidental multiplicity: spectrum {0, 2} stacks a log at z = 2
    fam = IndicialFamily(1, 1, (0, 2))
    assert index_set_hatEplus(fam, 0, 3).contains(2, 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(9, f"50 randomized rational families pass all properties plus the "
              f"accidental-multiplicity example in {elapsed:.2f} s")


def test_criterion_10_cli_determinism(tmp_path):
    grid_keys = "t_min = -30\nn_nodes = 512\n"
    field_csv = tmp_path / "field.csv"
    eset_json = tmp_path / "eset.json"
    grid = RadialGrid(-30.0, math.log(0.5), 512)
    RadialField.from_function(grid, lambda x: 2 * x + 5 * x ** 2).write_csv(field_csv)
    eset_json.write_text(json.dumps(closure((IndexTerm(1, 0),), 2).to_json_dict()))
    sub = tmp_path / "sub.cfg"
    sub.write_text("command = chern-coeff\nd = 6\n")
    configs = {
        "indicial": "lambda = 1\nc = 1\nspectrum = 0, 2\ncutoff = 3\n",
        "chern-coeff": "d = 4\n",
        "solve-linear": grid_keys + "f_terms = 1.5:1:0\n",
        "solve-ma": grid_keys + "f_terms = 1.5:1:0\n",
        "flow": grid_keys + "conformal_terms = 0.2:0:0\nT = 0.2\ndt = 0.05\n",
        "fit-expansion": (f"field_csv = {field_csv}\n"
                          f"index_set_json = {eset_json}\n"
                          "window_lo = 1e-6\nwindow_hi = 1e-2\n"),
        "logterm-pipeline": grid_keys + "f_terms = 1.5:1:0\n",
        "sweep": f"configs = {sub}\nmax_workers = 1\n",
    }
    for command, body in configs.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(body)
        outputs = []
        for run in ("r1", "r2"):
            out = tmp_path / command / run
            assert main([command, str(cfg), "-o", str(out)]) == 0, command
            artifacts = sorted(p for p in out.rglob("*") if p.is_file())
            outputs.append({p.relative_to(out): p.read_bytes() for p in artifacts})
        assert outputs[0].keys() == outputs[1].keys(), command
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], (command, name)
    report(10, "all eight subcommands produce byte-identical outputs on reruns")
