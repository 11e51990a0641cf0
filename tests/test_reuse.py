"""Grid-only work paid once: the per-thread Newton workspace the solvers
share, each grid's similarity D, and the cached windows and designs of the
detector and the fit.
Every result must stay the caller's own and bit for bit what an uncached
computation gives, and no solve may leave reference cycles behind: a CLI
process runs its command with the cyclic collector off."""

import copy
import dataclasses
import gc
import math
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cuspasym import fitting, geometry, parabolic, radial
from cuspasym.elliptic import (
    LinearProblem,
    MongeAmpereProblem,
    solve_linear,
    solve_monge_ampere_radial,
)
from cuspasym.geometry import ModelMetric
from cuspasym.headline import log_term_headline
from cuspasym.indexsets import IndexSet, IndexTerm, exponent_gt
from cuspasym.parabolic import FlowProblem, run_flow
from cuspasym.radial import NewtonWorkspace, RadialField, RadialGrid

UNIT = ModelMetric()
FIT_SET = IndexSet(tuple(IndexTerm(z, k) for z, k in ((1, 0), (1, 1), (2, 0), (2, 1))), 2)


def _grid(n: int) -> RadialGrid:
    return RadialGrid(-40.0, math.log(0.5), n)


def _buffers(work: NewtonWorkspace) -> tuple:
    return (work.v, work.candidate, work.r, work.r_new, work.aux, work.aux_new,
            work.step, *work.bands, work.scratch)


def _ma(grid, a):
    return solve_monge_ampere_radial(MongeAmpereProblem(UNIT, RadialField(grid, a * grid.x)))[0]


def _linear(grid, a):
    return solve_linear(LinearProblem(UNIT, 1.0, RadialField(grid, a * grid.x), 0.0, a))


def _flow(grid, a):
    metric = ModelMetric(conformal=RadialField(grid, 0.1 * a * grid.x))
    return run_flow(FlowProblem(metric, T=0.5, dt=0.25)).states[-1].u


def test_fields_and_grids_keep_their_own_read_only_values():
    grid = _grid(64)
    source = 0.1 * grid.x
    field = RadialField(grid, grid.x)
    metric = ModelMetric(conformal=RadialField(grid, source))
    assert not np.shares_memory(field.values, grid.x)
    source[5] = np.nan   # the caller's array is not the field's
    assert np.array_equal(metric.conformal.values, 0.1 * grid.x)
    for array in (field.values, grid.t, grid.x, metric.conformal.values):
        with pytest.raises(ValueError, match="read-only"):
            array[5] = np.nan
    with pytest.raises(dataclasses.FrozenInstanceError):
        field.values = np.full(grid.n_nodes, np.nan)
    assert np.array_equal(field.values, grid.x) and np.all(np.isfinite(grid.t))


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda obj: pickle.loads(pickle.dumps(obj))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_are_built_read_only_like_their_originals(duplicate):
    # numpy drops the read-only flag when it copies or unpickles an array:
    # a copied field's values, grid x and metric D0 were writable
    grid = RadialGrid(-5.0, -1.0, 16)
    grid.x, grid.similarity   # filled caches, which a copy once carried as writable copies
    field = RadialField(grid, 0.1 * grid.x)
    metric = ModelMetric(a=2.0, conformal=field)
    twin_grid, twin_field, twin_metric = map(duplicate, (grid, field, metric))
    assert twin_grid == grid and twin_metric.a == 2.0
    arrays = (twin_grid.t, twin_grid.x, twin_grid.similarity, twin_field.values,
              twin_field.grid.x, twin_metric.conformal.values, twin_metric.solver_density(grid))
    for array in arrays:
        assert not array.flags.writeable
    assert np.array_equal(twin_field.values, field.values)
    assert twin_metric.solver_density(grid).tobytes() == metric.solver_density(grid).tobytes()


def test_fields_and_conformal_metrics_compare_and_hash_by_identity():
    # a frozen dataclass compared the values arrays, whose truth value numpy refuses
    grid = _grid(16)
    field, twin = RadialField(grid, grid.x), RadialField(grid, grid.x)
    assert field == field and field != twin and hash(field) != hash(twin)
    metric = ModelMetric(conformal=field)
    assert metric == ModelMetric(conformal=field) != ModelMetric(conformal=twin)
    assert len({metric, ModelMetric(conformal=field), ModelMetric(conformal=twin)}) == 2


def test_no_result_shares_memory_with_the_workspace():
    grid = _grid(256)
    metric = ModelMetric(conformal=RadialField(grid, 0.1 * grid.x))
    flow = run_flow(FlowProblem(metric, T=0.5, dt=0.25))
    results = [_ma(grid, 1.5), _linear(grid, 1.5),
               *(f for state in flow.states for f in (state.u, state.flow_metric_density))]
    work = NewtonWorkspace.for_thread(grid.n_nodes)
    for result in results:
        assert not result.values.flags.writeable
        assert not any(np.shares_memory(result.values, b) for b in _buffers(work))


def test_for_thread_keeps_one_workspace_per_thread():
    work = NewtonWorkspace.for_thread(64)
    assert NewtonWorkspace.for_thread(64) is work
    other_size = NewtonWorkspace.for_thread(96)
    assert other_size is not work and all(len(b) == 96 for b in _buffers(other_size))
    assert NewtonWorkspace.for_thread(96) is other_size
    elsewhere = []
    thread = threading.Thread(target=lambda: elsewhere.append(NewtonWorkspace.for_thread(96)))
    thread.start()
    thread.join()
    assert elsewhere[0] is not other_size
    assert NewtonWorkspace.for_thread(96) is other_size


@pytest.mark.parametrize("solve", [_ma, _linear, _flow], ids=["ma", "linear", "flow"])
def test_a_second_solve_leaves_the_first_result_unchanged(solve):
    grid = _grid(512)
    first = solve(grid, 1.5)
    kept = first.values.copy()
    second = solve(grid, 0.5)
    assert not np.array_equal(second.values, kept)
    assert np.array_equal(first.values, kept)
    work = NewtonWorkspace.for_thread(grid.n_nodes)
    for result in (first, second):
        assert not any(np.shares_memory(result.values, b) for b in _buffers(work))


def test_concurrent_solves_give_the_bytes_of_serial_solves():
    # more threads than cores, switching often, each alternating two grid
    # sizes (so its workspace is remade) and sharing the design caches
    grids = [_grid(1024), _grid(2048)]
    jobs = [(grid, a) for a in (0.5, 1.0, 1.5, 2.0) for grid in grids]

    def run(grid, a):
        u = _ma(grid, a)
        fit = fitting.fit_polyhom(u, FIT_SET)
        return (u.values.tobytes() + _linear(grid, a).values.tobytes(),
                fitting.detect_log_term(u).window_values, fit.coefficients)

    serial = [run(*job) for job in jobs]
    mine = NewtonWorkspace.for_thread(grids[1].n_nodes)
    results, workspaces = {}, {}
    barrier = threading.Barrier(4)

    def worker(i):
        barrier.wait()
        results[i] = [run(*job) for job in jobs[i::4] + jobs[i::4]]
        workspaces[i] = NewtonWorkspace.for_thread(grids[1].n_nodes)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(4):
        assert results[i] == 2 * serial[i::4]
    assert len({id(mine), *map(id, workspaces.values())}) == 5
    assert NewtonWorkspace.for_thread(grids[1].n_nodes) is mine


def test_each_grid_forms_its_similarity_once_and_keeps_it_read_only(monkeypatch):
    # two rounds of the linear, MA and certificate solves on two fresh grids,
    # so the thread's workspace switches size at every grid: one D a grid,
    # counted under radial's name and any name parabolic might import it by
    build, builds = radial.similarity_diagonal, []
    for module in (radial, parabolic):
        monkeypatch.setattr(module, "similarity_diagonal",
                            lambda n, h: builds.append(n) or build(n, h), raising=False)
    grids = [_grid(512), _grid(2048)]

    def certificate(grid):
        return parabolic.decay_certificate(grid, 1.0, lambda x, t: np.ones_like(x),
                                           T=0.1, dt=0.05)

    for _ in range(2):
        for grid in grids:
            _linear(grid, 1.0)
            _ma(grid, 1.5)
            certificate(grid)
    assert builds == [512, 2048]
    for grid in grids:
        kept = grid.similarity.copy()
        certificate(grid)
        assert grid.similarity.tobytes() == kept.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            grid.similarity[0] = 0.0


@pytest.mark.parametrize("solve", [
    lambda F: solve_monge_ampere_radial(MongeAmpereProblem(UNIT, F)),
    lambda F: solve_linear(LinearProblem(UNIT, 1.0, F)),
], ids=["ma", "linear"])
def test_a_repeated_16384_node_solve_allocates_under_two_grid_arrays(solve):
    grid = _grid(16384)
    F = RadialField(grid, 1.5 * grid.x)
    solve(F)   # the thread's workspace now has this size
    tracemalloc.start()
    try:
        solve(F)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the field's own copy and small change: the unit metric's density is the
    # scalar sqrt(ab), no array; a fresh workspace is 11
    assert peak < 2 * grid.x.nbytes


def test_cached_designs_and_windows_reject_writes():
    grid = _grid(4096)
    estimate = fitting.detect_log_term(RadialField(grid, grid.x * grid.t + grid.x))
    windows = fitting._detector_windows(grid)
    assert isinstance(windows, tuple) and estimate.windows == list(windows)
    estimate.windows.clear()   # the estimate's list is its own
    assert fitting.detect_log_term(RadialField(grid, grid.x)).windows == list(windows)
    design = fitting._fit_design(grid, windows[0], fitting._DETECTOR_SET.terms, 1.0)
    for array in (design.w, design.x_N, design.A, design.A_scaled, design.col_norms,
                  design.pinv, design.sv):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


# -- the reference: the same arithmetic on masks, with nothing cached --

def _uncached_lstsq(t, y, terms, weight_exponent):
    w = np.exp(-weight_exponent * t)
    A = np.column_stack([np.exp(float(tm.z) * t) * t ** tm.k for tm in terms]) * w[:, None]
    b = y * w
    col_norms = np.linalg.norm(A, axis=0)
    A_scaled = A / col_norms
    U, sv, Vt = np.linalg.svd(A_scaled, full_matrices=False)
    keep = sv > np.finfo(float).eps * max(A.shape) * sv[0]
    pinv = (Vt[keep].T / sv[keep]) @ U[:, keep].T
    coef = pinv @ b
    for _ in range(2):
        coef = coef + pinv @ (b - A_scaled @ coef)
    return coef / col_norms


def _uncached_fit(samples, E, window):
    grid = samples.grid
    window = window or fitting.default_fit_window(grid)
    terms = tuple(tm for tm in E if not exponent_gt(tm.z, E.cutoff))
    mask = grid.window_mask(*window)
    t, x, y = grid.t[mask], grid.x[mask], samples.values[mask]
    N = float(E.cutoff)
    coefs = _uncached_lstsq(t, y, terms, N)
    design = np.column_stack([np.exp(float(tm.z) * t) * t ** tm.k for tm in terms])
    r = y - design @ coefs
    slope, spread = fitting._remainder_slope(x, r, noise_scale=float(np.max(np.abs(y))))
    return ({tm: float(c) for tm, c in zip(terms, coefs)},
            float(np.max(np.abs(r) / x ** N)), slope, spread)


def _uncached_detector(samples):
    grid = samples.grid
    values, linear = [], []
    for window in fitting._detector_windows(grid):
        mask = grid.window_mask(*window)
        # the index set's canonical column order: x^-2, x, then x log x
        coefs = _uncached_lstsq(grid.t[mask], samples.values[mask],
                                (IndexTerm(-2, 0), IndexTerm(1, 0), IndexTerm(1, 1)), 1.0)
        values.append(float(coefs[2]))
        linear.append(float(coefs[1]))
    return values[0], linear[0], max(abs(v - values[0]) for v in values), values


@pytest.mark.parametrize("n", [512, 4096, 16384, 65536])
def test_detector_and_fit_match_the_uncached_computation_bit_for_bit(n):
    grid = _grid(n)
    for a in (0.5, 1.0, 1.5):
        u = _ma(grid, a)
        before = fitting._fit_design.cache_info()
        estimate = fitting.detect_log_term(u)
        after = fitting._fit_design.cache_info()
        assert (estimate.value, estimate.linear_value, estimate.uncertainty,
                estimate.window_values) == _uncached_detector(u)
        if a > 0.5:
            # the grid's designs, reused: a fit on each of the four windows,
            # and the deepest window's rows for the data scale
            assert (after.hits - before.hits, after.misses - before.misses) == (5, 0)
        for window in (None, (1e-6, 1e-2), (1e-9, 1e-3)):
            fit = fitting.fit_polyhom(u, FIT_SET, fit_window=window)
            report = fitting.remainder_check(fit, u)
            assert (fit.coefficients, report.residual_sup, report.slope,
                    report.spread) == _uncached_fit(u, FIT_SET, window)


def test_a_repeated_detector_and_fit_reuse_their_factorizations(monkeypatch):
    u = _ma(_grid(2048), 1.0)
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    fitting._fit_design.cache_clear()
    # the first round factors the four detector windows and the fit's window
    # once each; the repeat factors nothing and builds no design
    for svds, misses in ((5, 5), (0, 0)):
        calls.clear()
        before = fitting._fit_design.cache_info()
        fitting.detect_log_term(u)
        fitting.fit_polyhom(u, FIT_SET)
        after = fitting._fit_design.cache_info()
        assert (len(calls), after.misses - before.misses) == (svds, misses)


def test_a_flow_forms_each_steps_schedule_once_and_no_laplacian(monkeypatch):
    # each step's record reads S and S + Delta u off the step's accepted Newton
    # iterate: one schedule a step, and no full-grid Laplacian beside the
    # metric's Delta(phi) in D0 + R0
    grid = _grid(512)
    problem = FlowProblem(ModelMetric(conformal=RadialField(grid, 0.05 * grid.x)), T=0.5, dt=0.1)
    schedule, laplacian, calls = parabolic._schedule_values, radial.unit_laplacian, []

    def counting(name, function):
        return lambda *args: calls.append(name) or function(*args)

    monkeypatch.setattr(parabolic, "_schedule_values", counting("schedule", schedule))
    for module in (radial, geometry):
        monkeypatch.setattr(module, "unit_laplacian", counting("laplacian", laplacian))
    result = run_flow(problem)
    assert result.step_rejections == 0 and len(result.times) == 6
    assert (calls.count("schedule"), calls.count("laplacian")) == (5, 1)


def test_a_conformal_metric_forms_its_density_once(monkeypatch):
    grid = _grid(512)
    metric = ModelMetric(1.5, 0.8, RadialField(grid, 0.05 * grid.x))
    D = metric.solver_density(grid)
    assert metric.solver_density(grid) is D and not D.flags.writeable
    calls = []

    class CountingNumpy:   # geometry's numpy, counting its exp calls
        def __getattr__(self, name):
            attr = getattr(np, name)
            return (lambda *a, **k: calls.append(name) or attr(*a, **k)) if name == "exp" else attr

    monkeypatch.setattr(geometry, "np", CountingNumpy())
    for _ in range(2):
        solve_linear(LinearProblem(metric, 1.0, RadialField(grid, grid.x)))
        solve_monge_ampere_radial(MongeAmpereProblem(metric, RadialField(grid, 0.5 * grid.x)))
        run_flow(FlowProblem(metric, T=0.2, dt=0.1))
    assert calls == []
    ModelMetric(conformal=metric.conformal)   # a new metric forms its own, once
    assert calls == ["exp"]


def test_no_solve_fit_or_certificate_calls_blas(monkeypatch):
    # BLAS ddot threads large arrays, and a thread stall then costs a scan
    # milliseconds: no finiteness check may take that route
    def refuse(*args, **kwargs):
        raise AssertionError("np.vdot called")

    monkeypatch.setattr(np, "vdot", refuse)
    grid = _grid(4096)
    u = _ma(grid, 1.5)
    _linear(grid, 1.5)
    _flow(_grid(512), 1.0)
    parabolic.decay_certificate(_grid(512), 1.0, lambda x, t: np.exp(-t) * x, 0.2, 0.1)
    fitting.fit_polyhom(u, FIT_SET)
    fitting.detect_log_term(u)


def _flow_500_steps():
    grid = _grid(512)
    result = run_flow(FlowProblem(ModelMetric(conformal=RadialField(grid, 0.1 * grid.x)),
                                  T=5.0, dt=0.01))
    assert len(result.times) > 500


def _ma_detect_extrapolate():
    grids = [_grid(n) for n in (4096, 2048, 1024)]
    estimates = [fitting.detect_log_term(_ma(grid, 0.75)) for grid in grids]
    fitting.extrapolate_log_term(estimates, [grid.h for grid in grids])


@pytest.mark.parametrize("work", [
    _flow_500_steps,
    _ma_detect_extrapolate,
    lambda: log_term_headline([(0.75, 1.0, 0)], _ma(_grid(4096), 0.75), 0.02),
    lambda: _linear(_grid(4096), 1.5),
    lambda: parabolic.decay_certificate(_grid(512), 1.0, lambda x, t: np.exp(-t) * x, 1.0, 0.01),
], ids=["flow", "ma-detect-extrapolate", "headline", "linear", "decay-certificate"])
def test_solves_leave_no_reference_cycles(work):
    # cli.entry_point turns the cyclic collector off, so whatever a command
    # leaves unreachable must go by reference counting alone; otherwise a
    # CLI process would keep every step's garbage until it exits
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        work()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
