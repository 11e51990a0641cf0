"""Grid-only work paid once: the per-thread Newton workspace the solvers
share, and the cached windows and designs of the detector and the fit.
Every result must stay the caller's own and bit for bit what an uncached
computation gives."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cuspasym import fitting
from cuspasym.elliptic import (
    LinearProblem,
    MongeAmpereProblem,
    solve_linear,
    solve_monge_ampere_radial,
)
from cuspasym.geometry import ModelMetric
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


@pytest.mark.parametrize("solve", [
    lambda F: solve_monge_ampere_radial(MongeAmpereProblem(UNIT, F)),
    lambda F: solve_linear(LinearProblem(UNIT, 1.0, F)),
], ids=["ma", "linear"])
def test_a_repeated_16384_node_solve_allocates_under_three_grid_arrays(solve):
    grid = _grid(16384)
    F = RadialField(grid, 1.5 * grid.x)
    solve(F)   # the thread's workspace now has this size
    tracemalloc.start()
    try:
        solve(F)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the density, the returned copy and small change; a fresh workspace is 11
    assert peak < 3 * grid.x.nbytes


def test_cached_designs_and_windows_reject_writes():
    grid = _grid(4096)
    estimate = fitting.detect_log_term(RadialField(grid, grid.x * grid.t + grid.x))
    windows = fitting._detector_windows(grid)
    assert isinstance(windows, tuple) and estimate.windows == list(windows)
    estimate.windows.clear()   # the estimate's list is its own
    assert fitting.detect_log_term(RadialField(grid, grid.x)).windows == list(windows)
    design = fitting._fit_design(grid, windows[0], fitting._DETECTOR_BASIS, 1.0)
    for array in (design.w, design.A, design.A_scaled, design.col_norms):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


# -- the reference: the same arithmetic on masks, with nothing cached --

def _uncached_lstsq(t, y, terms, weight_exponent):
    w = np.exp(-weight_exponent * t)
    A = np.column_stack([np.exp(float(tm.z) * t) * t ** tm.k for tm in terms]) * w[:, None]
    b = y * w
    col_norms = np.linalg.norm(A, axis=0)
    A_scaled = A / col_norms
    coef = np.linalg.lstsq(A_scaled, b, rcond=None)[0]
    for _ in range(2):
        coef = coef + np.linalg.lstsq(A_scaled, b - A_scaled @ coef, rcond=None)[0]
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
    for window in fitting._detector_windows.__wrapped__(grid):
        mask = grid.window_mask(*window)
        coefs = _uncached_lstsq(grid.t[mask], samples.values[mask],
                                (IndexTerm(1, 1), IndexTerm(1, 0)), 1.0)
        values.append(float(coefs[0]))
        linear.append(float(coefs[1]))
    return values[0], linear[0], max(abs(v - values[0]) for v in values), values


@pytest.mark.parametrize("n", [512, 4096, 16384])
def test_detector_and_fit_match_the_uncached_computation_bit_for_bit(n):
    grid = _grid(n)
    hits = fitting._fit_design.cache_info().hits, fitting._detector_designs.cache_info().hits
    for a in (0.5, 1.0, 1.5):
        u = _ma(grid, a)
        estimate = fitting.detect_log_term(u)
        assert (estimate.value, estimate.linear_value, estimate.uncertainty,
                estimate.window_values) == _uncached_detector(u)
        for window in (None, (1e-6, 1e-2), (1e-9, 1e-3)):
            fit = fitting.fit_polyhom(u, FIT_SET, fit_window=window)
            assert (fit.coefficients, fit.residual_sup, fit.remainder_exponent,
                    fit.remainder_spread) == _uncached_fit(u, FIT_SET, window)
    # every amplitude after the first reused the grid's designs: the fit's
    # three windows through _fit_design, the detector's four in one lookup
    assert fitting._fit_design.cache_info().hits - hits[0] >= 2 * 3
    assert fitting._detector_designs.cache_info().hits - hits[1] >= 2
