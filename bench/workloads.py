"""Seeded inputs, op lists and output checks of the three workloads.

The seed picks the numbers; the shape of each pass (which ops on which
grid sizes) is fixed, so runs on different seeds do the same amount of
work and their timings can be compared.

- ``cli-mix``: one closed-loop client running each CLI subcommand as a
  fresh ``python -m cuspasym.cli`` process; interpreter start, imports and
  artifact I/O dominate.
- ``radial-numerics``: in-process Monge-Ampere solves with the log-term
  detector and expansion fit, linear solves, the flow, the decay
  certificate and the restricted ODE; tridiagonal solves, Newton
  iterations and flow steps dominate.

Each workload also has a reference task: fixed work that runs no cuspasym
code but needs the same kind of host resources as its ops.  It runs next
to every op, and op times are scaled by how much slower or faster than
usual the reference ran (see run.py).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import tracing

#: the existing acceptance gate of the log-term detector (relative error)
LOGTERM_GATE = 0.02

BENCH_DIR = Path(__file__).resolve().parent

#: seconds one ``python -c pass`` process usually takes on the 2-vCPU Intel
#: Xeon virtual machine the baseline was measured on
INTERPRETER_START_S = 0.07


def interpreter_start_s(env: Optional[dict] = None) -> float:
    """Wall time of one fresh interpreter that does nothing: the reference
    for work done in fresh processes (start-up, imports, file I/O)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - start


class CheckFailed(Exception):
    """An op finished but its output is wrong."""


class OpError(Exception):
    """An op reported a failure (a CLI process exiting non-zero)."""


@dataclass
class Op:
    name: str
    run: Callable[[], Any]                      # timed
    check: Callable[[Any], None]                # untimed; raises CheckFailed or OpError
    prepare: Optional[Callable[[], None]] = None  # untimed, before run


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _jitter(rng: random.Random, base: float, rel: float = 0.02) -> float:
    return base * (1.0 + rel * (2.0 * rng.random() - 1.0))


class Workload:
    """One workload: inputs made from the seed in ``__init__``."""

    #: seconds one ``reference()`` usually takes on the baseline machine
    REFERENCE_S: float

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.b_tilde_errors: list[float] = []
        self.tracer: Optional[tracing.Tracer] = None

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def reference(self) -> float:
        """Seconds taken by one run of the reference task."""
        raise NotImplementedError

    def start_tracing(self, tracer: tracing.Tracer) -> None:
        """Wrap the package's public functions in this process."""
        self.tracer = tracer
        self._restore = tracing.install(tracer)

    def stop_tracing(self) -> None:
        self._restore()
        self.tracer = None


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

#: fit basis for the Monge-Ampere solution: x, x log x, x^2, x^2 log x
_FIT_TERMS = ((1, 0), (1, 1), (2, 0), (2, 1))
_FIT_CUTOFF = 2
_FIT_WINDOW = (1e-6, 1e-2)

_CLI_GRID = 4096


class CliMix(Workload):
    """Closed loop, one client: each op is a fresh CLI process and the next
    op starts when it exits."""

    # An empty interpreter rather than one importing numpy and scipy: it
    # tracks the host as closely, costs a tenth, and its resident memory
    # stays far below any CLI op's, so peak_rss_mb still sees the ops.
    REFERENCE_S = INTERPRETER_START_S

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = self.rng
        inputs = workdir / "inputs"
        (inputs / "sweep_a").mkdir(parents=True)
        (inputs / "sweep_b").mkdir(parents=True)
        self.out = workdir / "out"
        self.hashes: dict[str, dict[str, str]] = {}
        grid = f"n_nodes = {_CLI_GRID}\n"
        self.a_logterm = _jitter(rng, 1.5)
        self.a_ma = _jitter(rng, 1.0)
        self.a_sweep = (_jitter(rng, 0.75), _jitter(rng, 1.25))
        (inputs / "eset.json").write_text(json.dumps(
            {"cutoff": float(_FIT_CUTOFF),
             "terms": [{"z": float(z), "k": k} for z, k in _FIT_TERMS]}))
        configs = {
            "logterm-pipeline": grid + f"f_terms = {self.a_logterm!r}:1:0\n",
            "solve-ma": grid + f"f_terms = {self.a_ma!r}:1:0\n",
            "fit-expansion": (f"field_csv = {self.out / 'solve-ma' / 'solution.csv'}\n"
                              f"index_set_json = {inputs / 'eset.json'}\n"
                              f"window_lo = {_FIT_WINDOW[0]!r}\nwindow_hi = {_FIT_WINDOW[1]!r}\n"),
            "solve-linear": grid + (f"lambda = {_jitter(rng, 1.0, 0.5)!r}\n"
                                    f"f_terms = {_jitter(rng, 1.5)!r}:1:0, "
                                    f"{_jitter(rng, 0.5)!r}:2:0\n"),
            "flow": grid + (f"conformal_terms = {_jitter(rng, 0.2, 0.25)!r}:0:0\n"
                            "T = 1\ndt = 0.01\noutput_times = 0.25, 0.5, 1\n"),
            # roots 1, 2, 3, 4 sit an integer apart and stack log powers;
            # the only op of the benchmark that runs the index-set algebra
            "indicial": ("lambda = 1\nc = 1\nspectrum = 0, 2, 5, 9\ncutoff = 8\n"
                         f"union_terms = 1:1, {rng.choice([2, 3])}:0\n"),
            "chern-coeff": f"d = {rng.randrange(4, 100)}\n",
        }
        sweep_items = []
        for sub, a in zip(("sweep_a", "sweep_b"), self.a_sweep):
            path = inputs / sub / f"{sub}.cfg"
            path.write_text("command = logterm-pipeline\n" + grid + f"f_terms = {a!r}:1:0\n")
            sweep_items.append(str(path))
        configs["sweep"] = f"configs = {', '.join(sweep_items)}\nmax_workers = 2\n"
        self.configs = {}
        for name, body in configs.items():
            path = inputs / f"{name}.cfg"
            path.write_text(body)
            self.configs[name] = path

    def reference(self) -> float:
        return interpreter_start_s()

    def start_tracing(self, tracer: tracing.Tracer) -> None:
        """Run the ops through cli_driver.py, which traces in the child."""
        self.tracer = tracer

    def stop_tracing(self) -> None:
        self.tracer = None

    def ops(self) -> list[Op]:
        return [Op(name, self._runner(name), self._checker(name),
                   lambda name=name: shutil.rmtree(self.out / name, ignore_errors=True))
                for name in self.configs]

    def _runner(self, command: str) -> Callable[[], Any]:
        outdir = self.out / command
        spans = self.workdir / f"spans-{command}.jsonl"

        def run():
            args = [command, str(self.configs[command]), "-o", str(outdir)]
            if self.tracer is None:
                argv = [sys.executable, "-m", "cuspasym.cli", *args]
            else:
                argv = [sys.executable, "-X", "importtime",
                        str(BENCH_DIR / "cli_driver.py"), str(spans), *args]
            return subprocess.run(argv, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, check=False)
        return run

    def _checker(self, command: str) -> Callable[[Any], None]:
        outdir = self.out / command

        def check(proc):
            if self.tracer is not None:
                self._collect_trace(command, proc.stderr)
            if proc.returncode != 0:
                raise OpError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            files = sorted(p for p in outdir.rglob("*") if p.is_file())
            payloads = {}
            for path in files:
                if path.suffix == ".json":
                    try:
                        payloads[path.relative_to(outdir).as_posix()] = json.loads(path.read_text())
                    except ValueError as exc:
                        raise CheckFailed(f"{path.name} does not parse: {exc}") from exc
                elif path.suffix == ".csv":
                    rows = path.read_bytes().count(b"\n")
                    _require(rows == _CLI_GRID + 1, f"{path.name} has {rows} rows")
            if command == "logterm-pipeline":
                self._check_logterm(payloads["logterm.json"], self.a_logterm)
            elif command == "sweep":
                for sub, a in zip(("sweep_a", "sweep_b"), self.a_sweep):
                    self._check_logterm(payloads[f"{sub}/logterm.json"], a)
            elif command == "solve-ma":
                _require(payloads["solve_ma.json"]["converged"], "solve-ma did not converge")
            elif command == "flow":
                _require(len([p for p in files if p.suffix == ".csv"]) == 3,
                         "flow wrote other than three CSVs")
            hashes = {p.relative_to(outdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in files}
            first = self.hashes.setdefault(command, hashes)
            _require(first == hashes, f"{command} artifacts differ from the first pass")
        return check

    def _check_logterm(self, payload: dict, a: float) -> None:
        _require(payload["passed"] is True, "logterm-pipeline did not pass")
        self.b_tilde_errors.append(abs(payload["b_tilde_fitted"] - 2.0 * a / 3.0))

    def _collect_trace(self, command: str, stderr: str) -> None:
        spans_path = self.workdir / f"spans-{command}.jsonl"
        if spans_path.exists():
            self.tracer.adopt(tracing.load_spans(spans_path))
            spans_path.unlink()
        self.tracer.add_imports(tracing.parse_importtime(stderr))


# ---------------------------------------------------------------------------
# radial-numerics
# ---------------------------------------------------------------------------

#: (grid nodes, base source amplitudes) of the MA + detector + fit ops.  The
#: 65536-node solves hit the default Newton's damping floor (residual about
#: 1.7e-10 against tol 1e-11) and count as failed ops.
_MA_OPS = ((4096, (0.5, 1.0, 1.5, 2.0, 2.5, 3.0) * 4),
           (16384, (0.5, 0.75, 1.0, 1.25) * 4),
           (65536, (1.0, 1.5)))

#: grids of the linear solves.  With these the cheap linear solves and the
#: ops slower than a 4096-node MA op are about as many, so op_p50_s falls in
#: the middle of the 4096-node MA ops rather than on the edge of a class.
_LINEAR_GRIDS = (4096, 16384) * 10


#: nodes of the reference task's banded solve and vector arithmetic
_REFERENCE_NODES = 4096


class RadialNumerics(Workload):
    """In-process and warm: elliptic + fitting and parabolic ops."""

    REFERENCE_S = 0.00085

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        import numpy as np
        from cuspasym import (IndexSet, IndexTerm, ModelMetric, RadialField,
                              RadialGrid)
        rng = self.rng
        self.np = np
        self.grids = {n: RadialGrid(-40.0, math.log(0.5), n) for n in (4096, 16384, 65536)}
        for g in self.grids.values():
            _ = (g.x, g.t)  # fill the cached node arrays during set-up
        self.fit_set = IndexSet(tuple(IndexTerm(z, k) for z, k in _FIT_TERMS), _FIT_CUTOFF)
        self.metric = ModelMetric()
        self.ma_inputs = []
        for n, bases in _MA_OPS:
            grid = self.grids[n]
            for base in bases:
                a = _jitter(rng, base)
                self.ma_inputs.append((n, a, RadialField(grid, a * grid.x)))
        self.linear_inputs = []
        for n in _LINEAR_GRIDS:
            grid = self.grids[n]
            rhs = _jitter(rng, 1.5) * grid.x + _jitter(rng, 0.5) * grid.x ** 2
            self.linear_inputs.append((n, _jitter(rng, 1.0, 0.5), RadialField(grid, rhs)))
        g16 = self.grids[16384]
        kappa, beta = _jitter(rng, 0.2, 0.25), _jitter(rng, 0.1, 0.25)
        bump = np.exp(-((g16.t + 20.0) / 3.0) ** 2)
        self.flow_metric = ModelMetric(conformal=RadialField(g16, kappa + beta * bump))
        self.decay_inputs = [(n, _jitter(rng, 1.0, 0.2), _jitter(rng, 1.0, 0.5))
                             for n in (16384, 65536)]
        self.ode_constants = [_jitter(rng, 2.0, 0.25), _jitter(rng, 1.5, 0.25)]
        # the reference's inputs do not depend on the seed
        from scipy.linalg import solve_banded
        self.solve_banded = solve_banded
        nodes = np.linspace(0.0, 1.0, _REFERENCE_NODES)
        self.reference_band = np.vstack([np.full_like(nodes, -1.0),
                                         np.full_like(nodes, 4.0) + nodes,
                                         np.full_like(nodes, -1.0)])
        self.reference_rhs = np.sin(7.0 * nodes)

    def reference(self) -> float:
        """A banded solve, vector arithmetic and a short Python loop on
        fixed inputs: the three kinds of work in a Newton step."""
        np = self.np
        start = time.perf_counter()
        u = self.reference_rhs
        for _ in range(4):
            u = self.solve_banded((1, 1), self.reference_band, np.exp(-u * u) + u)
        total = 0.0
        for value in u[:400].tolist():
            total += value * value
        return time.perf_counter() - start

    def ops(self) -> list[Op]:
        ops = [Op(f"ma-{n}", self._ma_runner(a, F), self._ma_checker(a))
               for n, a, F in self.ma_inputs]
        ops += [Op(f"solve-linear-{n}", self._linear_runner(lam, rhs),
                   self._linear_checker(lam, rhs)) for n, lam, rhs in self.linear_inputs]
        ops.append(Op("flow-16384", self._flow_run, self._flow_check))
        ops += [Op(f"decay-{n}", self._decay_runner(n, gamma, amp), self._decay_check)
                for n, gamma, amp in self.decay_inputs]
        ops.append(Op("restricted-ode", self._ode_run, self._ode_check))
        return ops

    def _ma_runner(self, a, F):
        from cuspasym import elliptic, fitting

        def run():
            u, report = elliptic.solve_monge_ampere_radial(
                elliptic.MongeAmpereProblem(self.metric, F))
            estimate = fitting.detect_log_term(u)
            fit = fitting.fit_polyhom(u, self.fit_set, fit_window=_FIT_WINDOW)
            return report, estimate, fit
        return run

    def _ma_checker(self, a):
        def check(result):
            report, estimate, fit = result
            _require(report.converged, "Monge-Ampere solve did not converge")
            predicted = 2.0 * a / 3.0
            error = abs(estimate.value - predicted)
            _require(error <= LOGTERM_GATE * predicted,
                     f"b_tilde {estimate.value} misses {predicted} by more than 2%")
            fitted = next(c for tm, c in fit.coefficients.items() if tm.z == 1 and tm.k == 1)
            _require(abs(fitted - predicted) <= LOGTERM_GATE * predicted,
                     f"fitted x log x coefficient {fitted} misses {predicted}")
            self.b_tilde_errors.append(error)
        return check

    def _linear_runner(self, lam, rhs):
        from cuspasym import elliptic

        def run():
            return elliptic.solve_linear(elliptic.LinearProblem(self.metric, lam, rhs))
        return run

    def _linear_checker(self, lam, rhs):
        np = self.np

        def check(u):
            v, h = u.values, u.grid.h
            lap = (0.5 / h ** 2 - 0.25 / h) * v[:-2] - v[1:-1] / h ** 2 \
                + (0.5 / h ** 2 + 0.25 / h) * v[2:]
            residual = lap - lam * v[1:-1] - rhs.values[1:-1]
            _require(bool(np.all(np.isfinite(v))), "non-finite linear solution")
            # rounding floor of the stencil: a few ulps of |v| / h^2
            floor = 64 * np.finfo(float).eps * (1.0 + float(np.max(np.abs(v)))) / h ** 2
            _require(float(np.max(np.abs(residual))) <= floor,
                     "linear solution does not satisfy its equation")
        return check

    def _flow_run(self):
        from cuspasym import parabolic
        return parabolic.run_flow(parabolic.FlowProblem(
            self.flow_metric, T=1.0, dt=1e-2, output_times=[0.5, 1.0]))

    def _flow_check(self, result):
        np = self.np
        _require(float(np.min(result.positivity_margin)) > 0, "flow lost positivity")
        _require(bool(np.all(np.isfinite(result.sup_u))), "flow potential not finite")
        _require(len(result.states) == 2, "flow returned the wrong snapshots")

    def _decay_runner(self, n, gamma, amp):
        from cuspasym import parabolic
        grid = self.grids[n]

        def run():
            return parabolic.decay_certificate(
                grid, gamma, lambda x, t: amp * self.np.ones_like(x), T=1.0, dt=1e-2)
        return run

    def _decay_check(self, cert):
        np = self.np
        bound = cert.K * np.exp(cert.growth_rate * cert.times)
        _require(math.isfinite(cert.sup_ratio) and cert.sup_ratio > 0, "empty certificate")
        _require(bool(np.all(cert.slice_ratios <= bound * (1 + 1e-12))),
                 "certificate bound does not hold")

    def _ode_run(self):
        from cuspasym import parabolic
        return parabolic.restricted_ode_solution(self.ode_constants, 1.0, dt=1e-3)

    def _ode_check(self, result):
        _require(result.max_discrepancy < 1e-8,
                 f"quadrature and RK4 differ by {result.max_discrepancy:.2e}")


WORKLOADS: dict[str, type[Workload]] = {
    "cli-mix": CliMix,
    "radial-numerics": RadialNumerics,
}
