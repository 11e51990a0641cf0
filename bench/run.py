"""cuspasym benchmark: one workload, one seed, one JSON line of metrics.

Usage (from the repository root):

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Workloads: cli-mix and radial-numerics (see bench/README.md).
With --trace 0 the last line of stdout holds the end-to-end metrics, with
--trace 1 the per-layer metrics.  The package is imported from ``src/`` of
the checkout this file sits in; nothing is installed.  Scratch files go to
``.bench_work/`` in the checkout and are removed at the end, except the
span file of a traced run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import INTERPRETER_START_S, WORKLOADS, interpreter_start_s

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: fresh processes timed from spawn to their first timed op, half before
#: and half after the measuring process, which is timed the same way;
#: setup_s is the median of all of them
SETUP_PROBES = 6

#: empty interpreters started before each set-up and after the last; the
#: median set-up is scaled by the median of all of them
SETUP_REFERENCES = 3

#: BLAS and OpenMP pools pinned to one thread in every process started
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: a timing tail needs this many ops beyond it
TAIL_OPS = 10

END_TO_END = {
    "run_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "success_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "b_tilde_abs_err_max": "1",
}

# per-layer metric -> (unit, span name, total key); values are per traced
# pass.  Import times come from -X importtime instead (see layer_metrics).
PER_LAYER = {
    "import.cuspasym_s": ("s", None, "cuspasym"),
    "import.cli_s": ("s", None, "cuspasym.cli"),
    "import.scipy_linalg_s": ("s", None, "scipy.linalg"),
    "import.scipy_integrate_s": ("s", None, "scipy.integrate"),
    "cli.load_config_s": ("s", "cli.load_config", "self_s"),
    "cli.command_self_s": ("s", "cli.command", "self_s"),
    "cli.write_json_s": ("s", "cli.write_json", "self_s"),
    "cli.json_bytes": ("B", "cli.write_json", "bytes"),
    "radial.write_csv_s": ("s", "radial.write_csv", "self_s"),
    "radial.csv_bytes_written": ("B", "radial.write_csv", "bytes"),
    "radial.read_csv_s": ("s", "radial.read_csv", "self_s"),
    "radial.csv_bytes_read": ("B", "radial.read_csv", "bytes"),
    "radial.solve_tridiagonal_calls": ("count", "radial.solve_tridiagonal", "calls"),
    "radial.solve_tridiagonal_s": ("s", "radial.solve_tridiagonal", "self_s"),
    "radial.tridiag_rows": ("count", "radial.solve_tridiagonal", "rows"),
    "radial.tridiag_bytes_computed": ("B", "radial.solve_tridiagonal", "bytes_computed"),
    "elliptic.ma_solve_s": ("s", "elliptic.solve_monge_ampere_radial", "self_s"),
    "elliptic.newton_iterations": ("count", "elliptic.solve_monge_ampere_radial",
                                   "calls.radial.solve_tridiagonal"),
    "elliptic.damping_events": ("count", "elliptic.solve_monge_ampere_radial",
                                "damping_events"),
    "elliptic.solve_linear_s": ("s", "elliptic.solve_linear", "self_s"),
    "parabolic.run_flow_s": ("s", "parabolic.run_flow", "self_s"),
    "parabolic.flow_steps": ("count", "parabolic.run_flow", "flow_steps"),
    "parabolic.flow_newton_iterations": ("count", "parabolic.run_flow",
                                         "calls.radial.solve_tridiagonal"),
    "parabolic.step_rejections": ("count", "parabolic.run_flow", "step_rejections"),
    "parabolic.decay_certificate_s": ("s", "parabolic.decay_certificate", "self_s"),
    "parabolic.restricted_ode_s": ("s", "parabolic.restricted_ode_solution", "self_s"),
    "fitting.detect_log_term_s": ("s", "fitting.detect_log_term", "self_s"),
    "fitting.fit_polyhom_s": ("s", "fitting.fit_polyhom", "self_s"),
    "geometry.cusp_laplacian_s": ("s", "geometry.cusp_laplacian", "self_s"),
    "indicial.hatEplus_s": ("s", "indicial.index_set_hatEplus", "self_s"),
    "indicial.hatEplus_terms": ("count", "indicial.index_set_hatEplus", "terms"),
    "indexsets.closure_s": ("s", "indexsets.closure", "self_s"),
    "indexsets.extended_union_s": ("s", "indexsets.extended_union", "self_s"),
    "indexsets.union_terms": ("count", "indexsets.extended_union", "terms"),
    "trace.overhead_ratio": ("ratio", None, None),
    "trace.attributed_ratio": ("ratio", None, None),
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, workdir: Path, setup_only: bool, trace_file=None):
    """Run worker.py once; returns (its result, seconds from spawn to its
    first timed op, its stderr)."""
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    argv = [sys.executable]
    if args.trace and not setup_only:
        argv += ["-X", "importtime"]
    argv += [str(BENCH_DIR / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", str(workdir),
             "--result", str(result)]
    if setup_only:
        argv.append("--setup-only")
    if trace_file:
        argv += ["--trace-file", str(trace_file)]
    spawned = time.monotonic()
    proc = subprocess.run(argv, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    out = json.loads(result.read_text())
    return out, out["ready"] - spawned, proc.stderr


def scaled(row, reference_s: float) -> float:
    """An op's wall time scaled to the usual host speed: times the ratio of
    the reference task's usual time to its time next to this op.

    The host is shared; its speed drifts by a third within minutes, and
    the op and the reference drift together."""
    return row[1] * reference_s / row[4]


def op_times(passes, reference_s: float) -> list[float]:
    """Each op of the op list at its median scaled time over the passes."""
    return [statistics.median(scaled(p["ops"][i], reference_s) for p in passes)
            for i in range(len(passes[0]["ops"]))]


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_OPS samples beyond it, that
    percentile, and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - 1 - TAIL_OPS)
    return ordered[k], 100.0 * (k + 1) / n, n


def end_to_end(passes, setup_s: float, worker_out, reference_s: float) -> dict:
    ops = [row for p in passes for row in p["ops"]]
    times = op_times(passes, reference_s)
    failed = sum(1 for row in ops if row[2] != "ok")
    errors = worker_out["b_tilde_errors"]
    return {
        "run_s": sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail([scaled(row, reference_s) for row in ops])[0],
        "success_ratio": 1.0 - failed / len(ops),
        "setup_s": setup_s,
        "peak_rss_mb": worker_out["peak_rss_mb"],
        "b_tilde_abs_err_max": max(errors) if errors else 0.0,
    }


def layer_metrics(worker_out, worker_stderr: str, reference_s: float) -> dict:
    traced = [p for p in worker_out["passes"] if p["traced"]]
    plain = [p for p in worker_out["passes"] if not p["traced"]]
    n = len(traced)
    totals = worker_out["layers"]
    child_imports = worker_out["child_imports"]
    if any(child_imports.values()):
        # every op is a fresh process importing the package: per pass
        imports = {k: v / n for k, v in child_imports.items()}
    else:
        # imported once by the workload process, during set-up
        imports = tracing.parse_importtime(worker_stderr)
    out = {}
    for name, (_, span, key) in PER_LAYER.items():
        if span is not None:
            out[name] = totals.get(span, {}).get(key, 0) / n
        elif key is not None:
            out[name] = imports.get(key, 0.0)
    attributed = sum(entry["self_s"] for entry in totals.values()) / n
    if any(child_imports.values()):
        attributed += imports.get("cuspasym", 0.0) + imports.get("cuspasym.cli", 0.0)
    traced_pass = sum(row[1] for p in traced for row in p["ops"]) / n
    out["trace.overhead_ratio"] = (sum(op_times(traced, reference_s))
                                   / sum(op_times(plain, reference_s)))
    out["trace.attributed_ratio"] = attributed / traced_pass
    return out


def _version(distribution: str):
    try:
        return importlib.metadata.version(distribution)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(args) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30, check=False)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "cuspasym" / "__init__.py").is_file():
        print(f"cuspasym sources not found under {SRC}", file=sys.stderr)
        return 2

    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        probes = 0 if args.trace else SETUP_PROBES
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
        names = ([f"setup-{i}" for i in range(probes // 2)] + ["main"]
                 + [f"setup-{i}" for i in range(probes // 2, probes)])
        setups, references = [], []
        for name in names:
            references += [interpreter_start_s(_env()) for _ in range(SETUP_REFERENCES)]
            main_run = name == "main"
            result, seconds, stderr = _worker(args, run_dir / name, setup_only=not main_run,
                                              trace_file=trace_file if main_run else None)
            setups.append(seconds)
            if main_run:
                out, main_stderr = result, stderr
        references += [interpreter_start_s(_env()) for _ in range(SETUP_REFERENCES)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    reference_s = WORKLOADS[args.workload].REFERENCE_S
    # Set-up is mostly interpreter start and imports, so it is scaled by
    # empty interpreters started in between.
    setup_s = statistics.median(setups) * INTERPRETER_START_S / statistics.median(references)
    ops = [row for p in out["passes"] for row in p["ops"]]
    failed = [row for row in ops if row[2] != "ok"]
    plain = [p for p in out["passes"] if not p["traced"]]
    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER[name][0]}
                   for name, value in layer_metrics(out, main_stderr, reference_s).items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end(plain, setup_s, out, reference_s).items()}
    plain_ops = [row for p in plain for row in p["ops"]]
    _, percentile, samples = tail([row[1] for row in plain_ops])
    s_by_name: dict[str, float] = {}
    for row, op_s in zip(plain[0]["ops"], op_times(plain, reference_s)):
        s_by_name[row[0]] = s_by_name.get(row[0], 0.0) + op_s
    # unscaled: the wall time of a pass and the reference as measured
    unscaled_run_s = sum(statistics.median(p["ops"][i][1] for p in plain)
                         for i in range(len(plain[0]["ops"])))
    info = {"environment": environment(args),
            "passes": len(plain),
            "op_tail": {"percentile": round(percentile, 2), "samples": samples},
            "reference": {"usual_s": reference_s,
                          "median_s": round(statistics.median(row[4] for row in plain_ops), 6)},
            "unscaled_run_s": round(unscaled_run_s, 6),
            "unscaled_setup_s": round(statistics.median(setups), 6),
            "interpreter_start": {"usual_s": INTERPRETER_START_S,
                                  "median_s": round(statistics.median(references), 6)},
            "scaled_s_per_op_name": {k: round(v, 6) for k, v in s_by_name.items()},
            "failures": sorted({f"{row[0]}: {row[3]}" for row in failed})}
    print(json.dumps(info))
    print(json.dumps({
        "correct": not any(row[2] == "wrong" for row in ops) and bool(out["b_tilde_errors"]),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
