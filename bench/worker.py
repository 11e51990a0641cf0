"""The workload process: set-up, one untimed warm-up op, timed passes.

Started by run.py; not meant to be run by hand.  It writes one JSON file
with what it measured and exits.  With --setup-only it stops right before
the first timed op, so run.py can time set-up in fresh processes.

A pass runs the workload's fixed op list once.  Passes repeat until
--seconds have gone by (at least MIN_PASSES, or one per half when traced).  After every op the workload's
reference task runs a few times, so each op is timed next to a measure of
the host's speed at that moment.  With --trace 1 the first half of the
time runs untraced passes and the second half traced ones, so the tracing
overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import time
from pathlib import Path

import tracing
import workloads


#: reference runs after each op; their median is the op's "after" reference
REFERENCE_REPEATS = 3

#: passes an untraced run makes however long they take, so that each op's
#: median has three runs behind it
MIN_PASSES = 3


def reference_s(workload) -> float:
    return statistics.median(workload.reference() for _ in range(REFERENCE_REPEATS))


def run_op(op, tracer, op_id: int, workload, ref_before: float):
    """Run one op; returns its row [name, seconds, outcome, message,
    reference seconds] and the reference taken after it.  The outcome is
    "ok", "error" (raised or exited non-zero) or "wrong" (failed its output
    check); the row's reference is the mean of those before and after."""
    if op.prepare is not None:
        op.prepare()
    if tracer is not None:
        tracer.op = op_id
    start = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # an op that raises is counted, not fatal
        # keep only the message: the traceback would hold the op's arrays
        result, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    ref_after = reference_s(workload)
    row = [op.name, seconds, "ok", "", (ref_before + ref_after) / 2]
    if error is not None:
        row[2:4] = ["error", error]
        return row, ref_after
    try:
        op.check(result)
    except workloads.OpError as exc:
        row[2:4] = ["error", str(exc)]
    except workloads.CheckFailed as exc:
        row[2:4] = ["wrong", str(exc)]
    return row, ref_after


def run_passes(workload, ops, seconds: float, min_passes: int, tracer, passes: list,
               traced: bool) -> None:
    start = time.perf_counter()
    ref = reference_s(workload)
    for made in itertools.count(1):
        rows: list = []
        for op in ops:
            row, ref = run_op(op, tracer, len(passes) * len(ops) + len(rows), workload, ref)
            rows.append(row)
        passes.append({"traced": traced, "ops": rows})
        if made >= min_passes and time.perf_counter() - start >= seconds:
            return


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    ops = workload.ops()
    warmup = ops[0]
    if warmup.prepare is not None:
        warmup.prepare()
    warmup.run()
    ready = time.monotonic()
    out = {"ready": ready}
    if not args.setup_only:
        passes: list = []
        if args.trace:
            run_passes(workload, ops, args.seconds / 2, 1, None, passes, traced=False)
            tracer = tracing.Tracer()
            workload.start_tracing(tracer)
            run_passes(workload, ops, args.seconds / 2, 1, tracer, passes, traced=True)
            workload.stop_tracing()
            out["layers"] = tracing.totals_by_name(tracer.spans)
            out["child_imports"] = tracer.imports
            if args.trace_file:
                tracer.dump(args.trace_file)
        else:
            run_passes(workload, ops, args.seconds, MIN_PASSES, None, passes, traced=False)
        usage = [resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        out.update(passes=passes, b_tilde_errors=workload.b_tilde_errors,
                   peak_rss_mb=max(usage) / 1024.0)
    Path(args.result).write_text(json.dumps(out))


if __name__ == "__main__":
    main()
