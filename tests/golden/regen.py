"""The golden CLI corpus: run every case and rewrite ``manifest.json``.

    PYTHONPATH=src python tests/golden/regen.py
    python tests/golden/regen.py --against REV

Each case is ``<name>.cfg`` in this directory, run in-process as
``cuspasym.cli.main([command, "<name>.cfg", "-o", "out/<name>"])`` from a
scratch directory that holds a copy of this one, so every path an artifact
records is relative.  The manifest keeps, per case, the exit code, stdout,
stderr, the full text of each JSON artifact and the sha256 of each CSV, and
once the Python, numpy and scipy versions it was made with.
``tests/test_golden.py`` replays the cases with :func:`replay` and compares.
Rerun this script only for an intended change of output; it prints the
entries that changed.

``--against REV`` rewrites nothing: it exports REV's ``src/`` and
``tests/test_library_digests.py`` with ``git archive`` into a temporary
directory, runs this corpus, the results of that tree's own
``tests/test_library_digests.py`` (so a library result whose fields changed
is recorded on each side with that side's accessors) and one pass of the
benchmark's radial-numerics ops (``bench/workloads.py``, loaded read-only, at
seed ``OPS_SEED``) with that tree and with this checkout, each in its own
process, and prints per case the exit codes, the stdout and stderr
differences and the largest absolute and relative difference of each JSON
number and each CSV column, then the same for each library result and for
every number of each op's result.  A summary ends the report: per output
that moved its largest absolute and relative move (and its other changes),
then how many golden cases, library results and ops did not move.  It needs
only git, the standard library and numpy (and scipy, which the ops'
reference task imports).
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
import types
from collections import namedtuple
from importlib.metadata import version
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
MANIFEST = GOLDEN / "manifest.json"
ROOT = GOLDEN.parents[1]
#: where a source tree keeps its library results, relative to its root
LIBRARY_DIGESTS = Path("tests", "test_library_digests.py")
BENCH = ROOT / "bench"
#: the seed of the radial-numerics pass ``--against`` records
OPS_SEED = 22
#: seconds a case may run before :func:`run_case` stops it
CASE_TIME_LIMIT = 10

#: case name -> subcommand, in run order (fit-expansion reads solve-ma's CSV)
CASES = {
    "logterm-pipeline": "logterm-pipeline",
    "solve-ma": "solve-ma",
    "fit-expansion": "fit-expansion",
    "solve-linear": "solve-linear",
    "flow-conformal": "flow",
    "flow-halving": "flow",
    "indicial-union": "indicial",
    "indicial-c3": "indicial",
    "chern-coeff": "chern-coeff",
    "sweep": "sweep",
    "exit2-snapshot-collision": "flow",
    "exit2-output-time-off-grid": "flow",
    "exit2-output-time-inf": "flow",
    "exit2-unknown-key": "chern-coeff",
    "exit2-chern-d-3": "chern-coeff",
    "exit2-bc-left-nan": "solve-ma",
    "exit2-t-min-inf": "flow",
    "exit2-t-min-huge": "flow",
    "exit3-max-iter": "solve-ma",
    "indicial-readme": "indicial",
    "indicial-lambda-07": "indicial",
    "sweep-serial": "sweep",
    "exit2-sweep-no-command": "sweep",
    "exit2-sweep-bad-value": "sweep",
    "exit2-T-inf": "flow",
    "exit2-damping-min-zero": "solve-ma",
    "exit2-max-iter-negative": "solve-ma",
    "exit2-t-min-underflow": "solve-ma",
    "solve-ma-512": "solve-ma",
    "fit-expansion-few-points": "fit-expansion",
    "exit2-conformal-overflow": "flow",
    "exit2-metric-a-inf": "flow",
    "solve-ma-32768": "solve-ma",
    "exit3-ma-bc-huge": "solve-ma",
    "solve-linear-bc-huge": "solve-linear",
    "exit3-linear-residual-overflow": "solve-linear",
    "exit3-linear-elimination-overflow": "solve-linear",
    "exit3-linear-elimination-overflow-right": "solve-linear",
    "exit3-flow-degenerating": "flow",
    "exit3-flow-tiny-spacing": "flow",
    "exit3-fit-overflow": "fit-expansion",
    "flow-halving-floor-bound": "flow",
    "exit2-fit-window-nan": "fit-expansion",
    "exit2-tolerance-nan": "logterm-pipeline",
    "exit2-lambda-nan": "solve-linear",
    "exit2-indicial-spectrum-inf": "indicial",
    "exit2-fit-index-set-empty": "fit-expansion",
    "exit2-fit-window-narrow": "fit-expansion",
    "exit2-indicial-lambda-exact-huge": "indicial",
    "exit2-indicial-spectrum-huge": "indicial",
    "exit2-indicial-c-tiny": "indicial",
    "exit2-indicial-cutoff-huge": "indicial",
    "exit3-fit-term-overflow": "fit-expansion",
    "exit3-flow-end-row-positivity": "flow",
    "logterm-tiny-amplitude": "logterm-pipeline",
    "exit2-n-nodes-huge": "solve-ma",
    "logterm-no-log-term": "logterm-pipeline",
    "logterm-coarse-fallback": "logterm-pipeline",
    "exit2-fit-csv-no-header": "fit-expansion",
}


def versions() -> dict[str, str]:
    """The versions whose arithmetic the recorded outputs depend on."""
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


@contextlib.contextmanager
def time_limit(seconds: float):
    """A TimeoutError raised in the body once ``seconds`` have passed."""
    def expire(*_):
        raise TimeoutError(f"case still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_case(name: str, command: str) -> dict:
    """Run one case from the working directory; its manifest entry.  An
    exception that escapes ``main``, a case running past
    ``CASE_TIME_LIMIT`` included, is recorded as a process would end: exit
    1 and the last line of its traceback on stderr.  So ``--against`` can
    run a revision that crashes or loops on a case added since."""
    from cuspasym.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with time_limit(CASE_TIME_LIMIT):
                code = main([command, f"{name}.cfg", "-o", f"out/{name}"])
        except Exception as exc:   # noqa: BLE001 - recorded, not raised
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    root = Path("out", name)
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        files[path.relative_to(root).as_posix()] = (
            data.decode("ascii") if path.suffix == ".json"
            else "sha256:" + hashlib.sha256(data).hexdigest())
    return {"command": command, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "files": files}


def replay() -> dict[str, dict]:
    """Copy the corpus into the working directory and run every case, in
    order; the entries by case name."""
    shutil.copytree(GOLDEN, ".", dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns("*.py", "manifest.json", "__pycache__"))
    return {name: run_case(name, command) for name, command in CASES.items()}


def _changes(before: dict, after: dict) -> list[str]:
    fields = [key for key in ("command", "exit", "stdout", "stderr") if before[key] != after[key]]
    return fields + [f"files/{name}" for name in sorted(before["files"].keys() | after["files"].keys())
                     if before["files"].get(name) != after["files"].get(name)]


def regenerate() -> None:
    """Replay every case, rewrite the manifest and print what changed."""
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {"versions": None, "cases": {}}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            cases = replay()
        finally:
            os.chdir(cwd)
    new = {"versions": versions(), "cases": cases}
    MANIFEST.write_text(json.dumps(new, indent=1) + "\n", encoding="ascii")
    if old["versions"] != new["versions"]:
        print(f"versions: {old['versions']} -> {new['versions']}")
    for name in [*cases, *(n for n in old["cases"] if n not in cases)]:
        before, after = old["cases"].get(name), cases.get(name)
        if before is None or after is None:
            print(f"{name}: {'added' if before is None else 'removed'}")
        elif before != after:
            print(f"{name}: {', '.join(_changes(before, after))}")


# ---------------------------------------------------------------------------
# --against REV: how far each output moved
# ---------------------------------------------------------------------------

def record(workdir: str, tree: str) -> None:
    """Replay the corpus in ``workdir`` with the ``cuspasym`` of the source
    tree ``tree`` first on ``sys.path``: the artifacts stay under
    ``workdir/out``, each case's exit code, stdout and stderr (its source
    directory written ``<src>``) go to ``cases.json``, the arrays of every
    library result of the tree's own digests file to ``library.npz`` and the
    numbers of each radial-numerics op's result to ``ops.npz``."""
    import numpy as np

    import cuspasym

    src = str(Path(cuspasym.__file__).parents[1])   # in warnings: the same text on both sides
    library = Path(tree, LIBRARY_DIGESTS).resolve()
    os.chdir(workdir)
    cases = {name: {key: entry[key].replace(src, "<src>") if key != "exit" else entry[key]
                    for key in ("exit", "stdout", "stderr")}
             for name, entry in replay().items()}
    Path("cases.json").write_text(json.dumps(cases, indent=1), encoding="utf-8")
    spec = importlib.util.spec_from_file_location("library_digests", library)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    arrays = {f"{name}[{i}]": np.asarray(part, dtype=float)
              for compute in module.RESULTS.values()
              for name, parts in compute().items() for i, part in enumerate(parts)}
    np.savez("library.npz", **arrays)
    np.savez("ops.npz", **radial_numerics_results())


def _load_bench(name: str):
    """``bench/<name>.py`` as module ``name``, executed from its source, so
    no bytecode is written under ``bench/``."""
    path = BENCH / f"{name}.py"
    module = sys.modules[name] = types.ModuleType(name)   # dataclasses look it up there
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), path, "exec"), module.__dict__)
    return module


def radial_numerics_results() -> dict:
    """One pass of the radial-numerics ops at ``OPS_SEED``: every number of
    each op's result, as float arrays keyed ``"<op index> <op name>: <path>"``."""
    _load_bench("tracing")   # workloads imports it by name
    workload = _load_bench("workloads").RadialNumerics(OPS_SEED, Path("bench-work"))
    results = {}
    for i, op in enumerate(workload.ops()):
        if op.prepare is not None:
            op.prepare()
        results.update((f"{i:02d} {op.name}: {path}", value) for path, value in _numbers(op.run()))
    return results


def _numbers(value, path: str = "result"):
    """(path, float array) for every number, array and None (NaN) in a
    result made of dataclasses, dicts, sequences and numbers; strings are
    left out."""
    import dataclasses
    from fractions import Fraction

    import numpy as np

    if dataclasses.is_dataclass(value):
        for item in dataclasses.fields(value):
            yield from _numbers(getattr(value, item.name), f"{path}.{item.name}")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, f"{path}[{key}]")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _numbers(item, f"{path}[{i}]")
    elif value is None or isinstance(value, (int, float, Fraction, np.number, np.ndarray)):
        yield path, np.asarray(np.nan if value is None else value, dtype=float)
    elif not isinstance(value, str):
        raise TypeError(f"{path}: no numbers known for a {type(value).__name__}")


def export_src(rev: str, into: Path) -> Path:
    """REV's ``src/`` and library digests file exported with ``git archive``
    into ``into``: a source tree, whose root is ``into``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src",
                          LIBRARY_DIGESTS.as_posix()], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # the "data" filter where this Python has it (3.11.4 and later)
        archive.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into


def run_both(before: Path, after: Path, workdir: Path) -> tuple[Path, Path]:
    """Record the corpus with each source tree (a root holding ``src/`` and
    the library digests file), in two processes at once, in
    ``workdir/before`` and ``workdir/after``; those two directories."""
    code = ("import sys; sys.path[:0] = [sys.argv[1] + '/src', sys.argv[2]]; "
            "import regen; regen.record(sys.argv[3], sys.argv[1])")
    runs = []
    for tree, side in ((before, "before"), (after, "after")):
        (workdir / side).mkdir(parents=True)
        runs.append((workdir / side, subprocess.Popen(
            [sys.executable, "-c", code, str(tree), str(GOLDEN), str(workdir / side)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)))
    errors = [proc.communicate()[1] for _, proc in runs]   # both end before a failure is raised
    failed = [f"recording in {side} failed:\n{err}"
              for (side, proc), err in zip(runs, errors) if proc.returncode]
    if failed:
        raise RuntimeError("\n".join(failed))
    return runs[0][0], runs[1][0]


def _difference(a: float, b: float) -> tuple[float, float]:
    """|a - b| and |a - b| / max(|a|, |b|) (0 for equal values, NaN included)."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    diff = abs(a - b)
    return diff, diff / max(abs(a), abs(b))


def _json_leaves(value, path: str = ""):
    """(path, leaf) for every leaf of a parsed JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _json_leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Each comparison below finds (line, move) pairs: a report line and the
# move it shows, (largest absolute, largest relative difference) for numbers
# and a short text for any other change.

def _compare_json(before: Path, after: Path) -> list[tuple]:
    old, new = (dict(_json_leaves(json.loads(p.read_text()))) for p in (before, after))
    found = []
    for key in [*old, *(k for k in new if k not in old)]:
        if key not in new or key not in old:
            found.append((f"{key}: only {'before' if key in old else 'after'}", f"{key} added or removed"))
        elif _is_number(old[key]) and _is_number(new[key]):
            diff, rel = _difference(float(old[key]), float(new[key]))
            if diff or rel:
                found.append((f"{key}: {old[key]!r} -> {new[key]!r} (abs {diff:.3g}, rel {rel:.3g})",
                              (diff, rel)))
        elif old[key] != new[key]:
            found.append((f"{key}: {old[key]!r} -> {new[key]!r}", f"{key} changed"))
    return found


def _compare_arrays(label: str, old, new) -> list[tuple]:
    """The largest absolute and relative difference of two float arrays."""
    import numpy as np

    if old.shape != new.shape:
        return [(f"{label}: shape {old.shape} -> {new.shape}", "shape changed")]
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    if same.all():
        return []
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        diff = np.where(same, 0.0, np.abs(old - new))
        rel = np.where(same, 0.0, diff / np.maximum(np.abs(old), np.abs(new)))
    diff, rel = float(np.nanmax(diff)), float(np.nanmax(rel))
    return [(f"{label}: max abs {diff:.3g}, max rel {rel:.3g} "
             f"({int(np.count_nonzero(~same))} of {same.size} differ)", (diff, rel))]


def _compare_csv(before: Path, after: Path) -> list[tuple]:
    import numpy as np

    header = before.read_text().partition("\n")[0].split(",")
    if after.read_text().partition("\n")[0].split(",") != header:
        return [("header changed", "header changed")]
    old, new = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2) for p in (before, after))
    if old.shape != new.shape:
        return [(f"shape {old.shape} -> {new.shape}", "shape changed")]
    return [found for j, column in enumerate(header)
            for found in _compare_arrays(column, old[:, j], new[:, j])]


def _compare_text(label: str, old: str, new: str) -> list[tuple]:
    if old == new:
        return []
    diff = difflib.unified_diff(old.splitlines(), new.splitlines(), "before", "after", lineterm="", n=0)
    return [(line, label) for line in [f"{label}:"] + [f"  {line}" for line in list(diff)[2:]]]


#: one compared output: its kind (a key of ``KINDS``), its name, its lines in
#: the report and the moves its differences show (none when it did not move)
_Item = namedtuple("_Item", "kind name lines moves")
#: the kinds of output, each a name for the summary
KINDS = {"case": "golden cases", "library": "library results", "op": "radial-numerics ops"}


def _items(before: Path, after: Path) -> list[_Item]:
    """Every golden case, library result and radial-numerics op of two
    directories that :func:`record` wrote, in report order."""
    import numpy as np

    old_cases, new_cases = (json.loads((d / "cases.json").read_text()) for d in (before, after))
    items = []
    for name in [*old_cases, *(n for n in new_cases if n not in old_cases)]:
        if name not in new_cases or name not in old_cases:
            only = f"only {'before' if name in old_cases else 'after'}"
            items.append(_Item("case", name, [f"{name}: {only}"], [only]))
            continue
        old, new = old_cases[name], new_cases[name]
        found = [] if old["exit"] == new["exit"] else [(f"exit {old['exit']} -> {new['exit']}",) * 2]
        found += _compare_text("stdout", old["stdout"], new["stdout"])
        found += _compare_text("stderr", old["stderr"], new["stderr"])
        roots = (before / "out" / name, after / "out" / name)
        files = [sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
                 if root.is_dir() else [] for root in roots]
        for file in [*files[0], *(f for f in files[1] if f not in files[0])]:
            if file not in files[0] or file not in files[1]:
                only = f"{file}: only {'before' if file in files[0] else 'after'}"
                found.append((only, only))
                continue
            paths = (roots[0] / file, roots[1] / file)
            if paths[0].read_bytes() == paths[1].read_bytes():
                continue
            compare_file = {".json": _compare_json, ".csv": _compare_csv}.get(paths[0].suffix)
            in_file = compare_file(*paths) if compare_file else [("bytes differ",) * 2]
            found += ([(f"{file} {line}", move if isinstance(move, tuple) else f"{file} {move}")
                       for line, move in in_file] or [(f"{file}: bytes differ",) * 2])
        status = f"exit {new['exit']}" + ("" if found else ", no difference")
        items.append(_Item("case", name, [f"{name}: {status}"] + [f"    {line}" for line, _ in found],
                           [move for _, move in found]))
    with np.load(before / "library.npz") as old, np.load(after / "library.npz") as new:
        results = {}   # one item per library result, "<name>[<i>]" one of its arrays
        for key in [*old.files, *(k for k in new.files if k not in old.files)]:
            if key not in new.files or key not in old.files:
                only = f"only {'before' if key in old.files else 'after'}"
                found = [(f"library {key}: {only}", only)]
            else:
                found = _compare_arrays(f"library {key}", old[key], new[key])
            name = key.rpartition("[")[0]
            item = results.setdefault(name, _Item("library", name, [], []))
            item.lines.extend([line for line, _ in found] or [f"library {key}: no difference"])
            item.moves.extend(move for _, move in found)
        items += results.values()
    with np.load(before / "ops.npz") as old, np.load(after / "ops.npz") as new:
        ops = {key.partition(": ")[0]: [] for key in [*old.files, *new.files]}
        for key in [*old.files, *(k for k in new.files if k not in old.files)]:
            op, _, path = key.partition(": ")
            if key not in new.files or key not in old.files:
                only = f"{path}: only {'before' if key in old.files else 'after'}"
                ops[op].append((only, only))
            else:
                ops[op] += _compare_arrays(path, old[key], new[key])
        for op, found in ops.items():
            items.append(_Item("op", op, [f"radial-numerics {op}: "
                                          + ("differs" if found else "no difference")]
                               + [f"    {line}" for line, _ in found], [move for _, move in found]))
    return items


def compare(before: Path, after: Path) -> list[str]:
    """The report on two directories that :func:`record` wrote: a line per
    case that did not change, its differences under it for one that did."""
    return [line for item in _items(before, after) for line in item.lines]


def summary(items: list[_Item]) -> list[str]:
    """Per output that moved, its largest absolute and relative move and
    its other changes, then per kind the number that did not move."""
    lines = []
    for item in items:
        if not item.moves:
            continue
        numbers = [move for move in item.moves if isinstance(move, tuple)]
        parts = ([f"max abs {max(d for d, _ in numbers):.3g}, "
                  f"max rel {max(r for _, r in numbers):.3g}"] if numbers else [])
        parts += dict.fromkeys(move for move in item.moves if isinstance(move, str))
        label = {"case": "", "library": "library ", "op": "radial-numerics "}[item.kind]
        lines.append(f"  {label}{item.name}: {'; '.join(parts)}")
    counts = [f"{sum(not i.moves for i in items if i.kind == kind)} of "
              f"{sum(i.kind == kind for i in items)} {name}" for kind, name in KINDS.items()]
    return ["summary:", *lines, "  no difference: " + ", ".join(counts)]


def against(rev: str) -> list[str]:
    """The report on REV's outputs (before) against this checkout's (after),
    ending with its summary."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = export_src(rev, Path(tmp, "rev"))
        items = _items(*run_both(tree, ROOT, Path(tmp, "runs")))
    return [line for item in items for line in item.lines] + summary(items)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Rewrite the golden manifest, or with "
                                     "--against compare the outputs of two source trees.")
    parser.add_argument("--against", metavar="REV",
                        help="report how far each output moved from REV's (a git revision); "
                             "rewrites nothing")
    args = parser.parse_args(argv)
    if args.against is None:
        regenerate()
        return
    try:
        report = against(args.against)
    except subprocess.CalledProcessError as exc:
        sys.exit(f"git archive {args.against} failed: {exc.stderr.decode().strip()}")
    print(f"--against {args.against}: before is {args.against}, after is this checkout")
    print("\n".join(report))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
