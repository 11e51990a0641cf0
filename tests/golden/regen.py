"""The golden CLI corpus: run every case and rewrite ``manifest.json``.

    PYTHONPATH=src python tests/golden/regen.py

Each case is ``<name>.cfg`` in this directory, run in-process as
``cuspasym.cli.main([command, "<name>.cfg", "-o", "out/<name>"])`` from a
scratch directory that holds a copy of this one, so every path an artifact
records is relative.  The manifest keeps, per case, the exit code, stdout,
stderr, the full text of each JSON artifact and the sha256 of each CSV, and
once the Python, numpy and scipy versions it was made with.
``tests/test_golden.py`` replays the cases with :func:`replay` and compares.
Rerun this script only for an intended change of output; it prints the
entries that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
MANIFEST = GOLDEN / "manifest.json"

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
    "exit2-bc-left-nan": "solve-ma",
    "exit2-t-min-inf": "flow",
    "exit2-t-min-huge": "flow",
    "exit3-max-iter": "solve-ma",
    "indicial-readme": "indicial",
    "indicial-lambda-07": "indicial",
    "sweep-serial": "sweep",
    "exit2-sweep-no-command": "sweep",
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
}


def versions() -> dict[str, str]:
    """The versions whose arithmetic the recorded outputs depend on."""
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


def run_case(name: str, command: str) -> dict:
    """Run one case from the working directory; its manifest entry."""
    from cuspasym.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, f"{name}.cfg", "-o", f"out/{name}"])
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


def main() -> None:
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


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    main()
