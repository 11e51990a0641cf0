"""The benchmark's tracer (``bench/tracing.py``) wraps package functions by
name; each name it looks up must still resolve in the package, or a traced
run loses that layer.  The tracer is stdlib-only and is loaded from its
file, so that check imports nothing else from ``bench/``.  The traced CLI
run itself (``bench/cli_driver.py``) is run once per kind of command in a
fresh process: it installs the wrappers on the modules the package import
has loaded, which a lazier package import could break.  The radial-numerics
workload's runners and checkers (``bench/workloads.py``), which call the
library directly, run one op of each kind."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cuspasym import cli
from cuspasym.radial import RadialField

ROOT = Path(__file__).resolve().parents[1]


def _load_bench_module(monkeypatch, name: str):
    """``bench/<name>.py`` as module ``name``, for this test only."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracing = _load_bench_module(monkeypatch, "tracing")

    assert tracing.TRACED_FUNCTIONS
    for home, fname, _ in tracing.TRACED_FUNCTIONS:
        assert home in tracing._PACKAGE_MODULES, home
        module = importlib.import_module(f"cuspasym.{home}")
        assert callable(getattr(module, fname, None)), f"cuspasym.{home}.{fname}"
    assert callable(RadialField.write_csv)
    assert isinstance(RadialField.__dict__["read_csv"], classmethod)
    assert cli.COMMANDS and all(callable(fn) for fn in cli.COMMANDS.values())


@pytest.mark.parametrize("command, cfg_text, span", [
    ("chern-coeff", "d = 4\n", "cli.command"),
    ("solve-ma", "n_nodes = 512\nf_terms = 1.5:1:0\n", "elliptic.solve_monge_ampere_radial"),
])
def test_traced_cli_run_records_spans(tmp_path, command, cfg_text, span):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(cfg_text)
    spans_out = tmp_path / "spans.jsonl"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "cli_driver.py"),
                           str(spans_out), command, str(cfg), "-o", str(tmp_path / "out")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = {json.loads(line)["name"] for line in spans_out.read_text().splitlines()}
    assert {"cli.main", "cli.command", span} <= names, names


def test_radial_numerics_ops_run_and_pass_their_checks(monkeypatch, tmp_path):
    # the benchmark calls the library's constructors and detector directly;
    # one op of each kind, without the 65536-node ones, runs here
    _load_bench_module(monkeypatch, "tracing")      # workloads imports it by name
    workloads = _load_bench_module(monkeypatch, "workloads")
    ops = {op.name: op for op in workloads.RadialNumerics(1121, tmp_path).ops()}
    for name in ("ma-4096", "solve-linear-4096", "flow-16384", "decay-16384",
                 "restricted-ode"):
        op = ops[name]
        if op.prepare is not None:
            op.prepare()
        op.check(op.run())
