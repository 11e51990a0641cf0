"""The benchmark's tracer (``bench/tracing.py``) wraps package functions by
name; each name it looks up must still resolve in the package, or a traced
run loses that layer.  The tracer is stdlib-only and is loaded from its
file, so this check imports nothing else from ``bench/``.  The traced CLI
run itself (``bench/cli_driver.py``) is run once per kind of command in a
fresh process: it installs the wrappers on the modules the package import
has loaded, which a lazier package import could break."""

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
TRACING = ROOT / "bench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)

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
