"""The benchmark's tracer (``bench/tracing.py``) wraps package functions by
name; each name it looks up must still resolve in the package, or a traced
run loses that layer.  The tracer is stdlib-only and is loaded from its
file, so this check imports nothing else from ``bench/``."""

import importlib
import importlib.util
import sys
from pathlib import Path

from cuspasym import cli
from cuspasym.radial import RadialField

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
