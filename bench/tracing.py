"""Benchmark-side spans around the package's public functions.

Wrappers are installed on the names the package's callers look up (for
example ``cuspasym.elliptic.solve_tridiagonal``, the global that the Newton
loop resolves), so the package code itself is not changed.  Each call
records a span: name, start, end, parent span and op id, plus counts taken
at the same boundary.  Spans stay in memory until the run ends.

A span's layer is the package module in its name (``radial`` for
``radial.solve_tridiagonal``).  Its self time is its duration minus the
part of that interval its child spans cover; a span opened on a worker
thread with nothing open on that thread is parented to the innermost span
open on the main thread (the sweep's thread pool).
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    op: Optional[int]
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.imports: dict[str, float] = {}
        self.op: Optional[int] = None
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._next = 0

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args,
             counter: Optional[Callable] = None, **kwargs):
        """Run fn inside a span; counter(args, kwargs, result) gives counts."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            sid = self._next
            self._next += 1
        stack.append(sid)
        start = time.perf_counter()
        result, ok = None, False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            counts = counter(args, kwargs, result if ok else None) if counter else {}
            with self._lock:
                self.spans.append(Span(sid, parent, name, start, end, self.op, counts))

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable] = None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, counter=counter, **kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def adopt(self, spans: list[Span]) -> None:
        """Take over spans recorded by a child process under the current op."""
        with self._lock:
            base = self._next
            self._next += 1 + max((s.sid for s in spans), default=0)
            for s in spans:
                parent = None if s.parent is None else base + s.parent
                self.spans.append(Span(base + s.sid, parent, s.name, s.start,
                                       s.end, self.op, s.counts))

    def add_imports(self, seconds: dict[str, float]) -> None:
        for name in IMPORT_MODULES:
            self.imports[name] = self.imports.get(name, 0.0) + seconds.get(name, 0.0)

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def load_spans(path) -> list[Span]:
    with open(path, encoding="ascii") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Counters taken at span boundaries
# ---------------------------------------------------------------------------

def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _tridiag_counts(args, kwargs, result):
    n = len(args[1])
    # computed from array sizes: three bands, rhs and solution, 8-byte floats
    return {"rows": n, "bytes_computed": 5 * 8 * n}


def _write_csv_counts(args, kwargs, result):
    return {"bytes": _file_size(args[1])}


def _read_csv_counts(args, kwargs, result):
    return {"bytes": _file_size(args[1])}


def _write_json_counts(args, kwargs, result):
    return {"bytes": _file_size(args[0])}


def _ma_counts(args, kwargs, result):
    if result is None:
        return {}
    report = result[1]
    return {"newton_iterations": report.iterations,
            "damping_events": report.damping_events}


def _flow_counts(args, kwargs, result):
    if result is None:
        return {}
    return {"flow_steps": len(result.times) - 1,
            "flow_newton_iterations": int(sum(result.newton_iterations)),
            "step_rejections": result.step_rejections}


def _terms_counts(args, kwargs, result):
    return {} if result is None else {"terms": len(result)}


# (module, public function, counter); the span name is "<module>.<function>"
TRACED_FUNCTIONS = [
    ("radial", "solve_tridiagonal", _tridiag_counts),
    ("elliptic", "solve_monge_ampere_radial", _ma_counts),
    ("elliptic", "solve_linear", None),
    ("parabolic", "run_flow", _flow_counts),
    ("parabolic", "decay_certificate", None),
    ("parabolic", "restricted_ode_solution", None),
    ("fitting", "detect_log_term", None),
    ("fitting", "fit_polyhom", None),
    ("geometry", "cusp_laplacian", None),
    ("indicial", "spec_b_roots", None),
    ("indicial", "index_set_Eplus", None),
    ("indicial", "index_set_hatEplus", _terms_counts),
    ("indexsets", "closure", None),
    ("indexsets", "extended_union", _terms_counts),
    ("cli", "load_config", None),
    ("cli", "write_json", _write_json_counts),
]

_PACKAGE_MODULES = ("radial", "elliptic", "parabolic", "fitting", "geometry",
                    "indicial", "indexsets", "cli")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced function on each module global that names it, the
    CSV methods of RadialField and, once the CLI is imported, its command
    table; returns a function that restores the originals.  Only modules
    the process has already imported are touched, so tracing adds no
    import of its own."""
    modules = {m: sys.modules[f"cuspasym.{m}"] for m in _PACKAGE_MODULES
               if f"cuspasym.{m}" in sys.modules}
    undo: list[Callable[[], None]] = []

    def patch(owner, attr, new):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, new)
        undo.append(lambda: setattr(owner, attr, old))

    for home, fname, counter in TRACED_FUNCTIONS:
        if home not in modules:
            continue
        original = getattr(modules[home], fname)
        wrapper = tracer.wrap(f"{home}.{fname}", original, counter)
        for module in modules.values():
            if getattr(module, fname, None) is original:
                patch(module, fname, wrapper)

    field_cls = modules["radial"].RadialField
    patch(field_cls, "write_csv",
          tracer.wrap("radial.write_csv", field_cls.write_csv, _write_csv_counts))
    read_fn = field_cls.__dict__["read_csv"].__func__
    patch(field_cls, "read_csv",
          classmethod(tracer.wrap("radial.read_csv", read_fn, _read_csv_counts)))

    commands = modules["cli"].COMMANDS if "cli" in modules else {}
    for name, fn in list(commands.items()):
        commands[name] = tracer.wrap("cli.command", fn)
        undo.append(lambda name=name, fn=fn: commands.__setitem__(name, fn))

    def restore():
        for step in reversed(undo):
            step()
    return restore


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _covered(interval, children) -> float:
    """Length of the union of child intervals clipped to ``interval``."""
    lo, hi = interval
    parts = sorted((max(lo, a), min(hi, b)) for a, b in children)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in parts:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered((s.start, s.end), children.get(s.sid, []))
            for s in spans}


def totals_by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed self time ("self_s"), call count, counts, and
    the calls its direct children made ("calls.<child name>")."""
    selfs = self_times(spans)
    names = {s.sid: s.name for s in spans}
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        entry = out.setdefault(s.name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += selfs[s.sid]
        entry["calls"] += 1
        for key, value in s.counts.items():
            entry[key] = entry.get(key, 0) + value
        if s.parent in names:
            parent = out.setdefault(names[s.parent], {"self_s": 0.0, "calls": 0})
            key = f"calls.{s.name}"
            parent[key] = parent.get(key, 0) + 1
    return out


#: modules whose import time is reported, read from ``-X importtime``
IMPORT_MODULES = ("cuspasym", "cuspasym.cli", "scipy.linalg", "scipy.integrate")

_IMPORTTIME = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output,
    taken from the first (importing) line of each module."""
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(2) not in out:
            out[m.group(2)] = int(m.group(1)) * 1e-6
    return out
