"""Batch command-line front end.

Subcommands: indicial, chern-coeff, solve-linear, solve-ma, flow,
fit-expansion, logterm-pipeline, sweep.  Each reads a flat key-value
config file (``key = value`` lines, ``#`` comments), validates it against
the subcommand's schema (unknown keys are rejected, missing required keys
are named), and writes JSON plus CSV artifacts into the output directory.
Every default is echoed into the output JSON so results are
self-describing, floats are serialized at full precision, and repeated
runs on the same config produce byte-identical files.

Each command executes only the package modules it calls (``_deferred``),
so ``indicial`` and ``chern-coeff``, exact arithmetic alone, load no numpy.
A command parses, calls the library and writes: ``logterm-pipeline``
solves, writes the solution CSV and then what ``headline.log_term_headline``
returns (the detector, the coarser grids and Richardson's b_R live there).

Exit codes: 0 success, 2 config error (a ``ConfigError``, which only this
module raises: its message begins with the config keys at fault, by ``_named``,
or with the file at fault), 3 numerical failure (``SolverError``,
``FitError``); any other exception propagates, exit 1 with its traceback.

The default output directory is taken from the CUSPASYM_OUTDIR environment
variable, overridable per run with --output or the ``output`` config key.

Source terms and conformal factors are given as term lists: comma-separated
``a:z:k`` triples denoting a * x^z * (log x)^k, e.g. ``1.5:1:0, 0:2:0``.
A term list that is not finite somewhere on the grid is a config error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import json
import math
import os
import sys
import types
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from . import defaults
from .errors import ConfigError, FitError, SolverError


def _deferred(name: str) -> types.ModuleType:
    """The package module ``name``, bound in ``sys.modules`` and on the
    package but executed only when its first attribute is read
    (``importlib.util.LazyLoader``); a module already imported, or already
    deferred, is reused as it is.  So a command executes only the modules
    it calls, and the exact commands load no numpy."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


chern, elliptic, fitting, geometry, headline, indexsets, indicial, parabolic, radial = map(
    _deferred, ("chern", "elliptic", "fitting", "geometry", "headline", "indexsets", "indicial",
                "parabolic", "radial"))

OUTDIR_ENV = "CUSPASYM_OUTDIR"


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

_REQUIRED = object()


@dataclass(frozen=True)
class Key:
    """One config key of a schema: the parser of its text and its default
    (``_REQUIRED`` for a key the config must set)."""
    parse: Callable[[str], Any]
    default: Any = _REQUIRED


def _number(kind: str, convert: Callable[[str], Any]) -> Callable[[str], Any]:
    """Parser of one number by ``convert``, failing as "bad <kind> value '<text>'"."""
    def parse(text: str):
        try:
            return convert(text)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"bad {kind} value {text!r}") from exc
    return parse


def _rational(text: str):
    """Exact Fraction for integers and p/q forms, float otherwise."""
    try:
        return Fraction(int(text))
    except ValueError:
        return Fraction(text) if "/" in text else float(text)


_parse_int = _number("integer", int)
_parse_float = _number("float", lambda text: float(Fraction(text)) if "/" in text else float(text))
_parse_rational = _number("rational", _rational)


def _parse_exponent(text: str):   # as_exponent refuses one that is not finite
    return indexsets.as_exponent(_parse_rational(text))


def _file_name(text: str) -> str:
    """A file name in the output directory, without a directory part."""
    if Path(text).name != text or text in ("", ".."):
        raise ValueError(f"must be a file name in the output directory, got {text!r}")
    return text


def _list_of(parse: Callable[[str], Any]) -> Callable[[str], list]:
    """Parser for a comma-separated list; empty items are skipped."""
    def parse_list(text: str) -> list:
        return [parse(s) for s in (p.strip() for p in text.split(",")) if s]
    return parse_list


def _colon_item(what: str, **fields: Callable[[str], Any]) -> Callable[[str], tuple]:
    """Parser for one ``:``-separated item whose parts are named and parsed
    by ``fields`` in order, e.g. ``z:k``."""
    shape = ":".join(fields)

    def parse(item: str) -> tuple:
        parts = item.split(":")
        if len(parts) != len(fields):
            raise ConfigError(f"bad {what} {item!r}: expected {shape}")
        return tuple(parse_part(part) for parse_part, part in zip(fields.values(), parts))
    return parse


#: index pairs z:k
_parse_pairs = _list_of(_colon_item("index pair", z=_parse_exponent, k=_parse_int))
#: term list: a:z:k triples for a * x^z * (log x)^k
_parse_terms = _list_of(_colon_item("term", a=_parse_float, z=_parse_float, k=_parse_int))


def _read_config_lines(path: Path) -> dict[str, str]:
    """Raw ``key = value`` pairs of a config file; duplicate keys are errors."""
    if not path.is_file():
        raise ConfigError(f"{path}: config file not found")
    text = _file_op(path, lambda p: p.read_text(encoding="utf-8"), "read config file")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _named(key: str, call: Callable[..., Any], *args, **kwargs):
    """``call(*args, **kwargs)``; a ValueError it raises becomes the ConfigError
    "<key>: <message>", the one way a library's message gets the config keys
    at fault (``key`` lists those ``call`` reads, "lambda, c").  Never nested: a
    ConfigError is a ValueError, and would gain its keys twice."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def load_config(path, schema: dict[str, Key]) -> dict[str, Any]:
    path = Path(path)
    return resolve_config(_read_config_lines(path), schema, source=str(path))


def resolve_config(raw: dict[str, str], schema: dict[str, Key],
                   source: str = "<config>") -> dict[str, Any]:
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"{source}: unknown key(s): {', '.join(unknown)}")
    config: dict[str, Any] = {}
    for key, spec in schema.items():
        if key in raw:
            config[key] = _named(key, spec.parse, raw[key])
        elif spec.default is _REQUIRED:
            raise ConfigError(f"{source}: missing required key '{key}'")
        else:
            config[key] = spec.default
    return config


_GRID_KEYS = {
    "t_min": Key(_parse_float, defaults.DEFAULT_GRID_SPAN.t_min),
    "t_max": Key(_parse_float, defaults.DEFAULT_GRID_SPAN.t_max),
    "n_nodes": Key(_parse_int, defaults.DEFAULT_GRID_SPAN.n_nodes),
}

#: keys of the commands that solve for a potential with source ``f_terms``
_SOLVE_KEYS = {
    "f_terms": Key(_parse_terms),
    "bc_left": Key(_parse_float, 0.0),
    "bc_right": Key(_parse_float, 0.0),
    "solution_csv": Key(_file_name, "solution.csv"),
}

_NEWTON_KEYS = {
    "max_iter": Key(_parse_int, defaults.NewtonParams.max_iter),
    "tol": Key(_parse_float, defaults.NewtonParams.tol),
}

_OUTPUT_KEY = {"output": Key(str, "")}

#: every schema ends with the ``output`` key
SCHEMAS: dict[str, dict[str, Key]] = {name: {**keys, **_OUTPUT_KEY} for name, keys in {
    "indicial": {
        "lambda": Key(_parse_exponent),
        "c": Key(_parse_exponent),
        "spectrum": Key(_list_of(_parse_exponent)),
        "multiplicities": Key(_list_of(_parse_int), []),
        "alpha": Key(_parse_exponent, Fraction(0)),
        "cutoff": Key(_parse_exponent),
        "union_terms": Key(_parse_pairs, []),
    },
    "chern-coeff": {
        "d": Key(_parse_int),
    },
    "solve-linear": {
        **_GRID_KEYS,
        **_SOLVE_KEYS,
        "lambda": Key(_parse_float, 1.0),
        "metric_a": Key(_parse_float, 1.0),
        "metric_b": Key(_parse_float, 1.0),
    },
    "solve-ma": {
        **_GRID_KEYS,
        **_SOLVE_KEYS,
        **_NEWTON_KEYS,
        "damping_min": Key(_parse_float, defaults.NewtonParams.damping_min),
    },
    "flow": {
        **_GRID_KEYS,
        "conformal_terms": Key(_parse_terms, []),
        "metric_a": Key(_parse_float, 1.0),
        "metric_b": Key(_parse_float, 1.0),
        "T": Key(_parse_float),
        "dt": Key(_parse_float),
        "output_times": Key(_list_of(_parse_float), []),
    },
    "fit-expansion": {
        "field_csv": Key(str),
        "index_set_json": Key(str),
        "window_lo": Key(_parse_float, 0.0),
        "window_hi": Key(_parse_float, 0.0),
    },
    "logterm-pipeline": {
        **_GRID_KEYS,
        **_SOLVE_KEYS,
        **_NEWTON_KEYS,
        "tolerance": Key(_parse_float, 0.02),
    },
    "sweep": {
        "configs": Key(_list_of(str)),
        "max_workers": Key(_parse_int, 2),
    },
}.items()}

#: extra key allowed in sweep sub-configs to name their subcommand
_SWEEP_COMMAND_KEY = "command"


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------

def _fraction_json(value):
    """JSON form of the one non-JSON type a payload holds, an exact rational."""
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, default=_fraction_json) + "\n"
    _file_op(path, lambda p: p.write_text(text, encoding="ascii"))


def _file_op(path: Path, op: Callable[[Path], Any], what: str = "write output file"):
    """``op(path)``; an I/O fault, or text that is not UTF-8, is the ConfigError
    "<path>: cannot <what>: <reason>"."""
    try:
        return op(path)
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"{path}: cannot {what}: {getattr(exc, 'strerror', '') or exc}") from exc


def _make_dir(path: Path) -> None:
    """``path`` and its parents as directories, by :func:`_file_op`."""
    _file_op(path, lambda p: p.mkdir(parents=True, exist_ok=True), "make output directory")


def _grid_from_config(config) -> radial.RadialGrid:
    return _named(", ".join(_GRID_KEYS), radial.RadialGrid, *(config[key] for key in _GRID_KEYS))


def _metric_from_config(config, grid) -> geometry.ModelMetric:
    """The config's metric, its fields given one at a time, so that a value the
    constructor rejects is a config error naming the key it came from."""
    args = [config["metric_a"], config["metric_b"]]
    if config.get("conformal_terms"):
        args.append(_named("conformal_terms", radial.sample_terms, config["conformal_terms"], grid))
    for count, key in enumerate(("metric_a", "metric_b", "conformal_terms")[:len(args)], 1):
        metric = _named(key, geometry.ModelMetric, *args[:count])
    return metric


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_indicial(config, outdir: Path) -> dict:
    family = _named("lambda, c, spectrum, multiplicities", indicial.IndicialFamily,
                    config["lambda"], config["c"], tuple(config["spectrum"]),
                    tuple(config["multiplicities"]))
    alpha, cutoff = config["alpha"], config["cutoff"]
    roots = indicial.spec_b_roots(family)
    e_plus = _named("alpha, cutoff", indicial.index_set_Eplus, family, alpha, cutoff)
    hat_e_plus = _named("alpha, cutoff", indicial.index_set_hatEplus, family, alpha, cutoff)
    payload = {
        "config": config,
        "roots": [{"z": float(r.z), "order": r.order,
                   "eigenvalue_index": r.eigenvalue_index,
                   "multiplicity": r.multiplicity} for r in roots],
        "complex_eigenvalues": indicial.count_complex_root_eigenvalues(family),
        "E_plus": e_plus.to_json_dict(),
        "E_plus_closure": indexsets.closure(e_plus.terms, cutoff).to_json_dict(),
        "hat_E_plus": hat_e_plus.to_json_dict(),
    }
    if config["union_terms"]:
        # the terms are built inside the call, so a bad log power names the key too
        extra = _named("union_terms", indexsets.closure,
                       (indexsets.IndexTerm(z, k) for z, k in config["union_terms"]), cutoff)
        payload["extended_union"] = indexsets.extended_union(hat_e_plus, extra).to_json_dict()
    write_json(outdir / "indicial.json", payload)
    return payload


def cmd_chern(config, outdir: Path) -> dict:
    payload = {
        "d": config["d"],
        "b_tilde": _named("d", chern.log_coefficient_plane_curve, config["d"]),
        "config": config,
    }
    write_json(outdir / "chern.json", payload)
    return payload


def cmd_solve_linear(config, outdir: Path) -> dict:
    import numpy as np

    grid = _grid_from_config(config)
    metric = _metric_from_config(config, grid)
    rhs = _named("f_terms", radial.sample_terms, config["f_terms"], grid)
    problem = _named("lambda, bc_left, bc_right", elliptic.LinearProblem, metric,
                     config["lambda"], rhs, config["bc_left"], config["bc_right"])
    solution = elliptic.solve_linear(problem)
    v = solution.values   # interior rows: the one-sided end rows can overflow on the data
    with np.errstate(over="ignore", invalid="ignore"):
        lap = radial.unit_laplacian_interior(v, grid.h) / metric.solver_density(grid)
        residual_sup = float(np.max(np.abs((lap - config["lambda"] * v - rhs.values)[1:-1])))
    if not np.isfinite(residual_sup):
        raise SolverError(f"the linear residual overflows at the solution: {residual_sup}")
    _file_op(outdir / config["solution_csv"], solution.write_csv)
    payload = {
        "config": config,
        "solution_csv": config["solution_csv"],
        "sup_solution": float(np.max(np.abs(v))),
        "interior_residual_sup": residual_sup,
    }
    write_json(outdir / "solve_linear.json", payload)
    return payload


def _solve_ma(config, outdir: Path, params: defaults.NewtonParams):
    """Monge-Ampere solve on the unit background with the config's grid,
    source and boundary data; writes the solution CSV."""
    source = _named("f_terms", radial.sample_terms, config["f_terms"], _grid_from_config(config))
    solution, report = elliptic.solve_monge_ampere_radial(_named(
        "bc_left, bc_right", elliptic.MongeAmpereProblem, geometry.ModelMetric(), source,
        config["bc_left"], config["bc_right"], newton=params))
    _file_op(outdir / config["solution_csv"], solution.write_csv)
    return solution, report


def cmd_solve_ma(config, outdir: Path) -> dict:
    import numpy as np

    params = _named("max_iter, tol, damping_min", defaults.NewtonParams, config["max_iter"],
                    config["tol"], config["damping_min"])
    solution, report = _solve_ma(config, outdir, params)
    payload = {
        "config": config,
        "solution_csv": config["solution_csv"],
        "converged": report.converged,
        "iterations": report.iterations,
        "residuals": [float(r) for r in report.residuals],
        "final_residual": report.final_residual,
        "min_kahler": report.min_kahler,
        "damping_events": report.damping_events,
        "sup_solution": float(np.max(np.abs(solution.values))),
    }
    write_json(outdir / "solve_ma.json", payload)
    return payload


def cmd_flow(config, outdir: Path) -> dict:
    import numpy as np

    grid = _grid_from_config(config)
    metric = _metric_from_config(config, grid)
    output_times = config["output_times"] or [config["T"]]
    problem = _named("T, dt, output_times", parabolic.FlowProblem, metric, T=config["T"],
                     dt=config["dt"], grid=grid, output_times=output_times)
    # name every snapshot before the flow runs: one per kept step, ascending
    named = {}   # snapshot file name -> its time
    for t in problem.snapshot_times:
        name = f"flow_t{t:.6f}.csv"
        if name in named:
            raise ConfigError(f"output_times: output times {named[name]} and {t} "
                              f"share the snapshot file {name}")
        named[name] = t
    result = parabolic.run_flow(problem)
    snapshots = []
    for name, state in zip(named, result.states):
        _file_op(outdir / name, state.u.write_csv)
        snapshots.append({
            "t": state.t,
            "csv": name,
            "fitted_boundary_constant": parabolic.fitted_boundary_constant(state),
            "positivity_margin": state.positivity_margin,
            "sup_u": float(np.max(np.abs(state.u.values))),
        })
    payload = {
        "config": config,
        "snapshots": snapshots,
        "sup_u_trajectory": float(np.max(result.sup_u)),
        "min_positivity_margin": float(np.min(result.positivity_margin)),
        "max_newton_iterations": int(np.max(result.newton_iterations)),
        "step_rejections": result.step_rejections,
    }
    write_json(outdir / "flow.json", payload)
    return payload


def _read_file(path: Path, key: str, read: Callable[[Path], Any]):
    """``read(path)`` of the file the config key ``key`` names.  A missing file,
    or one ``read`` refuses (bad JSON, a CSV that does not parse, a missing or
    ill-typed field), is the ConfigError "<key> <path>: ..."; an I/O fault
    while reading it, "<path>: cannot read <key>: ..." (:func:`_file_op`)."""
    if not path.is_file():
        raise ConfigError(f"{key} {path}: no such file")
    return _file_op(path, lambda p: _named(f"{key} {p}", read, p), f"read {key}")


def cmd_fit_expansion(config, outdir: Path) -> dict:
    csv_path, json_path = Path(config["field_csv"]), Path(config["index_set_json"])
    samples = _read_file(csv_path, "field_csv", radial.RadialField.read_csv)
    E = _read_file(json_path, "index_set_json",
                   lambda path: indexsets.IndexSet.from_json_dict(json.loads(path.read_text())))
    lo, hi = config["window_lo"], config["window_hi"]
    window = None if lo == hi == 0 else (lo, hi)   # both 0: the default window
    if window and not 0 < lo < hi < math.inf:
        raise ConfigError(f"window_lo, window_hi: must be finite with 0 < window_lo < window_hi "
                          f"(both 0 for the default window), got {lo} and {hi}")
    # an index set without terms, or a window with too few samples
    fit = _named(f"index_set_json {json_path}" if not E.terms else
                 "window_lo, window_hi" if window else f"field_csv {csv_path}",
                 fitting.fit_polyhom, samples, E, fit_window=window)
    remainder = fitting.remainder_check(fit, samples)
    payload = {
        "config": config,
        "window": list(fit.window),
        "coefficients": [{"z": float(tm.z), "k": tm.k, "a": a}
                         for tm, a in fit.coefficients.items()],
        "residual_sup": remainder.residual_sup,
        "remainder_exponent": remainder.slope,
        "remainder_spread": list(remainder.spread) if remainder.spread else None,
    }
    write_json(outdir / "fit.json", payload)
    return payload


def cmd_logterm_pipeline(config, outdir: Path) -> dict:
    if not 0 < config["tolerance"] < math.inf:
        raise ConfigError(f"tolerance must be finite and > 0, got {config['tolerance']}")
    params = _named("max_iter, tol", defaults.NewtonParams, config["max_iter"], config["tol"])
    solution, report = _solve_ma(config, outdir, params)
    result = _named(", ".join(_GRID_KEYS), headline.log_term_headline,   # a shallow grid
                    config["f_terms"], solution, config["tolerance"], bc_left=config["bc_left"],
                    bc_right=config["bc_right"], newton=params)
    payload = {
        "config": config,
        "solution_csv": config["solution_csv"],
        "solver": {
            "converged": report.converged,
            "iterations": report.iterations,
            "final_residual": report.final_residual,
            "min_kahler": report.min_kahler,
        },
        "source_x_coefficient": result.source_x_coefficient,
        "b_tilde_predicted": result.predicted,
        "b_tilde_fitted": result.reported.value,
        "b_tilde_single_grid": result.estimate.value,
        "extrapolated": result.extrapolated is not None,
        "extrapolation_error": result.extrapolation_error,
        "grids": [{"n_nodes": n, "b_tilde": b} for n, b in result.grids],
        "uncertainty": result.reported.uncertainty,
        "window_values": result.reported.window_values,
        "reliable": result.estimate.reliable,
        "rel_error": result.rel_error,
        "tolerance": config["tolerance"],
        "passed": result.passed,
    }
    write_json(outdir / "logterm.json", payload)
    return payload


def _run_sweep_item(path: str, outdir: Path) -> dict:
    sub_path = Path(path)
    raw = _read_config_lines(sub_path)
    command = raw.pop(_SWEEP_COMMAND_KEY, None)
    if command is None:
        raise ConfigError(f"{sub_path}: sweep sub-config needs a 'command' key")
    if command not in SCHEMAS or command == "sweep":
        raise ConfigError(f"{sub_path}: unknown sweep command {command!r}")
    config = resolve_config(raw, SCHEMAS[command], source=str(sub_path))
    item_dir = outdir / sub_path.stem
    created = not item_dir.exists()
    _make_dir(item_dir)
    try:
        COMMANDS[command](config, item_dir)
    except Exception:
        # a failed item leaves no empty directory of its own making
        if created and not any(item_dir.iterdir()):
            item_dir.rmdir()
        raise
    return {"config": str(sub_path), "command": command, "outdir": sub_path.stem}


def cmd_sweep(config, outdir: Path) -> dict:
    """Run each sub-config into ``outdir/<stem>``, one after the other in
    config order, in the calling thread.  Every item runs, even after one
    fails; the first failure in config order is raised, carrying one note
    per later failure with its error.  Each line names its sub-config once.

    ``max_workers`` is parsed and echoed, so older configs keep working and
    their outputs keep their bytes, but it changes nothing.  A thread pool
    overlapped nothing: scipy's f2py LAPACK wrappers hold the GIL, so the
    items' tridiagonal sweeps took turns (two 4096-node logterm-pipeline
    items took 0.40 s with one thread and 0.39 s with two, README), and the
    package modules the CLI defers must not be first read by two threads
    at once (``_deferred``).
    """
    items = config["configs"]
    if not items:
        raise ConfigError("configs: sweep requires at least one entry")
    stems = [Path(p).stem for p in items]
    clashes = sorted({stem for stem in stems if stems.count(stem) > 1})
    if clashes:
        raise ConfigError(f"configs: sweep items share output directories: {', '.join(clashes)}")
    runs, failures = [], []
    for path in items:
        try:
            runs.append(_run_sweep_item(path, outdir))
        except Exception as exc:
            failures.append((path, exc))
    if failures:
        first = failures[0][1]
        for i, (path, exc) in enumerate(failures):
            # a sub-config's own parse errors name it already
            item = "sweep item" if path in str(exc) else f"sweep item {path}"
            if i:
                first.add_note(f"{item} also failed: {exc}")
            elif item != "sweep item":
                first.add_note(f"{item} failed first")
        raise first
    payload = {"config": config, "runs": runs}
    write_json(outdir / "sweep.json", payload)
    return payload


COMMANDS: dict[str, Callable[[dict, Path], dict]] = {
    "indicial": cmd_indicial,
    "chern-coeff": cmd_chern,
    "solve-linear": cmd_solve_linear,
    "solve-ma": cmd_solve_ma,
    "flow": cmd_flow,
    "fit-expansion": cmd_fit_expansion,
    "logterm-pipeline": cmd_logterm_pipeline,
    "sweep": cmd_sweep,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache   # built once a process: each parser built is cyclic garbage
def build_parser() -> argparse.ArgumentParser:
    """One parser for the whole argv: ``<command> <config> [-o OUTDIR]``."""
    parser = argparse.ArgumentParser(
        prog="cuspasym",
        description="Radial cusp-metric experiments: indicial roots, "
                    "Monge-Ampere and flow solves, expansion fits.")
    parser.add_argument("command", choices=COMMANDS, help="the experiment to run")
    parser.add_argument("config", help="path to the key=value config file")
    parser.add_argument("-o", "--output", default=None, metavar="OUTDIR",
                        help="output directory (default: config 'output' key, "
                             f"then ${OUTDIR_ENV}, then '.')")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, SCHEMAS[args.command])
        if args.command == "sweep":  # sub-configs are named relative to the sweep file
            config["configs"] = [str(Path(args.config).parent / p) for p in config["configs"]]
        outdir = Path(args.output or config["output"] or os.environ.get(OUTDIR_ENV) or ".")
        _make_dir(outdir)
        COMMANDS[args.command](config, outdir)
    except ConfigError as exc:
        _report("config error", exc)
        return 2
    except (SolverError, FitError) as exc:
        _report("numerical failure", exc)
        return 3
    return 0


def _report(kind: str, exc: Exception) -> None:
    """The error line, then one line per note (a sweep's later failures)."""
    print(f"{kind}: {exc}", file=sys.stderr)
    for note in getattr(exc, "__notes__", ()):
        print(note, file=sys.stderr)


def entry_point() -> None:
    """Run :func:`main` as a whole process and exit with its code: the
    ``cuspasym`` script, ``python -m cuspasym`` and ``python -m cuspasym.cli``.

    The cyclic collector is off while the command runs (``gc.disable``), so
    it does not rescan the heap the imports built, again and again.  That is
    safe because a command's own work leaves no reference cycles behind:
    reference counting frees all of it, however many steps it takes
    (``tests/test_reuse.py`` holds the solvers to that).  Before exiting it
    moves every live object into the collector's permanent generation
    (``gc.freeze``), so interpreter shutdown, which collects even with the
    collector off, skips the full collections over everything the imports
    created.  Nothing is lost by either: every artifact is written and
    closed inside ``main``, and the streams are flushed at exit as usual.
    ``main`` itself never touches the collector, so tests and library
    callers keep a normal one.
    """
    gc.disable()
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":  # pragma: no cover
    entry_point()
