"""Batch command-line front end.

Subcommands: indicial, chern-coeff, solve-linear, solve-ma, flow,
fit-expansion, logterm-pipeline, sweep.  Each reads a flat key-value
config file (``key = value`` lines, ``#`` comments), validates it against
the subcommand's schema (unknown keys are rejected, missing required keys
are named), and writes JSON plus CSV artifacts into the output directory.
Every default is echoed into the output JSON so results are
self-describing, floats are serialized at full precision, and repeated
runs on the same config produce byte-identical files.

Exit codes: 0 success, 2 config error (every ``ValueError`` raised while a
command runs, a library constructor rejecting a value included), 3 numerical
failure (``SolverError``, ``FitError``).

The default output directory is taken from the CUSPASYM_OUTDIR environment
variable, overridable per run with --output or the ``output`` config key.

Source terms and conformal factors are given as term lists: comma-separated
``a:z:k`` triples denoting a * x^z * (log x)^k, e.g. ``1.5:1:0, 0:2:0``.
A term list that is not finite somewhere on the grid is a config error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .chern import log_coefficient_plane_curve
from .errors import ConfigError, FitError, SolverError
from .elliptic import (
    LinearProblem,
    MongeAmpereProblem,
    NewtonParams,
    solve_linear,
    solve_monge_ampere_radial,
)
from .fitting import detect_log_term, fit_polyhom
from .geometry import ModelMetric
from .indexsets import IndexSet, IndexTerm, closure, extended_union
from .indicial import (
    IndicialFamily,
    count_complex_root_eigenvalues,
    index_set_Eplus,
    index_set_hatEplus,
    spec_b_roots,
)
from .parabolic import FlowProblem, fitted_boundary_constant, run_flow
from .radial import (DEFAULT_GRID, RadialField, RadialGrid, evaluate_expansion,
                     unit_laplacian_interior)

OUTDIR_ENV = "CUSPASYM_OUTDIR"


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

_REQUIRED = object()


@dataclass(frozen=True)
class Key:
    parse: Callable[[str], Any]
    default: Any = _REQUIRED


def _parse_rational(text: str):
    """Exact Fraction for integers and p/q forms, float otherwise."""
    text = text.strip()
    try:
        return Fraction(int(text))
    except ValueError:
        pass
    if "/" in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad rational value {text!r}") from exc
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"bad numeric value {text!r}") from exc


def _parse_float(text: str) -> float:
    try:
        return float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad float value {text!r}") from exc


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"bad integer value {text!r}") from exc


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
_parse_pairs = _list_of(_colon_item("index pair", z=_parse_rational, k=_parse_int))
#: term list: a:z:k triples for a * x^z * (log x)^k
_parse_terms = _list_of(_colon_item("term", a=_parse_float, z=_parse_float, k=_parse_int))


def _read_config_lines(path: Path) -> dict[str, str]:
    """Raw ``key = value`` pairs of a config file; duplicate keys are errors."""
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
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
            config[key] = spec.parse(raw[key])
        elif spec.default is _REQUIRED:
            raise ConfigError(f"{source}: missing required key '{key}'")
        else:
            config[key] = spec.default
    return config


_GRID_KEYS = {
    "t_min": Key(_parse_float, DEFAULT_GRID.t_min),
    "t_max": Key(_parse_float, DEFAULT_GRID.t_max),
    "n_nodes": Key(_parse_int, DEFAULT_GRID.n_nodes),
}

#: keys of the commands that solve for a potential with source ``f_terms``
_SOLVE_KEYS = {
    "f_terms": Key(_parse_terms),
    "bc_left": Key(_parse_float, 0.0),
    "bc_right": Key(_parse_float, 0.0),
    "solution_csv": Key(str, "solution.csv"),
}

_NEWTON_KEYS = {
    "max_iter": Key(_parse_int, NewtonParams.max_iter),
    "tol": Key(_parse_float, NewtonParams.tol),
}

_OUTPUT_KEY = {"output": Key(str, "")}

#: every schema ends with the ``output`` key
SCHEMAS: dict[str, dict[str, Key]] = {name: {**keys, **_OUTPUT_KEY} for name, keys in {
    "indicial": {
        "lambda": Key(_parse_rational),
        "c": Key(_parse_rational),
        "spectrum": Key(_list_of(_parse_rational)),
        "multiplicities": Key(_list_of(_parse_int), []),
        "alpha": Key(_parse_rational, Fraction(0)),
        "cutoff": Key(_parse_rational),
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
        "damping_min": Key(_parse_float, NewtonParams.damping_min),
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
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=_fraction_json)
                    + "\n", encoding="ascii")


def _grid_from_config(config) -> RadialGrid:
    return RadialGrid(config["t_min"], config["t_max"], config["n_nodes"])


def _sample_terms(config, key: str, grid: RadialGrid) -> RadialField:
    """The term list ``config[key]`` sampled on ``grid``; a config error
    where it is not finite (an overflowing power of x, say)."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = evaluate_expansion(config[key], grid.x)
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise ConfigError(f"{key} is not finite at x={grid.x[np.argmax(bad)]:.6g}")
    return RadialField(grid, values)


def _metric_from_config(config, grid) -> ModelMetric:
    """The config's metric, its fields given one at a time, so that a value the
    constructor rejects is a config error naming the key it came from."""
    args = [config["metric_a"], config["metric_b"]]
    if config.get("conformal_terms"):
        args.append(_sample_terms(config, "conformal_terms", grid))
    for count, key in enumerate(("metric_a", "metric_b", "conformal_terms")[:len(args)], 1):
        try:
            metric = ModelMetric(*args[:count])
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return metric


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_indicial(config, outdir: Path) -> dict:
    family = IndicialFamily(config["lambda"], config["c"], tuple(config["spectrum"]),
                            tuple(config["multiplicities"]))
    alpha, cutoff = config["alpha"], config["cutoff"]
    roots = spec_b_roots(family)
    e_plus = index_set_Eplus(family, alpha, cutoff)
    hat_e_plus = index_set_hatEplus(family, alpha, cutoff)
    payload = {
        "config": config,
        "roots": [{"z": float(r.z), "order": r.order,
                   "eigenvalue_index": r.eigenvalue_index,
                   "multiplicity": r.multiplicity} for r in roots],
        "complex_eigenvalues": count_complex_root_eigenvalues(family),
        "E_plus": e_plus.to_json_dict(),
        "E_plus_closure": closure(e_plus.terms, cutoff).to_json_dict(),
        "hat_E_plus": hat_e_plus.to_json_dict(),
    }
    if config["union_terms"]:
        extra = closure(tuple(IndexTerm(z, k) for z, k in config["union_terms"]),
                        cutoff)
        payload["extended_union"] = extended_union(hat_e_plus, extra).to_json_dict()
    write_json(outdir / "indicial.json", payload)
    return payload


def cmd_chern(config, outdir: Path) -> dict:
    payload = {
        "d": config["d"],
        "b_tilde": log_coefficient_plane_curve(config["d"]),
        "config": config,
    }
    write_json(outdir / "chern.json", payload)
    return payload


def cmd_solve_linear(config, outdir: Path) -> dict:
    grid = _grid_from_config(config)
    metric = _metric_from_config(config, grid)
    rhs = _sample_terms(config, "f_terms", grid)
    problem = LinearProblem(metric, config["lambda"], rhs, config["bc_left"],
                            config["bc_right"])
    solution = solve_linear(problem)
    v = solution.values   # interior rows: cusp_laplacian's end rows can overflow on the data
    with np.errstate(over="ignore", invalid="ignore"):
        lap = unit_laplacian_interior(v, grid.h) / metric.density(grid)
        residual_sup = float(np.max(np.abs((lap - config["lambda"] * v - rhs.values)[1:-1])))
    if not np.isfinite(residual_sup):
        raise SolverError(f"the linear residual overflows at the solution: {residual_sup}")
    solution.write_csv(outdir / config["solution_csv"])
    payload = {
        "config": config,
        "solution_csv": config["solution_csv"],
        "sup_solution": float(np.max(np.abs(v))),
        "interior_residual_sup": residual_sup,
    }
    write_json(outdir / "solve_linear.json", payload)
    return payload


def _solve_ma(config, outdir: Path, params: NewtonParams):
    """Monge-Ampere solve on the unit background with the config's grid,
    source and boundary data; writes the solution CSV."""
    grid = _grid_from_config(config)
    problem = MongeAmpereProblem(ModelMetric(), _sample_terms(config, "f_terms", grid),
                                 config["bc_left"], config["bc_right"], newton=params)
    solution, report = solve_monge_ampere_radial(problem)
    solution.write_csv(outdir / config["solution_csv"])
    return solution, report


def cmd_solve_ma(config, outdir: Path) -> dict:
    solution, report = _solve_ma(config, outdir, NewtonParams(
        max_iter=config["max_iter"], tol=config["tol"], damping_min=config["damping_min"]))
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
    grid = _grid_from_config(config)
    metric = _metric_from_config(config, grid)
    output_times = config["output_times"] or [config["T"]]
    problem = FlowProblem(metric, T=config["T"], dt=config["dt"], grid=grid,
                          output_times=output_times)
    # name every snapshot before the flow runs: one per kept step, ascending
    named = {}   # snapshot file name -> its time
    for t in problem.snapshot_times:
        name = f"flow_t{t:.6f}.csv"
        if name in named:
            raise ConfigError(f"output times {named[name]} and {t} "
                              f"share the snapshot file {name}")
        named[name] = t
    result = run_flow(problem)
    snapshots = []
    for name, state in zip(named, result.states):
        state.u.write_csv(outdir / name)
        snapshots.append({
            "t": state.t,
            "csv": name,
            "fitted_boundary_constant": fitted_boundary_constant(state),
            "positivity_margin": state.positivity_margin,
            "sup_u": float(np.max(np.abs(state.u.values))),
        })
    payload = {
        "config": config,
        "snapshots": snapshots,
        "sup_u_trajectory": float(np.max(result.sup_u)),
        "min_positivity_margin": float(np.min(result.positivity_margin)),
        "max_newton_iterations": int(np.max(result.newton_iterations)),
        "max_newton_residual": float(np.max(result.newton_residuals)),
        "step_rejections": result.step_rejections,
    }
    write_json(outdir / "flow.json", payload)
    return payload


def cmd_fit_expansion(config, outdir: Path) -> dict:
    csv_path = Path(config["field_csv"])
    json_path = Path(config["index_set_json"])
    if not csv_path.is_file():
        raise ConfigError(f"field CSV not found: {csv_path}")
    if not json_path.is_file():
        raise ConfigError(f"index-set JSON not found: {json_path}")
    # bad JSON, an unreadable CSV or a missing or ill-typed field: each a
    # ValueError, reported with the key and the file it came from
    try:
        samples = RadialField.read_csv(csv_path)
    except ValueError as exc:
        raise ConfigError(f"field_csv {csv_path}: {exc}") from exc
    try:
        E = IndexSet.from_json_dict(json.loads(json_path.read_text()))
    except ValueError as exc:
        raise ConfigError(f"index_set_json {json_path}: {exc}") from exc
    lo, hi = config["window_lo"], config["window_hi"]
    if (lo > 0) != (hi > 0):
        raise ConfigError("window_lo and window_hi must be given together")
    fit = fit_polyhom(samples, E, fit_window=(lo, hi) if lo > 0 else None)
    payload = {
        "config": config,
        "window": list(fit.window),
        "coefficients": [{"z": float(tm.z), "k": tm.k, "a": a}
                         for tm, a in fit.coefficients.items()],
        "residual_sup": fit.residual_sup,
        "remainder_exponent": fit.remainder_exponent,
        "remainder_spread": list(fit.remainder_spread) if fit.remainder_spread else None,
    }
    write_json(outdir / "fit.json", payload)
    return payload


def cmd_logterm_pipeline(config, outdir: Path) -> dict:
    coefficient_x = sum(a for a, z, k in config["f_terms"]
                        if z == 1.0 and k == 0)
    predicted = (2.0 / 3.0) * coefficient_x
    solution, report = _solve_ma(config, outdir, NewtonParams(
        max_iter=config["max_iter"], tol=config["tol"]))
    estimate = detect_log_term(solution)
    if predicted != 0.0:
        rel_error = abs(estimate.value - predicted) / abs(predicted)
    else:
        rel_error = abs(estimate.value)
    payload = {
        "config": config,
        "solution_csv": config["solution_csv"],
        "solver": {
            "converged": report.converged,
            "iterations": report.iterations,
            "final_residual": report.final_residual,
            "min_kahler": report.min_kahler,
        },
        "source_x_coefficient": coefficient_x,
        "b_tilde_predicted": predicted,
        "b_tilde_fitted": estimate.value,
        "uncertainty": estimate.uncertainty,
        "window_values": estimate.window_values,
        "reliable": estimate.reliable,
        "rel_error": rel_error,
        "tolerance": config["tolerance"],
        "passed": bool(rel_error <= config["tolerance"]),
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
    item_dir.mkdir(parents=True, exist_ok=True)
    try:
        COMMANDS[command](config, item_dir)
    except Exception:
        # a failed item leaves no empty directory of its own making
        if created and not any(item_dir.iterdir()):
            item_dir.rmdir()
        raise
    return {"config": str(sub_path), "command": command, "outdir": sub_path.stem}


def cmd_sweep(config, outdir: Path) -> dict:
    """Run each sub-config into ``outdir/<stem>``, ``max_workers`` at a time
    (at least one) on one thread pool.  Every item runs, even after one
    fails; the first failure in config order is raised, carrying one note
    per later failure that names its sub-config and its error.

    The pool is one of threads, not processes.  An item is small next to the
    cost of a new process: a 4096-node logterm-pipeline item computes in
    about 20 ms, while a spawned worker first re-imports numpy and the
    package and loads LAPACK again (the README gives the timings).
    """
    # only a sweep pays for this import (and the logging it pulls in)
    from concurrent.futures import ThreadPoolExecutor

    items = config["configs"]
    if not items:
        raise ConfigError("sweep requires at least one entry in 'configs'")
    stems = [Path(p).stem for p in items]
    clashes = sorted({stem for stem in stems if stems.count(stem) > 1})
    if clashes:
        raise ConfigError(f"sweep configs share output directories: {', '.join(clashes)}")
    # submit, not map: map cancels the items still queued when one fails
    with ThreadPoolExecutor(max_workers=max(1, config["max_workers"])) as pool:
        futures = [pool.submit(_run_sweep_item, p, outdir) for p in items]
    failures = [(p, exc) for p, f in zip(items, futures)
                if (exc := f.exception()) is not None]
    if failures:
        (_, first), *later = failures
        for path, exc in later:
            first.add_note(f"sweep item {path} also failed: {exc}")
        raise first
    payload = {"config": config, "runs": [f.result() for f in futures]}
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspasym",
        description="Radial cusp-metric experiments: indicial roots, "
                    "Monge-Ampere and flow solves, expansion fits.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("config", help="path to the key=value config file")
        p.add_argument("-o", "--output", default=None,
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
        outdir.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command](config, outdir)
    except ValueError as exc:  # ConfigError, or a constructor rejecting a value
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

    Before exiting it moves every live object into the collector's permanent
    generation (``gc.freeze``), so interpreter shutdown skips the full
    collections over everything the imports created (about 40 ms).  Nothing
    is lost by that: every artifact is written and closed inside ``main``,
    and the streams are flushed at exit as usual.  ``main`` itself never
    freezes, so tests and library callers keep a normal collector.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":  # pragma: no cover
    entry_point()
