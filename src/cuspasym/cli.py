"""Batch command-line front end.

Subcommands: indicial, chern-coeff, solve-linear, solve-ma, flow,
fit-expansion, logterm-pipeline, sweep.  Each reads a flat key-value
config file (``key = value`` lines, ``#`` comments), validates it against
the subcommand's schema (unknown keys are rejected, missing required keys
are named), and writes JSON plus CSV artifacts into the output directory.
Every default is echoed into the output JSON so results are
self-describing, floats are serialized at full precision, and repeated
runs on the same config produce byte-identical files.

Exit codes: 0 success, 2 config error, 3 numerical failure.

The default output directory is taken from the CUSPASYM_OUTDIR environment
variable, overridable per run with --output or the ``output`` config key.

Source terms and conformal factors are given as term lists: comma-separated
``a:z:k`` triples denoting a * x^z * (log x)^k, e.g. ``1.5:1:0, 0:2:0``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

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
from .geometry import ModelMetric, cusp_laplacian
from .indexsets import IndexSet, IndexTerm, closure, extended_union
from .indicial import (
    IndicialFamily,
    count_complex_root_eigenvalues,
    index_set_Eplus,
    index_set_hatEplus,
    spec_b_roots,
)
from .parabolic import FlowProblem, fitted_boundary_constant, run_flow
from .radial import RadialField, RadialGrid, evaluate_expansion

OUTDIR_ENV = "CUSPASYM_OUTDIR"

DEFAULT_T_MIN = -40.0
DEFAULT_T_MAX = math.log(0.5)
DEFAULT_N_NODES = 4096


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

_REQUIRED = object()


@dataclass(frozen=True)
class Key:
    parse: Callable[[str], Any]
    default: Any = _REQUIRED

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


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
        except ValueError as exc:
            raise ConfigError(f"bad rational value {text!r}") from exc
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"bad numeric value {text!r}") from exc


def _parse_float(text: str) -> float:
    try:
        return float(Fraction(text)) if "/" in text else float(text)
    except ValueError as exc:
        raise ConfigError(f"bad float value {text!r}") from exc


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"bad integer value {text!r}") from exc


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_rational_list(text: str):
    items = [s for s in (p.strip() for p in text.split(",")) if s]
    return [_parse_rational(s) for s in items]


def _parse_float_list(text: str):
    items = [s for s in (p.strip() for p in text.split(",")) if s]
    return [_parse_float(s) for s in items]


def _parse_int_list(text: str):
    items = [s for s in (p.strip() for p in text.split(",")) if s]
    return [_parse_int(s) for s in items]


def _parse_str_list(text: str):
    return [s for s in (p.strip() for p in text.split(",")) if s]


def _parse_pairs(text: str):
    """Index pairs: comma-separated z:k items."""
    out = []
    for item in _parse_str_list(text):
        parts = item.split(":")
        if len(parts) != 2:
            raise ConfigError(f"bad index pair {item!r}: expected z:k")
        z, k = parts
        out.append((_parse_rational(z), _parse_int(k)))
    return out


def _parse_terms(text: str):
    """Term list: comma-separated a:z:k triples for a * x^z * (log x)^k."""
    out = []
    for item in _parse_str_list(text):
        parts = item.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad term {item!r}: expected a:z:k")
        a, z, k = parts
        out.append((_parse_float(a), _parse_float(z), _parse_int(k)))
    return out


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
        elif spec.required:
            raise ConfigError(f"{source}: missing required key '{key}'")
        else:
            config[key] = spec.default
    return config


_GRID_KEYS = {
    "t_min": Key(_parse_float, DEFAULT_T_MIN),
    "t_max": Key(_parse_float, DEFAULT_T_MAX),
    "n_nodes": Key(_parse_int, DEFAULT_N_NODES),
}

_OUTPUT_KEY = {"output": Key(_parse_str, "")}

SCHEMAS: dict[str, dict[str, Key]] = {
    "indicial": {
        "lambda": Key(_parse_rational),
        "c": Key(_parse_rational),
        "spectrum": Key(_parse_rational_list),
        "multiplicities": Key(_parse_int_list, []),
        "alpha": Key(_parse_rational, Fraction(0)),
        "cutoff": Key(_parse_rational),
        "union_terms": Key(_parse_pairs, []),
        **_OUTPUT_KEY,
    },
    "chern-coeff": {
        "d": Key(_parse_int),
        **_OUTPUT_KEY,
    },
    "solve-linear": {
        **_GRID_KEYS,
        "lambda": Key(_parse_float, 1.0),
        "f_terms": Key(_parse_terms),
        "bc_left": Key(_parse_float, 0.0),
        "bc_right": Key(_parse_float, 0.0),
        "metric_a": Key(_parse_float, 1.0),
        "metric_b": Key(_parse_float, 1.0),
        "solution_csv": Key(_parse_str, "solution.csv"),
        **_OUTPUT_KEY,
    },
    "solve-ma": {
        **_GRID_KEYS,
        "f_terms": Key(_parse_terms),
        "bc_left": Key(_parse_float, 0.0),
        "bc_right": Key(_parse_float, 0.0),
        "max_iter": Key(_parse_int, 40),
        "tol": Key(_parse_float, 1e-11),
        "damping_min": Key(_parse_float, 2.0 ** -20),
        "solution_csv": Key(_parse_str, "solution.csv"),
        **_OUTPUT_KEY,
    },
    "flow": {
        **_GRID_KEYS,
        "conformal_terms": Key(_parse_terms, []),
        "metric_a": Key(_parse_float, 1.0),
        "metric_b": Key(_parse_float, 1.0),
        "T": Key(_parse_float),
        "dt": Key(_parse_float),
        "output_times": Key(_parse_float_list, []),
        **_OUTPUT_KEY,
    },
    "fit-expansion": {
        "field_csv": Key(_parse_str),
        "index_set_json": Key(_parse_str),
        "window_lo": Key(_parse_float, 0.0),
        "window_hi": Key(_parse_float, 0.0),
        **_OUTPUT_KEY,
    },
    "logterm-pipeline": {
        **_GRID_KEYS,
        "f_terms": Key(_parse_terms),
        "tolerance": Key(_parse_float, 0.02),
        "bc_left": Key(_parse_float, 0.0),
        "bc_right": Key(_parse_float, 0.0),
        "max_iter": Key(_parse_int, 40),
        "tol": Key(_parse_float, 1e-11),
        "solution_csv": Key(_parse_str, "solution.csv"),
        **_OUTPUT_KEY,
    },
    "sweep": {
        "configs": Key(_parse_str_list),
        "max_workers": Key(_parse_int, 2),
        **_OUTPUT_KEY,
    },
}

#: extra key allowed in sweep sub-configs to name their subcommand
_SWEEP_COMMAND_KEY = "command"


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n",
                    encoding="ascii")


def _config_echo(config: dict) -> dict:
    return {k: _jsonable(v) for k, v in config.items()}


def _grid_from_config(config) -> RadialGrid:
    try:
        return RadialGrid(config["t_min"], config["t_max"], config["n_nodes"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _metric_from_config(config, grid) -> ModelMetric:
    conformal = None
    terms = config.get("conformal_terms") or []
    if terms:
        conformal = RadialField(grid, evaluate_expansion(terms, grid.x))
    try:
        return ModelMetric(a=config.get("metric_a", 1.0),
                           b=config.get("metric_b", 1.0), conformal=conformal)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_indicial(config, outdir: Path) -> dict:
    try:
        family = IndicialFamily(config["lambda"], config["c"],
                                tuple(config["spectrum"]),
                                tuple(config["multiplicities"]))
        alpha, cutoff = config["alpha"], config["cutoff"]
        roots = spec_b_roots(family)
        e_plus = index_set_Eplus(family, alpha, cutoff)
        hat_e_plus = index_set_hatEplus(family, alpha, cutoff)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "config": _config_echo(config),
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
    try:
        b_tilde = log_coefficient_plane_curve(config["d"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "d": config["d"],
        "b_tilde": {"num": b_tilde.numerator, "den": b_tilde.denominator},
        "config": _config_echo(config),
    }
    write_json(outdir / "chern.json", payload)
    return payload


def cmd_solve_linear(config, outdir: Path) -> dict:
    grid = _grid_from_config(config)
    metric = ModelMetric(a=config["metric_a"], b=config["metric_b"])
    rhs = RadialField(grid, evaluate_expansion(config["f_terms"], grid.x))
    try:
        problem = LinearProblem(metric, config["lambda"], rhs,
                                config["bc_left"], config["bc_right"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    solution = solve_linear(problem)
    solution.write_csv(outdir / config["solution_csv"])
    residual = cusp_laplacian(metric, solution).values - \
        config["lambda"] * solution.values - rhs.values
    payload = {
        "config": _config_echo(config),
        "solution_csv": config["solution_csv"],
        "sup_solution": float(np.max(np.abs(solution.values))),
        "interior_residual_sup": float(np.max(np.abs(residual[1:-1]))),
    }
    write_json(outdir / "solve_linear.json", payload)
    return payload


def cmd_solve_ma(config, outdir: Path) -> dict:
    grid = _grid_from_config(config)
    F = RadialField(grid, evaluate_expansion(config["f_terms"], grid.x))
    params = NewtonParams(max_iter=config["max_iter"], tol=config["tol"],
                          damping_min=config["damping_min"])
    problem = MongeAmpereProblem(ModelMetric(), F, config["bc_left"],
                                 config["bc_right"], newton=params)
    solution, report = solve_monge_ampere_radial(problem)
    solution.write_csv(outdir / config["solution_csv"])
    payload = {
        "config": _config_echo(config),
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
    try:
        problem = FlowProblem(metric, T=config["T"], dt=config["dt"], grid=grid,
                              output_times=output_times)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    result = run_flow(problem)
    snapshots = []
    for state in result.states:
        name = f"flow_t{state.t:.6f}.csv"
        state.u.write_csv(outdir / name)
        snapshots.append({
            "t": state.t,
            "csv": name,
            "fitted_boundary_constant": fitted_boundary_constant(state),
            "positivity_margin": state.positivity_margin,
            "sup_u": float(np.max(np.abs(state.u.values))),
        })
    payload = {
        "config": _config_echo(config),
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
    try:
        samples = RadialField.read_csv(csv_path)
        E = IndexSet.from_json_dict(json.loads(json_path.read_text()))
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ConfigError(str(exc)) from exc
    given = (config["window_lo"] > 0, config["window_hi"] > 0)
    if given == (True, True):
        window = (config["window_lo"], config["window_hi"])
    elif given == (False, False):
        window = None
    else:
        raise ConfigError("window_lo and window_hi must be given together")
    fit = fit_polyhom(samples, E, fit_window=window)
    payload = {
        "config": _config_echo(config),
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
    grid = _grid_from_config(config)
    F = RadialField(grid, evaluate_expansion(config["f_terms"], grid.x))
    coefficient_x = sum(a for a, z, k in config["f_terms"]
                        if z == 1.0 and k == 0)
    predicted = (2.0 / 3.0) * coefficient_x
    params = NewtonParams(max_iter=config["max_iter"], tol=config["tol"])
    problem = MongeAmpereProblem(ModelMetric(), F, config["bc_left"],
                                 config["bc_right"], newton=params)
    solution, report = solve_monge_ampere_radial(problem)
    solution.write_csv(outdir / config["solution_csv"])
    estimate = detect_log_term(solution)
    if predicted != 0.0:
        rel_error = abs(estimate.value - predicted) / abs(predicted)
        passed = rel_error <= config["tolerance"]
    else:
        rel_error = abs(estimate.value)
        passed = rel_error <= config["tolerance"]
    payload = {
        "config": _config_echo(config),
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
        "passed": bool(passed),
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
    item_dir.mkdir(parents=True, exist_ok=True)
    COMMANDS[command](config, item_dir)
    return {"config": str(sub_path), "command": command, "outdir": sub_path.stem}


def cmd_sweep(config, outdir: Path) -> dict:
    items = config["configs"]
    if not items:
        raise ConfigError("sweep requires at least one entry in 'configs'")
    stems = [Path(p).stem for p in items]
    clashes = sorted({stem for stem in stems if stems.count(stem) > 1})
    if clashes:
        raise ConfigError(f"sweep configs share output directories: {', '.join(clashes)}")
    workers = max(1, config["max_workers"])
    if workers == 1:
        results = [_run_sweep_item(p, outdir) for p in items]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda p: _run_sweep_item(p, outdir), items))
    payload = {"config": _config_echo(config), "runs": results}
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


def _resolve_outdir(cli_output: Optional[str], config: dict) -> Path:
    if cli_output:
        return Path(cli_output)
    if config.get("output"):
        return Path(config["output"])
    env = os.environ.get(OUTDIR_ENV)
    if env:
        return Path(env)
    return Path(".")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, SCHEMAS[args.command])
        outdir = _resolve_outdir(args.output, config)
        outdir.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command](config, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # domain validation from problem constructors: still a config fault
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, FitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
