"""Edge sweeps of the CLI.  The single-key sweep sets every key of every
subcommand but ``sweep``, one at a time, to each edge value its parser's
type admits, on top of a config that runs.  The pair sweep draws 1000
seeded configs, each setting two keys of one such subcommand, each key to
one of its edge values or to a random in-range value (``IN_RANGE``).  Each
config runs through ``main`` in-process.  It must exit 0, 2 or 3 with no
exception escaping ``main`` and no warning; an exit 2 must begin, after
"config error: ", with a key that was changed, alone or in a comma-separated
list of keys ("window_lo, window_hi: ..."); every JSON artifact must be
strict JSON (no ``NaN``, no ``Infinity``), and every CSV of a run that exits
0 must read back through ``RadialField.read_csv`` on the run's grid with
the values it holds.  A run still going after ``TIME_LIMIT`` seconds fails
as a hang.

The keys come from ``cli.SCHEMAS``, and each key's parser is probed on
sample texts to learn whether it reads a list of ``:``-separated items, and
of which arity.  The node count of each
run is drawn from 16 to 256 (96 to 256 for the log-term detector) by a
seeded generator, so a run reproduces.  Each command with a grid also runs
once on each of ``SPACING_EDGES``: a 64-node grid of spacing 1.6e-11, one of
spacing 1.999, where the similarity D of the Jacobian solves is near its
largest, one of spacing 1.9995 reaching t = -706.8, near the smallest
normal x, whose D passes its e^700 bound, and one of spacing 2, which has
no D.  It also sets ``n_nodes`` one past ``radial._MAX_NODES``, which
must be refused before any array is built.  Three flow
configs end on each refusal a flow step makes, and must exit 3 naming it.

The value sweep draws ``VALUES`` seeded in-range configs of the solvers
(grid, source, boundary data, lambda and metric from ``IN_RANGE``) and
checks three relations each solution must obey, on the library solvers:
MA translation covariance, ``solve_linear`` superposition, and the
comparison principle.  Beside it, ``CONSTANT_FLOWS`` seeded flows from a
constant conformal factor must stay spatially constant up to rounding.
"""

import contextlib
import importlib.util
import io
import json
import math
import random
import re
import sys
import warnings
from pathlib import Path

import pytest

import numpy as np

from cuspasym import cli, radial
from cuspasym.elliptic import (
    LinearProblem,
    MongeAmpereProblem,
    solve_linear,
    solve_monge_ampere_radial,
)
from cuspasym.geometry import ModelMetric
from cuspasym.indexsets import IndexSet, IndexTerm
from cuspasym.parabolic import FlowProblem, run_flow
from cuspasym.radial import RadialField, RadialGrid, laplacian_coefficients

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)   # for its time limit
_spec.loader.exec_module(regen)

SEED = 25
#: seconds a run may take before it counts as a hang; each takes milliseconds
TIME_LIMIT = 2.0
#: what each edge value stands for: NaN, infinities, signed zeros, the
#: smallest subnormal, the largest magnitudes, a zero denominator, a word,
#: a negative, a fraction where an integer may be wanted
EDGES = ("nan", "inf", "-inf", "0", "-0", "5e-324", "1e308", "-1e308", "1/0", "abc", "-1", "2.5")
#: item texts of the wrong shape for a list of ``:``-separated items
BAD_SHAPES = ("1", "1:", ":", "1:2:3:4")
#: a valid item of each arity, whose fields the sweep replaces one at a time
BASE_ITEM = {2: "1:0", 3: "0.5:1:0"}

#: the node counts a run draws from; the detector's windows need more nodes
NODES = {"logterm-pipeline": (96, 256)}

#: a grid whose spacing is far below the rounding of log x at its nodes
TINY_SPACING = {"n_nodes": "64", "t_min": "-1.000000001", "t_max": "-1"}
#: grids of extreme spacing, tiny first: h = 1.999 on 300 nodes, where the
#: similarity D of the Jacobian solves spans about e^-620 to e^620 (its
#: bound is e^700); h = 1.9995 on 354 nodes down to t = -706.8, where D's
#: exponent of about 795 is past that bound; and h = 2 exactly, where c_sub
#: = 0 and D does not exist
SPACING_EDGES = (TINY_SPACING,
                 {"n_nodes": "300", "t_min": "-598.701", "t_max": "-1"},
                 {"n_nodes": "354", "t_min": "-706.8235", "t_max": "-1"},
                 {"n_nodes": "16", "t_min": "-31", "t_max": "-1"})

#: one node past the most a grid may have: refused before any array exists
TOO_MANY_NODES = str(radial._MAX_NODES + 1)

#: the keys each base config sets; every other key keeps its default
BASE = {
    "indicial": {"lambda": "1", "c": "1", "spectrum": "0, 2", "cutoff": "3"},
    "chern-coeff": {"d": "4"},
    "solve-linear": {"f_terms": "1.5:1:0"},
    "solve-ma": {"f_terms": "1.5:1:0"},
    "flow": {"T": "0.5", "dt": "0.25"},
    "fit-expansion": {"field_csv": "field.csv", "index_set_json": "eset.json"},
    "logterm-pipeline": {"f_terms": "1.5:1:0"},
}


PAIR_SEED = 35
#: configs of the pair sweep, and the share of its changed keys set to an edge
PAIRS, EDGE_SHARE = 1000, 0.3


def _terms(rng: random.Random, amplitude: float) -> str:
    """One or two a:z:k terms, |a| below ``amplitude``, z in (0, 2], k 0 or 1."""
    return ", ".join(f"{rng.uniform(-amplitude, amplitude):.4g}:{rng.choice((0.5, 1, 1.5, 2))}:"
                     f"{rng.randint(0, 1)}" for _ in range(rng.randint(1, 2)))


def _uniform(lo: float, hi: float):
    return lambda rng: f"{rng.uniform(lo, hi):.6g}"


def _log_uniform(lo: float, hi: float):
    return lambda rng: f"{10.0 ** rng.uniform(lo, hi):.6g}"


#: an in-range text of each key, alone on the base config; in-range T and
#: dt give a flow at most 50 steps, so no run nears ``TIME_LIMIT``
IN_RANGE = {
    "lambda": lambda rng: rng.choice(("0", "1", "2", "1/2", "3/2")),
    "c": lambda rng: rng.choice(("1", "2", "1/2")),
    "spectrum": lambda rng: ", ".join(rng.sample(("0", "1", "2", "5/2", "4"), rng.randint(1, 3))),
    "multiplicities": lambda rng: ", ".join(str(rng.randint(1, 2))
                                            for _ in range(rng.randint(1, 3))),
    "alpha": lambda rng: rng.choice(("0", "1/2", "1")),
    "cutoff": lambda rng: str(rng.randint(1, 6)),
    "union_terms": lambda rng: rng.choice(("1:1", "1:1, 2:0", "3/2:0")),
    "d": lambda rng: str(rng.randint(4, 12)),
    "t_min": _uniform(-60.0, -3.0),
    "t_max": _uniform(-2.0, -0.1),
    "n_nodes": lambda rng: str(rng.randint(96, 256)),
    "f_terms": lambda rng: _terms(rng, 2.0),
    "conformal_terms": lambda rng: _terms(rng, 0.2),
    "bc_left": _uniform(-1.0, 1.0),
    "bc_right": _uniform(-1.0, 1.0),
    "solution_csv": lambda rng: f"u{rng.randint(0, 9)}.csv",
    "metric_a": _uniform(0.5, 3.0),
    "metric_b": _uniform(0.5, 3.0),
    "max_iter": lambda rng: str(rng.randint(1, 60)),
    "tol": _log_uniform(-13.0, -8.0),
    "damping_min": lambda rng: f"1/{2 ** rng.randint(1, 30)}",
    "tolerance": _uniform(0.005, 0.1),
    "T": _uniform(0.05, 1.0),
    "dt": _uniform(0.02, 0.5),
    "output_times": lambda rng: ", ".join(rng.sample(("0", "0.25", "0.5"), rng.randint(1, 2))),
    "field_csv": lambda rng: "field.csv",
    "index_set_json": lambda rng: "eset.json",
    "window_lo": _log_uniform(-15.0, -6.0),
    "window_hi": _log_uniform(-5.0, -0.5),
    "output": lambda rng: f"out{rng.randint(0, 9)}",
}


def _values(parse) -> list[str]:
    """The edge texts of one key: each edge as the whole value, or, for a
    list of ``:``-separated items (its parser refuses the one-field "1"),
    each edge in each field of a valid item, then items of the wrong shape."""
    with contextlib.suppress(ValueError):
        parse("1")
        return list(EDGES)
    for item in BASE_ITEM.values():
        with contextlib.suppress(ValueError):
            parse(item)
            fields = item.split(":")
            return [":".join(fields[:i] + [edge] + fields[i + 1:])
                    for i in range(len(fields)) for edge in EDGES] + list(BAD_SHAPES)
    raise AssertionError(f"{parse} reads neither '1' nor any item of {BASE_ITEM}")


def _runs():
    """(command, changed key, its text, the whole config) for every run."""
    rng = random.Random(SEED)
    for command, base in BASE.items():
        schema = cli.SCHEMAS[command]
        for key, spec in schema.items():
            for text in _values(spec.parse):
                config = dict(base)
                if "n_nodes" in schema:
                    config["n_nodes"] = str(rng.randint(*NODES.get(command, (16, 256))))
                config[key] = text
                yield command, key, text, config
        if "n_nodes" in schema:
            for grid in SPACING_EDGES:
                yield command, "t_min", grid["t_min"], {**base, **grid}
            yield command, "n_nodes", TOO_MANY_NODES, {**base, "n_nodes": TOO_MANY_NODES}


def _pair_runs(seed: int, count: int):
    """(command, {key: text} of the two keys changed, the whole config) for
    ``count`` runs: each picks a command but ``sweep`` and two of its keys,
    and sets each key to one of its edge texts (a share ``EDGE_SHARE`` of
    them) or to an in-range text of ``IN_RANGE``."""
    rng = random.Random(seed)
    for _ in range(count):
        command = rng.choice(list(BASE))
        schema = cli.SCHEMAS[command]
        changed = {key: rng.choice(_values(schema[key].parse)) if rng.random() < EDGE_SHARE
                   else IN_RANGE[key](rng) for key in rng.sample(sorted(schema), 2)}
        config = dict(BASE[command])
        if "n_nodes" in schema:
            config["n_nodes"] = str(rng.randint(*NODES.get(command, (16, 256))))
        yield command, changed, {**config, **changed}


#: the keys an exit-2 message begins with: one, or a comma-separated list,
#: before ": " or before a space ("field_csv <path>: ...", "tolerance must ...")
_LEADING_KEYS = re.compile(r"config error: ((?:\w+, )*\w+)[: ]")


def _begins_with_a_key_of(message: str, changed) -> bool:
    leading = _LEADING_KEYS.match(message)
    return bool(leading) and not set(leading[1].split(", ")).isdisjoint(changed)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _read_back_faults(command: str, cfg: Path, out: Path) -> list[str]:
    """Each CSV the run wrote that does not read back on the run's grid with
    the values its text holds."""
    csvs = sorted(out.rglob("*.csv"))
    if not csvs:
        return []
    grid = cli._grid_from_config(cli.load_config(str(cfg), cli.SCHEMAS[command]))
    # log(exp(t)) misses t by about eps (1 + |t|) at each end of the grid read
    slack = 8 * sys.float_info.epsilon * (1.0 - grid.t_min)
    faults = []
    for path in csvs:
        try:
            back = RadialField.read_csv(path)
        except ValueError as exc:
            faults.append(f"{path.name}: {exc}")
            continue
        values = [float(row.split(",")[1]) for row in path.read_text().splitlines()[1:]]
        if back.grid.n_nodes != grid.n_nodes or back.values.tolist() != values or \
                max(abs(a - b) for a, b in zip(back.grid.t, grid.t)) > slack:
            faults.append(f"{path.name}: reads back as {back.grid}, written on {grid}")
    return faults


@pytest.fixture
def corpus(tmp_path, monkeypatch):
    """A working directory holding the field and index set fit-expansion reads."""
    monkeypatch.chdir(tmp_path)
    grid = RadialGrid(-40.0, math.log(0.5), 256)
    RadialField(grid, grid.x * (1.0 + grid.t)).write_csv(tmp_path / "field.csv")
    eset = IndexSet((IndexTerm(1, 1), IndexTerm(1, 0)), 1)
    (tmp_path / "eset.json").write_text(json.dumps(eset.to_json_dict()))
    return tmp_path


def _run_faults(corpus: Path, n: int, command: str, changed: dict, config: dict) -> list[str]:
    """What run n of ``command`` on ``config`` breaks of the sweep's rules,
    ``changed`` holding the keys the sweep set and their texts."""
    cfg, out = corpus / f"c{n}.cfg", corpus / f"out{n}"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    what = f"{command} " + ", ".join(f"{key} = {text!r}" for key, text in changed.items())
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            with regen.time_limit(TIME_LIMIT):
                code = cli.main([command, str(cfg), "-o", str(out)])
        except Exception as exc:   # noqa: BLE001 - every escape is a finding
            return [f"{what}: {type(exc).__name__}: {exc}"]
    message, faults = err.getvalue(), []
    if code not in (0, 2, 3):
        faults.append(f"{what}: exit {code}")
    if caught:
        faults.append(f"{what}: warns {caught[0].category.__name__}: {caught[0].message}")
    if code == 2 and not _begins_with_a_key_of(message, changed):
        faults.append(f"{what}: exit 2 begins with none of {', '.join(changed)}: "
                      f"{message.strip()}")
    for path in sorted(out.rglob("*.json")):
        try:
            json.loads(path.read_text(), parse_constant=_refuse_constant)
        except ValueError as exc:
            faults.append(f"{what}: {path.name}: {exc}")
    if code == 0:
        faults += [f"{what}: {fault}" for fault in _read_back_faults(command, cfg, out)]
    return faults


def test_every_single_key_edge_exits_cleanly_and_names_its_key(corpus):
    faults = []
    for n, (command, key, text, config) in enumerate(_runs()):
        faults += _run_faults(corpus, n, command, {key: text}, config)
    assert not faults, "\n".join(faults)


def test_every_pair_of_keys_exits_cleanly_and_names_one_of_them(corpus):
    faults = []
    for n, (command, changed, config) in enumerate(_pair_runs(PAIR_SEED, PAIRS)):
        faults += _run_faults(corpus, n, command, changed, config)
    assert not faults, "\n".join(faults)


def test_the_sweep_covers_every_key_of_every_command():
    runs = list(_runs())
    assert {(command, key) for command, key, _, _ in runs} == {
        (command, key) for command in BASE for key in cli.SCHEMAS[command]}
    assert len(runs) >= 800


def test_the_pair_sweep_draws_texts_each_parser_reads_on_every_command():
    rng = random.Random(PAIR_SEED)
    for command in BASE:
        for key, spec in cli.SCHEMAS[command].items():
            for _ in range(20):
                spec.parse(IN_RANGE[key](rng))
    runs = list(_pair_runs(PAIR_SEED, PAIRS))
    assert len(runs) >= 1000 and {command for command, _, _ in runs} == set(BASE)
    assert all(len(changed) == 2 for _, changed, _ in runs)


#: flow configs whose last step is refused, by what the refusal names: the
#: evolving density before or after the step's solve, or its rounding floor
REFUSED_FLOWS = {
    "density before the solve": {"n_nodes": "12", "t_min": "-4", "t_max": "-2.3",
                                 "conformal_terms": "1:0:2", "T": "20", "dt": "20"},
    "density after the solve": {**TINY_SPACING, "conformal_terms": "0.2:0:0", "T": "1",
                                "dt": "0.01"},
    "rounding floor": {"n_nodes": "256", "t_min": "-5", "t_max": "-1",
                       "conformal_terms": "-1:0:1", "T": "27", "dt": "9"},
}


@pytest.mark.parametrize("refusal", list(REFUSED_FLOWS))
def test_each_flow_refusal_exits_3_naming_its_time_and_node(corpus, refusal):
    cfg = corpus / "refused.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in REFUSED_FLOWS[refusal].items()))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), regen.time_limit(TIME_LIMIT):
        code = cli.main(["flow", str(cfg), "-o", str(corpus / "out")])
    assert code == 3
    assert re.fullmatch(rf"numerical failure: flow step to t=\S+ refused: .*{refusal}.* "
                        rf"-?\d\.\d{{3}}e[-+]\d\d at node \d+ \(x=\S+\)\n", err.getvalue())


VALUE_SEED = 7
#: configs of the value sweep: about 0.3 s in all, each config's six solves
#: within ``TIME_LIMIT``
VALUES = 300
#: the keys of the solver problems the value sweep draws
VALUE_KEYS = ("t_min", "t_max", "n_nodes", "f_terms", "bc_left", "bc_right", "lambda",
              "metric_a", "metric_b")


def _value_runs(seed: int, count: int):
    """(config, shift c in [-1, 1], amplitude s in [0, 1]) for ``count`` runs,
    each config the solve-linear schema's reading of in-range texts."""
    rng = random.Random(seed)
    for _ in range(count):
        raw = {key: IN_RANGE[key](rng) for key in VALUE_KEYS}
        yield cli.resolve_config(raw, cli.SCHEMAS["solve-linear"]), rng.uniform(-1, 1), rng.random()


def _value_faults(config: dict, c: float, s: float) -> list[str]:
    """What the solutions on ``config`` break of the three relations:
    - MA translation covariance, (1 + Delta_g u) e^{-u} = e^F being
      invariant under (u, F) -> (u + c, F - c): u(F - c, bc + c) = u(F, bc)
      + c, to 1e-12 of max(1, sup|u + c|);
    - ``solve_linear`` superposition u(f, bc) = u(f, 0) + u(0, bc), to 1e-13
      of sup|u(f, bc)|;
    - the comparison principle: F + s x >= F gives no larger u, up to the two
      solves' final residuals, each a bound on its solve's error in the sup
      norm (the Jacobian 1 - Delta / rho is an M-matrix of row sums >= 1)."""
    grid = cli._grid_from_config(config)
    F = radial.sample_terms(config["f_terms"], grid)
    metric = cli._metric_from_config(config, grid)
    bc = config["bc_left"], config["bc_right"]

    def ma(values, left, right):
        u, report = solve_monge_ampere_radial(
            MongeAmpereProblem(metric, RadialField(grid, values), left, right))
        return u.values, report.final_residual

    def linear(f, left, right):
        return solve_linear(LinearProblem(metric, config["lambda"], RadialField(grid, f),
                                          left, right)).values

    faults = []
    u, residual = ma(F.values, *bc)
    shifted, _ = ma(F.values - c, bc[0] + c, bc[1] + c)
    error = np.abs(shifted - (u + c)).max() / max(1.0, np.abs(u + c).max())
    if not error <= 1e-12:
        faults.append(f"MA translation by {c:.6g} moves u by {error:.3e} relative")
    larger, larger_residual = ma(F.values + s * grid.x, *bc)
    rise = (larger - u).max()
    if not rise <= residual + larger_residual:
        faults.append(f"F + {s:.6g} x raises u by {rise:.3e}, past the solves' residuals "
                      f"{residual:.3e} + {larger_residual:.3e}")
    whole = linear(F.values, *bc)
    parts = linear(F.values, 0.0, 0.0) + linear(np.zeros(grid.n_nodes), *bc)
    error = np.abs(whole - parts).max() / np.abs(whole).max()
    if not error <= 1e-13:
        faults.append(f"solve_linear superposition off by {error:.3e} relative")
    return faults


def test_every_in_range_solve_keeps_covariance_superposition_and_comparison():
    faults = []
    for config, c, s in _value_runs(VALUE_SEED, VALUES):
        with regen.time_limit(TIME_LIMIT):
            faults += [f"{config}: {fault}" for fault in _value_faults(config, c, s)]
    assert not faults, "\n".join(faults)


#: flows of the constant-factor sweep, about 0.3 s in all
CONSTANT_FLOWS = 80


def _constant_flows(seed: int, count: int):
    """(grid, phi, a, b, T, dt) for ``count`` flows: 16 to 2048 nodes on an
    in-range span, phi constant in [-1, 1], a and b in [0.3, 3], T in
    {0.1, 0.5, 2} and dt in [0.01, 0.1]."""
    rng = random.Random(seed)
    for _ in range(count):
        grid = RadialGrid(rng.uniform(-60.0, -3.0), rng.uniform(-2.0, -0.1), rng.randint(16, 2048))
        yield (grid, rng.uniform(-1.0, 1.0), rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0),
               rng.choice((0.1, 0.5, 2.0)), rng.uniform(0.01, 0.1))


def test_a_constant_conformal_factor_keeps_the_flow_spatially_constant():
    # S(t) = D0 + expm1(-t) (D0 - 1) is constant in x, so u(t) is too, and
    # its spread max u - min u is rounding: one rounding of the state, and a
    # step's stencil rounding eps sum|c_k| (1 + sup|u|) / min S per unit of
    # time (the step's Jacobian damps dt times it), min S = min(1, sqrt(ab) e^{2 phi})
    eps, faults = sys.float_info.epsilon, []
    for grid, phi, a, b, T, dt in _constant_flows(VALUE_SEED, CONSTANT_FLOWS):
        with regen.time_limit(TIME_LIMIT):
            result = run_flow(FlowProblem(ModelMetric(a, b, RadialField.constant(grid, phi)),
                                          T=T, dt=dt))
        spread = max(float(np.ptp(state.u.values)) for state in result.states)
        stencil = sum(map(abs, laplacian_coefficients(grid.h)))
        min_S = min(1.0, math.sqrt(a * b) * math.exp(2.0 * phi))
        bound = eps * (1.0 + float(result.sup_u.max())) * (1.0 + T * stencil / min_S)
        if not spread <= bound:
            faults.append(f"{grid}, phi={phi:.6g}, a={a:.6g}, b={b:.6g}, T={T}, dt={dt:.6g}: "
                          f"spread {spread:.3e} past {bound:.3e}")
    assert not faults, "\n".join(faults)
