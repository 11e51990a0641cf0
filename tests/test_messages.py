"""Each validation message, matched by name: a config fault through ``main``
with its exit code and stderr line, a library fault at the call that
raises it."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from cuspasym import fitting, parabolic
from cuspasym.cli import main
from cuspasym.errors import FitError
from cuspasym.geometry import ModelMetric
from cuspasym.indexsets import IndexSet, IndexTerm, rational_sqrt
from cuspasym.indicial import IndicialFamily, index_set_hatEplus
from cuspasym.radial import _MAX_NODES, RadialField, RadialGrid

ESET = {"cutoff": 2.0, "terms": [{"z": 1.0, "k": 0}, {"z": 1.0, "k": 1}]}


def _csv(rows) -> str:
    return "x,value\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


def _field_csv(grid: RadialGrid) -> str:
    return _csv(zip(grid.x.tolist(), (grid.x * grid.t + grid.x).tolist()))


#: a grid whose t = log x reaches into (-1/2, 0), where (log x)^1100 underflows
SHALLOW = RadialGrid(-1.0, -0.3, 64)

#: (command, config text, {file: text} beside it, exit code, stderr match)
CLI_CASES = {
    "config file not found": ("solve-ma", None, {}, 2, r"missing\.cfg: config file not found"),
    "expected key = value": ("solve-ma", "f_terms 1.5:1:0\n", {}, 2,
                             r"c\.cfg:1: expected 'key = value'"),
    "unknown sweep command": ("sweep", "configs = a.cfg\n", {"a.cfg": "command = bogus\n"}, 2,
                              r"a\.cfg: unknown sweep command 'bogus'"),
    "empty sweep": ("sweep", "configs =\n", {}, 2,
                    r"configs: sweep requires at least one entry"),
    "csv columns": ("fit-expansion", "field_csv = f.csv\nindex_set_json = e.json\n",
                    {"f.csv": _csv([(0.1 * k, 1.0, 2.0) for k in range(1, 9)]),
                     "e.json": json.dumps(ESET)}, 2,
                    r"field_csv f\.csv: expected two columns x,value in f\.csv"),
    "csv x descending": ("fit-expansion", "field_csv = f.csv\nindex_set_json = e.json\n",
                         {"f.csv": _csv([(0.9 - 0.1 * k, 1.0) for k in range(8)]),
                          "e.json": json.dumps(ESET)}, 2,
                         r"x column in f\.csv must be positive and ascending"),
    # refused before any array of that size exists
    "too many nodes": ("solve-ma", f"n_nodes = {_MAX_NODES + 1}\nf_terms = 1.5:1:0\n", {}, 2,
                       rf"need n_nodes <= {_MAX_NODES}, got {_MAX_NODES + 1}$"),
    "multiplicities": ("indicial", "lambda = 1\nc = 1\nspectrum = 0\nmultiplicities = 0\n"
                       "cutoff = 3\n", {}, 2, r"multiplicities must be >= 1"),
    # x^-400 overflows on [1e-3, 1e-2]
    "row weights overflow": ("fit-expansion", "field_csv = f.csv\nindex_set_json = e.json\n"
                             "window_lo = 1e-3\nwindow_hi = 1e-2\n",
                             {"f.csv": _field_csv(RadialGrid(-12.0, -1.0, 256)),
                              "e.json": json.dumps({"cutoff": 400.0,
                                                    "terms": [{"z": 1.0, "k": 0}]})}, 3,
                             r"the row weights x\^-400 overflow on the window \[0\.001, 0\.01\]"),
    "term vanishes": ("fit-expansion", "field_csv = f.csv\nindex_set_json = e.json\n"
                      "window_lo = 0.62\nwindow_hi = 0.7\n",
                      {"f.csv": _field_csv(SHALLOW),
                       "e.json": json.dumps({"cutoff": 0.0, "terms": [{"z": 0.0, "k": 1100}]})},
                      3, r"basis term .*k=1100.* vanishes identically on the window "
                         r"\[0\.62, 0\.7\]"),
}


@pytest.mark.parametrize("case", CLI_CASES)
def test_each_config_fault_exits_with_its_code_and_message(tmp_path, capsys, case):
    command, text, files, code, match = CLI_CASES[case]
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    cfg = tmp_path / ("missing.cfg" if text is None else "c.cfg")
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    # fit-expansion names its files relative to the working directory
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path)
        assert main([command, str(cfg), "-o", str(out)]) == code
    kind = "config error" if code == 2 else "numerical failure"
    assert re.search(f"^{kind}: .*{match}", capsys.readouterr().err)


@pytest.mark.parametrize("call, error, match", [
    (lambda: ModelMetric().einstein_defect(), ValueError,
     r"^metric has no conformal factor; a grid is required$"),
    (lambda: RadialGrid(-40.0, -1.0, 2 ** 22 + 2), ValueError,
     r"^need n_nodes <= 4194305, got 4194306$"),
    (lambda: SHALLOW.window_mask(0.0, 0.5), ValueError, r"^invalid window \[0\.0, 0\.5\]$"),
    (lambda: SHALLOW.window_mask(0.5, 0.4), ValueError, r"^invalid window \[0\.5, 0\.4\]$"),
    (lambda: parabolic.cusp_constant_rk4(0.0, 1.0), ValueError,
     r"^cusp constant must be positive and finite, got 0\.0$"),
    (lambda: parabolic.cusp_constant_rk4(math.inf, 1.0, 0.1), ValueError,
     r"^cusp constant must be positive and finite, got inf$"),
    (lambda: parabolic.cusp_constant_evolution(math.nan, 1.0), ValueError,
     r"^cusp constant must be positive and finite, got nan$"),
    (lambda: parabolic.cusp_constant_evolution(2.0, math.nan), ValueError,
     r"^time t must be >= 0, got nan$"),
    (lambda: parabolic.cusp_constant_evolution(2.0, -1000.0), ValueError,
     r"^time t must be >= 0, got -1000\.0$"),
    (lambda: parabolic.restricted_ode_solution([2.0, -math.inf], 1.0, dt=0.1), ValueError,
     r"^cusp constant must be positive and finite, got -inf$"),
    (lambda: parabolic.restricted_ode_solution([math.nan], 1.0, dt=0.1), ValueError,
     r"^cusp constant must be positive and finite, got nan$"),
    (lambda: parabolic.decay_certificate(SHALLOW, math.nan, lambda x, t: x, 1.0, 0.1),
     ValueError, r"^decay weight gamma must be >= 0, got nan$"),
    (lambda: parabolic.decay_certificate(SHALLOW, 1.0, lambda x, t: x, 1.0, 0.0), ValueError,
     r"^need 0 < dt <= T, got dt=0\.0, T=1\.0$"),
    (lambda: parabolic.decay_certificate(SHALLOW, 1.0, lambda x, t: x, 0.1, 0.2), ValueError,
     r"^need 0 < dt <= T, got dt=0\.2, T=0\.1$"),
    # q = 1 + h_t (1 - P_h(20)) = 1 - 25.5 on 512 nodes
    (lambda: parabolic.decay_certificate(RadialGrid(-40.0, math.log(0.5), 512), 20.0,
                                         lambda x, t: np.ones_like(x), 1.0, 0.1), ValueError,
     r"^no barrier K x\^gamma for gamma=20\.0 at dt=0\.1 on h=0\.07692143408892378: the "
     r"step's factor q = 1 \+ h_t \(1 - P_h\(gamma\)\) is not positive$"),
    # gamma h = 710.6: P_h(gamma) overflows while D x^gamma is still normal at the last node
    (lambda: parabolic.decay_certificate(RadialGrid(-13.301, -0.001, 8), 374.0,
                                         lambda x, t: np.ones_like(x), 1.0, 0.1), ValueError,
     r"^no barrier K x\^gamma for gamma=374\.0 at dt=0\.1 on h=1\.9000000000000001: the "
     r"step's factor q = 1 \+ h_t \(1 - P_h\(gamma\)\) is not positive$"),
    (lambda: IndicialFamily(1, 1, (0, 2), (1, -1)), ValueError,
     r"^multiplicities must be >= 1$"),
    (lambda: index_set_hatEplus(IndicialFamily(1, 1, (0,)), 2, 1), ValueError,
     r"^cutoff 1 must be >= alpha 2$"),
    (lambda: rational_sqrt(Fraction(-1, 4)), ValueError,
     r"^rational_sqrt requires a nonnegative argument$"),
    (lambda: fitting.fit_polyhom(RadialField(RadialGrid(-12.0, -1.0, 256), np.ones(256)),
                                 IndexSet((IndexTerm(1, 0),), 400), (1e-3, 1e-2)),
     FitError, r"^the row weights x\^-400 overflow on the window \[0\.001, 0\.01\]$"),
    (lambda: fitting.fit_polyhom(RadialField(SHALLOW, np.ones(64)),
                                 IndexSet((IndexTerm(0, 1100),), 0), (0.62, 0.7)),
     FitError, r"vanishes identically on the window \[0\.62, 0\.7\]$"),
], ids=["density-grid", "grid-nodes", "window-lo", "window-order", "rk4-constant",
        "rk4-constant-inf", "evolution-constant-nan", "evolution-time-nan",
        "evolution-time-negative", "restricted-constant-minus-inf",
        "restricted-constant-nan", "decay-gamma-nan", "decay-dt-zero",
        "decay-dt-past-T", "decay-no-barrier", "decay-symbol-overflow",
        "multiplicities", "hatEplus-cutoff", "rational-sqrt",
        "fit-row-weights", "fit-term-vanishes"])
def test_each_library_fault_raises_its_message(call, error, match):
    with pytest.raises(error, match=match):
        call()
