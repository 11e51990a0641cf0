"""CLI subcommands: config validation, outputs, exit codes, determinism."""

import builtins
import errno
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from cuspasym import fitting, indexsets, parabolic
from cuspasym.cli import main
from cuspasym.elliptic import MongeAmpereProblem, NewtonParams, solve_monge_ampere_radial
from cuspasym.fitting import _detector_windows
from cuspasym.geometry import ModelMetric
from cuspasym.indexsets import IndexTerm, closure
from cuspasym.radial import DEFAULT_GRID, RadialField, RadialGrid


def write(path, text):
    path.write_text(text)
    return str(path)


def test_indicial_outputs_index_sets(tmp_path):
    cfg = write(tmp_path / "c.cfg",
                "lambda = 1\nc = 1\nspectrum = 0\nalpha = 0\ncutoff = 3\n")
    assert main(["indicial", cfg, "-o", str(tmp_path / "out")]) == 0
    data = json.loads((tmp_path / "out" / "indicial.json").read_text())
    assert [(t["z"], t["k"]) for t in data["hat_E_plus"]["terms"]] == [
        [1.0, 0], [2.0, 0], [3.0, 0]] or \
        [(t["z"], t["k"]) for t in data["hat_E_plus"]["terms"]] == [
        (1.0, 0), (2.0, 0), (3.0, 0)]
    assert sorted(r["z"] for r in data["roots"]) == [-2.0, 1.0]
    assert data["complex_eigenvalues"] == 0


def test_indicial_tolerance_chain_lists_one_exponent(tmp_path):
    cfg = write(tmp_path / "c.cfg",
                "lambda = 4e-13\nc = 1\nspectrum = 0, 1/3, 2, 5/2, 3\n"
                "multiplicities = 1, 2, 1, 2, 2\nalpha = -1\ncutoff = 4\n")
    assert main(["indicial", cfg, "-o", str(tmp_path / "out")]) == 0
    terms = json.loads((tmp_path / "out" / "indicial.json").read_text())["hat_E_plus"]["terms"]
    for n in (2, 3, 4):
        near = [(t["z"], t["k"]) for t in terms if abs(t["z"] - n) <= 2e-12]
        assert len({z for z, _ in near}) == 1, near
        assert sorted(k for _, k in near) == [0, 1]


def test_indicial_missing_key_named(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", "c = 1\nspectrum = 0\ncutoff = 3\n")
    assert main(["indicial", cfg, "-o", str(tmp_path)]) == 2
    assert "lambda" in capsys.readouterr().err


def test_indicial_cutoff_below_alpha_rejected(tmp_path):
    cfg = write(tmp_path / "c.cfg",
                "lambda = 1\nc = 1\nspectrum = 0\nalpha = 2\ncutoff = 1\n")
    assert main(["indicial", cfg, "-o", str(tmp_path)]) == 2


@pytest.mark.parametrize("key, text", [
    ("lambda", "lambda = nan"), ("c", "c = nan"), ("spectrum", "spectrum = 0, inf"),
    ("alpha", "alpha = nan"), ("cutoff", "cutoff = inf"), ("union_terms", "union_terms = nan:0"),
])
def test_indicial_non_finite_exponent_is_named(tmp_path, capsys, key, text):
    # once only "config error: exponent must be finite, got nan", naming no key
    config = {"lambda": "lambda = 1", "c": "c = 1", "spectrum": "spectrum = 0",
              "cutoff": "cutoff = 3", key: text}
    cfg = write(tmp_path / "c.cfg", "\n".join(config.values()) + "\n")
    out = tmp_path / "out"
    assert main(["indicial", cfg, "-o", str(out)]) == 2
    bad = text.split("= ")[1].split(", ")[-1].split(":")[0]
    assert capsys.readouterr().err == f"config error: {key}: exponent must be finite, got {bad}\n"
    assert not (out / "indicial.json").exists()


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", "d = 4\nwhatever = 1\n")
    assert main(["chern-coeff", cfg, "-o", str(tmp_path)]) == 2
    assert "whatever" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, message", [
    ("solve-ma", "f_terms = 1:2\n", "bad term '1:2': expected a:z:k"),
    ("indicial", "lambda = 1\nc = 1\nspectrum = 0\ncutoff = 3\nunion_terms = 1\n",
     "bad index pair '1': expected z:k"),
])
def test_bad_colon_item_is_config_error(tmp_path, capsys, command, text, message):
    cfg = write(tmp_path / "c.cfg", text)
    assert main([command, cfg, "-o", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, text, message", [
    ("indicial", "lambda = 1/0\nc = 1\nspectrum = 0\ncutoff = 3\n", "bad rational value '1/0'"),
    ("solve-ma", "f_terms = 1/0:1:0\n", "bad float value '1/0'"),
    ("solve-ma", "f_terms = 1.5:1:0\ntol = 1/0\n", "bad float value '1/0'"),
])
def test_zero_denominator_is_config_error(tmp_path, capsys, command, text, message):
    cfg = write(tmp_path / "c.cfg", text)
    assert main([command, cfg, "-o", str(tmp_path / "out")]) == 2
    key = next(line.split(" = ")[0] for line in text.splitlines() if "1/0" in line)
    assert capsys.readouterr().err == f"config error: {key}: {message}\n"


def test_defaults_come_from_library(tmp_path):
    cfg = write(tmp_path / "c.cfg", "f_terms = 1.5:1:0\n")
    out = tmp_path / "out"
    assert main(["solve-ma", cfg, "-o", str(out)]) == 0
    echo = json.loads((out / "solve_ma.json").read_text())["config"]
    params = NewtonParams()
    assert (echo["t_min"], echo["t_max"], echo["n_nodes"]) == (
        DEFAULT_GRID.t_min, DEFAULT_GRID.t_max, DEFAULT_GRID.n_nodes)
    assert (echo["max_iter"], echo["tol"], echo["damping_min"]) == (
        params.max_iter, params.tol, params.damping_min)


def test_overflowing_terms_are_config_error(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg", "n_nodes = 512\nf_terms = 1:-30:0\n")
    assert main(["solve-ma", cfg, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: f_terms: the terms are not finite at x={math.exp(-40):.6g}\n"


def test_chern_coefficients(tmp_path):
    for d, num, den in ((4, 8, 3), (5, 5, 3)):
        cfg = write(tmp_path / f"d{d}.cfg", f"d = {d}\n")
        out = tmp_path / f"out{d}"
        assert main(["chern-coeff", cfg, "-o", str(out)]) == 0
        data = json.loads((out / "chern.json").read_text())
        assert data["d"] == d
        assert data["b_tilde"] == {"num": num, "den": den}


def test_chern_degree_three_is_config_error(tmp_path):
    cfg = write(tmp_path / "c.cfg", "d = 3\n")
    assert main(["chern-coeff", cfg, "-o", str(tmp_path)]) == 2


def test_solve_linear_writes_solution(tmp_path):
    cfg = write(tmp_path / "c.cfg",
                "n_nodes = 512\nt_min = -20\nlambda = 1\nf_terms = 1.5:1:0\n"
                "bc_right = -0.3465735902799726\n")
    out = tmp_path / "out"
    assert main(["solve-linear", cfg, "-o", str(out)]) == 0
    field = RadialField.read_csv(out / "solution.csv")
    data = json.loads((out / "solve_linear.json").read_text())
    assert data["interior_residual_sup"] < 1e-8
    # the solve reproduces x log x away from the clamped deep end
    x = field.grid.x
    mask = x > 1e-4
    assert np.max(np.abs(field.values[mask] - x[mask] * np.log(x[mask]))) < 1e-3


def test_solve_linear_residual_stays_at_the_stencils_rounding_floor(tmp_path):
    # pivoting once swapped the Dirichlet row into the stencil and left a
    # residual 71 times this floor (1.76e-8)
    cfg = write(tmp_path / "c.cfg", "n_nodes = 4096\nlambda = 0\nf_terms = 1.5:1:0\n"
                                    "bc_left = 0.3\nmetric_a = 2\nmetric_b = 0.7\n")
    out = tmp_path / "out"
    assert main(["solve-linear", cfg, "-o", str(out)]) == 0
    data = json.loads((out / "solve_linear.json").read_text())
    h = (data["config"]["t_max"] - data["config"]["t_min"]) / 4095
    floor = 64 * np.finfo(float).eps * (1 + data["sup_solution"]) / h**2 / math.sqrt(2 * 0.7)
    assert data["interior_residual_sup"] <= floor


def test_solve_linear_residual_leaves_out_the_overflowing_end_rows(tmp_path, capsys):
    # the solve succeeds; the one-sided end rows of the full-grid Laplacian
    # once overflowed on bc_left, leaked RuntimeWarnings and exited 2 with
    # "field values must be finite", which names no key
    cfg = write(tmp_path / "c.cfg", "n_nodes = 16\nlambda = 1\nf_terms = 1:1:0\nbc_left = 1e308\n")
    out = tmp_path / "out"
    assert main(["solve-linear", cfg, "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    data = json.loads((out / "solve_linear.json").read_text())
    assert math.isfinite(data["interior_residual_sup"]) and data["sup_solution"] == 1e308


def test_solve_linear_overflowing_interior_residual_is_numerical_failure(tmp_path, capsys):
    # a finite solution whose residual stencil overflows at node 1
    cfg = write(tmp_path / "c.cfg", "n_nodes = 132\nmetric_a = 100\nlambda = 1\n"
                                    "f_terms = 1:1:0\nbc_left = 1e308\n")
    out = tmp_path / "out"
    assert main(["solve-linear", cfg, "-o", str(out)]) == 3
    assert "numerical failure: the linear residual overflows at the solution" in capsys.readouterr().err
    assert not (out / "solution.csv").exists()


@pytest.mark.parametrize("bc_right, code", [(1e308, 3), (1e300, 0)])
def test_solve_linear_names_an_overflowing_elimination(tmp_path, capsys, bc_right, code):
    # at 4096 nodes the scaled system overflows on the 1e308 Dirichlet value
    # at the right end, and so does the pivoting elimination it falls back
    # to; the message once blamed "lambda collides with a discrete eigenvalue?"
    cfg = write(tmp_path / "c.cfg", f"n_nodes = 4096\nlambda = 1\nf_terms = 1:1:0\n"
                                    f"bc_right = {bc_right}\n")
    out = tmp_path / "out"
    assert main(["solve-linear", cfg, "-o", str(out)]) == code
    err = capsys.readouterr().err
    if code == 3:
        assert err == ("numerical failure: linear solve overflowed: the tridiagonal elimination "
                       "gave a non-finite solution from data of magnitude up to 1.000e+308\n")
        assert not (out / "solution.csv").exists()
    else:
        assert err == ""


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_solve_linear_non_finite_lambda_is_named(tmp_path, capsys, lam):
    # once "config error: array must not contain infs or NaNs", naming no key
    cfg = write(tmp_path / "c.cfg", f"n_nodes = 16\nlambda = {lam}\nf_terms = 1:1:0\n")
    out = tmp_path / "out"
    assert main(["solve-linear", cfg, "-o", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: lambda, bc_left, bc_right: lambda must be "
                                       f"finite and >= 0, got {lam}\n")
    assert not (out / "solution.csv").exists()


def test_solve_ma_reports_convergence(tmp_path):
    cfg = write(tmp_path / "c.cfg", "n_nodes = 512\nf_terms = 1.5:1:0\n")
    out = tmp_path / "out"
    assert main(["solve-ma", cfg, "-o", str(out)]) == 0
    data = json.loads((out / "solve_ma.json").read_text())
    assert data["converged"] is True
    assert data["min_kahler"] > 0
    assert data["final_residual"] <= 1e-11


@pytest.mark.parametrize("command", ["solve-ma", "solve-linear"])
def test_non_finite_boundary_value_is_config_error(tmp_path, capsys, command):
    # a NaN once read as a converged Newton residual: exit 0, all-zero solution
    cfg = write(tmp_path / "c.cfg", "n_nodes = 512\nf_terms = 1.5:1:0\nbc_left = nan\n")
    out = tmp_path / "out"
    assert main([command, cfg, "-o", str(out)]) == 2
    assert "bc_left" in capsys.readouterr().err
    assert not (out / "solution.csv").exists()


@pytest.mark.parametrize("command, t_min", [
    ("flow", "-inf"), ("flow", "-1e308"), ("solve-ma", "-inf"), ("solve-linear", "-inf")])
def test_non_finite_grid_is_config_error(tmp_path, capsys, command, t_min):
    # flow once exited 0 with an all-NaN x column (-inf) or 1 with an
    # OverflowError traceback (-1e308); the solvers blamed f_terms at x=nan
    keys = "T = 0.5\ndt = 0.25" if command == "flow" else "f_terms = 1:1:0"
    cfg = write(tmp_path / "c.cfg", f"n_nodes = 16\nt_min = {t_min}\n{keys}\n")
    out = tmp_path / "out"
    assert main([command, cfg, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: t_min, t_max, n_nodes: need a finite t_min")
    assert f"[{float(t_min)}, " in err
    assert list(out.iterdir()) == []


def test_flow_snapshots_and_constants(tmp_path):
    kappa = 0.5 * math.log(2.0)
    cfg = write(tmp_path / "c.cfg",
                f"n_nodes = 256\nconformal_terms = {kappa}:0:0\n"
                "T = 0.5\ndt = 0.01\noutput_times = 0.5\n")
    out = tmp_path / "out"
    assert main(["flow", cfg, "-o", str(out)]) == 0
    data = json.loads((out / "flow.json").read_text())
    snap = data["snapshots"][-1]
    expected = 1.0 + math.exp(-0.5)
    assert abs(snap["fitted_boundary_constant"] - expected) / expected < 0.01
    assert data["min_positivity_margin"] > 0
    assert (out / snap["csv"]).is_file()


def test_flow_unreachable_output_time_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg",
                "n_nodes = 256\nT = 1\ndt = 0.1\noutput_times = 0.33, 0.5, 2\n")
    out = tmp_path / "out"
    assert main(["flow", cfg, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: T, dt, output_times: output time 0.33 ")
    assert not (out / "flow.json").exists()


def test_flow_snapshots_sharing_a_file_name_are_config_error(tmp_path, capsys):
    # 2e-7 and 3e-7 both print as flow_t0.000000.csv
    cfg = write(tmp_path / "c.cfg",
                "n_nodes = 8\nt_min = -5\nt_max = -1\nconformal_terms = 0.2:0:0\n"
                "T = 1e-6\ndt = 1e-7\noutput_times = 2e-7, 3e-7\n")
    out = tmp_path / "out"
    assert main(["flow", cfg, "-o", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: output_times: output times 2e-07 and 3e-07 "
                                       "share the snapshot file flow_t0.000000.csv\n")
    assert list(out.iterdir()) == []


def test_flow_resolves_its_time_grid_once(tmp_path, monkeypatch):
    # the problem, the snapshot naming and run_flow once built it each
    calls = []
    time_grid = parabolic._time_grid
    monkeypatch.setattr(parabolic, "_time_grid",
                        lambda T, dt: calls.append((T, dt)) or time_grid(T, dt))
    cfg = write(tmp_path / "c.cfg", "n_nodes = 64\nT = 0.5\ndt = 0.1\noutput_times = 0.2, 0.5\n")
    out = tmp_path / "out"
    assert main(["flow", cfg, "-o", str(out)]) == 0
    assert calls == [(0.5, 0.1)]
    assert sorted(p.name for p in out.glob("*.csv")) == ["flow_t0.200000.csv",
                                                         "flow_t0.500000.csv"]


def test_flow_snapshot_names_checked_before_any_flow_step(tmp_path, capsys, monkeypatch):
    # 10^4 steps of 1e-7: the names collide at the first two output times,
    # so the flow is never started
    def no_flow(problem):
        raise AssertionError("run_flow called")

    monkeypatch.setattr("cuspasym.parabolic.run_flow", no_flow)
    cfg = write(tmp_path / "c.cfg",
                "n_nodes = 8\nt_min = -5\nt_max = -1\nconformal_terms = 0.2:0:0\n"
                "T = 1e-3\ndt = 1e-7\noutput_times = 2e-7, 3e-7\n")
    out = tmp_path / "out"
    assert main(["flow", cfg, "-o", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: output_times: output times 2e-07 and 3e-07 "
                                       "share the snapshot file flow_t0.000000.csv\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("steps", ["T = inf\ndt = 0.1", "T = 1e300\ndt = 1e-300",
                                   "T = nan\ndt = 0.1", "T = 1\ndt = nan"],
                         ids=["T-inf", "T-over-dt-overflows", "T-nan", "dt-nan"])
def test_flow_without_finite_step_count_is_config_error(tmp_path, capsys, steps):
    cfg = write(tmp_path / "c.cfg", f"n_nodes = 256\n{steps}\noutput_times = 1\n")
    out = tmp_path / "out"
    assert main(["flow", cfg, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: T, dt, output_times: need T >= 0, dt > 0")
    assert not (out / "flow.json").exists()


def test_flow_with_too_many_steps_is_config_error(tmp_path, capsys):
    # 10^15 steps: rejected before the time grid (7 PiB) is built
    cfg = write(tmp_path / "c.cfg", "n_nodes = 64\nT = 1000000\ndt = 1e-9\n")
    out = tmp_path / "out"
    assert main(["flow", cfg, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: T, dt, output_times: T=1000000.0 with dt=1e-09 takes "
                   "1000000000000000 steps, more than the 100000000 a run may take\n")
    assert not (out / "flow.json").exists()


def test_fit_expansion_round_trip(tmp_path):
    grid = RadialGrid(-30.0, math.log(0.5), 1024)
    field = RadialField.from_function(grid, lambda x: 2 * x + 5 * x ** 2)
    field.write_csv(tmp_path / "field.csv")
    E = closure((IndexTerm(1, 0),), 2)
    (tmp_path / "eset.json").write_text(json.dumps(E.to_json_dict()))
    cfg = write(tmp_path / "c.cfg",
                f"field_csv = {tmp_path / 'field.csv'}\n"
                f"index_set_json = {tmp_path / 'eset.json'}\n"
                "window_lo = 1e-6\nwindow_hi = 1e-2\n")
    out = tmp_path / "out"
    assert main(["fit-expansion", cfg, "-o", str(out)]) == 0
    data = json.loads((out / "fit.json").read_text())
    coefs = {(c["z"], c["k"]): c["a"] for c in data["coefficients"]}
    assert abs(coefs[(1.0, 0)] - 2) < 1e-8
    assert abs(coefs[(2.0, 0)] - 5) < 1e-6


_GOOD_TERMS = '[{"z": 1, "k": 0}]'


@pytest.mark.parametrize("csv_text, json_text, key, field", [
    (None, "[1, 2]", "index_set_json", "top level"),
    (None, '{"terms": 5, "cutoff": 2}', "index_set_json", "'terms'"),
    (None, '{"cutoff": 2}', "index_set_json", "missing field 'terms'"),
    (None, '{"terms": [{"k": 0}], "cutoff": 2}', "index_set_json",
     "missing field 'terms[0].z'"),
    (None, '{"terms": ' + _GOOD_TERMS + "}", "index_set_json", "missing field 'cutoff'"),
    (None, '{"terms": [{"z": 1,', "index_set_json", "line 1"),
    ("x,value\n0.1,abc\n", '{"terms": ' + _GOOD_TERMS + ', "cutoff": 2}', "field_csv",
     "abc"),
    (None, '{"terms": [{"z": 1, "k": 1.5}], "cutoff": 2}', "index_set_json",
     "ill-typed field 'terms[0].k'"),
    (None, '{"cutoff": 0.5, "terms": []}', "index_set_json", "index set has no terms"),
    ("x,value\n0.1,1\n", '{"terms": ' + _GOOD_TERMS + ', "cutoff": 2}', "field_csv",
     "got 1"),
    ("x,value\n", '{"terms": ' + _GOOD_TERMS + ', "cutoff": 2}', "field_csv", "got 0"),
    # 64 headerless rows, once read as a field of 63 nodes without the deepest
    ("".join(f"{math.exp(t / 4)!r},{math.exp(t / 4)!r}\n" for t in range(-67, -3)),
     '{"terms": ' + _GOOD_TERMS + ', "cutoff": 2}', "field_csv", "header line x,value"),
], ids=["top-level-list", "terms-not-list", "missing-terms", "missing-z",
        "missing-cutoff", "truncated-json", "unparseable-csv", "fractional-k",
        "no-terms", "one-row-csv", "header-only-csv", "headerless-csv"])
def test_fit_expansion_bad_input_files_name_key_path_and_field(
        tmp_path, capsys, csv_text, json_text, key, field):
    csv_path, json_path = tmp_path / "field.csv", tmp_path / "eset.json"
    if csv_text is None:
        grid = RadialGrid(-30.0, math.log(0.5), 256)
        RadialField.from_function(grid, lambda x: 2 * x).write_csv(csv_path)
    else:
        csv_path.write_text(csv_text)
    json_path.write_text(json_text)
    cfg = write(tmp_path / "c.cfg",
                f"field_csv = {csv_path}\nindex_set_json = {json_path}\n")
    assert main(["fit-expansion", cfg, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    path = csv_path if key == "field_csv" else json_path
    assert err.startswith(f"config error: {key} {path}: ")
    assert field in err


@pytest.mark.parametrize("key", ["field_csv", "index_set_json"])
def test_fit_expansion_input_that_cannot_be_read_is_config_error_naming_it(
        tmp_path, capsys, monkeypatch, key):
    # an OSError from open once escaped main as a traceback
    paths = {"field_csv": tmp_path / "field.csv", "index_set_json": tmp_path / "eset.json"}
    grid = RadialGrid(-30.0, math.log(0.5), 256)
    RadialField.from_function(grid, lambda x: 2 * x).write_csv(paths["field_csv"])
    paths["index_set_json"].write_text(json.dumps(closure((IndexTerm(1, 0),), 2).to_json_dict()))
    cfg = write(tmp_path / "c.cfg", "".join(f"{k} = {p}\n" for k, p in paths.items()))
    real_open = io.open

    def refusing_open(file, *args, **kwargs):
        if str(file) == str(paths[key]):
            raise PermissionError(errno.EACCES, "Permission denied", str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", refusing_open)   # RadialField.read_csv
    monkeypatch.setattr(io, "open", refusing_open)   # Path.read_text
    out = tmp_path / "out"
    assert main(["fit-expansion", cfg, "-o", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: {paths[key]}: cannot read {key}: "
                                       "Permission denied\n")
    assert not (out / "fit.json").exists()


@pytest.mark.parametrize("window", [
    "window_lo = nan\nwindow_hi = nan", "window_lo = -1e-2\nwindow_hi = -1e-6",
    "window_lo = 1e-6\nwindow_hi = inf", "window_lo = 1e-2\nwindow_hi = 1e-6",
    "window_lo = 1e-6", "window_hi = 1e-2",
], ids=["nan", "negative", "inf", "reversed", "lo-only", "hi-only"])
def test_fit_expansion_window_keys_are_checked(tmp_path, capsys, window):
    # NaN or negative bounds once fell back to the default window and exited
    # 0, echoing a non-JSON NaN into fit.json; the rule reads both keys, so
    # it names both (one key once took the blame for the other's value)
    grid = RadialGrid(-30.0, math.log(0.5), 256)
    RadialField.from_function(grid, lambda x: 2 * x).write_csv(tmp_path / "field.csv")
    (tmp_path / "eset.json").write_text(json.dumps(closure((IndexTerm(1, 0),), 2).to_json_dict()))
    cfg = write(tmp_path / "c.cfg", f"field_csv = {tmp_path / 'field.csv'}\n"
                                    f"index_set_json = {tmp_path / 'eset.json'}\n{window}\n")
    out = tmp_path / "out"
    assert main(["fit-expansion", cfg, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: window_lo, window_hi: must be finite with 0 < window_lo < window_hi "
        "(both 0 for the default window), got ")
    assert not (out / "fit.json").exists()


@pytest.mark.parametrize("n_nodes, window, key", [
    (256, "window_lo = 1e-3\nwindow_hi = 1.0001e-3", "window_lo, window_hi"),
    (8, "", "field_csv"),   # the default window of a coarse grid
], ids=["narrow-window", "coarse-default-window"])
def test_fit_expansion_window_without_enough_samples_is_named(tmp_path, capsys,
                                                              n_nodes, window, key):
    # once only "config error: window [...] holds 0 samples; ...", naming no key
    csv_path = tmp_path / "field.csv"
    grid = RadialGrid(-30.0, math.log(0.5), n_nodes)
    RadialField.from_function(grid, lambda x: 2 * x).write_csv(csv_path)
    (tmp_path / "eset.json").write_text(json.dumps(closure((IndexTerm(1, 0),), 2).to_json_dict()))
    cfg = write(tmp_path / "c.cfg", f"field_csv = {csv_path}\n"
                                    f"index_set_json = {tmp_path / 'eset.json'}\n{window}\n")
    out = tmp_path / "out"
    assert main(["fit-expansion", cfg, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    named = f"{key} {csv_path}" if key == "field_csv" else key
    assert err.startswith(f"config error: {named}: window [") and "samples; need at least" in err
    assert not (out / "fit.json").exists()


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-0.02"])
def test_logterm_pipeline_tolerance_is_checked_before_the_solve(tmp_path, capsys, tolerance):
    # NaN once exited 0 with "passed": false and a non-JSON NaN in logterm.json
    cfg = write(tmp_path / "c.cfg", f"n_nodes = 1024\nf_terms = 1.5:1:0\ntolerance = {tolerance}\n")
    out = tmp_path / "out"
    assert main(["logterm-pipeline", cfg, "-o", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: tolerance must be finite and > 0, "
                                       f"got {float(tolerance)}\n")
    assert not any(out.iterdir())


def test_logterm_pipeline_passes(tmp_path):
    cfg = write(tmp_path / "c.cfg",
                "n_nodes = 2048\nf_terms = 1.5:1:0, 0:2:0\ntolerance = 0.02\n")
    out = tmp_path / "out"
    assert main(["logterm-pipeline", cfg, "-o", str(out)]) == 0
    data = json.loads((out / "logterm.json").read_text())
    assert data["passed"] is True
    assert abs(data["b_tilde_fitted"] - 1.0) <= 0.02
    assert data["b_tilde_predicted"] == 1.0


def test_logterm_pipeline_zero_source(tmp_path):
    cfg = write(tmp_path / "c.cfg",
                "n_nodes = 1024\nf_terms = 0:1:0\ntolerance = 0.02\n")
    out = tmp_path / "out"
    assert main(["logterm-pipeline", cfg, "-o", str(out)]) == 0
    data = json.loads((out / "logterm.json").read_text())
    assert data["passed"] is True
    assert abs(data["b_tilde_fitted"]) < 1e-6


def test_logterm_pipeline_negative_source(tmp_path):
    cfg = write(tmp_path / "c.cfg",
                "n_nodes = 2048\nf_terms = -1:1:0\ntolerance = 0.02\n")
    out = tmp_path / "out"
    assert main(["logterm-pipeline", cfg, "-o", str(out)]) == 0
    data = json.loads((out / "logterm.json").read_text())
    assert data["passed"] is True
    assert abs(data["b_tilde_fitted"] + 2.0 / 3.0) <= 0.02


def _logterm(tmp_path, text: str) -> dict:
    cfg = write(tmp_path / "c.cfg", text)
    assert main(["logterm-pipeline", cfg, "-o", str(tmp_path / "out")]) == 0
    return json.loads((tmp_path / "out" / "logterm.json").read_text())


def test_logterm_pipeline_extrapolates_over_three_grids(tmp_path):
    data = _logterm(tmp_path, "f_terms = 1.5:1:0\n")
    assert data["extrapolated"] is True and data["reliable"] is True
    assert data["extrapolation_error"] is None
    assert [g["n_nodes"] for g in data["grids"]] == [4096, 2048, 1024]
    assert data["b_tilde_single_grid"] == data["grids"][0]["b_tilde"]
    assert abs(data["b_tilde_single_grid"] - 1.0) > 2e-4   # the detector's h^2 bias
    assert abs(data["b_tilde_fitted"] - 1.0) <= 1e-6
    assert abs(data["b_tilde_fitted"] - 1.0) <= data["uncertainty"] <= 1e-6
    assert data["window_values"][0] == data["b_tilde_fitted"]


def test_logterm_pipeline_falls_back_to_the_fine_grid(tmp_path):
    # 64 nodes cannot hold the detector's windows: one grid, its window spread
    data = _logterm(tmp_path, "n_nodes = 256\nf_terms = 1.5:1:0\n")
    assert data["extrapolated"] is False
    assert [g["n_nodes"] for g in data["grids"]] == [256]
    assert data["b_tilde_fitted"] == data["b_tilde_single_grid"] == data["window_values"][0]
    assert data["uncertainty"] == max(abs(v - data["window_values"][0])
                                      for v in data["window_values"])


def test_logterm_pipeline_says_why_it_did_not_extrapolate(tmp_path):
    # the 64-node grid's windows move, and the last holds too few samples
    # for even the two-term fit: logterm.json names that refusal
    data = _logterm(tmp_path, "n_nodes = 256\nf_terms = 1.5:1:0\n")
    assert data["extrapolated"] is False
    assert data["extrapolation_error"] == ("64 nodes: window [1.71e-14, 5.41e-13] holds "
                                           "5 samples; need at least 6 for 2 terms")
    lo, hi = _detector_windows(RadialGrid(DEFAULT_GRID.t_min, DEFAULT_GRID.t_max, 64))[-1]
    assert f"[{lo:.3g}, {hi:.3g}]" == "[1.71e-14, 5.41e-13]"


@pytest.mark.parametrize("terms", ["2:2:0", "3:3:0", "1:1.5:0"])
def test_logterm_pipeline_reports_no_reliable_log_term_without_one(tmp_path, terms):
    data = _logterm(tmp_path, f"f_terms = {terms}\n")
    assert data["reliable"] is False and data["b_tilde_predicted"] == 0.0


def test_b_tilde_predicted_is_one_over_the_indicial_slope_at_1(tmp_path):
    family, z = fitting.MA_LINEARIZATION, fitting.LOG_ROOT   # the one owner, the detector's

    def P(w):
        return family.c / 2 * (w * w + w) - family.lam

    assert P(z) == 0 and z == 1 and isinstance(z, Fraction)   # exact
    slope = fitting.P_PRIME_AT_LOG_ROOT
    assert slope == (P(z + 1) - P(z - 1)) / 2   # a central difference, exact on a quadratic
    assert float(1 / slope) == 2.0 / 3.0   # 0.6666666666666666, as logterm.json has it
    a = 0.3
    data = _logterm(tmp_path, f"n_nodes = 256\nf_terms = {a}:1:0\n")
    assert data["source_x_coefficient"] == a
    assert data["b_tilde_predicted"] == float(1 / slope) * a


def test_sweep_fans_out(tmp_path):
    sub1 = write(tmp_path / "a.cfg", "command = chern-coeff\nd = 5\n")
    sub2 = write(tmp_path / "b.cfg",
                 "command = indicial\nlambda = 1\nc = 1\nspectrum = 0\ncutoff = 2\n")
    cfg = write(tmp_path / "sweep.cfg",
                f"configs = {sub1}, {sub2}\nmax_workers = 2\n")
    out = tmp_path / "out"
    assert main(["sweep", cfg, "-o", str(out)]) == 0
    assert (out / "a" / "chern.json").is_file()
    assert (out / "b" / "indicial.json").is_file()
    summary = json.loads((out / "sweep.json").read_text())
    assert len(summary["runs"]) == 2


def test_sweep_relative_entries_follow_sweep_file(tmp_path, monkeypatch):
    (tmp_path / "sub").mkdir()
    write(tmp_path / "sub" / "item.cfg", "command = chern-coeff\nd = 5\n")
    write(tmp_path / "sub" / "sweep.cfg", "configs = item.cfg\n")
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "sub/sweep.cfg", "-o", "out"]) == 0
    assert (tmp_path / "out" / "item" / "chern.json").is_file()


def test_sweep_subconfig_needs_command(tmp_path):
    sub = write(tmp_path / "a.cfg", "d = 5\n")
    cfg = write(tmp_path / "sweep.cfg", f"configs = {sub}\n")
    assert main(["sweep", cfg, "-o", str(tmp_path / "out")]) == 2


def test_single_worker_sweep_runs_every_item_past_a_failure(tmp_path, capsys):
    bad = write(tmp_path / "a.cfg", "d = 5\n")
    good = write(tmp_path / "b.cfg", "command = chern-coeff\nd = 5\n")
    cfg = write(tmp_path / "sweep.cfg", f"configs = {bad}, {good}\nmax_workers = 1\n")
    out = tmp_path / "out"
    assert main(["sweep", cfg, "-o", str(out)]) == 2
    assert "needs a 'command' key" in capsys.readouterr().err
    assert (out / "b" / "chern.json").is_file()
    assert not (out / "sweep.json").exists()


def test_sweep_names_every_failed_item(tmp_path, capsys):
    bad = write(tmp_path / "a.cfg", "d = 5\n")
    also_bad = write(tmp_path / "b.cfg", "command = chern-coeff\nd = 3\n")
    good = write(tmp_path / "c.cfg", "command = chern-coeff\nd = 5\n")
    cfg = write(tmp_path / "sweep.cfg", f"configs = {bad}, {good}, {also_bad}\n")
    out = tmp_path / "out"
    assert main(["sweep", cfg, "-o", str(out)]) == 2
    # the first failure in config order, then each later one on its own line
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {bad}: sweep sub-config needs a 'command' key",
        f"sweep item {also_bad} also failed: d: plane-curve degree must be an "
        f"integer >= 4, got 3 (for d <= 3 the adjoint bundle is not positive)",
    ]
    assert (out / "c" / "chern.json").is_file()
    assert not (out / "sweep.json").exists()
    # a failed item leaves no directory of its own, but keeps one it found
    assert sorted(p.name for p in out.iterdir()) == ["c"]
    (out / "b").mkdir()
    assert main(["sweep", cfg, "-o", str(out)]) == 2
    assert (out / "b").is_dir()


def test_sweep_with_one_failed_item_prints_one_line(tmp_path, capsys):
    bad = write(tmp_path / "a.cfg", "d = 5\n")
    good = write(tmp_path / "b.cfg", "command = chern-coeff\nd = 5\n")
    cfg = write(tmp_path / "sweep.cfg", f"configs = {good}, {bad}\nmax_workers = 2\n")
    assert main(["sweep", cfg, "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {bad}: sweep sub-config needs a 'command' key\n")


def test_sweep_first_failure_names_its_sub_config_once(tmp_path, capsys):
    bad = write(tmp_path / "a.cfg", "command = chern-coeff\nd = 1/0\n")
    also_bad = write(tmp_path / "b.cfg", "command = chern-coeff\nd = 1/0\n")
    cfg = write(tmp_path / "sweep.cfg", f"configs = {bad}, {also_bad}\n")
    assert main(["sweep", cfg, "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: d: bad integer value '1/0'",
        f"sweep item {bad} failed first",
        f"sweep item {also_bad} also failed: d: bad integer value '1/0'",
    ]


def test_sweep_later_failure_names_its_sub_config_once(tmp_path, capsys):
    bad = write(tmp_path / "n1.cfg", "d = 5\n")
    also_bad = write(tmp_path / "n2.cfg", "d = 5\n")
    cfg = write(tmp_path / "sweep.cfg", f"configs = {bad}, {also_bad}\n")
    assert main(["sweep", cfg, "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {bad}: sweep sub-config needs a 'command' key",
        f"sweep item also failed: {also_bad}: sweep sub-config needs a 'command' key",
    ]


def test_output_directory_that_cannot_be_made_is_config_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    cfg = write(tmp_path / "c.cfg", "d = 5\n")
    for target in (afile, afile / "sub"):
        assert main(["chern-coeff", cfg, "-o", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {target}: cannot make output directory: ")
        assert err.count("\n") == 1


def test_sweep_item_directory_that_cannot_be_made_is_config_error(tmp_path, capsys):
    sub = write(tmp_path / "a.cfg", "command = chern-coeff\nd = 5\n")
    cfg = write(tmp_path / "sweep.cfg", f"configs = {sub}\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "a").write_text("")
    assert main(["sweep", cfg, "-o", str(out)]) == 2
    first, note = capsys.readouterr().err.splitlines()
    assert first.startswith(f"config error: {out / 'a'}: cannot make output directory: ")
    assert note == f"sweep item {sub} failed first"


@pytest.mark.parametrize("artifact", ["solution.csv", "solve_ma.json"])
def test_an_artifact_that_cannot_be_written_is_config_error_naming_it(tmp_path, capsys,
                                                                      artifact):
    cfg = write(tmp_path / "c.cfg", "n_nodes = 64\nf_terms = 1.5:1:0\n")
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    assert main(["solve-ma", cfg, "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {out / artifact}: cannot write output file: Is a directory\n")


def test_a_config_file_that_is_not_utf8_is_config_error_naming_it(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"d = 5\n\xff\n")
    sweep = write(tmp_path / "sweep.cfg", f"configs = {cfg}\n")
    expected = (f"config error: {cfg}: cannot read config file: 'utf-8' codec can't decode "
                f"byte 0xff in position 6: invalid start byte\n")
    for command, path in (("chern-coeff", str(cfg)), ("sweep", sweep)):
        assert main([command, path, "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == expected


def test_sweep_subconfig_duplicate_key_rejected(tmp_path, capsys):
    sub = write(tmp_path / "a.cfg", "command = chern-coeff\nd = 5\nd = 6\n")
    cfg = write(tmp_path / "sweep.cfg", f"configs = {sub}\n")
    out = tmp_path / "out"
    assert main(["sweep", cfg, "-o", str(out)]) == 2
    assert "duplicate key 'd'" in capsys.readouterr().err
    assert not (out / "a").exists()


def test_sweep_stem_collision_rejected(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    sub1 = write(tmp_path / "a" / "x.cfg", "command = chern-coeff\nd = 5\n")
    sub2 = write(tmp_path / "b" / "x.cfg", "command = chern-coeff\nd = 7\n")
    cfg = write(tmp_path / "sweep.cfg", f"configs = {sub1}, {sub2}\n")
    out = tmp_path / "out"
    assert main(["sweep", cfg, "-o", str(out)]) == 2
    assert "x" in capsys.readouterr().err
    assert not (out / "x").exists()


def test_outputs_are_deterministic(tmp_path):
    cfg = write(tmp_path / "c.cfg", "n_nodes = 512\nf_terms = 1.5:1:0\n")
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["solve-ma", cfg, "-o", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "solve_ma.json").read_bytes() == (outs[1] / "solve_ma.json").read_bytes()
    assert (outs[0] / "solution.csv").read_bytes() == (outs[1] / "solution.csv").read_bytes()


def test_output_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv("CUSPASYM_OUTDIR", str(tmp_path / "envout"))
    cfg = write(tmp_path / "c.cfg", "d = 4\n")
    assert main(["chern-coeff", cfg]) == 0
    assert (tmp_path / "envout" / "chern.json").is_file()


def test_numerical_failure_exits_three(tmp_path, capsys):
    cfg = write(tmp_path / "c.cfg",
                "n_nodes = 512\nf_terms = 1.5:1:0\nmax_iter = 1\ntol = 1e-30\n")
    assert main(["solve-ma", cfg, "-o", str(tmp_path / "out")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_indicial_extended_union_output(tmp_path):
    cfg = write(tmp_path / "c.cfg",
                "lambda = 1\nc = 1\nspectrum = 0\nalpha = 0\ncutoff = 3\n"
                "union_terms = 0:1\n")
    out = tmp_path / "out"
    assert main(["indicial", cfg, "-o", str(out)]) == 0
    data = json.loads((out / "indicial.json").read_text())
    pairs = {(t["z"], t["k"]) for t in data["extended_union"]["terms"]}
    # hat E+ holds (1,0); the extra set holds (1,0) and (1,1); stacking at
    # z = 1 tops out at k = 0 + 1 + 1 = 2
    assert (1.0, 2) in pairs and (1.0, 1) in pairs and (1.0, 0) in pairs


def test_indicial_cutoff_beyond_the_shift_bound_is_named(tmp_path, capsys):
    # one chain from the root 1 to the cutoff: once followed shift by shift
    # (about 1 s here, and never returning at cutoff = 1e308)
    cutoff = 2 + indexsets._MAX_SHIFTS
    cfg = write(tmp_path / "c.cfg", f"lambda = 1\nc = 1\nspectrum = 0\ncutoff = {cutoff}\n")
    out = tmp_path / "out"
    assert main(["indicial", cfg, "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: alpha, cutoff: cutoff {cutoff} lies more than "
        f"{indexsets._MAX_SHIFTS} integer shifts above the lowest exponent 1\n")
    assert not (out / "indicial.json").exists()


@pytest.mark.parametrize("command, text, message", [
    # an exact z that no float holds: once an OverflowError traceback
    pytest.param("indicial", "lambda = 1\nc = 1\nspectrum = 0\ncutoff = 3\nunion_terms = 1"
                 + "0" * 400 + ":0\n",
                 "union_terms: exponent must be finite, got a rational beyond the float range",
                 id="indicial-union-z-10^400"),
    # a log power below 0, once named by no key
    ("indicial", "lambda = 1\nc = 1\nspectrum = 0\ncutoff = 3\nunion_terms = 1:-1\n",
     "union_terms: log power k must be a nonnegative integer, got -1"),
    pytest.param("solve-ma", "n_nodes = 4\nf_terms = 1.5:1:0\n",
                 "t_min, t_max, n_nodes: need n_nodes >= 8, got 4",
                 id="solve-ma-n_nodes = 4\nf_terms = 1.5:1:0\n-need n_nodes >= 8, got 4"),
    # x^inf is 0 on the grid: once exit 0 with the non-JSON Infinity in the config echo
    ("solve-ma", "n_nodes = 64\nf_terms = 0.5:inf:0\n",
     "f_terms: a term exponent is not finite"),
    # once a FileNotFoundError traceback, as the directory "sub" is not there
    ("solve-ma", "n_nodes = 64\nf_terms = 1.5:1:0\nsolution_csv = sub/u.csv\n",
     "solution_csv: must be a file name in the output directory, got 'sub/u.csv'"),
    ("logterm-pipeline", "t_min = -4\nn_nodes = 64\nf_terms = 1.5:1:0\n",
     "t_min, t_max, n_nodes: grid too shallow for the sliding-window detector"),
    ("fit-expansion", "field_csv = absent.csv\nindex_set_json = absent.json\n",
     "field_csv absent.csv: no such file"),
    # a degree the library refuses: once reported without its key
    *(pytest.param("chern-coeff", f"d = {d}\n",
                   f"d: plane-curve degree must be an integer >= 4, got {d} "
                   "(for d <= 3 the adjoint bundle is not positive)", id=f"chern-coeff-d={d}")
      for d in (3, 0, -1)),
])
def test_a_rejected_value_names_its_key(tmp_path, capsys, monkeypatch, command, text, message):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path / "c.cfg", text)
    assert main([command, cfg, "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_a_grid_too_shallow_for_the_detector_keeps_the_solution_written_first(tmp_path, capsys):
    # the solve succeeds and its CSV is written before the detector refuses
    # the grid, by the grid keys
    cfg = write(tmp_path / "c.cfg", "t_min = -4\nn_nodes = 64\nf_terms = 1.5:1:0\n")
    out = tmp_path / "out"
    assert main(["logterm-pipeline", cfg, "-o", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: t_min, t_max, n_nodes: grid too shallow "
                                       "for the sliding-window detector\n")
    assert sorted(p.name for p in out.iterdir()) == ["solution.csv"]
    grid = RadialGrid(-4.0, DEFAULT_GRID.t_max, 64)
    u, _ = solve_monge_ampere_radial(MongeAmpereProblem(ModelMetric(),
                                                        RadialField(grid, 1.5 * grid.x)))
    assert RadialField.read_csv(out / "solution.csv").values.tobytes() == u.values.tobytes()
