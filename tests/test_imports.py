"""Import graph: scipy is loaded only by the functions that use it, and the
exact-arithmetic modules import nothing outside the standard library.

Each runtime check runs in a fresh interpreter, since the test process
itself has long since imported scipy.  ``scipy.linalg`` belongs to
``radial.solve_tridiagonal`` and ``scipy.integrate`` to
``parabolic.restricted_ode_solution``; importing the package or running a
command that solves nothing loads neither.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from cuspasym.indexsets import IndexTerm, closure
from cuspasym.radial import RadialField, RadialGrid

SRC = Path(__file__).resolve().parents[1] / "src"

#: appended to every child script: the scipy modules it ended with
_REPORT = ("\nimport json, sys\n"
           "print(json.dumps(sorted(m for m in sys.modules "
           "if m.split('.')[0] == 'scipy')))\n")


def run_fresh(code: str, cwd: Path) -> list[str]:
    """Run ``code`` in a new interpreter; the scipy modules it loaded."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code + _REPORT], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_command(command: str, cfg_text: str, tmp_path: Path) -> list[str]:
    """Run one CLI command in a new interpreter, asserting exit 0."""
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(cfg_text)
    argv = [command, str(cfg), "-o", str(tmp_path / "out")]
    return run_fresh(f"from cuspasym.cli import main\nassert main({argv!r}) == 0",
                     tmp_path)


def test_exact_modules_import_only_stdlib_and_package():
    for name in ("indexsets.py", "indicial.py", "chern.py"):
        tree = ast.parse((SRC / "cuspasym" / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:  # a relative import stays inside the package
                continue
            assert all(top in sys.stdlib_module_names or top == "cuspasym"
                       for top in tops), (name, tops)


def test_package_import_loads_no_scipy(tmp_path):
    assert run_fresh("import cuspasym, cuspasym.cli", tmp_path) == []


def test_indicial_loads_no_scipy(tmp_path):
    assert run_command("indicial", "lambda = 1\nc = 1\nspectrum = 0, 2\ncutoff = 3\n"
                       "union_terms = 1:0\n", tmp_path) == []


def test_chern_coeff_loads_no_scipy(tmp_path):
    assert run_command("chern-coeff", "d = 4\n", tmp_path) == []


def test_fit_expansion_loads_no_scipy(tmp_path):
    grid = RadialGrid(-30.0, math.log(0.5), 512)
    RadialField.from_function(grid, lambda x: 2 * x + 5 * x ** 2).write_csv(
        tmp_path / "field.csv")
    (tmp_path / "eset.json").write_text(
        json.dumps(closure((IndexTerm(1, 0),), 2).to_json_dict()))
    assert run_command("fit-expansion",
                       f"field_csv = {tmp_path / 'field.csv'}\n"
                       f"index_set_json = {tmp_path / 'eset.json'}\n", tmp_path) == []


def test_solve_ma_loads_linalg_not_integrate(tmp_path):
    loaded = run_command("solve-ma", "n_nodes = 512\nf_terms = 1.5:1:0\n", tmp_path)
    assert "scipy.linalg" in loaded
    assert "scipy.integrate" not in loaded


def test_restricted_ode_first_call_in_cold_process(tmp_path):
    code = ("from cuspasym import restricted_ode_solution\n"
            "res = restricted_ode_solution([2.0, 0.5], 1.0)\n"
            "assert res.max_discrepancy < 1e-8, res.max_discrepancy\n")
    assert "scipy.integrate" in run_fresh(code, tmp_path)


def _sweep(tmp_path: Path, workers: int) -> dict:
    """Artifacts of a two-item solve-ma sweep run as a fresh CLI process."""
    out = tmp_path / f"out{workers}"
    cfg = tmp_path / f"sweep{workers}.cfg"
    cfg.write_text(f"configs = a.cfg, b.cfg\nmax_workers = {workers}\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "cuspasym.cli", "sweep", str(cfg),
                           "-o", str(out)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads((out / "sweep.json").read_text())["runs"]
    files = {p.relative_to(out): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file() and p.name != "sweep.json"}
    return {"runs": runs, "files": files}


def test_concurrent_first_solves_match_serial_sweep(tmp_path):
    # with two workers both threads reach the first solve, and so the
    # deferred scipy.linalg import, together
    (tmp_path / "a.cfg").write_text("command = solve-ma\nn_nodes = 2048\n"
                                    "f_terms = 1.5:1:0\n")
    (tmp_path / "b.cfg").write_text("command = logterm-pipeline\nn_nodes = 2048\n"
                                    "f_terms = 0.75:1:0\n")
    parallel, serial = _sweep(tmp_path, 2), _sweep(tmp_path, 1)
    assert len(parallel["files"]) == 4
    assert parallel == serial
