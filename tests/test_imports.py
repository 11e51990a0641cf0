"""Import graph: scipy is loaded only by the functions that use it, numpy
only by the commands that compute with it, the exact-arithmetic modules
import nothing outside the standard library, and the solver modules import
neither the fits nor the index algebra.

Each runtime check runs in a fresh interpreter, since the test process
itself has long since imported scipy.  The package reaches LAPACK through
``radial._lapack``, which loads the one extension ``scipy.linalg._flapack``
and no other scipy module, not even the top-level ``scipy`` (unless the
extension fails to load without it); no package code imports
``scipy.integrate``, not even ``parabolic.restricted_ode_solution``, whose
second route is the ODE's exact solution, and no command loads
``concurrent.futures``.  Importing the package or running a command that
solves nothing loads none of them.  The extension it loads is the very module
a later ``import scipy.linalg`` binds, loaded once however many threads reach
their first solve together.

The package ``__init__`` is lazy (PEP 562), and ``cli`` binds each package
module a command calls as a deferred module, executed when a command first
reads it: ``indicial`` and ``chern-coeff`` load no numpy, and each command
executes only the package modules it calls.
"""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cuspasym.indexsets import IndexTerm, closure
from cuspasym.radial import RadialField, RadialGrid

SRC = Path(__file__).resolve().parents[1] / "src"

#: appended to every child script: the scipy* and concurrent.* modules it
#: ended with
_REPORT = ("\nimport json, sys\n"
           "print(json.dumps(sorted(m for m in sys.modules "
           "if m.startswith(('scipy', 'concurrent')))))\n")


#: appended to a child script instead: the package modules it executed (a
#: deferred module that nothing has read keeps the LazyLoader's class, and
#: ``type`` does not load it) and the numpy* and scipy* modules it loaded
_EXECUTED = ("\nimport json, sys, types\n"
             "print(json.dumps({'executed': sorted(\n"
             "    m for m, module in sys.modules.items()\n"
             "    if m.startswith('cuspasym.') and type(module) is types.ModuleType),\n"
             "    'numpy_or_scipy': sorted(m for m in sys.modules\n"
             "                             if m.split('.')[0] in ('numpy', 'scipy'))}))\n")


def run_fresh(code: str, cwd: Path, report: str = _REPORT):
    """Run ``code`` in a new interpreter; what ``report`` prints at its end,
    by default the scipy* and concurrent.* modules it loaded."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code + report], cwd=cwd, env=env,
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
    for name in ("indexsets.py", "indicial.py", "chern.py", "defaults.py"):
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


def test_only_the_cli_names_its_config_error():
    # exit 2 is the CLI's verdict on a config: the library raises ValueError,
    # and the CLI names the keys at fault
    def names(path: Path):   # variables, attributes and imported names
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name

    allowed = {"cli.py", "errors.py", "__init__.py"}
    assert [path.name for path in sorted((SRC / "cuspasym").glob("*.py"))
            if path.name not in allowed and "ConfigError" in names(path)] == []


def test_every_dataclass_has_a_docstring():
    # without one, @dataclass builds a __doc__ from inspect.signature each
    # time the class is created, in every process that loads its module
    bare = [f"{path.stem}.{node.name}"
            for path in sorted((SRC / "cuspasym").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef) and not ast.get_docstring(node)
            and any("dataclass" in ast.unparse(d) for d in node.decorator_list)]
    assert bare == []


#: the solver modules, and the package modules that none of them imports:
#: the fits and the exact index algebra sit above the solvers
SOLVER_MODULES = ("radial.py", "geometry.py", "elliptic.py", "parabolic.py")
ABOVE_THE_SOLVERS = {"fitting", "indexsets", "indicial"}


def _package_imports(name: str) -> set[str]:
    """The package modules that ``name`` imports anywhere, a function's
    imports included."""
    found = set()
    for node in ast.walk(ast.parse((SRC / "cuspasym" / name).read_text())):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "cuspasym." + (node.module or "") if node.level else node.module
            paths = [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        found |= {path.split(".")[1] for path in paths if path.startswith("cuspasym.")}
    return found


def test_solver_modules_import_no_fit_or_index_algebra():
    assert _package_imports("fitting.py") >= {"radial", "indexsets", "indicial"}
    for name in SOLVER_MODULES:
        assert not _package_imports(name) & ABOVE_THE_SOLVERS, (name, _package_imports(name))


def test_package_import_loads_no_scipy(tmp_path):
    assert run_fresh("import cuspasym, cuspasym.cli", tmp_path) == []


def test_package_import_loads_no_numpy(tmp_path):
    assert run_fresh("import cuspasym", tmp_path, _EXECUTED) == {
        "executed": [], "numpy_or_scipy": []}
    assert run_fresh("import cuspasym.cli", tmp_path, _EXECUTED) == {
        "executed": ["cuspasym.cli", "cuspasym.defaults", "cuspasym.errors"],
        "numpy_or_scipy": []}


def _top_level_imports(name: str) -> set[str]:
    """The top-level names of the absolute imports that ``name`` makes when
    it is executed: everywhere but inside its functions."""
    found, nodes = set(), list(ast.parse((SRC / "cuspasym" / name).read_text()).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        nodes.extend(ast.iter_child_nodes(node))
    return found


def test_package_front_imports_no_numpy_at_module_top():
    assert "numpy" in _top_level_imports("radial.py")   # the walk finds one
    for name in ("__init__.py", "cli.py", "defaults.py"):
        assert not _top_level_imports(name) & {"numpy", "scipy"}, name


#: every public name of the package, by the module it was first exported from
PUBLIC_API = {
    "chern": ("ChernData", "log_coefficient", "log_coefficient_plane_curve",
              "plane_curve_chern"),
    "errors": ("ConfigError", "FitError", "SolverError"),
    "elliptic": ("LinearProblem", "MongeAmpereProblem", "NewtonParams", "solve_linear",
                 "solve_monge_ampere_radial"),
    "fitting": ("PolyhomFit", "detect_log_term", "extrapolate_log_term", "fit_polyhom",
                "remainder_check"),
    "geometry": ("ModelMetric", "cusp_laplacian"),
    "headline": ("LogTermHeadline", "log_term_headline"),
    "indexsets": ("IndexSet", "IndexTerm", "closure", "extended_union"),
    "indicial": ("IndicialFamily", "IndicialRoot", "count_complex_root_eigenvalues",
                 "index_set_Eplus", "index_set_hatEplus", "spec_b_roots"),
    "parabolic": ("DecayCertificate", "FlowProblem", "FlowState", "cusp_constant_evolution",
                  "cusp_constant_rk4", "decay_certificate", "fitted_boundary_constant",
                  "restricted_ode_solution", "run_flow"),
    "radial": ("DEFAULT_GRID", "RadialField", "RadialGrid", "evaluate_expansion"),
}


def test_every_public_name_resolves_to_its_owners_object():
    import cuspasym

    assert sorted(cuspasym.__all__) == sorted(n for names in PUBLIC_API.values() for n in names)
    for module, names in PUBLIC_API.items():
        owner = importlib.import_module(f"cuspasym.{module}")
        for name in names:
            assert getattr(cuspasym, name) is getattr(owner, name), (module, name)
    assert cuspasym.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'solve'"):
        cuspasym.solve


@pytest.mark.parametrize("first", ["", "import cuspasym.cli\n"])
def test_submodules_import_from_the_package(tmp_path, first):
    # the bench's form, in a fresh package and after the CLI deferred them
    code = (first + "import cuspasym\n"
            "from cuspasym import elliptic, fitting, parabolic\n"
            "assert (cuspasym.elliptic, cuspasym.fitting) == (elliptic, fitting)\n"
            "assert callable(elliptic.solve_monge_ampere_radial)\n"
            "assert callable(fitting.detect_log_term) and callable(parabolic.run_flow)\n")
    loaded = {"defaults", "elliptic", "errors", "fitting", "geometry", "indexsets", "indicial",
              "parabolic", "radial"} | ({"cli"} if first else set())
    assert run_fresh(code, tmp_path, _EXECUTED)["executed"] == sorted(
        f"cuspasym.{m}" for m in loaded)


def test_indicial_loads_no_scipy(tmp_path):
    assert run_command("indicial", "lambda = 1\nc = 1\nspectrum = 0, 2\ncutoff = 3\n"
                       "union_terms = 1:0\n", tmp_path) == []


def test_chern_coeff_loads_no_scipy(tmp_path):
    assert run_command("chern-coeff", "d = 4\n", tmp_path) == []


def _fit_config(tmp_path: Path) -> str:
    """A fit-expansion config whose field and index set it writes to ``tmp_path``."""
    grid = RadialGrid(-30.0, math.log(0.5), 512)
    RadialField.from_function(grid, lambda x: 2 * x + 5 * x ** 2).write_csv(
        tmp_path / "field.csv")
    (tmp_path / "eset.json").write_text(
        json.dumps(closure((IndexTerm(1, 0),), 2).to_json_dict()))
    return (f"field_csv = {tmp_path / 'field.csv'}\n"
            f"index_set_json = {tmp_path / 'eset.json'}\n")


def test_fit_expansion_loads_no_scipy(tmp_path):
    assert run_command("fit-expansion", _fit_config(tmp_path), tmp_path) == []


SOLVER_CONFIGS = {
    "solve-ma": "n_nodes = 512\nf_terms = 1.5:1:0\n",
    "solve-linear": "n_nodes = 512\nt_min = -20\nlambda = 1\nf_terms = 1.5:1:0\n",
    "flow": "n_nodes = 64\nconformal_terms = 0.2:0:0\nT = 0.1\ndt = 0.05\n",
    "logterm-pipeline": "n_nodes = 2048\nf_terms = 1.5:1:0, 0:2:0\n",
    "sweep": "configs = item.cfg\n",
}


@pytest.mark.parametrize("command", sorted(SOLVER_CONFIGS))
def test_solver_commands_load_only_the_lapack_extension(tmp_path, command):
    (tmp_path / "item.cfg").write_text("command = solve-ma\n" + SOLVER_CONFIGS["solve-ma"])
    loaded = run_command(command, SOLVER_CONFIGS[command], tmp_path)
    scipy_modules = [m for m in loaded if m.startswith("scipy")]
    assert scipy_modules == ["scipy.linalg._flapack"]
    assert "concurrent.futures" not in loaded, loaded   # a sweep runs its items in turn


EXACT_CONFIGS = {
    "indicial": "lambda = 1\nc = 1\nspectrum = 0, 2\ncutoff = 3\nunion_terms = 1:0\n",
    "chern-coeff": "d = 4\n",
}

#: the package modules each command executes besides ``defaults`` and
#: ``errors`` (and ``cli``, run as ``__main__``); the sweep runs one solve-ma
EXECUTES = {
    "indicial": {"indexsets", "indicial"},
    "chern-coeff": {"chern"},
    "solve-linear": {"radial", "geometry", "elliptic"},
    "solve-ma": {"radial", "geometry", "elliptic"},
    "flow": {"radial", "geometry", "parabolic"},
    "fit-expansion": {"radial", "indexsets", "indicial", "fitting"},
    "logterm-pipeline": {"radial", "geometry", "elliptic", "indexsets", "indicial",
                         "fitting", "headline"},
    "sweep": {"radial", "geometry", "elliptic"},
}


def run_cli_module(command: str, tmp_path: Path) -> dict:
    """Run ``python -m cuspasym.cli <command>`` on a small config in a new
    interpreter (by ``runpy``, as ``-m`` does), asserting exit 0: the package
    modules it executed and the numpy and scipy modules it loaded."""
    (tmp_path / "item.cfg").write_text("command = solve-ma\n" + SOLVER_CONFIGS["solve-ma"])
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(_fit_config(tmp_path) if command == "fit-expansion" else
                   {**EXACT_CONFIGS, **SOLVER_CONFIGS}[command])
    argv = ["-m", command, str(cfg), "-o", str(tmp_path / "out")]
    code = ("import runpy, sys\n"
            f"sys.argv = {argv!r}\n"
            "try:\n"
            "    runpy.run_module('cuspasym.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exit:\n"
            "    assert exit.code == 0, exit.code\n"
            "else:\n"
            "    raise AssertionError('the CLI did not exit')\n")
    return run_fresh(code, tmp_path, _EXECUTED)


@pytest.mark.parametrize("command", sorted(EXACT_CONFIGS))
def test_exact_commands_load_no_numpy(tmp_path, command):
    assert run_cli_module(command, tmp_path)["numpy_or_scipy"] == []


@pytest.mark.parametrize("command", sorted(EXECUTES))
def test_each_command_executes_only_the_modules_it_calls(tmp_path, command):
    assert run_cli_module(command, tmp_path)["executed"] == sorted(
        f"cuspasym.{m}" for m in EXECUTES[command] | {"defaults", "errors"})


#: a child's tridiagonal system, and its gtsv solution through the package
_SOLVE = ("import numpy as np\n"
          "from cuspasym import radial\n"
          "n = 64\n"
          "sub, diag, sup, rhs = np.random.default_rng(13).random((4, n))\n"
          "diag += 3.0\n")


def test_lapack_routines_are_the_ones_scipy_linalg_exports(tmp_path):
    # solve first, then import scipy.linalg: one module object, same routines
    code = _SOLVE + (
        "u = radial.solve_tridiagonal(sub, diag, sup, rhs)\n"
        "spd_solve = radial.factor_symmetric_tridiagonal(diag, -sup[:-1])\n"
        "v = spd_solve(rhs.copy())\n"
        "flapack = radial._lapack()\n"
        "import sys\n"
        "from scipy.linalg import lapack, solve_banded\n"
        "assert sys.modules['scipy.linalg._flapack'] is flapack\n"
        "assert lapack.dgtsv is flapack.dgtsv\n"
        "assert lapack.dpttrf is flapack.dpttrf\n"
        "assert lapack.dpttrs is flapack.dpttrs\n"
        "ab = np.zeros((3, n))\n"
        "ab[0, 1:], ab[1], ab[2, :-1] = sup[:-1], diag, sub[1:]\n"
        "assert solve_banded((1, 1), ab, rhs).tobytes() == u.tobytes()\n"
        "assert lapack.dptsv(diag, -sup[:-1], rhs)[2].tobytes() == v.tobytes()\n")
    assert "scipy.linalg" in run_fresh(code, tmp_path)


def test_lapack_reuses_an_extension_scipy_linalg_loaded(tmp_path):
    code = ("import scipy.linalg, sys\n" + _SOLVE +
            "def no_second_load():\n"
            "    raise AssertionError('_flapack loaded twice')\n"
            "radial._load_flapack = no_second_load\n"
            "radial.solve_tridiagonal(sub, diag, sup, rhs)\n"
            "assert radial._lapack() is sys.modules['scipy.linalg._flapack']\n")
    run_fresh(code, tmp_path)


def test_missing_lapack_extension_names_scipy_version_and_directory(tmp_path):
    # a scipy directory without linalg/_flapack found first on the path; the
    # version still comes from the installed distribution's metadata
    fake = tmp_path / "fake"
    (fake / "scipy").mkdir(parents=True)
    (fake / "scipy" / "__init__.py").write_text("raise AssertionError('scipy imported')\n")
    code = (f"import sys\nsys.path.insert(0, {str(fake)!r})\n"
            "from importlib.metadata import version\n"
            "from cuspasym import radial\n"
            "try:\n"
            "    radial._load_flapack()\n"
            "except ImportError as exc:\n"
            "    message = str(exc)\n"
            "else:\n"
            "    raise AssertionError('no ImportError')\n"
            f"expected = (f\"scipy {{version('scipy')}} has no LAPACK extension \"\n"
            f"            f\"_flapack in {fake / 'scipy' / 'linalg'}\")\n"
            "assert message == expected, message\n")
    assert run_fresh(code, tmp_path) == []


def test_extension_that_fails_to_load_alone_is_loaded_after_scipy(tmp_path):
    # the first load fails (as where only scipy's init makes the libraries
    # findable); the loader imports scipy and loads once more.  A load that
    # fails again raises the loader's own ImportError.
    code = _SOLVE + (
        "import importlib.util, sys\n"
        "real_from_spec = importlib.util.module_from_spec\n"
        "def flaky(fails):\n"
        "    calls = []\n"
        "    def from_spec(spec):\n"
        "        calls.append('scipy' in sys.modules)\n"
        "        if len(calls) <= fails:\n"
        "            raise ImportError('DLL load failed')\n"
        "        return real_from_spec(spec)\n"
        "    importlib.util.module_from_spec = from_spec\n"
        "    return calls\n"
        "calls = flaky(2)\n"
        "try:\n"
        "    radial._lapack()\n"
        "except ImportError as exc:\n"
        "    assert str(exc) == 'DLL load failed', exc\n"
        "else:\n"
        "    raise AssertionError('no ImportError')\n"
        "assert calls == [False, True], calls\n"
        "assert 'scipy.linalg._flapack' not in sys.modules\n"
        "calls = flaky(1)\n"
        "radial.solve_tridiagonal(sub, diag, sup, rhs)\n"
        "assert calls == [True, True], calls\n"
        "importlib.util.module_from_spec = real_from_spec\n"
        "from scipy.linalg import lapack\n"
        "assert radial._lapack().dgtsv is lapack.dgtsv\n")
    loaded = run_fresh(code, tmp_path)
    assert "scipy" in loaded and "scipy.linalg._flapack" in loaded


def test_threads_solving_together_load_lapack_once(tmp_path):
    code = _SOLVE + (
        "import sys, threading, time\n"
        "sys.setswitchinterval(1e-6)\n"
        "loads = []\n"
        "real_load = radial._load_flapack\n"
        "def counted_load():\n"
        "    loads.append(1)\n"
        "    time.sleep(0.05)  # hold the other threads at the lock\n"
        "    return real_load()\n"
        "radial._load_flapack = counted_load\n"
        "barrier = threading.Barrier(8)\n"
        "modules, solutions = [], []\n"
        "def first_solve():\n"
        "    barrier.wait()\n"
        "    solutions.append(radial.solve_tridiagonal(sub, diag, sup, rhs).tobytes())\n"
        "    modules.append(radial._lapack())\n"
        "threads = [threading.Thread(target=first_solve) for _ in range(8)]\n"
        "for th in threads: th.start()\n"
        "for th in threads: th.join(timeout=60)\n"
        "assert not any(th.is_alive() for th in threads)\n"
        "assert len(loads) == 1, loads\n"
        "assert len(modules) == 8 and len({id(m) for m in modules}) == 1\n"
        "assert len(set(solutions)) == 1\n")
    loaded = run_fresh(code, tmp_path)
    assert [m for m in loaded if m.startswith("scipy.linalg")] == ["scipy.linalg._flapack"]


def test_restricted_ode_first_call_in_cold_process(tmp_path):
    code = ("from cuspasym import restricted_ode_solution\n"
            "res = restricted_ode_solution([2.0, 0.5], 1.0)\n"
            "assert res.max_discrepancy < 1e-8, res.max_discrepancy\n")
    # both routes are numpy alone: no scipy.integrate, no LAPACK
    assert [m for m in run_fresh(code, tmp_path) if m.startswith("scipy")] == []


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
    # max_workers is echoed but changes nothing: both sweeps run their items
    # in turn in the calling thread, and write the same bytes.  Threads that
    # reach the deferred LAPACK load together are
    # test_threads_solving_together_load_lapack_once's.
    (tmp_path / "a.cfg").write_text("command = solve-ma\nn_nodes = 2048\n"
                                    "f_terms = 1.5:1:0\n")
    (tmp_path / "b.cfg").write_text("command = logterm-pipeline\nn_nodes = 2048\n"
                                    "f_terms = 0.75:1:0\n")
    parallel, serial = _sweep(tmp_path, 2), _sweep(tmp_path, 1)
    assert len(parallel["files"]) == 4
    assert parallel == serial
