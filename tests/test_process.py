"""The CLI as a whole process.

``cli.entry_point`` runs ``main`` with the cyclic collector off and freezes
the collector before the interpreter exits, so neither the command nor
shutdown rescans the heap the imports built.  These checks show that this
loses nothing: ``python -m cuspasym.cli`` and ``python -m cuspasym`` leave
the same artifacts, stdout, stderr and exit code, byte for byte, as
``main`` called in-process, which leaves the collector as it found it and
builds its parser once a process; usage errors exit 2 the same way from all
three.  An exception other than the CLI's own error types is a bug, not a
config fault: it ends the process with exit 1 and its traceback.
``tests/test_reuse.py``
checks that the solvers leave no reference cycles for a collector to find.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cuspasym.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"

#: name -> (argv with relative paths, files written before the run)
CASES = {
    "flow": (["flow", "flow.cfg", "-o", "out"], {
        "flow.cfg": "n_nodes = 128\nconformal_terms = 0.2:0:0\nT = 0.3\ndt = 0.05\n"
                    "output_times = 0.1, 0.2, 0.3\n",
    }),
    "sweep": (["sweep", "sweep.cfg", "-o", "out"], {
        "sweep.cfg": "configs = a.cfg, b.cfg\nmax_workers = 2\n",
        "a.cfg": "command = solve-ma\nn_nodes = 512\nf_terms = 1.5:1:0\n",
        "b.cfg": "command = logterm-pipeline\nn_nodes = 2048\nf_terms = 0.75:1:0\n",
    }),
    # exit 2 with a stderr line per failed item; the good item's artifacts stay
    "failing-sweep": (["sweep", "sweep.cfg", "-o", "out"], {
        "sweep.cfg": "configs = a.cfg, b.cfg, c.cfg\nmax_workers = 2\n",
        "a.cfg": "d = 4\n",
        "b.cfg": "command = chern-coeff\nd = 5\n",
        "c.cfg": "command = chern-coeff\nd = 3\n",
    }),
}


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _setup(root: Path, files: dict) -> Path:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return root


def _chern_argv(root: Path) -> list[str]:
    root.mkdir(exist_ok=True)
    cfg = root / "c.cfg"
    cfg.write_text("d = 4\n")
    return ["chern-coeff", str(cfg), "-o", str(root / "out")]


def test_main_leaves_the_collector_unfrozen(tmp_path):
    # and enabled or disabled, as it found it
    before, was_enabled = gc.get_freeze_count(), gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert main(_chern_argv(tmp_path / str(enabled))) == 0
            assert (gc.get_freeze_count(), gc.isenabled()) == (before, enabled)
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_main_leaves_no_parser_as_cyclic_garbage(tmp_path):
    # the parser refers to itself through its actions: one built a call would
    # be garbage for the collector, which a CLI process runs without
    assert build_parser() is build_parser()
    main(_chern_argv(tmp_path / "warm"))
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(_chern_argv(tmp_path / "run")) == 0
        gc.collect()
        left = [type(o).__qualname__ for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert left == []


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def test_entry_point_runs_main_with_the_collector_off(tmp_path):
    code = ("import gc, sys\n"
            "import cuspasym.cli as cli\n"
            "seen, main = [], cli.main\n"
            "def recording(argv=None):\n"
            "    seen.append(gc.isenabled())\n"
            "    return main(argv)\n"
            "cli.main = recording\n"
            f"sys.argv = ['cuspasym', *{_chern_argv(tmp_path)!r}]\n"
            "try:\n"
            "    cli.entry_point()\n"
            "except SystemExit as exit:\n"
            "    print(exit.code, seen)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 [False]\n", "")
    assert (tmp_path / "out" / "chern.json").is_file()


@pytest.mark.parametrize("error, last_line", [
    ("ValueError('a bug')", "ValueError: a bug"),
    ("numpy.linalg.LinAlgError('singular')", "numpy.linalg.LinAlgError: singular"),
])
def test_a_bug_in_a_solver_exits_1_with_its_traceback(tmp_path, error, last_line):
    # main once mapped every ValueError, LinAlgError included, to exit 2
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_nodes = 64\nf_terms = 1.5:1:0\n")
    code = ("import sys, numpy, cuspasym.cli as cli, cuspasym.elliptic as elliptic\n"
            "def solve(problem):\n"
            f"    raise {error}\n"
            "elliptic.solve_monge_ampere_radial = solve\n"
            f"sys.argv = ['cuspasym', 'solve-ma', {str(cfg)!r}, '-o', 'out']\n"
            "cli.entry_point()\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("Traceback (most recent call last):")
    assert proc.stderr.endswith(f"\n{last_line}\n")
    assert "config error" not in proc.stderr


#: argv -> what the usage error says
USAGE_ERRORS = {
    "unknown-command": (["no-such-command", "c.cfg"], "invalid choice: 'no-such-command'"),
    "missing-config": (["chern-coeff"], "the following arguments are required: config"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_exit_2_from_every_entry(tmp_path, capsys, case):
    argv, says = USAGE_ERRORS[case]
    with pytest.raises(SystemExit) as exit:
        main(argv)
    err = capsys.readouterr().err
    assert exit.value.code == 2 and says in err
    for module in ("cuspasym.cli", "cuspasym"):
        proc = subprocess.run([sys.executable, "-m", module, *argv], cwd=tmp_path, env=_env(),
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err), module


@pytest.mark.parametrize("case", sorted(CASES))
def test_process_entry_points_match_main(tmp_path, monkeypatch, capsys, case):
    argv, files = CASES[case]
    monkeypatch.chdir(_setup(tmp_path / "main", files))
    code = main(argv)
    captured = capsys.readouterr()
    expected = (code, captured.out, captured.err, _tree(Path.cwd()))
    assert len(expected[3]) > len(files)

    for module in ("cuspasym.cli", "cuspasym"):
        cwd = _setup(tmp_path / module, files)
        proc = subprocess.run([sys.executable, "-m", module, *argv], cwd=cwd, env=_env(),
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr, _tree(cwd)) == expected, module
