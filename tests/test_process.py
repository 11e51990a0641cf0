"""The CLI as a whole process.

``cli.entry_point`` runs ``main`` and freezes the collector before the
interpreter exits, so shutdown skips its full collections.  These checks
show that the freeze loses nothing: ``python -m cuspasym.cli`` and
``python -m cuspasym`` leave the same artifacts, stdout, stderr and exit
code, byte for byte, as ``main`` called in-process, which never freezes.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cuspasym.cli import main

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


def test_main_leaves_the_collector_unfrozen(tmp_path):
    before = gc.get_freeze_count()
    cfg = tmp_path / "c.cfg"
    cfg.write_text("d = 4\n")
    assert main(["chern-coeff", str(cfg), "-o", str(tmp_path / "out")]) == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("case", sorted(CASES))
def test_process_entry_points_match_main(tmp_path, monkeypatch, capsys, case):
    argv, files = CASES[case]
    monkeypatch.chdir(_setup(tmp_path / "main", files))
    code = main(argv)
    captured = capsys.readouterr()
    expected = (code, captured.out, captured.err, _tree(Path.cwd()))
    assert len(expected[3]) > len(files)

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for module in ("cuspasym.cli", "cuspasym"):
        cwd = _setup(tmp_path / module, files)
        proc = subprocess.run([sys.executable, "-m", module, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr, _tree(cwd)) == expected, module
