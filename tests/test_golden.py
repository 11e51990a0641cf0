"""The golden CLI corpus (``tests/golden``): each case, run in-process
through ``main`` from a scratch working directory with relative paths, must
reproduce its manifest entry byte for byte: exit code, stdout, stderr, the
text of every JSON artifact and the sha256 of every CSV.  The manifest is
rewritten by ``tests/golden/regen.py``, only for an intended change."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("golden"))
        return regen.replay()


def test_versions_match_the_manifest():
    # outputs are compared bit for bit, which only one set of versions
    # promises; a mismatch fails rather than skips
    assert regen.versions() == MANIFEST["versions"], (
        f"the golden manifest was made with {MANIFEST['versions']}, this run has "
        f"{regen.versions()}: check the outputs, then rerun tests/golden/regen.py")


def test_manifest_lists_every_case_in_run_order():
    assert list(MANIFEST["cases"]) == list(regen.CASES)


@pytest.mark.parametrize("name", list(regen.CASES))
def test_golden_case(replayed, name):
    assert replayed[name] == MANIFEST["cases"][name]
