"""The golden CLI corpus (``tests/golden``): each case, run in-process
through ``main`` from a scratch working directory with relative paths, must
reproduce its manifest entry byte for byte: exit code, stdout, stderr, the
text of every JSON artifact and the sha256 of every CSV.  The manifest is
rewritten by ``tests/golden/regen.py``, only for an intended change; its
``--against REV`` report is checked here too."""

import importlib.util
import json
import math
import shutil
import subprocess
from pathlib import Path

import numpy as np
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


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def test_json_artifacts_are_strict_json():
    # json.dumps writes NaN and Infinity unless told not to; no artifact may hold them
    for name, case in MANIFEST["cases"].items():
        for file, text in case["files"].items():
            if file.endswith(".json"):
                try:
                    json.loads(text, parse_constant=_refuse_constant)
                except ValueError as exc:
                    pytest.fail(f"{name}/{file}: {exc}")


@pytest.fixture(scope="module")
def recorded_twice(tmp_path_factory):
    """HEAD's tree, exported as ``--against HEAD`` does, recorded twice;
    outside a git checkout the checkout itself."""
    work = tmp_path_factory.mktemp("against")
    try:
        tree = regen.export_src("HEAD", work / "head")
    except (OSError, subprocess.CalledProcessError):
        tree = regen.ROOT
    return regen.run_both(tree, tree, work / "runs")


def test_a_revision_against_itself_shows_no_difference(recorded_twice):
    report = regen.compare(*recorded_twice)
    assert [line.partition(":")[0] for line in report[:len(regen.CASES)]] == list(regen.CASES)
    assert any(line.startswith("library flow-snapshot[0]") for line in report)
    assert any(line.startswith("radial-numerics ") and " ma-65536:" in line for line in report)
    assert all(line.endswith("no difference") for line in report), report


def _one_ulp_up(value: float) -> float:
    return math.nextafter(value, math.inf)


def test_a_one_ulp_change_shows_in_the_report(recorded_twice, tmp_path):
    before, after = recorded_twice
    changed = shutil.copytree(after, tmp_path / "changed")
    case = changed / "out" / "flow-conformal"
    rows = (case / "flow_t1.000000.csv").read_text().splitlines()
    x, value = rows[10].split(",")
    rows[10] = f"{x},{_one_ulp_up(float(value))!r}"
    (case / "flow_t1.000000.csv").write_text("\n".join(rows) + "\n")
    flow = json.loads((case / "flow.json").read_text())
    flow["sup_u_trajectory"] = _one_ulp_up(flow["sup_u_trajectory"])
    (case / "flow.json").write_text(json.dumps(flow))
    with np.load(changed / "library.npz") as library:
        arrays = dict(library)
    arrays["decay-slice-ratios[0]"][5] = _one_ulp_up(arrays["decay-slice-ratios[0]"][5])
    np.savez(changed / "library.npz", **arrays)

    report = regen.compare(before, changed)
    moved = [line for line in report if not line.endswith("no difference")]
    ulp = math.ulp(float(value))
    assert moved[0] == "flow-conformal: exit 0"
    assert moved[1].startswith("    flow.json sup_u_trajectory: ")
    assert moved[1].endswith(f"(abs {math.ulp(flow['sup_u_trajectory']):.3g}, "
                             f"rel {math.ulp(flow['sup_u_trajectory']) / flow['sup_u_trajectory']:.3g})")
    assert moved[2].startswith(f"    flow_t1.000000.csv value: max abs {ulp:.3g}, ")
    assert moved[2].endswith("(1 of 1024 differ)")
    assert moved[3].startswith("library decay-slice-ratios[0]: max abs ")
    assert moved[3].endswith("(1 of 101 differ)")
    assert len(moved) == 4


def test_the_summary_gives_each_moved_output_its_largest_move(recorded_twice, tmp_path):
    before, after = recorded_twice
    changed = shutil.copytree(after, tmp_path / "changed")
    case = changed / "out" / "flow-conformal"
    rows = (case / "flow_t1.000000.csv").read_text().splitlines()
    x, value = rows[10].split(",")
    rows[10] = f"{x},{_one_ulp_up(float(value))!r}"
    (case / "flow_t1.000000.csv").write_text("\n".join(rows) + "\n")
    flow = json.loads((case / "flow.json").read_text())
    sup = flow["sup_u_trajectory"]
    flow["sup_u_trajectory"] = 2.0 * sup
    (case / "flow.json").write_text(json.dumps(flow))
    cases = json.loads((changed / "cases.json").read_text())
    cases["exit2-unknown-key"]["exit"] = 3
    (changed / "cases.json").write_text(json.dumps(cases))

    items = regen._items(before, changed)
    assert regen.compare(before, changed) == [line for item in items for line in item.lines]
    n_library, n_ops = (sum(item.kind == kind for item in items) for kind in ("library", "op"))
    assert regen.summary(items) == [
        "summary:",
        f"  flow-conformal: max abs {sup:.3g}, max rel 0.5",
        "  exit2-unknown-key: exit 2 -> 3",
        f"  no difference: {len(regen.CASES) - 2} of {len(regen.CASES)} golden cases, "
        f"{n_library} of {n_library} library results, {n_ops} of {n_ops} radial-numerics ops",
    ]


def test_a_library_result_of_two_arrays_counts_once(recorded_twice, tmp_path):
    # each array once counted as a library result of its own
    before, after = recorded_twice
    changed = shutil.copytree(after, tmp_path / "changed")
    with np.load(changed / "library.npz") as library:
        arrays = dict(library)
    for key in ("ma-headline[0]", "ma-headline[1]"):
        arrays[key][0] = _one_ulp_up(arrays[key][0])
    np.savez(changed / "library.npz", **arrays)

    items = regen._items(before, changed)
    headline = [item for item in items if item.kind == "library" and item.name == "ma-headline"]
    assert len(headline) == 1 and len(headline[0].lines) == len(headline[0].moves) == 2
    assert [line.partition(":")[0] for line in headline[0].lines] == [
        "library ma-headline[0]", "library ma-headline[1]"]
    results = {key.rpartition("[")[0] for key in arrays}
    assert sum(item.kind == "library" for item in items) == len(results) < len(arrays)
    summary = regen.summary(items)   # "summary:", the one moved result, the counts
    assert len(summary) == 3 and summary[1].startswith("  library ma-headline: max abs ")
    assert f"{len(results) - 1} of {len(results)} library results" in summary[2]


def test_each_side_records_the_library_results_of_its_own_tree(tmp_path):
    # a before tree whose library results read an accessor its own source
    # has and the checkout's does not: recorded with the checkout's digests
    # file it would lose the result, recorded with its own the report
    # shows it on the before side only
    before = tmp_path / "before"
    shutil.copytree(regen.ROOT / "src", before / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(before / "src" / "cuspasym" / "__init__.py", "a") as init:
        init.write("\nONLY_BEFORE = 2.5\n")
    digests = before / regen.LIBRARY_DIGESTS
    digests.parent.mkdir()
    digests.write_text("import cuspasym\n\n"
                       "RESULTS = {'only': lambda: {'only-before': ([cuspasym.ONLY_BEFORE],)}}\n")
    report = regen.compare(*regen.run_both(before, regen.ROOT, tmp_path / "runs"))
    library = [line for line in report if line.startswith("library ")]
    assert library[0] == "library only-before[0]: only before"
    assert "library ma-fit[0]: only after" in library
