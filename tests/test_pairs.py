"""The pair harness's summary: medians, quartiles, wins and the claim rule."""

import importlib.util
import json
import platform
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

WALL = [{"name": "wall_s", "better": "lower"}]


def _side(wall, digest="aa", failed=0):
    metrics = {"wall_s": {"value": wall}}
    return {"correct": True, "failed": failed, "metrics": metrics,
            "digests": {"csv_sha256": digest}}


def _run(parent_wall, change_wall, change_digest="aa", change_failed=0):
    return {"parent": _side(parent_wall),
            "change": _side(change_wall, change_digest, change_failed)}


def test_claim_holds_on_nine_wins_beyond_the_parent_iqr():
    runs = [_run(1.0 + 0.01 * i, 0.8) for i in range(9)] + [_run(0.7, 0.8)]
    summary = pairs.summarize(runs, WALL)
    wall = summary["wall_s"]
    assert summary["pairs_correct"] == 10 and summary["digests_equal"]
    assert wall["change_wins"] == 9
    assert wall["change"]["median"] == 0.8
    assert wall["median_diff"] < -wall["parent_iqr"]
    assert wall["claim_holds"]


def test_claim_fails_on_eight_wins_or_on_a_worse_median():
    eight = [_run(1.0, 0.8)] * 8 + [_run(0.7, 0.8)] * 2
    assert not pairs.summarize(eight, WALL)["wall_s"]["claim_holds"]
    worse = [_run(0.8, 1.0)] * 10
    summary = pairs.summarize(worse, WALL)["wall_s"]
    assert summary["change_wins"] == 0 and not summary["claim_holds"]


def test_ties_count_for_neither_side_and_failed_pairs_are_left_out():
    runs = [_run(1.0, 1.0)] * 3 + [{"parent": {"correct": False}, "change": {"correct": True}}]
    summary = pairs.summarize(runs, WALL)
    assert summary["pairs"] == 4 and summary["pairs_correct"] == 3
    assert summary["wall_s"]["change_wins"] == 0


def test_differing_digests_are_reported():
    summary = pairs.summarize([_run(1.0, 0.9), _run(1.0, 0.9, change_digest="bb")], WALL)
    assert not summary["digests_equal"]
    assert summary["digests_equal_by_name"] == {"csv_sha256": False}
    # Each digest is judged on its own: a moved snapshot leaves the CSV's equality standing.
    runs = [_run(1.0, 0.9) for _ in range(2)]
    for side, snapshot in (("parent", "cc"), ("change", "dd")):
        for run in runs:
            run[side]["digests"]["snapshot_sha256"] = snapshot
    summary = pairs.summarize(runs, WALL)
    assert not summary["digests_equal"]
    assert summary["digests_equal_by_name"] == {"csv_sha256": True, "snapshot_sha256": False}


def test_claim_fails_when_a_pair_did_not_run_correctly():
    """Nine wins out of ten pairs run, one of them not correct: the share of
    wins counts every pair, and an incorrect pair refutes the claim."""
    runs = [_run(1.0, 0.8)] * 9 + [{"parent": _side(1.0), "change": {"correct": False}}]
    summary = pairs.summarize(runs, WALL)
    assert summary["pairs_correct"] == 9 and summary["wall_s"]["change_wins"] == 9
    assert not summary["wall_s"]["claim_holds"]


def test_claim_fails_when_the_change_fails_more_operations():
    runs = [_run(1.0, 0.8)] * 9 + [_run(1.0, 0.8, change_failed=3)]
    summary = pairs.summarize(runs, WALL)
    assert summary["wall_s"]["change_wins"] == 10
    assert not summary["wall_s"]["claim_holds"]


@pytest.mark.parametrize("bytecode", [None, "1"])
def test_output_records_python_and_bytecode_setting(tmp_path, monkeypatch, bytecode):
    """Each workload's entry names the Python version and whether workers
    compiled from source (``PYTHONDONTWRITEBYTECODE``), on which ``peak_rss_mb`` depends."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": WALL}))
    if bytecode is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", bytecode)
    monkeypatch.setattr(pairs, "run_once", lambda checkout, workload, seed: _side(1.0))
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"),
                                      "--workloads", "verify_sweep", "--pairs", "2",
                                      "--out", str(out)])
    assert pairs.main() == 0
    entry = json.loads(out.read_text())["main"]["verify_sweep"]
    assert entry["environment"] == {"python": platform.python_version(),
                                    "PYTHONDONTWRITEBYTECODE": bytecode}
    assert entry["summary"]["pairs"] == 2


@pytest.mark.parametrize("change_name", ["change", "change-longer"])
def test_unequal_checkout_path_lengths_warn_and_are_recorded(tmp_path, monkeypatch, capsys,
                                                             change_name):
    """``peak_rss_mb`` moves with the checkout's location, so paths of unequal
    length draw a warning, and each workload's entry records both lengths."""
    parent, change = tmp_path / "parent", tmp_path / change_name
    parent.mkdir()
    change.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": WALL}))
    monkeypatch.setattr(pairs, "run_once", lambda checkout, workload, seed: _side(1.0))
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["pairs.py", str(parent), str(change),
                                      "--workloads", "register_sweep", "--pairs", "1",
                                      "--out", str(out)])
    assert pairs.main() == 0
    lengths = json.loads(out.read_text())["main"]["register_sweep"]["checkout_path_lengths"]
    assert lengths == {"parent": len(str(parent.resolve())), "change": len(str(change.resolve()))}
    warned = "paths differ in length" in capsys.readouterr().err
    assert warned == (lengths["parent"] != lengths["change"]) == (change_name != "change")
