"""Tests of the benchmark itself, kept out of the program's test suite.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs traced, in this process, twice; the whole file takes about
half a minute on a 2-core machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

worker.load_program()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import vaxledger.engine  # noqa: E402
import vaxledger.ledger  # noqa: E402
import vaxledger.netsim  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def traced():
    return {
        name: [worker.run_once(name, SEED, trace=True) for _ in range(2)]
        for name in workloads.WORKLOADS
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_count_metrics_repeat_exactly(traced, name):
    first, second = traced[name]
    for metric in run.EXACT_COUNTS:
        assert first["layers"][metric] == second["layers"][metric], metric


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_times_and_unattributed_sum_to_wall(traced, name):
    for record in traced[name]:
        layers = record["layers"]
        self_times = [layers[f"{layer}.self_s"][0] for layer in tracing.LAYERS]
        assert min(self_times) >= 0
        assert layers["trace.unattributed_s"][0] >= 0
        total = sum(self_times) + layers["trace.unattributed_s"][0]
        assert total == pytest.approx(layers["trace.wall_s"][0], abs=1e-6)


@pytest.mark.parametrize("name", ["register_sweep", "verify_sweep"])
def test_event_spans_match_engine_event_count(traced, name):
    record = traced[name][0]
    assert record["layers"]["netsim.events"][0] == record["events"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_output(traced, name):
    plain = worker.run_once(name, SEED, trace=False)
    assert plain["failed"] == 0 and not plain["failures"]
    for key in run.DIGESTS:
        assert plain.get(key) == traced[name][0].get(key)


def test_uninstall_restores_every_binding():
    originals = (vaxledger.engine.apply_block, vaxledger.netsim.EventQueue.schedule,
                 vaxledger.ledger.Chain.append_block)
    recorder = tracing.SpanRecorder()
    recorder.install()
    assert vaxledger.engine.apply_block is not originals[0]
    recorder.uninstall()
    assert (vaxledger.engine.apply_block, vaxledger.netsim.EventQueue.schedule,
            vaxledger.ledger.Chain.append_block) == originals
    assert not recorder.missing


def test_result_line_carries_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "anchor_roundtrip",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in manifest["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "register_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
