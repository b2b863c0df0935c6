"""The vaxledger benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. For ``S`` seconds it starts one fresh
interpreter after another (``perfbench/worker.py``), each of which sets up,
runs and checks the workload once; nothing runs in parallel. With
``--trace 0`` it reports the end-to-end metrics as medians over those
repetitions. With ``--trace 1`` it alternates an untraced and a traced
repetition, reports the per-layer metrics as medians over the traced ones,
and compares the two walls for ``trace.overhead``.

Every repetition's outputs are checked: the workload's own checks, and
agreement of the output digests with the first repetition's. The last line
of standard output is the JSON result; the lines before it say the same for
a reader, with provenance and the figures that are not metrics. See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("register_sweep", "verify_sweep", "anchor_roundtrip")
# A run must end within 180 s; no repetition starts that would likely cross this.
TIME_LIMIT_S = 165
# Output digests that every repetition of one seed must reproduce.
DIGESTS = ("csv_sha256", "snapshot_sha256", "state_sha256")
# Per-layer counts that must repeat exactly between traced repetitions.
EXACT_COUNTS = (
    "ledger.signing_payload_per_tx",
    "netsim.events",
    "netsim.events_per_request",
    "workload.arrivals_calls_per_level",
    "credential.keypair_calls",
    "ordering.txs_per_block",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter and return its record."""
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        command += ["--spans", str(OUT_DIR / f"spans-{workload}.bin")]
    spawned_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"repetition exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = (record["ready_ns"] - spawned_ns) / 1e9
    return record


def repeat(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    """Untraced (and, when tracing, traced) repetitions for ``seconds``."""
    started = time.monotonic()
    untraced, traced = [], []
    while True:
        remaining = TIME_LIMIT_S - (time.monotonic() - started)
        untraced.append(spawn(workload, seed, False, remaining))
        if trace:
            remaining = TIME_LIMIT_S - (time.monotonic() - started)
            traced.append(spawn(workload, seed, True, remaining))
        elapsed = time.monotonic() - started
        if elapsed >= seconds or elapsed * (1 + 1 / len(untraced)) > TIME_LIMIT_S:
            return untraced, traced


def source_digest() -> str:
    """SHA-256 over the program's source files, by relative path."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "none (not a git checkout)"
    return lines[1]


def provenance(seed: int, runs: int) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cryptography": metadata.version("cryptography"),
        "seed": seed,
        "runs": runs,
    }


def check_records(records: list) -> tuple:
    """Operations attempted and failed over all repetitions, plus problems.

    A repetition whose output digests differ from the first one's fails all
    of its operations.
    """
    attempted = failed = 0
    problems = []
    reference = records[0]
    for index, record in enumerate(records):
        attempted += record["attempted"]
        rep_failed = record["failed"]
        problems.extend(f"run {index}: {text}" for text in record["failures"][:5])
        for key in DIGESTS:
            if record.get(key) != reference.get(key):
                problems.append(f"run {index}: {key} differs from run 0")
                rep_failed = record["attempted"]
        failed += rep_failed
    return attempted, failed, problems


def quartiles(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(records: list) -> dict:
    metrics = {}
    for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
        values = [r[name] for r in records]
        metrics[name] = (statistics.median(values), unit, quartiles(values))
    return metrics


def per_layer(untraced: list, traced: list) -> tuple:
    names = traced[0]["layers"].keys()
    metrics = {}
    for name in names:
        values = [r["layers"][name][0] for r in traced]
        metrics[name] = (statistics.median(values), traced[0]["layers"][name][1], quartiles(values))
    problems = [
        f"{name} differs between traced runs: {sorted({r['layers'][name][0] for r in traced})}"
        for name in EXACT_COUNTS
        if len({r["layers"][name][0] for r in traced}) > 1
    ]
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead"] = (traced_wall / untraced_wall, "ratio",
                                 f"traced {traced_wall:.4f} s / untraced {untraced_wall:.4f} s")
    metrics["netsim.events_per_host_s"] = (
        metrics["netsim.events"][0] / untraced_wall, "1/s", f"untraced wall {untraced_wall:.4f} s"
    )
    return metrics, problems


def workload_figures(records: list) -> list:
    """Figures that are not metrics: fidelity, digests and latency samples."""
    first = records[0]
    lines = []
    if "csv_sha256" in first:
        lines.append(f"response_mre_pct = {first['response_mre_pct']:.4f} % "
                     f"(mean relative error over {first['reference_rows']} reference rows)")
        lines.append(f"peer_bw_mre_pct = {first['peer_bw_mre_pct']:.4f} %")
        lines.append(f"csv_sha256 = {first['csv_sha256']}  csv_match = "
                     f"{str(all(r['csv_match'] for r in records)).lower()}")
    if "roundtrip_us" in first:
        samples = [v for r in records for v in r["roundtrip_us"]]
        lines.append(f"roundtrip_us.p50 = {percentile(samples, 0.5):.2f} us, "
                     f"roundtrip_us.p99 = {percentile(samples, 0.99):.2f} us (n={len(samples)})")
        lines.append(f"state_sha256 = {first['state_sha256']}")
    lines.append(f"snapshot_sha256 = {first['snapshot_sha256']}")
    return lines


def manifest_metrics(section: str) -> list:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in doc[section]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        untraced, traced = repeat(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    records = untraced + traced
    attempted, failed, problems = check_records(records)
    if args.trace:
        computed, count_problems = per_layer(untraced, traced)
        problems += count_problems
        section = "per_layer"
        missing = traced[0]["missing_targets"]
        if missing:
            print(f"tracing: not found, so read as 0: {', '.join(missing)}")
    else:
        computed = end_to_end(untraced)
        section = "end_to_end"
    print(f"provenance: {json.dumps(provenance(args.seed, len(records)))}")
    print(f"workload {args.workload}: {len(untraced)} untraced, {len(traced)} traced runs")
    metrics = {}
    for name, unit in manifest_metrics(section):
        value, got_unit, spread = computed[name]
        if got_unit != unit:
            print(f"benchmark failed: {name} measured in {got_unit}, manifest says {unit}",
                  file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit} ({spread})")
    for line in workload_figures(records):
        print(line)
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
