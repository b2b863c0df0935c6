"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--spans PATH]

It imports the program from the checkout's ``src``, builds the workload's
inputs and stamps ``ready_ns`` with CLOCK_MONOTONIC, which the parent reads
with the same clock to get ``setup_s``. It then runs the workload once under a
timer, checks the outputs and prints one JSON line. With ``--trace 1`` the run
records spans, the line carries the per-layer metrics, and ``--spans`` names
the file the spans are written to.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and import the package
    from there; an installed copy elsewhere is refused."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import vaxledger

    found = Path(vaxledger.__file__).resolve().parent
    if found != (src / "vaxledger").resolve():
        raise SystemExit(f"vaxledger imported from {found}, not from {src}")


def run_once(name: str, seed: int, trace: bool, spans_path=None) -> dict:
    """Set up, run and check one workload; returns the result record."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(seed)
    ready_ns = time.monotonic_ns()
    recorder = tracing.SpanRecorder() if trace else None
    probe = workloads.Probe(recorder)
    if recorder is not None:
        recorder.install()
    try:
        t0 = time.perf_counter_ns()
        outcome = workload.run(inputs, probe)
        t1 = time.perf_counter_ns()
    finally:
        if recorder is not None:
            recorder.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    wall_ns = t1 - t0 - probe.excluded_ns
    result = workload.check(inputs, outcome)
    result.update(ready_ns=ready_ns, wall_s=wall_ns / 1e9, peak_rss_mb=peak_rss_mb)
    if recorder is not None:
        result["layers"] = tracing.layer_metrics(recorder, wall_ns, (t0, t1))
        result["missing_targets"] = recorder.missing
        if spans_path:
            recorder.write(spans_path)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    load_program()
    result = run_once(args.workload, args.seed, bool(args.trace), args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
