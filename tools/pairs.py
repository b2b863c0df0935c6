"""Alternating benchmark pairs between two checkouts.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workloads verify_sweep,register_sweep \
        --pairs 10 --out BENCH_18.json

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds 30
--trace 0`` once in each checkout, one process at a time, with the seed equal
to the pair number. The side that runs first alternates: the parent on odd
pairs, the change on even ones. Every run's result line is kept. For each
end-to-end metric that ``BENCHMARK.json`` declares, the summary gives each
side's median and quartiles, the difference of the medians (change minus
parent), the parent's interquartile range, and the pairs the change wins;
a tie counts for neither side. It also says, for each output digest the
runs print, whether the two sides agreed on it in every pair, and whether
they agreed on all of them. A claim holds where every run of both sides
is correct, the change fails no more operations than the parent in any pair,
the change wins at least nine tenths of all pairs run, and the medians differ
by more than the parent's interquartile range.

The output file keeps one entry per ``--label``, so a later invocation (say,
one pair on a held-out seed, ``--first-pair 11 --pairs 1 --label held_out``)
adds to it. Each workload's entry records the environment its runs shared:
the Python version, and ``PYTHONDONTWRITEBYTECODE``, which decides whether
every worker compiles its modules from source, and so moves ``peak_rss_mb``
with the source text; and the length of each checkout's absolute path, which
moves ``peak_rss_mb`` too. Paths of unequal length draw a warning: give the
two checkouts sibling directories whose names are of one length. The script
reads ``BENCHMARK.json`` and the runs' output only; it imports nothing from
either checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
SECONDS = 30  # the benchmark's run length, the same for every pair
_DIGEST_LINE = re.compile(r"^(csv_sha256|snapshot_sha256|state_sha256) = ([0-9a-f]{64})")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in `checkout`: its result line plus the output digests."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": (proc.stderr or proc.stdout)[-2000:]}
    result = json.loads(lines[-1])
    result["digests"] = dict(m.groups() for m in map(_DIGEST_LINE.match, lines) if m)
    return result


def environment() -> dict:
    """What the runs share beyond the two checkouts that can move their figures."""
    return {"python": platform.python_version(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def summarize(runs: list, metrics: list) -> dict:
    """Per metric: each side's median and quartiles, the median difference,
    the parent's IQR and the change's wins, over the pairs where both sides ran
    correctly; whether the claim holds, judged over every pair run."""
    ok = [r for r in runs if all(r[side].get("correct") for side in SIDES)]
    # A pair that failed, or where the change failed more operations, refutes any claim.
    sound = len(ok) == len(runs) and all(r["change"]["failed"] <= r["parent"]["failed"] for r in ok)
    names = sorted({name for r in ok for side in SIDES for name in r[side]["digests"]})
    by_name = {name: all(r["parent"]["digests"].get(name) == r["change"]["digests"].get(name)
                         for r in ok) for name in names}
    summary = {"pairs": len(runs), "pairs_correct": len(ok),
               "digests_equal": all(by_name.values()), "digests_equal_by_name": by_name}
    if not ok:
        return summary
    for metric in metrics:
        name, lower_is_better = metric["name"], metric["better"] == "lower"
        values = {side: [r[side]["metrics"][name]["value"] for r in ok] for side in SIDES}
        sides = {}
        for side in SIDES:
            xs = values[side]
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            sides[side] = {"median": statistics.median(xs), "q1": q1, "q3": q3}
        pairs = zip(values["parent"], values["change"])
        wins = sum((c < p) if lower_is_better else (c > p) for p, c in pairs)
        diff = sides["change"]["median"] - sides["parent"]["median"]
        iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
        summary[name] = {
            **sides,
            "median_diff": diff,
            "parent_iqr": iqr,
            "change_wins": wins,
            "claim_holds": sound and wins * 10 >= 9 * len(runs) and abs(diff) > iqr
            and (diff < 0) == lower_is_better,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-pair", type=int, default=1,
                        help="number, and seed, of the first pair")
    parser.add_argument("--label", default="main", help="key of this set of pairs in --out")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write or add to")
    args = parser.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    path_lengths = {side: len(str(path)) for side, path in checkouts.items()}
    if path_lengths["parent"] != path_lengths["change"]:
        print(f"warning: the checkouts' absolute paths differ in length ({path_lengths['parent']} "
              f"and {path_lengths['change']} characters), which moves peak_rss_mb", file=sys.stderr)
    metrics = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("command", f"perfbench/run.py --seconds {SECONDS} --trace 0, "
                              "seed = pair number, sides alternating, parent first on odd pairs")
    doc.setdefault("checkouts", {side: path.name for side, path in checkouts.items()})
    entry = doc.setdefault(args.label, {})
    for workload in args.workloads.split(","):
        runs = []
        for pair in range(args.first_pair, args.first_pair + args.pairs):
            order = SIDES if pair % 2 else SIDES[::-1]
            run = {"pair": pair, "seed": pair, "first": order[0]}
            for side in order:
                run[side] = run_once(checkouts[side], workload, pair)
            runs.append(run)
            print(f"{workload} pair {pair}: " + ", ".join(
                f"{side} {run[side].get('metrics', {}).get('wall_s', {}).get('value', 'failed')}"
                for side in SIDES), flush=True)
        entry[workload] = {"environment": environment(), "checkout_path_lengths": path_lengths,
                           "summary": summarize(runs, metrics), "runs": runs}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
