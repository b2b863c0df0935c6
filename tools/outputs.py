"""Run the CLI's outputs in two checkouts and compare their digests.

    python3 tools/outputs.py PARENT_DIR CHANGE_DIR

Each side runs the commands of ``RUNS`` as ``python3 -m vaxledger.cli``, one
process at a time, in a temporary directory of its own, with relative output
paths and only that checkout's ``src`` on ``PYTHONPATH``. The directory starts
with the default register and verify scenario configs, a copy of the
checkout's ``benchmarks/reference_targets.csv`` and a credential fixture that is
not valid JSON. Two runs read that fixture and a config file that is not
there, so a change to an error path's exit code shows. Each command's exit
code and stdout are one output, and each file in the directory after the last
command is another. The script prints both sides' SHA-256 of each output and exits 1
iff any pair differs, an output that one side lacks included. The two
``calibrate`` runs take most of its time: both sides together take about three
minutes on a 2-core machine. It imports nothing from either checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")

# The default sweeps, as `default_register_config()` and `default_verify_config()` build them.
CONFIGS = {
    "register.json": {"step": "register", "tps_levels": [1, 2, 4, 8, 16, 28]},
    "verify.json": {"step": "verify", "tps_levels": [1, 2, 4, 8, 16, 28, 50, 100],
                    "preloaded_records": 4700},
}
TARGETS = "targets.csv"
NOT_JSON = ("not-json.json", '{"format": "vaxledger-credential/1",\n')  # (file name, text)

# (output name, CLI arguments), run in this order in one directory; every subcommand runs.
RUNS = (
    ("issue", ["issue", "--out", "cred.json"]),
    ("hash", ["hash", "cred.json"]),
    ("hash not-json.json", ["hash", NOT_JSON[0]]),
    ("register", ["register", "cred.json"]),
    ("register --ms FR", ["register", "cred.json", "--ms", "FR"]),
    ("verify", ["verify", "cred.json"]),
    ("verify --ms FR", ["verify", "cred.json", "--ms", "FR"]),
    ("verify --unanchored", ["verify", "cred.json", "--unanchored"]),
    ("simulate register", ["simulate", "--config", "register.json", "--out", "register.csv",
                           "--snapshot", "register.ndjson", "--trace", "register-trace.ndjson"]),
    ("simulate verify", ["simulate", "--config", "verify.json", "--out", "verify.csv",
                         "--snapshot", "verify.ndjson", "--trace", "verify-trace.ndjson"]),
    ("simulate --config missing.json", ["simulate", "--config", "missing.json"]),
    ("report register.csv", ["report", "register.csv"]),
    ("calibrate --max-rounds 1", ["calibrate", "--targets", TARGETS, "--max-rounds", "1",
                                  "--out", "round.json"]),
    ("calibrate", ["calibrate", "--targets", TARGETS, "--out", "fit.json"]),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_side(checkout: Path) -> dict:
    """Output name -> SHA-256 of that output, for every command of `RUNS` run in `checkout`."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    digests = {}
    with tempfile.TemporaryDirectory(prefix="vaxledger-outputs-") as tmp:
        work = Path(tmp)
        for name, doc in CONFIGS.items():
            (work / name).write_text(json.dumps(doc) + "\n", encoding="utf-8")
        (work / NOT_JSON[0]).write_text(NOT_JSON[1], encoding="utf-8")
        shutil.copyfile(checkout / "benchmarks" / "reference_targets.csv", work / TARGETS)
        for name, args in RUNS:
            proc = subprocess.run([sys.executable, "-m", "vaxledger.cli", *args], cwd=work,
                                  env=env, capture_output=True)
            digests[f"{name}: stdout"] = _sha256(b"exit %d\n" % proc.returncode + proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(f"{checkout}: {name} exited {proc.returncode}\n"
                                 + proc.stderr.decode(errors="replace")[-2000:])
        for path in sorted(work.iterdir()):
            digests[f"file {path.name}"] = _sha256(path.read_bytes())
    return digests


def compare(parent: dict, change: dict) -> list:
    """(output name, parent digest, change digest) for every output of either side, in
    the parent's order and then the change's; a side that lacks an output has None."""
    names = list(parent) + [name for name in change if name not in parent]
    return [(name, parent.get(name), change.get(name)) for name in names]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for side in SIDES:
        parser.add_argument(side, type=Path, help=f"the {side} checkout")
    args = parser.parse_args(argv)
    rows = compare(*(run_side(getattr(args, side)) for side in SIDES))
    width = max(len(name) for name, _p, _c in rows)
    print(f"{'output':<{width}}  {'parent':<16}  change")
    for name, parent, change in rows:
        mark = "" if parent == change else "  DIFFERS"
        print(f"{name:<{width}}  {(parent or '-')[:16]:<16}  {(change or '-')[:16]:<16}{mark}")
    differing = sum(parent != change for _name, parent, change in rows)
    print(f"{differing} of {len(rows)} outputs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
