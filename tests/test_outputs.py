"""The output comparison of tools/outputs.py: every output of either side, and the exit code."""

import importlib.util
from pathlib import Path

from vaxledger.cli import main as cli_main

_SPEC = importlib.util.spec_from_file_location(
    "outputs", Path(__file__).resolve().parent.parent / "tools" / "outputs.py"
)
outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outputs)

PARENT = {"issue: stdout": "aa", "file cred.json": "bb", "file verify.csv": "cc"}


def _main(monkeypatch, capsys, change):
    sides = {Path("p"): PARENT, Path("c"): change}
    monkeypatch.setattr(outputs, "run_side", sides.__getitem__)
    code = outputs.main(["p", "c"])
    return code, capsys.readouterr().out


def test_equal_sides_exit_zero(monkeypatch, capsys):
    assert outputs.compare(PARENT, dict(PARENT)) == [(n, d, d) for n, d in PARENT.items()]
    code, out = _main(monkeypatch, capsys, dict(PARENT))
    assert code == 0
    assert "DIFFERS" not in out and "0 of 3 outputs differ" in out


def test_a_changed_or_missing_output_exits_one(monkeypatch, capsys):
    change = {"issue: stdout": "aa", "file cred.json": "b2", "file round.json": "dd"}
    assert outputs.compare(PARENT, change) == [
        ("issue: stdout", "aa", "aa"),
        ("file cred.json", "bb", "b2"),
        ("file verify.csv", "cc", None),
        ("file round.json", None, "dd"),
    ]
    code, out = _main(monkeypatch, capsys, change)
    assert code == 1
    differing = [line.split()[1] for line in out.splitlines() if line.endswith("DIFFERS")]
    assert differing == ["cred.json", "verify.csv", "round.json"]
    assert "3 of 4 outputs differ" in out


def test_every_subcommand_runs():
    """A subcommand missing from RUNS would leave its outputs uncompared."""
    assert set(cli_main.commands) - {args[0] for _name, args in outputs.RUNS} == set()
