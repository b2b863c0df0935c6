"""The line audit in tools/linecov.py lists the executable lines a test run never runs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINECOV = ROOT / "tools" / "linecov.py"


def _audit(tmp_path, modules: dict, test_source: str):
    """Write `modules` (path under pkg -> source) and one test module into
    `tmp_path`, audit pkg over that test, and return the finished process."""
    for name, source in modules.items():
        (tmp_path / "pkg" / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "pkg" / name).write_text(source)
    (tmp_path / "test_mod.py").write_text(test_source)
    return subprocess.run(
        [sys.executable, str(LINECOV), "--src", "pkg", "-q", "-p", "no:cacheprovider",
         "test_mod.py"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": "pkg"}, capture_output=True, text=True,
    )


def test_unrun_line_is_listed(tmp_path):
    proc = _audit(
        tmp_path,
        {"mod.py": 'def ran():\n    """Run by the test."""\n    return 1\n\n\ndef never():\n    return 2\n'},
        "from mod import ran\n\n\ndef test_ran():\n    assert ran() == 1\n",
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr  # no reason accepts `return 2`
    assert proc.stdout.splitlines()[-2:] == [
        "pkg/mod.py:7: return 2",
        "1 executable line(s) never run",
    ]


def test_accepted_line_is_listed_with_its_reason(tmp_path):
    """A line named in the table, matched by path and text, does not fail the
    audit; the same text in another file does."""
    entry_point = 'def main():\n    return 0\n\n\nif __name__ == "__main__":\n    main()\n'
    test_source = "from vaxledger.cli import main\n\n\ndef test_main():\n    assert main() == 0\n"
    linecov = _load_linecov()
    reason = linecov.ACCEPTED[("vaxledger/cli.py", "main()")]
    package = {"vaxledger/__init__.py": "", "vaxledger/cli.py": entry_point}
    proc = _audit(tmp_path, package, test_source)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-2:] == [
        f"pkg/vaxledger/cli.py:6: main()  (accepted: {reason})",
        "1 executable line(s) never run",
    ]
    other = tmp_path / "other"
    other.mkdir()
    proc = _audit(other, {**package, "vaxledger/run.py": entry_point},
                  test_source + "\n\ndef test_run():\n    from vaxledger.run import main\n"
                  "    assert main() == 0\n")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-2] == "pkg/vaxledger/run.py:6: main()"


def _load_linecov():
    spec = importlib.util.spec_from_file_location("linecov", LINECOV)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_accepted_line_exists():
    """Each table entry names a line that the source tree still holds."""
    for (path, text), reason in _load_linecov().ACCEPTED.items():
        lines = [line.strip() for line in (ROOT / "src" / path).read_text().splitlines()]
        assert text in lines, (path, text)
        assert reason
