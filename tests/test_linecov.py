"""The line audit in tools/linecov.py lists the executable lines a test run never runs."""

import os
import subprocess
import sys
from pathlib import Path

LINECOV = Path(__file__).resolve().parent.parent / "tools" / "linecov.py"


def test_unrun_line_is_listed(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        'def ran():\n    """Run by the test."""\n    return 1\n\n\ndef never():\n    return 2\n'
    )
    (tmp_path / "test_mod.py").write_text(
        "from mod import ran\n\n\ndef test_ran():\n    assert ran() == 1\n"
    )
    proc = subprocess.run(
        [sys.executable, str(LINECOV), "--src", "pkg", "-q", "-p", "no:cacheprovider",
         "test_mod.py"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": "pkg"}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-2:] == [
        "pkg/mod.py:7: return 2",
        "1 executable line(s) never run",
    ]
