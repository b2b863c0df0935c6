"""Line audit: every executable line of a source tree that a pytest run never runs.

    PYTHONPATH=src python3 tools/linecov.py --src src -q

Arguments other than ``--src`` go to pytest. The audit uses the standard
library only. A pytest plugin sets a ``sys.settrace`` hook before the run
imports anything and again before each test, in case a test cleared it. The
hook records the lines that run in files under ``--src``.
``trace._find_executable_linenos`` lists each file's executable lines, without
docstrings. The script prints each line that never ran as ``path:line: source``
and then their count; a line named in ``ACCEPTED`` is printed with its reason.
It exits with pytest's status if the run failed, so a failing run is not read
as an audit, else 1 if a line that ``ACCEPTED`` does not name never ran, else
0. Tracing makes the suite several times slower, so the audit is not part of
tier-1.
"""

from __future__ import annotations

import argparse
import os
import sys
import trace
from pathlib import Path

import pytest

# Lines that may stay unrun, each matched by its file's path under --src and its
# stripped source text, not by line number, which an edit above it would move.
ACCEPTED = {
    ("vaxledger/cli.py", "main()"): "the `if __name__` entry point runs only in a"
    " `python -m vaxledger.cli` subprocess, which the tracer does not follow",
}


class LineRecorder:
    """A pytest plugin that records the lines run in files under `root`."""

    def __init__(self, root: Path):
        self.root = str(root.resolve()) + os.sep
        self.hits: dict = {}  # absolute file path -> line numbers run
        self._lines: dict = {}  # code filename -> its file's set in `hits`, or None outside root

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._lines:
            path = os.path.abspath(filename)
            self._lines[filename] = (self.hits.setdefault(path, set())
                                     if path.startswith(self.root) else None)
        return self._line if self._lines[filename] is not None else None

    def _line(self, frame, event, arg):
        if event == "line":
            self._lines[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def start(self) -> None:
        if sys.gettrace() != self._call:
            sys.settrace(self._call)

    def pytest_runtest_setup(self, item) -> None:
        self.start()


def unrun_lines(root: Path, hits: dict) -> list:
    """(path, line number, source, the reason `ACCEPTED` gives or None) of
    each executable line under `root` not in `hits`."""
    missed = []
    root = root.resolve()
    for path in sorted(root.rglob("*.py")):
        ran = hits.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        # Line 0 holds a module's entry instruction, which no line event reports.
        executable = {n for n in trace._find_executable_linenos(str(path)) if n > 0}
        for line in sorted(executable - ran):
            text = source[line - 1].strip()
            missed.append((path, line, text, ACCEPTED.get((path.relative_to(root).as_posix(), text))))
    return missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path("src"), help="source tree to audit")
    args, pytest_args = parser.parse_known_args(argv)
    sys.path[0] = os.getcwd()  # as under `python -m pytest`, not this script's directory
    recorder = LineRecorder(args.src)
    recorder.start()
    try:
        status = pytest.main(pytest_args, plugins=[recorder])
    finally:
        sys.settrace(None)
    missed = unrun_lines(args.src, recorder.hits)
    for path, line, text, reason in missed:
        shown = os.path.relpath(path) if path.is_relative_to(Path.cwd()) else path
        print(f"{shown}:{line}: {text}" + (f"  (accepted: {reason})" if reason else ""))
    print(f"{len(missed)} executable line(s) never run")
    return int(status) or int(any(reason is None for *_, reason in missed))


if __name__ == "__main__":
    sys.exit(main())
