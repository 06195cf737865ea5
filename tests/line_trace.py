"""List the lines of ``src/ardlkit`` that the test suite never runs.

Run from the repository root:

    PYTHONPATH=src python3 tests/line_trace.py [pytest arguments]

The suite runs in this process, by ``pytest.main``, under a line trace
set with ``sys.settrace`` and ``threading.settrace``.  A line of
``src/ardlkit`` is executable when a code object compiled from its file
names it in ``co_lines()``; the script prints each executable line that
never ran as ``path:line: source`` and a count per file, then exits 0
whatever it found and whatever pytest's outcome.

Only this process is traced: what a test runs in a subprocess (the CLI
import checks of ``test_cli.py``) is not seen, so lines that only such a
run reaches are listed as unrun.  The trace roughly doubles the
suite's time.  It needs nothing beyond the standard library and what the suite
itself imports; ``coverage`` is not a dependency.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ardlkit"


def executable_lines(path: Path) -> set[int]:
    """Every line that a code object compiled from ``path`` maps bytecode to."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


class Lines(set):
    """The lines run in one file.  Its bound ``local`` is the local trace
    function of every frame in that file: a closure that returned itself
    would make each traced frame a reference cycle, which the suite's
    own no-cycle checks would count."""

    def local(self, frame, event, arg):
        self.add(frame.f_lineno)
        return self.local


def run_traced(args) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for ``args`` and the lines run in each file of
    ``SOURCE``, keyed by absolute path."""
    ran: dict[str, Lines] = defaultdict(Lines)
    files: dict[str, str | None] = {}  # co_filename -> its path if under SOURCE
    prefix = str(SOURCE) + os.sep

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.realpath(name)
            files[name] = path if path.startswith(prefix) else None
        if files[name] is None:
            return None
        lines = ran[files[name]]
        lines.add(frame.f_lineno)  # the call event's line, the def or decorator
        return lines.local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(args) -> int:
    code, ran = run_traced(args)
    total = 0
    for path in sorted(SOURCE.glob("*.py")):
        unrun = sorted(executable_lines(path) - ran[str(path)])
        text = path.read_text().splitlines()
        for line in unrun:
            print(f"{path.relative_to(SOURCE.parent.parent)}:{line}: {text[line - 1].strip()}")
        if unrun:
            print(f"  {len(unrun)} unrun in {path.name}")
        total += len(unrun)
    print(f"pytest exit code {code}; {total} executable lines of {SOURCE.name} never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
