"""List the lines of the psde package that a pytest run never executes.

Usage, from the repository root::

    python tools/line_coverage.py [pytest args]

for example ``python tools/line_coverage.py -m "not slow"``.  It needs no
coverage package: ``sys.settrace`` and ``threading.settrace`` are set before
psde is imported, only frames whose file lies under ``src/psde`` get a line
tracer, and ``pytest.main(args)`` runs in this process.  A module's
executable lines are those its code objects name (``co_lines``); each
module's lines that never ran are printed, then a total.  The exit code is
pytest's.  Nothing is written into the repository: no bytecode, no pytest
cache, and Hypothesis keeps its database in a temporary directory.

Only this process is traced.  Child processes are not seen: the CLI
subprocess tests, the demos and ``tools/byte_identity.py`` run psde in
processes of their own, so lines only they reach are listed as never run.
Tracing slows the run by about a third.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "psde"


def tracer(executed: dict[str, set[int]]):
    """A global tracer that adds each line run in a psde frame to executed[file]."""
    prefix = str(PACKAGE) + os.sep

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = executed.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    return trace


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every code object compiled from path."""
    found = set()
    codes = [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        found.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return found


def report(executed: dict[str, set[int]]) -> None:
    total = missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        never = sorted(lines - executed.get(str(path), set()))
        total += len(lines)
        missed += len(never)
        if never:
            print(f"{path.relative_to(PACKAGE.parent)}: {len(never)} of {len(lines)} never ran: "
                  + ", ".join(map(str, never)))
    print(f"total: {missed} of {total} executable lines never ran")


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PACKAGE.parent))
    executed: dict[str, set[int]] = {}
    trace = tracer(executed)
    with tempfile.TemporaryDirectory(prefix="line_coverage_") as tmp:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = tmp
        threading.settrace(trace)
        sys.settrace(trace)
        try:
            code = pytest.main(["-p", "no:cacheprovider", *argv])
        finally:
            sys.settrace(None)
            threading.settrace(None)
    report(executed)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
