"""Line gate: run tier-1 under a line tracer and list every line of
``src/cattab`` that no test executes.

    python tools/line_gate.py [pytest arguments ...]

The tracer is installed (``sys.settrace`` and ``threading.settrace``)
before cattab is imported, and tier-1 then runs in this process through
``pytest.main``; extra arguments go to pytest. Pass
``--hypothesis-seed=0``, as CI does, so that the lines hypothesis tests
run are the same on every run. A module's executable lines are those its code objects name in
``co_lines()``. A line that can never run is exempt when it, or the
block of comment lines directly above it, says ``# unreachable:``
followed by the reason.

Exit status: 0 when tier-1 passes and every other executable line ran;
1 when tier-1 fails, or when a line neither ran nor is marked, each such
``file:line`` listed on stdout. Standard library only (and pytest).
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cattab"
MARKER = "# unreachable:"

_prefix = str(PACKAGE) + os.sep
_executed: dict[str, set[int]] = {}


def _local(frame, event, arg):
    if event == "line":
        _executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(_prefix):
        return None
    _executed.setdefault(filename, set())
    return _local


def executable_lines(path: Path) -> set[int]:
    """Every line a code object of the module attributes an instruction to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        # Line 0 is a module's own entry instruction, never a source line.
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def marked(source: list[str], line: int) -> bool:
    """Whether line (1-based) or the comment block directly above it
    carries the unreachable marker."""
    k = line - 1
    if MARKER in source[k]:
        return True
    k -= 1
    while k >= 0 and source[k].lstrip().startswith("#"):
        if source[k].lstrip().startswith(MARKER):
            return True
        k -= 1
    return False


def missed_lines() -> list[str]:
    missed = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        ran = _executed.get(str(path), set())
        missed += [f"{path.relative_to(ROOT)}:{line}"
                   for line in sorted(executable_lines(path) - ran)
                   if not marked(source, line)]
    return missed


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        import pytest

        status = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    import cattab

    if not Path(cattab.__file__).resolve().is_relative_to(PACKAGE):
        print(f"line gate: cattab was imported from {cattab.__file__}, not {PACKAGE}")
        return 1
    if status != 0:
        print(f"line gate: tier-1 failed (pytest exit status {int(status)})")
        return 1
    missed = missed_lines()
    for where in missed:
        print(f"line gate: not executed and not marked unreachable: {where}")
    if missed:
        return 1
    print("line gate: every executable line of src/cattab ran, or is marked unreachable")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
