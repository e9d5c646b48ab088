"""Print every executable line of ``src/venplan`` that the tier-1 suite never runs.

It runs the suite in this process, as ``python -m pytest -q
--continue-on-collection-errors`` from the repository root does, under a
``sys.settrace`` line tracer that records lines only in frames whose code
lies in ``src/venplan``. A line is executable when some code object of its
module maps an instruction to it. It is not a pytest module, takes no
options and needs only the standard library besides pytest itself:

    python tests/uncovered_lines.py

It prints one ``path:line: text`` row per line that never ran, then a
count. Tests that run the CLI in a subprocess (``run_module``,
``run_python``, the demos) are not traced, so lines only they reach are
listed too. Tracing roughly doubles the suite's run time. The exit status
is pytest's.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "venplan"
PREFIX = str(PACKAGE) + os.sep

seen: set[tuple[str, int]] = set()


def _line(frame, event, arg):
    if event == "line":
        seen.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    """Trace lines only in the package's frames."""
    return _line if frame.f_code.co_filename.startswith(PREFIX) else None


def executable_lines(path: Path) -> set[int]:
    """Every line some instruction of ``path``'s code objects maps to."""
    lines = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    os.chdir(ROOT)  # the suite's configuration and relative paths assume it
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        ran = {line for file, line in seen if file == str(path)}
        for line in sorted(executable_lines(path) - ran):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
