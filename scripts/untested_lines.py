"""List the statements of ``src/wergm`` that the tier-1 tests never run.

Usage, from anywhere in a checkout::

    python3 scripts/untested_lines.py

The script takes no options.  It runs the tier-1 suite (``tests/``) in this
process through ``pytest.main``, under a ``sys.settrace`` tracer that
follows only frames whose code lives in ``src/wergm`` and records each line
they run.  Then it reads every module's ``ast`` and prints, module by
module, each statement of which no line ran, as ``file:line: source``,
with a count at the end.  Docstrings, ``def`` and ``class`` headers and
``global``/``nonlocal`` declarations do not count.  A compound statement
(``if``, ``for``, ``try``, ...) counts as run when any of its lines did, so
an untaken branch is listed by the statements inside it.

Only this process is traced: code that runs only in a child process, as
``__main__.py`` does under ``python -m wergm``, is listed as never run.
Tracing makes the suite about five times slower (26 s to 140 s with
CPython 3.11 on a 2-CPU VM), so the script is not part of tier-1.  Its
exit status is pytest's when the suite fails, and 0 otherwise.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wergm"


def _trace_suite() -> tuple[int, set[tuple[str, int]]]:
    """Run the tests under the tracer: pytest's exit code and the lines run."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ours: dict = {}
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if code not in ours:
            ours[code] = code.co_filename.startswith(prefix)
        return local if ours[code] else None

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _statements(body: list[ast.stmt], scope: bool = True):
    """Every statement of ``body`` that counts, with the ones nested in it.

    ``scope`` says that ``body`` is a module, ``def`` or ``class`` body,
    whose first statement may be a docstring.
    """
    for index, node in enumerate(body):
        if (scope and index == 0 and isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        if not isinstance(node, (*_SCOPES, ast.Global, ast.Nonlocal)):
            yield node
        blocks = (getattr(node, "body", None), getattr(node, "orelse", None),
                  getattr(node, "finalbody", None),
                  *(child.body for child in getattr(node, "handlers", ())),
                  *(child.body for child in getattr(node, "cases", ())))
        for block in blocks:
            if block:
                yield from _statements(block, isinstance(node, _SCOPES))


def main() -> int:
    code, ran = _trace_suite()
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        name = str(path)
        for node in _statements(ast.parse(source).body):
            if not any((name, line) in ran
                       for line in range(node.lineno, node.end_lineno + 1)):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{node.lineno}: "
                      f"{lines[node.lineno - 1].strip()}")
    print(f"{missed} statements in src/wergm never ran under the tier-1 tests")
    return code


if __name__ == "__main__":
    sys.exit(main())
