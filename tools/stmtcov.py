#!/usr/bin/env python3
"""List the statements of ``src/ramseylock`` that the test suite never runs.

Usage, from any directory::

    python3 tools/stmtcov.py

The suite runs in this process, as ``pytest -q -p no:cacheprovider tests``
from the repository root with nothing deselected, under ``sys.settrace``
(and ``threading.settrace`` for any thread it starts), which records the
lines executed in the package's own frames.  Then every statement of the
package that none of its lines ran is printed as ``path:line: source``.
A statement here is any ``ast`` statement but a def, a class, an import, a
docstring, or one inside an ``if __name__ == "__main__":`` block.  A
multi-line statement counts as run if any of its lines ran, since its first
instruction need not sit on its first line.  The last line printed is the
suite's own exit code.  The script exits 1 if it printed any statement and
0 otherwise.  It needs nothing beyond the standard library and pytest, and
takes about twice as long as the suite alone.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ramseylock"

#: Statements that declare a name rather than compute: never listed.
_DECLARATIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _run_suite() -> tuple[int, dict[str, set[int]]]:
    """The suite's exit code, and the lines it ran in each package file."""
    import pytest

    executed: dict[str, set[int]] = {}
    prefix = f"{PACKAGE}{os.sep}"

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None  # no line events outside the package
        lines = executed.setdefault(path, set())

        def record(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return record

        return record

    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), executed


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _is_main_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def _statements(node: ast.AST):
    """Every statement under ``node`` that computes, in source order."""
    documented = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                   ast.AsyncFunctionDef))
    for name, value in ast.iter_fields(node):
        if not isinstance(value, list):
            continue
        for i, child in enumerate(value):
            if not isinstance(child, ast.AST):
                continue
            if isinstance(child, ast.stmt):
                if _is_main_guard(child) or (documented and name == "body" and i == 0
                                             and _is_docstring(child)):
                    continue
                if not isinstance(child, _DECLARATIONS):
                    yield child
            yield from _statements(child)


def main() -> int:
    code, executed = _run_suite()
    unrun = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, ran = source.splitlines(), executed.get(str(path), set())
        for node in _statements(ast.parse(source, filename=str(path))):
            if ran.isdisjoint(range(node.lineno, node.end_lineno + 1)):
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    print(f"suite exit code: {code}")
    return 1 if unrun else 0


if __name__ == "__main__":
    raise SystemExit(main())
