"""List the statements of ``src/hypercross`` that a test run never executes.

A pytest plugin that needs nothing beyond the standard library.  Load it
with ``-p`` next to the tier-1 command:

    PYTHONPATH=src:tools python -m pytest -q -p untested_lines

From ``pytest_configure`` to the end of the session it traces every thread
(``sys.settrace`` and ``threading.settrace``), recording the lines run in
frames whose code lies in ``src/hypercross``.  It then prints each statement
of the package none of whose lines ran, as ``path:line: source``, and their
count.  The session then exits 1 when the count is not 0 and every test
passed (a run with failures keeps its own status), so the whole suite is a
gate on untested statements; a run of part of the suite fails it too.  A
statement's lines are the lines the compiler gives its bytecode, less those
of any statement nested in it; a function's prologue (the instructions up to
its ``RESUME``, attributed to the ``def`` line) is not a line of its body.
Tracing slows the run by about half.
"""

from __future__ import annotations

import ast
import dis
import sys
import threading
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypercross"

_ran: dict[str, set[int]] = {}
_traced: dict[str, bool] = {}
_missing: list[tuple[Path, int, str]] = []


def _record(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _record


def _on_call(frame, event, arg):
    filename = frame.f_code.co_filename
    traced = _traced.get(filename)
    if traced is None:
        traced = _traced[filename] = Path(filename).resolve().is_relative_to(PACKAGE)
        if traced:
            _ran.setdefault(filename, set())
    return _record if traced else None


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _executable_lines(code: types.CodeType) -> set[int]:
    lines = set()
    for c in _code_objects(code):
        body = list(dis.get_instructions(c))
        if c.co_name != "<module>":
            # the prologue up to RESUME runs on the call, with no line event
            body = body[next(i for i, ins in enumerate(body) if ins.opname == "RESUME") + 1 :]
        lines.update(ins.positions.lineno for ins in body if ins.positions.lineno)
    return lines


def _statement_of_line(tree: ast.AST) -> dict[int, ast.stmt]:
    """Each line's innermost statement, decorators included (a breadth-first
    walk sees a statement before the ones nested in it)."""
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            for line in range(first, node.end_lineno + 1):
                owner[line] = node
    return owner


def untested_statements() -> list[tuple[Path, int, str]]:
    """(path, first line, source line) of every statement no traced frame ran."""
    missing = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        owner = _statement_of_line(ast.parse(source))
        ran = set().union(*(lines for name, lines in _ran.items() if Path(name).resolve() == path))
        by_statement: dict[ast.stmt, set[int]] = {}
        for line in _executable_lines(compile(source, str(path), "exec")):
            by_statement.setdefault(owner[line], set()).add(line)
        text = source.splitlines()
        for stmt, lines in by_statement.items():
            if not lines & ran:
                missing.append((path, stmt.lineno, text[stmt.lineno - 1].strip()))
    return sorted(missing)


def pytest_configure(config):
    threading.settrace(_on_call)
    sys.settrace(_on_call)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    _missing[:] = untested_statements()
    if _missing and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    terminalreporter.section("untested statements")
    for path, line, text in _missing:
        terminalreporter.write_line(f"{path.relative_to(PACKAGE.parents[1])}:{line}: {text}")
    terminalreporter.write_line(f"{len(_missing)} statements of {PACKAGE.name} never ran")
