"""A pytest plugin that fails the session when a statement of ``abelianbp`` never ran.

Load it with ``PYTHONPATH=src:tests python -m pytest -p line_gate`` on the whole
suite.  It traces the package's files with `sys.settrace` from collection on,
re-armed before each test because hypothesis replaces the tracer.  At session
end it lists every statement in a function body that never ran.  A statement
whose lines carry ``# pragma: no cover`` is exempt with the block it opens, and
so is the clause an ``else:``, ``finally:`` or ``except`` line with it opens.
"""

import ast
import importlib.util
import sys
from collections import defaultdict
from pathlib import Path

PRAGMA = "# pragma: no cover"
PACKAGE = Path(importlib.util.find_spec("abelianbp").submodule_search_locations[0])
FILES = {str(p) for p in PACKAGE.glob("*.py")}
_ran = defaultdict(set)
_missed = []


def _local(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename in FILES else None


def _opener(text, clause):
    """Line of the ``else:`` or ``finally:`` that opens `clause`; None for an ``elif``."""
    if text[clause[0].lineno - 1].lstrip().startswith("elif"):
        return None
    return next(i for i in range(clause[0].lineno, 0, -1)
                if text[i - 1].lstrip().startswith(("else", "finally")))


def _statements(body, text, in_def):
    """(first line, header lines) of each statement under a def, outside pragma blocks."""
    for st in body:
        if isinstance(st, (ast.Global, ast.Nonlocal)) or (
                isinstance(st, ast.Expr) and isinstance(st.value, ast.Constant)):
            continue                                     # no code: declarations, docstrings
        clauses = [(None, st.body)] if hasattr(st, "body") else []
        clauses += [(h.lineno, h.body) for h in getattr(st, "handlers", [])]
        clauses += [(_opener(text, c), c) for c in (getattr(st, "orelse", []),
                                                    getattr(st, "finalbody", [])) if c]
        start = min([st.lineno] + [d.lineno for d in getattr(st, "decorator_list", [])])
        stop = clauses[0][1][0].lineno if clauses else st.end_lineno + 1
        if any(PRAGMA in text[i - 1] for i in range(start, stop)):
            continue
        if in_def and not isinstance(st, ast.Try):       # `try:` itself runs no code
            yield start, range(start, stop)
        inner = in_def or isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef))
        for opener, clause in clauses:
            if opener is None or PRAGMA not in text[opener - 1]:
                yield from _statements(clause, text, inner)


def pytest_configure(config):
    sys.settrace(_global)                # from collection on: imports call some functions


def pytest_runtest_setup(item):
    sys.settrace(_global)


def pytest_sessionfinish(session):
    sys.settrace(None)
    for name in sorted(FILES):
        text = Path(name).read_text().splitlines()
        for first, lines in _statements(ast.parse("\n".join(text)).body, text, False):
            if not _ran[name].intersection(lines):
                _missed.append(f"{Path(name).relative_to(PACKAGE.parent)}:{first}")
    if _missed:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    for where in _missed:
        terminalreporter.write_line(f"line gate: never ran: {where}")
    if _missed:
        terminalreporter.write_line(f"line gate: failed, {len(_missed)} statement(s) never ran")
