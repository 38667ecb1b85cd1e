"""List the statements of the ermine package that the test suite never runs.

It runs the suite in this process under ``sys.settrace``, tracing only
frames of the package's own modules, then prints each statement that
never ran as ``path:line: source``, skipping docstrings.  Lines that run
only in a subprocess (``python -m ermine``, ``cli_runs.py`` as a script)
are not seen, so ``__main__.py`` is always listed.  Tracing makes the
suite several times slower.  Run from the repository root:

    python tests/unrun_lines.py [PYTEST_ARGS...]

PYTEST_ARGS default to ``-q --continue-on-collection-errors``.  It exits
with pytest's exit code.
"""

import ast
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ermine"
DEFAULT_ARGS = ("-q", "--continue-on-collection-errors")


def trace_suite(args) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest with ``args`` in this process; its exit code and the
    (file, line) pairs that ran in the package's modules."""
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = f"{PACKAGE}/"
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(list(args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def _docstring(node):
    """The docstring statement of a module, class or function, or None."""
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            return first
    return None


def _nested(node) -> list:
    """The statements directly inside a compound statement."""
    out = []
    for name in ("body", "orelse", "finalbody"):
        out += getattr(node, name, [])
    for clause in getattr(node, "handlers", []) + getattr(node, "cases", []):
        out += clause.body
    return out


def unrun_statements(stmts, ran: set[int], docstring=None) -> tuple[bool, list[int]]:
    """Whether any of ``stmts`` ran, and the first lines of those that
    never ran, nested ones included.  A statement ran if a line of its
    own ran (for a compound statement, a line of its header, up to its
    first nested statement) or a statement nested in it ran."""
    any_ran, unrun = False, []
    for stmt in stmts:
        if stmt is docstring:
            continue
        nested = _nested(stmt)
        first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
        last = nested[0].lineno - 1 if nested else stmt.end_lineno
        inner_ran, inner_unrun = unrun_statements(nested, ran, _docstring(stmt))
        own = inner_ran or not ran.isdisjoint(range(first, max(last, stmt.lineno) + 1))
        if not own:
            unrun.append(stmt.lineno)
        unrun += inner_unrun
        any_ran |= own
    return any_ran, unrun


def main(argv) -> int:
    code, ran = trace_suite(argv or DEFAULT_ARGS)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        lines = {line for name, line in ran if name == str(path)}
        _, unrun = unrun_statements(tree.body, lines, _docstring(tree))
        text = source.splitlines()
        for line in sorted(unrun):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        total += len(unrun)
    print(f"{total} statements never ran; lines run only in subprocesses are not seen")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
