"""List the statements of src/conegen that no tier-1 test executes.

    python scripts/unreached_lines.py [PYTEST ARGS ...]

Runs pytest in this process (tier-1's options, then the given arguments)
under sys.settrace, tracing only frames whose code lies in src/conegen, and
prints, per file, each statement none of whose own lines ran: a simple
statement's lines, a compound statement's header lines and a definition's
decorator lines. Docstrings and `global` statements have no code and are
not listed. Lines run only in child processes (the BLAS kernel child, CLI
spawns) count as unreached. Tracing stops before the report is printed.
Prints the count of unreached statements last; exits with pytest's status.
Takes about 2-3 times as long as tier-1 alone.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conegen"
TIER1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def own_lines(node: ast.stmt) -> set[int]:
    """The lines that belong to the statement itself, not to a statement
    nested in its body."""
    nested = [child.lineno for field in ("body", "orelse", "finalbody", "handlers", "cases")
              for child in getattr(node, field, [])]
    end = min(nested) - 1 if nested else node.end_lineno
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return set(range(first, end + 1))


def has_code(node: ast.stmt) -> bool:
    """False for `global`, `nonlocal` and a bare string (a docstring), which
    compile to no instruction."""
    if isinstance(node, (ast.Global, ast.Nonlocal)):
        return False
    return not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str))


def statements(source: str) -> list[tuple[int, set[int]]]:
    """(first line, own lines) of each statement that has code."""
    return sorted((node.lineno, own_lines(node)) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.stmt) and has_code(node))


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, _event, _arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    import pytest
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(TIER1 + argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        seen = ran.get(str(path), set())
        missed = [first for first, own in statements(source) if not own & seen]
        if missed:
            print(f"{path.relative_to(ROOT)}:")
            for first in missed:
                print(f"  {first:5d}  {lines[first - 1].strip()}")
        total += len(missed)
    print(f"{total} unreached statements")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
