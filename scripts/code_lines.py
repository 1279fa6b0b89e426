"""Count the code lines of Python files: lines that hold a token outside
comments and docstrings.

    python scripts/code_lines.py [PATH ...]   (default: src/conegen)

A directory counts every .py file below it. A docstring is the first
statement of a module, class or function when that statement is a string;
a multi-line token counts every line it spans. Prints one line per file,
then the total.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    total = 0
    for arg in argv or ["src/conegen"]:
        path = Path(arg)
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            n = code_lines(file.read_text())
            total += n
            print(f"{n:6d}  {file}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
