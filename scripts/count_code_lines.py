"""Count the code lines of each qbattery module and their total.

A line counts when it holds part of an `ast` node and is not blank, not a
comment alone and not inside a docstring (the leading string statement of
a module, class or function).  So a statement written over several lines
counts each of its lines, and a line that only closes a bracket counts as
well.

Usage:
    python scripts/count_code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/qbattery beside this script's directory.  A
directory that holds no *.py file is refused with exit status 2.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Code lines of one module's source text."""
    tree = ast.parse(source)
    spanned: set[int] = set()
    for node in ast.walk(tree):
        if hasattr(node, "lineno") and node.end_lineno is not None:
            spanned.update(range(node.lineno, node.end_lineno + 1))
    text = source.splitlines()
    return sum(
        1
        for lineno in spanned - _docstring_lines(tree)
        if text[lineno - 1].strip() and not text[lineno - 1].strip().startswith("#")
    )


def main() -> int:
    default = Path(__file__).resolve().parents[1] / "src" / "qbattery"
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("package_dir", nargs="?", default=str(default))
    args = parser.parse_args()
    paths = sorted(Path(args.package_dir).glob("*.py"))
    if not paths:
        parser.error(f"no *.py files in {args.package_dir}")
    total = 0
    for path in paths:
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<20} {count:>6,}")
    print(f"{'total':<20} {total:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
