"""Count the lines of each module in src/manifold_dsm by kind.

    python tools/src_lines.py [package_dir]

prints, per module and in total, the lines that are docstrings (the string
that opens a module, class or function), comments (a line holding only a
comment), blank, and code (every other line).  Docstrings and comments are
documentation; a change that states its line delta states the code column.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

COLUMNS = ("total", "docstring", "comment", "blank", "code")


def count(source: str) -> dict[str, int]:
    lines = source.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    out = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        kind = ("docstring" if number in doc else "blank" if not text
                else "comment" if text.startswith("#") else "code")
        out[kind] += 1
    out["total"] = len(lines)
    return out


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "manifold_dsm"
    total = dict.fromkeys(COLUMNS, 0)
    print(f"{'module':<16}" + "".join(f"{c:>10}" for c in COLUMNS))
    for path in sorted(root.glob("*.py")):
        row = count(path.read_text(encoding="utf-8"))
        for c in COLUMNS:
            total[c] += row[c]
        print(f"{path.stem:<16}" + "".join(f"{row[c]:>10}" for c in COLUMNS))
    print(f"{'total':<16}" + "".join(f"{total[c]:>10}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
