"""Count the lines of each module in src/manifold_dsm by kind.

    python tools/src_lines.py [package_dir] [--base BASE_DIR]

prints, per module and in total, the lines that are docstrings (the string
that opens a module, class or function), comments (a line holding only a
comment), blank, and code (every other line).  Docstrings and comments are
documentation; a change that states its line delta states the code column.

With --base, each column instead gives the signed change from BASE_DIR, the
same package in another tree (say, a checkout of the parent commit), over
the modules of either directory; a module on one side only counts as empty
on the other.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
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


def counts(root: Path) -> dict[str, dict[str, int]]:
    """Per module stem in the directory `root`, its `count`."""
    return {path.stem: count(path.read_text(encoding="utf-8")) for path in root.glob("*.py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog=Path(argv[0]).name, description=__doc__.splitlines()[0])
    parser.add_argument("package_dir", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src" / "manifold_dsm")
    parser.add_argument("--base", type=Path, help="print each column's change from this package directory")
    args = parser.parse_args(argv[1:])
    rows = counts(args.package_dir)
    cell = "{:>10d}"
    if args.base is not None:
        base, empty = counts(args.base), dict.fromkeys(COLUMNS, 0)
        rows = {name: {c: rows.get(name, empty)[c] - base.get(name, empty)[c] for c in COLUMNS}
                for name in rows.keys() | base.keys()}
        cell = "{:>+10d}"
    total = {c: sum(row[c] for row in rows.values()) for c in COLUMNS}
    print(f"{'module':<16}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name, row in sorted(rows.items()) + [("total", total)]:
        print(f"{name:<16}" + "".join(cell.format(row[c]) for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
