"""The line counter in tools/src_lines.py, whose code column change notes cite."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "manifold_dsm"


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# each line of a synthetic module with the column it belongs in
LABELLED = [
    ('"""Module docstring', "docstring"),
    ('over two lines."""', "docstring"),
    ("", "blank"),
    ("import os  # a trailing comment leaves the line code", "code"),
    ("# a comment line", "comment"),
    ("    # an indented comment line", "comment"),
    ("", "blank"),
    ("", "blank"),
    ("class A:", "code"),
    ('    """Class docstring."""', "docstring"),
    ("", "blank"),
    ("    x = 1", "code"),
    ("", "blank"),
    ("    def f(self):", "code"),
    ('        """Function', "docstring"),
    ('        docstring."""', "docstring"),
    ("        # a comment in a body", "comment"),
    ('        y = """a string, not a docstring', "code"),
    ('        """', "code"),
    ("        return y", "code"),
    ("", "blank"),
    ("", "blank"),
    ("async def g():", "code"),
    ("    'async docstring'", "docstring"),
    ("    '''second string: code'''", "code"),
    ("    pass", "code"),
]


def test_each_column_of_a_synthetic_module(src_lines):
    source = "\n".join(line for line, _ in LABELLED) + "\n"
    want = {c: sum(kind == c for _, kind in LABELLED) for c in src_lines.COLUMNS}
    want["total"] = len(LABELLED)
    assert src_lines.count(source) == want


def test_every_row_of_the_package_adds_up(src_lines, capsys):
    assert src_lines.main(["src_lines.py"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", *src_lines.COLUMNS]
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    assert [row.split()[0] for row in rows] == sorted(modules) + ["total"]
    sums = [0] * len(src_lines.COLUMNS)
    for row in rows:
        name, *values = row.split()
        total, *parts = map(int, values)
        assert total == sum(parts), row
        if name == "total":
            assert [total, *parts] == sums
        else:
            assert total == len(modules[name].read_text(encoding="utf-8").splitlines())
            sums = [s + v for s, v in zip(sums, [total, *parts])]


def write_package(root, modules):
    root.mkdir()
    for name, source in modules.items():
        (root / f"{name}.py").write_text(source, encoding="utf-8")
    return root


def test_base_prints_each_column_change_per_module(src_lines, tmp_path, capsys):
    # kept: one code line and a comment line gone, a docstring line and a
    # blank line added; added and removed modules count as empty on the
    # side that lacks them
    base = write_package(tmp_path / "base", {
        "kept": '"""Doc."""\nx = 1\ny = 2\n# note\n',
        "removed": "a = 1\n\n",
    })
    new = write_package(tmp_path / "new", {
        "kept": '"""Doc\nover two lines."""\n\nx = 1\n',
        "added": "# only a comment\n",
    })
    assert src_lines.main(["src_lines.py", str(new), "--base", str(base)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", *src_lines.COLUMNS]
    assert [row.split() for row in rows] == [
        ["added", "+1", "+0", "+1", "+0", "+0"],
        ["kept", "+0", "+1", "-1", "+1", "-1"],
        ["removed", "-2", "+0", "+0", "-1", "-1"],
        ["total", "-1", "+1", "+0", "+0", "-2"],
    ]


def test_base_against_itself_reads_zero(src_lines, capsys):
    assert src_lines.main(["src_lines.py", str(PACKAGE), "--base", str(PACKAGE)]) == 0
    _, *rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == sorted(p.stem for p in PACKAGE.glob("*.py")) + ["total"]
    assert all(row.split()[1:] == ["+0"] * len(src_lines.COLUMNS) for row in rows)
