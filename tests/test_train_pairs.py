"""The verdict of tools/train_pairs.py on the artifact hashes its runs wrote."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "train_pairs.py"


@pytest.fixture(scope="module")
def train_pairs():
    spec = importlib.util.spec_from_file_location("train_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hashes(base, change):
    """Per tree, per artifact, the set of digests its runs wrote."""
    return {"base": {name: set(d) for name, d in base.items()},
            "change": {name: set(d) for name, d in change.items()}}


@pytest.mark.parametrize("base,change,status,says", [
    # every run of both trees wrote the same bytes
    ({"checkpoint.bin": "a", "loss.csv": "b"}, {"checkpoint.bin": "a", "loss.csv": "b"}, 0,
     ["base: reproducible", "change: reproducible", "trees identical"]),
    # each tree reproducible, the change moved one artifact's bytes
    ({"samples.csv": "a", "metrics.log": "b"}, {"samples.csv": "c", "metrics.log": "b"}, 2,
     ["base: reproducible", "change: reproducible", "trees DIFFER"]),
    # the change wrote two digests for one artifact over its runs
    ({"checkpoint.bin": "a", "loss.csv": "b"}, {"checkpoint.bin": "ad", "loss.csv": "b"}, 1,
     ["base: reproducible", "change: NOT reproducible (checkpoint.bin", "trees DIFFER"]),
    # the base varies while the change's one digest is among the base's
    ({"checkpoint.bin": "ab", "loss.csv": "c"}, {"checkpoint.bin": "a", "loss.csv": "c"}, 1,
     ["base: NOT reproducible (checkpoint.bin", "change: reproducible", "trees DIFFER"]),
    # both vary the same way: equal sets are still not reproducible
    ({"checkpoint.bin": "ab", "loss.csv": "c"}, {"checkpoint.bin": "ab", "loss.csv": "c"}, 1,
     ["base: NOT reproducible", "change: NOT reproducible", "trees identical"]),
])
def test_verdict_separates_each_tree_from_the_comparison(train_pairs, base, change, status, says):
    lines, got = train_pairs.verdict(hashes(base, change))
    assert got == status
    assert len(lines) == len(says)
    for line, start in zip(lines, says, strict=True):
        assert line.startswith(start), (line, start)
