"""The verdict of tools/train_pairs.py on the artifact hashes its runs wrote,
its reports of how far two trees' losses and samples are apart, the run
config it writes and the row count it samples."""

import importlib.util
import json
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


DRIFT_LINE = ("name=manifold_drift value={} std_error=1e-06 measure=nearest_support "
              "projected=False seed=502 stage=pre_projection\n")


def test_sample_gap_reports_logged_drift_and_largest_coordinate_gap(train_pairs):
    outputs = {
        "base": {"samples.csv": "x0,x1\n0.5,1.0\n-0.25,2.0\n",
                 "metrics.log": DRIFT_LINE.format("0.0012")},
        "change": {"samples.csv": "x0,x1\n0.5,1.0000001\n-0.5,2.0\n",
                   "metrics.log": DRIFT_LINE.format("0.0013")},
    }
    assert train_pairs.sample_gap(outputs) == [
        "base: logged drift 0.0012",
        "change: logged drift 0.0013",
        "largest |base - change| sample coordinate: 0.25",
    ]


def test_sample_gap_on_tables_of_different_shape_and_no_drift(train_pairs):
    outputs = {
        "base": {"samples.csv": "x0,x1\n0.5,1.0\n", "metrics.log": ""},
        "change": {"samples.csv": "x0,x1\n0.5,1.0\n0.0,0.0\n",
                   "metrics.log": DRIFT_LINE.format("0.5")},
    }
    assert train_pairs.sample_gap(outputs) == [
        "base: logged drift none",
        "change: logged drift 0.5",
        "samples differ in shape: no coordinate gap",
    ]


def test_loss_gap_reports_each_loss_tail_and_the_largest_step_gap(train_pairs):
    outputs = {
        "base": {"loss.csv": "step,loss\n0,4.0\n1,2.0\n2,1.0\n3,0.5\n"},
        "change": {"loss.csv": "step,loss\n0,4.0\n1,2.25\n2,1.0\n3,0.25\n"},
    }
    # the tail is the second half of the steps: rows 2 and 3
    assert train_pairs.loss_gap(outputs) == [
        "base: loss tail 0.75",
        "change: loss tail 0.625",
        "largest |base - change| per-step loss: 0.25",
    ]


def test_loss_gap_on_curves_of_different_length_and_no_steps(train_pairs):
    outputs = {
        "base": {"loss.csv": "step,loss\n"},
        "change": {"loss.csv": "step,loss\n0,1.5\n1,0.5\n2,0.25\n"},
    }
    assert train_pairs.loss_gap(outputs) == [
        "base: loss tail none",
        "change: loss tail 0.375",
        "loss curves differ in length: no per-step gap",
    ]


@pytest.mark.parametrize("workload", ["ring", "s3"])
def test_the_run_config_written_trains_the_asked_loss_kind(train_pairs, monkeypatch, workload):
    # stop at the first `mdsm` run and read the config file it was given
    written = []

    class Stop(Exception):
        pass

    def first_run(tree, argv, out, taskset):
        written.append(Path(argv[argv.index("--config") + 1]).read_text())
        raise Stop

    monkeypatch.setattr(train_pairs, "run_once", first_run)
    repo = str(TOOL.parents[1])
    for extra in ([], ["--loss-kind", "mad"], ["--loss-kind", "dsm"]):
        with pytest.raises(Stop):
            train_pairs.main([repo, repo, "--workload", workload, *extra])
    # the default writes the workload's config byte for byte, as before the option
    assert written[0] == written[1] == json.dumps(train_pairs.CONFIGS[workload])
    default, dsm = json.loads(written[0]), json.loads(written[2])
    assert default["training"]["loss_kind"] == "mad"
    assert dsm == {**default, "training": {**default["training"], "loss_kind": "dsm"}}


@pytest.mark.parametrize("workload,default", [("ring", "10000"), ("s3", "4096")])
def test_the_sample_phase_samples_the_asked_row_count(train_pairs, monkeypatch, workload,
                                                       default):
    # the first `mdsm` run trains the checkpoint; stop at the first sample run
    sampled = []

    class Stop(Exception):
        pass

    def run(tree, argv, out, taskset):
        if argv[0] == "sample":
            sampled.append(argv[argv.index("--n") + 1])
            raise Stop

    monkeypatch.setattr(train_pairs, "run_once", run)
    repo = str(TOOL.parents[1])
    for extra in ([], ["--n", "2049"]):
        with pytest.raises(Stop):
            train_pairs.main([repo, repo, "--workload", workload, "--phase", "sample", *extra])
    assert sampled == [default, "2049"]


@pytest.mark.parametrize("argv", [["--n", "2049"], ["--phase", "sample", "--n", "0"]],
                         ids=["train_phase", "no_rows"])
def test_a_row_count_needs_the_sample_phase_and_a_row(train_pairs, capsys, argv):
    repo = str(TOOL.parents[1])
    with pytest.raises(SystemExit) as exit_:
        train_pairs.main([repo, repo, *argv])
    assert exit_.value.code == 2
    assert "--n takes a row count >= 1, with --phase sample" in capsys.readouterr().err
