"""End-to-end checks of the command line interface.

Commands run in-process through main(argv) so exit codes and stderr are
observable without spawning interpreters.  Runs are kept tiny; statistical
quality of outputs is covered by the module tests, here we check wiring,
file formats, exit codes, and byte-level reproducibility.
"""

import json
import struct
import warnings

import numpy as np
import pytest

from manifold_dsm import cli, mlp, rowblocks
from manifold_dsm.cli import main
from manifold_dsm.datasets import circle_points, skewed_pmf
from manifold_dsm.geometry import build_symmetry_group, quat_mul
from manifold_dsm.mlp import MlpConfig, init_params, load_checkpoint, save_checkpoint
from test_mlp import rebuild_blob


def write_config(tmp_path, **overrides):
    cfg = {
        "dataset": {"kind": "discrete_skewed", "n_coords": 8, "decay": 0.8, "seed": 7},
        "manifold": {"kind": "discrete_circle", "n_coords": 8},
        "schedule": {"sigma_min": 1e-4, "sigma_max": 4.0, "num_scales": 100},
        "model": {"hidden_dim": 16, "num_hidden_layers": 2, "activation": "relu"},
        "training": {
            "loss_kind": "mad",
            "steps": 30,
            "batch_size": 64,
            "lr": 2e-3,
            "seed": 1,
            "n_data": 256,
        },
        "out_dir": str(tmp_path / "run"),
    }
    for key, val in overrides.items():
        if isinstance(val, dict):
            cfg[key] = {**cfg[key], **val}
        else:
            cfg[key] = val
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def write_samples(path, arr):
    lines = [",".join(f"x{i}" for i in range(arr.shape[1]))]
    lines += [",".join(repr(float(v)) for v in row) for row in arr]
    path.write_text("\n".join(lines) + "\n")


# ------------------------------------------------------------- make-data ----


def test_make_data_writes_csv_and_sidecar(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "data"
    assert main(["make-data", "--config", str(cfg), "--n", "50", "--out", str(out)]) == 0
    rows = (out / "data.csv").read_text().splitlines()
    assert rows[0] == "x0,x1"
    assert len(rows) == 51
    pts = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    # every discrete draw lies exactly on the 8-point circle
    d2 = np.sum((pts[:, None, :] - circle_points(8)[None, :, :]) ** 2, axis=2)
    assert np.min(d2, axis=1).max() == 0.0
    sidecar = json.loads((out / "make-data.config.json").read_text())
    assert sidecar["dataset"]["kind"] == "discrete_skewed"
    assert sidecar["dataset"]["seed"] == 7
    assert sidecar["n"] == 50


def test_make_data_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["make-data", "--config", str(cfg), "--n", "80", "--out", str(a)])
    main(["make-data", "--config", str(cfg), "--n", "80", "--out", str(b)])
    main(["make-data", "--config", str(cfg), "--n", "80", "--seed", "8", "--out", str(c)])
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "data.csv").read_bytes() != (c / "data.csv").read_bytes()
    assert json.loads((c / "make-data.config.json").read_text())["dataset"]["seed"] == 8


def test_make_data_latlon_error_reports_line(tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    csv.write_text("lat,lon\n10,20\n95,30\n")
    cfg = write_config(tmp_path, dataset={"kind": "latlon_file", "path": str(csv)})
    rc = main(["make-data", "--config", str(cfg), "--n", "5", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


def test_make_data_latlon_honours_n(tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    csv.write_text("lat,lon\n10,20\n-5,30\n40,-60\n")
    cfg = write_config(tmp_path, dataset={"kind": "latlon_file", "path": str(csv)})
    for n, rows in (("1", 1), ("3", 3), ("10", 3)):
        out = tmp_path / f"o{n}"
        assert main(["make-data", "--config", str(cfg), "--n", n, "--out", str(out)]) == 0
        assert len((out / "data.csv").read_text().splitlines()) == 1 + rows
        assert f"wrote {rows} samples" in capsys.readouterr().out


def test_missing_config_section_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dataset": {"kind": "discrete_uniform"}}))
    rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "manifold" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"dataset": ', '{"training": {"lr": 1' + "0" * 5000 + "}}"],
                         ids=["truncated", "int_past_digit_limit"])
def test_unreadable_json_config_exits_one(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: config {path} is not valid JSON: ")


def test_unknown_dataset_kind_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, dataset={"kind": "mystery"})
    rc = main(["make-data", "--config", str(cfg), "--n", "5", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "mystery" in capsys.readouterr().err


# ----------------------------------------------------------------- train ----


def test_train_outputs_and_rerun_identical(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg)]) == 0
    loss_rows = (out / "loss.csv").read_text().splitlines()
    assert loss_rows[0] == "step,loss"
    assert len(loss_rows) == 31
    assert loss_rows[1].startswith("0,")
    first = {name: (out / name).read_bytes()
             for name in ("checkpoint.bin", "loss.csv", "train.config.json")}
    assert main(["train", "--config", str(cfg)]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob
    resolved = json.loads((out / "train.config.json").read_text())
    # defaults are expanded, nothing left implicit
    assert resolved["model"]["input_dim"] == 2
    assert resolved["model"]["sigma_embedding"] == "log_sigma_concat"
    assert resolved["schedule"]["num_scales"] == 100
    assert resolved["training"]["loss_kind"] == "mad"


README_RUN = {
    "dataset": {"kind": "discrete_skewed", "n_coords": 8, "decay": 0.8, "seed": 7},
    "manifold": {"kind": "discrete_circle", "n_coords": 8},
    "schedule": {"sigma_min": 1e-4, "sigma_max": 4.0, "num_scales": 100},
    "model": {"hidden_dim": 128, "num_hidden_layers": 3, "activation": "relu"},
    "training": {"loss_kind": "mad", "steps": 2, "batch_size": 512,
                 "lr": 2e-3, "seed": 2, "n_data": 16384},
}
README_RESOLVED = {
    "dataset": {"components": [], "decay": 0.8, "kind": "discrete_skewed", "manifold_n": 2,
                "n_coords": 8, "path": "", "seed": 7},
    "manifold": {"kind": "discrete_circle", "n_coords": 8},
    "model": {"activation": "relu", "antisymmetrize": False, "fourier_dim": 0,
              "hidden_dim": 128, "input_dim": 2, "num_hidden_layers": 3,
              "sigma_embedding": "log_sigma_concat"},
    "schedule": {"num_scales": 100, "sigma_max": 4.0, "sigma_min": 0.0001},
    "training": {"batch_size": 512, "loss_kind": "mad", "lr": 0.002, "n_data": 16384,
                 "seed": 2, "steps": 2},
}
S3_RUN = {
    "dataset": {"kind": "vmf_mixture", "manifold_n": 3, "seed": 201,
                "components": [[[1.0, 0.0, 0.0, 0.0], 40.0, 0.5], [[0.0, 1.0, 0.0, 0.0], 40.0, 0.5]]},
    "manifold": {"kind": "rotation_group"},
    "schedule": {"sigma_min": 1e-4, "sigma_max": 2.0, "num_scales": 100},
    "model": {"hidden_dim": 16, "num_hidden_layers": 2, "activation": "silu",
              "antisymmetrize": True},
    "training": {"loss_kind": "dsm", "steps": 2, "batch_size": 32, "lr": 2e-3, "seed": 1,
                 "n_data": 64},
}
S3_RESOLVED = {
    "dataset": {"components": [[[1.0, 0.0, 0.0, 0.0], 40.0, 0.5], [[0.0, 1.0, 0.0, 0.0], 40.0, 0.5]],
                "decay": 0.8, "kind": "vmf_mixture", "manifold_n": 3, "n_coords": 8, "path": "",
                "seed": 201},
    "manifold": {"kind": "rotation_group"},
    "model": {"activation": "silu", "antisymmetrize": True, "fourier_dim": 0, "hidden_dim": 16,
              "input_dim": 4, "num_hidden_layers": 2, "sigma_embedding": "log_sigma_concat"},
    "schedule": {"num_scales": 100, "sigma_max": 2.0, "sigma_min": 0.0001},
    "training": {"batch_size": 32, "loss_kind": "dsm", "lr": 0.002, "n_data": 64, "seed": 1,
                 "steps": 2},
}


@pytest.mark.parametrize(
    "run, resolved, layer_shapes",
    [
        (README_RUN, README_RESOLVED, [[3, 128], [128, 128], [128, 128], [128, 2]]),
        (S3_RUN, S3_RESOLVED, [[5, 16], [16, 16], [16, 4]]),
    ],
    ids=["readme_ring", "antisymmetric_s3"],
)
def test_train_records_are_byte_stable(tmp_path, run, resolved, layer_shapes):
    # the exact text of the run record and of the checkpoint header, as the
    # earliest versions of the program wrote them; reruns from old records
    # depend on both staying put
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run))
    out = tmp_path / "out"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    record = {**resolved, "out_dir": str(out)}
    text = (out / "train.config.json").read_text()
    assert text == json.dumps(record, sort_keys=True, indent=2) + "\n"
    blob = (out / "checkpoint.bin").read_bytes()
    assert blob[:8] == b"SCORENET"
    version, hdr_len = struct.unpack_from("<II", blob, 8)
    assert version == 1
    extras = {key: resolved[key] for key in ("dataset", "manifold", "schedule")}
    header = {
        "config": resolved["model"],
        "extras": {**extras, "loss_kind": resolved["training"]["loss_kind"]},
        "layer_shapes": layer_shapes,
    }
    assert blob[16 : 16 + hdr_len].decode("utf-8") == json.dumps(header, sort_keys=True)


def test_train_reruns_from_its_own_record(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    first = tmp_path / "run"
    assert main(["train", "--config", str(first / "train.config.json"),
                 "--out", str(tmp_path / "again")]) == 0
    for name in ("checkpoint.bin", "loss.csv"):
        assert (tmp_path / "again" / name).read_bytes() == (first / name).read_bytes()


@pytest.mark.parametrize(
    "section, value, message",
    [
        ("dataset", {"seeds": 1}, "dataset: unknown key 'seeds'"),
        ("manifold", {"size": 8}, "manifold: unknown key 'size'"),
        ("schedule", {"num_scale": 10}, "schedule: unknown key 'num_scale'"),
        ("model", {"hidden": 8}, "model: unknown key 'hidden'"),
        ("training", {"step": 10}, "training: unknown key 'step'"),
        ("training", {"lr": "abc"}, "training: lr must be float, got 'abc'"),
        ("model", {"hidden_dim": 16.5}, "model: hidden_dim must be int, got 16.5"),
        ("training", {"steps": 2.7}, "training: steps must be int, got 2.7"),
        ("training", {"steps": True}, "training: steps must be int, got True"),
        ("model", {"antisymmetrize": 1}, "model: antisymmetrize must be bool, got 1"),
        ("dataset", {"decay": None}, "dataset: decay must be float, got None"),
        ("schedule", {"num_scales": 1}, "schedule: need at least 2 noise scales"),
        ("manifold", {"kind": "torus"}, "manifold: unknown kind 'torus'"),
        ("training", {"loss_kind": "l1"}, "training: unknown loss_kind 'l1'"),
        ("training", {"seed": -1}, "training: seed must be nonnegative"),
        ("dataset", {"components": [[["0", "0", "1"], 20, 1]]},
         "dataset: components entries must be numbers, got '0'"),
        ("dataset", {"components": [[[0, 0, 1], "20", 1]]},
         "dataset: components entries must be numbers, got '20'"),
        ("dataset", {"components": [[[0, 0, 1], 20, True]]},
         "dataset: components entries must be numbers, got True"),
        # Python's json reads NaN, Infinity and -Infinity
        ("training", {"lr": float("nan")}, "training: lr must be finite, got nan"),
        ("schedule", {"sigma_max": float("inf")}, "schedule: sigma_max must be finite, got inf"),
        ("schedule", {"sigma_min": -float("inf")}, "schedule: sigma_min must be finite, got -inf"),
        ("dataset", {"decay": float("inf")}, "dataset: decay must be finite, got inf"),
        ("training", {"lr": 10**400}, f"training: lr must be finite, got {10**400}"),
        # an infinite kappa once sent vMF sampling into a rejection loop that never ends
        ("dataset", {"kind": "vmf_mixture", "components": [[[0, 0, 1], float("inf"), 1]]},
         "dataset: components entries must be finite, got inf"),
        ("dataset", {"kind": "vmf_mixture", "components": [[[0, float("nan"), 1], 20, 1]]},
         "dataset: components entries must be finite, got nan"),
        ("dataset", {"kind": "vmf_mixture", "components": [[[0, 0, 1], 20, float("inf")]]},
         "dataset: components entries must be finite, got inf"),
        ("dataset", {"kind": "vmf_mixture", "components": [[[0, 0, 1], 10**400, 1]]},
         f"dataset: components entries must be finite, got {10**400}"),
        # a section that is there but not an object is not reported as missing
        ("training", 3, "the 'training' section must be a JSON object, got 3"),
        ("schedule", [], "the 'schedule' section must be a JSON object, got []"),
        ("manifold", None, "the 'manifold' section must be a JSON object, got null"),
    ],
)
def test_train_rejects_bad_config_values(tmp_path, capsys, time_limit, section, value, message):
    cfg = write_config(tmp_path, **{section: value})
    with time_limit(60):
        assert main(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run" / "checkpoint.bin").exists()


def test_make_data_rejects_unknown_dataset_key(tmp_path, capsys):
    cfg = write_config(tmp_path, dataset={"n_coord": 8})
    rc = main(["make-data", "--config", str(cfg), "--n", "5", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: dataset: unknown key 'n_coord'\n"


def test_config_int_for_float_is_recorded_as_float(tmp_path):
    cfg = write_config(tmp_path, dataset={"decay": 1}, schedule={"sigma_max": 4},
                       training={"steps": 2, "lr": 1})
    assert main(["train", "--config", str(cfg)]) == 0
    record = json.loads((tmp_path / "run" / "train.config.json").read_text())
    values = (record["dataset"]["decay"], record["schedule"]["sigma_max"], record["training"]["lr"])
    assert values == (1.0, 4.0, 1.0)
    assert all(type(v) is float for v in values)


def test_train_dimension_mismatch_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, manifold={"kind": "sphere", "n": 2})
    rc = main(["train", "--config", str(cfg)])
    assert rc == 1
    assert "does not match" in capsys.readouterr().err


def test_train_divergence_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, training={"lr": 1e154, "steps": 10})
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--config", str(cfg)])
    assert rc == 2
    assert "runtime abort" in capsys.readouterr().err


def test_train_float32_gradient_overflow_exits_two(tmp_path, capsys):
    # a gradient that float64 products keep finite but float32 products
    # overflow (see test_mlp): a runtime abort that names its step, and no
    # cast overflow warns
    cfg = write_config(tmp_path, training={"lr": 1e40, "steps": 10})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == "runtime abort: non-finite gradient at step 1\n"
    assert not (tmp_path / "run" / "checkpoint.bin").exists()
    assert not [w for w in caught if "cast" in str(w.message)]


def test_train_diverging_products_abort_without_numpy_warnings(tmp_path, capsys):
    # at lr 1e30 a product overflows to inf and meets a zero in the next
    # product or bias sum (nan); the abort line names the step, and no
    # numpy warning comes before it, with no errstate set by the caller
    cfg = write_config(tmp_path, training={"lr": 1e30})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == "runtime abort: non-finite gradient at step 1\n"
    assert [str(w.message) for w in caught] == []


def test_train_zero_steps_reports_no_loss(tmp_path, capsys):
    cfg = write_config(tmp_path, training={"steps": 0})
    assert main(["train", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == "trained 0 steps\n"
    assert (tmp_path / "run" / "loss.csv").read_text() == "step,loss\n"


# ---------------------------------------------------------------- sample ----


def trained_run(tmp_path, **overrides):
    cfg = write_config(tmp_path, **overrides)
    assert main(["train", "--config", str(cfg)]) == 0
    return tmp_path / "run" / "checkpoint.bin"


def test_sample_deterministic_and_seed_sensitive(tmp_path):
    ckpt = trained_run(tmp_path)
    a, b, c = tmp_path / "sa", tmp_path / "sb", tmp_path / "sc"
    for out, seed in ((a, "3"), (b, "3"), (c, "4")):
        rc = main(["sample", "--checkpoint", str(ckpt), "--n", "64",
                   "--seed", seed, "--out", str(out)])
        assert rc == 0
    assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()
    assert (a / "samples.csv").read_bytes() != (c / "samples.csv").read_bytes()
    assert json.loads((a / "sample.config.json").read_text())["seed"] == 3


def test_sample_releases_the_forward_workspace(tmp_path, monkeypatch):
    # the forward keeps its buffers from one sampler step to the next, and
    # the sample command lets go of them when it ends
    ckpt = trained_run(tmp_path)
    held = []

    def spy(*args, _real=cli.forward):
        out = _real(*args)
        held.append(getattr(mlp._workspaces, "ws", None))
        return out

    monkeypatch.setattr(cli, "forward", spy)
    assert main(["sample", "--checkpoint", str(ckpt), "--n", "600", "--num-scales", "5",
                 "--out", str(tmp_path / "s")]) == 0
    assert len(held) == 4 and held[0] is not None and all(ws is held[0] for ws in held)
    assert getattr(mlp._workspaces, "ws", None) is None


def test_sample_past_float32_range_exits_two(tmp_path, capsys):
    # a weight finite in float64 but past float32's range: the float32
    # forward names its layer, and no cast overflow warns
    ckpt = trained_run(tmp_path)
    params, config, extras = load_checkpoint(ckpt)
    params.weights[1][:] = 1e39
    save_checkpoint(ckpt, params, config, extras)
    out = tmp_path / "s"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["sample", "--checkpoint", str(ckpt), "--n", "64", "--num-scales", "5",
                   "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "runtime abort: non-finite activations at layer 1\n"
    assert not (out / "samples.csv").exists()
    assert not [w for w in caught if "cast" in str(w.message)]


# At 2049 rows, blocks cut from each worker's range would hold 341-342 rows
# at three workers and 409-410 at one, and the ring's samples would differ.
@pytest.mark.parametrize(
    "run, n", [(README_RUN, "1537"), (README_RUN, "2049"), (S3_RUN, "1537")],
    ids=["readme_ring-1537", "readme_ring-2049", "antisymmetric_s3-1537"])
def test_sample_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, run, n):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    # a two-step net's output is too small to move a sample's last bit
    ckpt = tmp_path / "run" / "checkpoint.bin"
    params, config, extras = load_checkpoint(ckpt)
    params.weights[-1][:] = np.random.default_rng(3).uniform(-0.5, 0.5, params.weights[-1].shape)
    save_checkpoint(ckpt, params, config, extras)
    written = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(rowblocks, "_WORKERS", workers)
        out = tmp_path / f"s{workers}"
        assert main(["sample", "--checkpoint", str(ckpt),
                     "--n", n, "--num-scales", "20", "--out", str(out)]) == 0
        written.append([(out / name).read_bytes() for name in ("samples.csv", "metrics.log")])
    assert written[1] == written[0] and written[2] == written[0]


def test_sample_writes_drift_metric(tmp_path):
    ckpt = trained_run(tmp_path)
    out = tmp_path / "s"
    main(["sample", "--checkpoint", str(ckpt), "--n", "64", "--out", str(out)])
    log = (out / "metrics.log").read_text().splitlines()
    assert len(log) == 1
    assert log[0].startswith("name=manifold_drift value=")
    assert "stage=pre_projection" in log[0]


def test_drift_lines_name_their_measure(tmp_path):
    # on a ring, sample's drift is to the nearest point and eval drift's is radial
    ckpt = trained_run(tmp_path)
    out = tmp_path / "s"
    main(["sample", "--checkpoint", str(ckpt), "--n", "32", "--out", str(out)])
    main(["eval", "drift", "--samples", str(out / "samples.csv"), "--out", str(out)])
    sampled, evaluated = (out / "metrics.log").read_text().splitlines()
    assert sampled.startswith("name=manifold_drift ") and " measure=nearest_point " in sampled
    assert evaluated.startswith("name=manifold_drift ") and " measure=radial " in evaluated
    # without --seed, sample draws seed 0
    assert json.loads((out / "sample.config.json").read_text())["seed"] == 0
    assert " seed=0 " in sampled


def test_sample_project_snaps_to_support(tmp_path):
    ckpt = trained_run(tmp_path)
    out = tmp_path / "s"
    main(["sample", "--checkpoint", str(ckpt), "--n", "32", "--project", "--out", str(out)])
    rows = (out / "samples.csv").read_text().splitlines()[1:]
    pts = np.array([[float(v) for v in r.split(",")] for r in rows])
    d2 = np.sum((pts[:, None, :] - circle_points(8)[None, :, :]) ** 2, axis=2)
    assert np.min(d2, axis=1).max() == 0.0


def test_sample_project_logs_unprojected_drift(tmp_path):
    ckpt = trained_run(tmp_path)
    values = []
    for name, flags in (("plain", []), ("projected", ["--project"])):
        out = tmp_path / name
        main(["sample", "--checkpoint", str(ckpt), "--n", "32", "--seed", "5",
              *flags, "--out", str(out)])
        line = (out / "metrics.log").read_text().splitlines()[0]
        values.append(line.split("value=")[1].split()[0])
    assert values[0] == values[1]
    assert float(values[0]) > 1e-6


def test_sample_drift_is_distance_to_support(tmp_path):
    ckpt = trained_run(tmp_path)
    out = tmp_path / "s"
    main(["sample", "--checkpoint", str(ckpt), "--n", "32", "--seed", "5", "--out", str(out)])
    rows = (out / "samples.csv").read_text().splitlines()[1:]
    pts = np.array([[float(v) for v in r.split(",")] for r in rows])
    dmin = np.linalg.norm(pts[:, None, :] - circle_points(8)[None], axis=2).min(axis=1)
    line = (out / "metrics.log").read_text()
    assert float(line.split("value=")[1].split()[0]) == pytest.approx(dmin.mean(), rel=1e-12)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n", "-1"], "--n must be nonnegative"),
        (["--n", "4", "--num-scales", "1"], "schedule: need at least 2 noise scales"),
        (["--n", "4", "--num-scales", "0"], "schedule: need at least 2 noise scales"),
        (["--n", "4", "--seed", "-1"], "--seed must be nonnegative"),
    ],
)
def test_sample_rejects_bad_sizes(tmp_path, capsys, flags, message):
    ckpt = trained_run(tmp_path)
    capsys.readouterr()
    rc = main(["sample", "--checkpoint", str(ckpt), *flags, "--out", str(tmp_path / "s")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sample_num_scales_override_recorded(tmp_path):
    ckpt = trained_run(tmp_path)
    out = tmp_path / "s"
    main(["sample", "--checkpoint", str(ckpt), "--n", "16",
          "--num-scales", "37", "--out", str(out)])
    sidecar = json.loads((out / "sample.config.json").read_text())
    assert sidecar["schedule"]["num_scales"] == 37
    assert sidecar["schedule"]["sigma_max"] == 4.0


def test_sample_zero_rows_writes_header_only(tmp_path):
    ckpt = trained_run(tmp_path)
    out = tmp_path / "s"
    assert main(["sample", "--checkpoint", str(ckpt), "--n", "0", "--out", str(out)]) == 0
    assert (out / "samples.csv").read_text() == "x0,x1\n"
    assert not (out / "metrics.log").exists()


def test_sample_rejects_checkpoint_without_run_record(tmp_path, capsys):
    config = MlpConfig(input_dim=2, hidden_dim=8, num_hidden_layers=2)
    params = init_params(config, np.random.default_rng(0))
    path = tmp_path / "bare.bin"
    save_checkpoint(path, params, config, {})
    rc = main(["sample", "--checkpoint", str(path), "--n", "4", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "loss_kind" in capsys.readouterr().err


@pytest.mark.parametrize("loss_kind", ["MAD", "l1", None, 1])
def test_sample_rejects_unknown_loss_kind(tmp_path, capsys, loss_kind):
    config = MlpConfig(input_dim=2, hidden_dim=8, num_hidden_layers=2)
    params = init_params(config, np.random.default_rng(0))
    path = tmp_path / "odd.bin"
    extras = {"loss_kind": loss_kind, "manifold": {"kind": "discrete_circle", "n_coords": 8},
              "schedule": {"sigma_min": 1e-4, "sigma_max": 4.0, "num_scales": 10}}
    save_checkpoint(path, params, config, extras)
    out = tmp_path / "s"
    rc = main(["sample", "--checkpoint", str(path), "--n", "4", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: checkpoint loss_kind {loss_kind!r} is neither 'dsm' nor 'mad'\n"
    )
    assert not (out / "samples.csv").exists()


def test_sample_rejects_checkpoint_schedule_that_is_not_an_object(tmp_path, capsys):
    ckpt = trained_run(tmp_path)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(rebuild_blob(ckpt.read_bytes(),
                                 header_edit=lambda obj: obj["extras"].update(schedule=[])))
    out = tmp_path / "s"
    rc = main(["sample", "--checkpoint", str(bad), "--n", "4", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: the 'schedule' section must be a JSON object, got []\n"
    assert not (out / "samples.csv").exists()


def test_sample_rejects_corrupt_checkpoint(tmp_path, capsys):
    ckpt = trained_run(tmp_path)
    blob = bytearray(ckpt.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    rc = main(["sample", "--checkpoint", str(bad), "--n", "4", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "checksum" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("hidden_dim", 4.0, "hidden_dim must be int, got 4.0"),
        ("input_dim", 2.0, "input_dim must be int, got 2.0"),
        ("antisymmetrize", "yes", "antisymmetrize must be bool, got 'yes'"),
        ("num_hidden_layers", True, "num_hidden_layers must be int, got True"),
    ],
)
def test_sample_rejects_checkpoint_header_of_wrong_type(tmp_path, capsys, key, value, message):
    # a header edited with its SHA-256 trailer recomputed passes the checksum
    ckpt = trained_run(tmp_path)
    bad = tmp_path / "edited.bin"
    bad.write_bytes(rebuild_blob(ckpt.read_bytes(),
                                 header_edit=lambda obj: obj["config"].update({key: value})))
    capsys.readouterr()
    out = tmp_path / "s"
    rc = main(["sample", "--checkpoint", str(bad), "--n", "4", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: invalid checkpoint header: {message}\n"
    assert not (out / "samples.csv").exists()


# ------------------------------------------------------------------ eval ----


def test_eval_mmd_of_batch_with_itself_is_zero(tmp_path, capsys):
    rng = np.random.default_rng(5)
    path = tmp_path / "x.csv"
    write_samples(path, rng.standard_normal((40, 3)))
    out = tmp_path / "m"
    rc = main(["eval", "mmd", "--samples", str(path), "--reference", str(path),
               "--out", str(out)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert "name=mmd value=0.0" in line
    assert (out / "metrics.log").read_text().strip() == line


def test_eval_mmd_requires_reference(tmp_path, capsys):
    path = tmp_path / "x.csv"
    write_samples(path, np.eye(3))
    rc = main(["eval", "mmd", "--samples", str(path), "--out", str(tmp_path / "m")])
    assert rc == 1
    assert "--reference" in capsys.readouterr().err


def test_eval_tv_point_mass(tmp_path, capsys):
    path = tmp_path / "x.csv"
    write_samples(path, np.tile(circle_points(8)[2], (30, 1)))
    rc = main(["eval", "tv", "--samples", str(path), "--kind", "discrete_uniform",
               "--n-coords", "8", "--out", str(tmp_path / "m")])
    assert rc == 0
    assert "value=0.875" in capsys.readouterr().out


def test_eval_tv_matches_skewed_pmf(tmp_path, capsys):
    # exact frequencies drawn from the target pmf itself give tv = 0
    pmf = skewed_pmf(8, 0.8)
    counts = np.round(pmf * 1000).astype(int)
    pts = np.repeat(circle_points(8), counts, axis=0)
    path = tmp_path / "x.csv"
    write_samples(path, pts)
    rc = main(["eval", "tv", "--samples", str(path), "--kind", "discrete_skewed",
               "--n-coords", "8", "--decay", "0.8", "--out", str(tmp_path / "m")])
    assert rc == 0
    value = float(capsys.readouterr().out.split("value=")[1].split()[0])
    assert value < 2e-3


def test_eval_spread_on_exact_orbit(tmp_path, capsys):
    group = build_symmetry_group("octahedral")
    q = np.array([0.3, 0.5, -0.4, 0.7])
    q /= np.linalg.norm(q)
    orbit = quat_mul(q[None, :], group.elements)
    path = tmp_path / "x.csv"
    write_samples(path, orbit)
    rc = main(["eval", "spread", "--samples", str(path), "--group", "octahedral",
               "--q-gt", "0.3,0.5,-0.4,0.7", "--out", str(tmp_path / "m")])
    assert rc == 0
    value = float(capsys.readouterr().out.split("value=")[1].split()[0])
    assert value < 1e-5


def test_eval_spread_rejects_bad_quaternion(tmp_path, capsys):
    path = tmp_path / "x.csv"
    write_samples(path, np.eye(4))
    rc = main(["eval", "spread", "--samples", str(path), "--group", "octahedral",
               "--q-gt", "1,0,0", "--out", str(tmp_path / "m")])
    assert rc == 1
    assert "four" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "flags, message",
    [
        (["tv", "--kind", "discrete_skewed", "--decay", "nan"],
         "--decay must be positive and finite, got nan"),
        (["tv", "--kind", "discrete_skewed", "--decay", "inf"],
         "--decay must be positive and finite, got inf"),
        (["tv", "--kind", "discrete_skewed", "--decay", "0"],
         "--decay must be positive and finite, got 0.0"),
        (["mmd", "--bandwidth", "inf"], "--bandwidth must be positive and finite, got inf"),
        (["mmd", "--bandwidth", "nan"], "--bandwidth must be positive and finite, got nan"),
        (["mmd", "--bandwidth", "-1"], "--bandwidth must be positive and finite, got -1.0"),
        (["spread", "--group", "octahedral", "--q-gt", "0,0,0,0"],
         "--q-gt must be finite and nonzero, got 0,0,0,0"),
        (["spread", "--group", "octahedral", "--q-gt", "nan,0,0,1"],
         "--q-gt must be finite and nonzero, got nan,0,0,1"),
        (["spread", "--group", "octahedral", "--q-gt", "1,inf,0,0"],
         "--q-gt must be finite and nonzero, got 1,inf,0,0"),
        # past the 360 elements the walk stops at, rejected before walking
        (["spread", "--group", "cyclic_z", "--m", "400", "--q-gt", "1,0,0,0"],
         "cyclic_z needs a fold count 1 <= m <= 360, got 400"),
        (["spread", "--group", "octahedral", "--m", "5", "--q-gt", "1,0,0,0"],
         "octahedral has a fixed order and takes no fold count, got m=5"),
    ],
)
def test_eval_rejects_degenerate_numeric_flags(tmp_path, capsys, flags, message):
    path = tmp_path / "x.csv"
    write_samples(path, np.eye(4))
    rc = main(["eval", flags[0], "--samples", str(path), "--reference", str(path),
               *flags[1:], "--out", str(tmp_path / "m")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "m" / "metrics.log").exists()


@pytest.mark.parametrize("header_width, row_width", [(2, 3), (3, 2)])
def test_eval_rejects_rows_unlike_the_header(tmp_path, capsys, header_width, row_width):
    path = tmp_path / "samples.csv"
    header = ",".join(f"x{i}" for i in range(header_width))
    path.write_text(header + "\n" + ",".join(["0.5"] * row_width) + "\n")
    rc = main(["eval", "drift", "--samples", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {path}: header names {header_width} columns, rows have {row_width}\n"
    )
    assert not (tmp_path / "o" / "metrics.log").exists()


@pytest.mark.parametrize("bad_row", ["nan,nan", "inf,0", "0.5,-inf"])
@pytest.mark.parametrize("metric", [["tv", "--kind", "discrete_uniform"], ["drift"],
                                    ["mmd", "--reference"]])
def test_eval_rejects_non_finite_sample_rows(tmp_path, capsys, metric, bad_row):
    # a nan row once counted towards the nearest support point in tv
    path = tmp_path / "samples.csv"
    path.write_text(f"x0,x1\n1.0,0.0\n{bad_row}\n0.0,1.0\n")
    args = [*metric, str(path)] if metric[0] == "mmd" else metric
    rc = main(["eval", *args, "--samples", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: sample row 2 holds a non-finite value\n"
    assert captured.out == ""
    assert not (tmp_path / "o" / "metrics.log").exists()


def test_eval_appends_to_shared_log(tmp_path):
    path = tmp_path / "x.csv"
    write_samples(path, 1.5 * np.eye(2))
    out = tmp_path / "m"
    main(["eval", "drift", "--samples", str(path), "--out", str(out)])
    main(["eval", "drift", "--samples", str(path), "--out", str(out)])
    lines = (out / "metrics.log").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == lines[1]
    assert "value=0.5" in lines[0]


# ---------------------------------------------------------- oracle-check ----


def test_oracle_check_passes_on_matching_scores(capsys):
    rc = main(["oracle-check", "--manifold", "discrete", "--n-coords", "8",
               "--radii", "0.9", "--sigmas", "0.5,1.0", "--n-mc", "40000",
               "--seed", "11"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    assert "FAIL" not in out


def test_oracle_check_flags_biased_closed_form(tmp_path, capsys, monkeypatch):
    # a deliberate bias far outside 4 oracle standard errors must fail the run
    import manifold_dsm.cli as cli

    from manifold_dsm.basescore import base_score as real

    def biased(x, sigma, manifold):
        return real(x, sigma, manifold) + 1.0

    monkeypatch.setattr(cli, "base_score", biased)
    rc = main(["oracle-check", "--manifold", "discrete", "--n-coords", "8",
               "--radii", "0.9", "--sigmas", "0.5", "--n-mc", "40000"])
    assert rc == 3
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "standard errors" in captured.err


def test_oracle_check_reports_unreliable_cells_as_inconclusive(capsys):
    # far off-manifold query at tiny sigma starves the importance sampler
    rc = main(["oracle-check", "--manifold", "sphere", "--n", "2",
               "--radii", "6.0", "--sigmas", "0.05", "--n-mc", "2000",
               "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "INCONCLUSIVE" in out
    assert "FAIL" not in out


def test_oracle_check_high_order_sphere(capsys):
    # the scaled Bessel values of the S^400 bracket underflow to 0 at z = 1
    rc = main(["oracle-check", "--manifold", "sphere", "--n", "400",
               "--radii", "1", "--sigmas", "1.0", "--seed", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "nan" not in out


def test_oracle_check_prints_small_sigma(capsys):
    # the smallest sigma is where the S^3 Bessel argument is largest; the
    # table must not round it to 0.00
    rc = main(["oracle-check", "--manifold", "sphere", "--n", "3", "--radii", "1.5",
               "--sigmas", "0.001", "--n-mc", "2000", "--seed", "1"])
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].split()[:2] == ["1.5", "0.001"]


def test_oracle_check_rejects_nonpositive_grid(capsys):
    rc = main(["oracle-check", "--manifold", "discrete", "--radii", "0.0",
               "--sigmas", "0.5"])
    assert rc == 1
    assert "positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--radii", "abc"], "could not convert string to float: 'abc'"),
        (["--sigmas", "0.5,"], "could not convert string to float: ''"),
        (["--radii", "nan"], "radii and sigmas must be positive and finite"),
        (["--sigmas", "inf"], "radii and sigmas must be positive and finite"),
        (["--n", "0"], "Sphere needs intrinsic dimension n >= 1"),
        (["--manifold", "discrete", "--n-coords", "1"], "n_coords must be >= 2"),
        (["--n-mc", "1"], "--n-mc must be at least 2"),
        (["--seed", "-1"], "--seed must be nonnegative"),
        # values the closed form rejects, caught before any Monte Carlo work
        (["--n", "3", "--radii", "1e-9"], "sphere score undefined near the origin (||x|| < 1e-08)"),
        (["--sigmas", "1e200"], "sigma must be positive and finite, with a finite square"),
        (["--manifold", "discrete", "--sigmas", "1e200"],
         "sigma must be positive and finite, with a finite square"),
    ],
)
def test_oracle_check_rejects_bad_arguments(capsys, flags, message):
    assert main(["oracle-check", "--manifold", "sphere", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
