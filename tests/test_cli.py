"""End-to-end checks of the command line interface.

Commands run in-process through main(argv) so exit codes and stderr are
observable without spawning interpreters.  Runs are kept tiny; statistical
quality of outputs is covered by the module tests, here we check wiring,
file formats, exit codes, and byte-level reproducibility.
"""

import json

import numpy as np
import pytest

from manifold_dsm.cli import main
from manifold_dsm.datasets import circle_points, skewed_pmf
from manifold_dsm.geometry import build_symmetry_group, quat_mul
from manifold_dsm.mlp import MlpConfig, init_params, save_checkpoint


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


def test_missing_config_section_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dataset": {"kind": "discrete_uniform"}}))
    rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "manifold" in capsys.readouterr().err


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


def test_sample_writes_drift_metric(tmp_path):
    ckpt = trained_run(tmp_path)
    out = tmp_path / "s"
    main(["sample", "--checkpoint", str(ckpt), "--n", "64", "--out", str(out)])
    log = (out / "metrics.log").read_text().splitlines()
    assert len(log) == 1
    assert log[0].startswith("name=manifold_drift value=")
    assert "stage=pre_projection" in log[0]


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


def test_sample_rejects_corrupt_checkpoint(tmp_path, capsys):
    ckpt = trained_run(tmp_path)
    blob = bytearray(ckpt.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    rc = main(["sample", "--checkpoint", str(bad), "--n", "4", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "checksum" in capsys.readouterr().err


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


def test_oracle_check_rejects_nonpositive_grid(capsys):
    rc = main(["oracle-check", "--manifold", "discrete", "--radii", "0.0",
               "--sigmas", "0.5"])
    assert rc == 1
    assert "positive" in capsys.readouterr().err
