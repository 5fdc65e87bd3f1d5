"""Command line front end for experiment runs.

Subcommands: make-data, train, sample, eval, oracle-check.  A JSON run config
(flat nested key-value, all numerics decimal) drives make-data and train;
sample and eval are self-sufficient given a checkpoint or sample files, since
checkpoints embed the manifold, schedule, and loss kind in their header.

Every command that writes artifacts also writes `<command>.config.json`, the
fully resolved configuration (defaults expanded), into the output directory;
rerunning a command from that record yields byte-identical primary outputs.
The metrics log is append-only and shared across runs.

Exit codes: 0 success, 1 validation/input error, 2 runtime abort,
3 oracle-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .basescore import base_score, mc_score_oracle
from .datasets import DatasetSpec, build_dataset, circle_points, skewed_pmf
from .diffusion import NoiseSchedule, reverse_sample
from .errors import (
    CheckpointFormatError,
    ConfigError,
    TrainingDivergedError,
    UnreliableEstimateError,
)
from .geometry import DiscreteSet, RotationGroup, Sphere, build_symmetry_group, project
from .metrics import MetricReport, append_metric, discrete_tv, format_line, manifold_drift, mmd, spread
from .mlp import MlpConfig, forward, load_checkpoint, save_checkpoint, train

__all__ = ["main"]


# ---------------------------------------------------------------- config ----


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _section(cfg: dict, name: str) -> dict:
    if name not in cfg or not isinstance(cfg[name], dict):
        raise ConfigError(f"config is missing the {name!r} section")
    return cfg[name]


def _dataset_spec(cfg: dict) -> tuple[DatasetSpec, int, dict]:
    """Returns (spec, dataset seed, resolved dict)."""
    sec = dict(_section(cfg, "dataset"))
    seed = int(sec.pop("seed", 0))
    if "components" in sec:
        sec["components"] = tuple(
            (tuple(float(v) for v in c[0]), float(c[1]), float(c[2])) for c in sec["components"]
        )
    try:
        spec = DatasetSpec(**sec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    resolved = {
        "kind": spec.kind,
        "n_coords": spec.n_coords,
        "decay": spec.decay,
        "manifold_n": spec.manifold_n,
        "components": [[list(c[0]), c[1], c[2]] for c in spec.components],
        "path": spec.path,
        "seed": seed,
    }
    return spec, seed, resolved


def _manifold_from_dict(sec: dict):
    kind = sec.get("kind")
    try:
        if kind == "discrete_circle":
            return DiscreteSet(circle_points(int(sec.get("n_coords", 8))))
        if kind == "sphere":
            return Sphere(int(sec.get("n", 2)))
        if kind == "rotation_group":
            return RotationGroup()
    except ValueError as exc:
        raise ConfigError(f"manifold: {exc}") from exc
    raise ConfigError(f"manifold: unknown kind {kind!r}")


def _manifold_to_dict(sec: dict) -> dict:
    kind = sec.get("kind")
    if kind == "discrete_circle":
        return {"kind": kind, "n_coords": int(sec.get("n_coords", 8))}
    if kind == "sphere":
        return {"kind": kind, "n": int(sec.get("n", 2))}
    return {"kind": "rotation_group"}


def _schedule(cfg: dict) -> tuple[NoiseSchedule, dict]:
    sec = _section(cfg, "schedule")
    try:
        sched = NoiseSchedule.geometric(
            float(sec.get("sigma_min", 1e-4)),
            float(sec.get("sigma_max", 2.0)),
            int(sec.get("num_scales", 100)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"schedule: {exc}") from exc
    resolved = {
        "sigma_min": sched.sigma_min,
        "sigma_max": sched.sigma_max,
        "num_scales": sched.num_scales,
    }
    return sched, resolved


def _model(cfg: dict, input_dim: int) -> tuple[MlpConfig, dict]:
    sec = dict(_section(cfg, "model"))
    sec.pop("input_dim", None)  # derived from the manifold
    try:
        model = MlpConfig(input_dim=input_dim, **sec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model: {exc}") from exc
    resolved = {
        "input_dim": model.input_dim,
        "hidden_dim": model.hidden_dim,
        "num_hidden_layers": model.num_hidden_layers,
        "activation": model.activation,
        "sigma_embedding": model.sigma_embedding,
        "fourier_dim": model.fourier_dim,
        "antisymmetrize": model.antisymmetrize,
    }
    return model, resolved


def _training(cfg: dict) -> dict:
    sec = _section(cfg, "training")
    out = {
        "loss_kind": str(sec.get("loss_kind", "mad")),
        "steps": int(sec.get("steps", 2000)),
        "batch_size": int(sec.get("batch_size", 512)),
        "lr": float(sec.get("lr", 1e-3)),
        "seed": int(sec.get("seed", 0)),
        "n_data": int(sec.get("n_data", 16384)),
    }
    if out["loss_kind"] not in ("dsm", "mad"):
        raise ConfigError(f"training: unknown loss_kind {out['loss_kind']!r}")
    if out["steps"] < 0 or out["batch_size"] < 1 or out["lr"] <= 0 or out["n_data"] < 1:
        raise ConfigError("training: steps >= 0, batch_size >= 1, lr > 0, n_data >= 1 required")
    return out


def _check_dims(dataset_samples: np.ndarray, spec: DatasetSpec, manifold_sec: dict, manifold):
    if dataset_samples.shape[1] != manifold.ambient_dim:
        raise ConfigError(
            f"dataset ambient dimension {dataset_samples.shape[1]} does not match "
            f"the declared manifold ({manifold.ambient_dim})"
        )
    if spec.kind.startswith("discrete"):
        if manifold_sec.get("kind") != "discrete_circle":
            raise ConfigError("discrete datasets need a discrete_circle manifold")
        if int(manifold_sec.get("n_coords", 8)) != spec.n_coords:
            raise ConfigError("manifold n_coords does not match the dataset")


# ------------------------------------------------------------- file I/O -----


def _ensure_out(out: str | None, cfg: dict | None) -> Path:
    out_dir = out or (cfg or {}).get("out_dir")
    if not out_dir:
        raise ConfigError("no output directory: pass --out or set out_dir in the config")
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_samples_csv(path: Path, arr: np.ndarray) -> None:
    cols = ",".join(f"x{i}" for i in range(arr.shape[1]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(cols + "\n")
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _read_samples_csv(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header or not header.split(",")[0].startswith("x"):
                raise ConfigError(f"{path}: expected a sample CSV header like x0,x1,...")
            width = len(header.split(","))
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read samples {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if data.size == 0:
        return np.empty((0, width))
    return data


def _write_loss_csv(path: Path, curve: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,loss\n")
        for i, v in enumerate(curve):
            fh.write(f"{i},{repr(float(v))}\n")


# ----------------------------------------------------------- subcommands ----


def cmd_make_data(args) -> int:
    cfg = _load_json(args.config)
    spec, cfg_seed, resolved = _dataset_spec(cfg)
    seed = cfg_seed if args.seed is None else args.seed
    resolved["seed"] = seed
    out = _ensure_out(args.out, cfg)
    try:
        samples, _, _ = build_dataset(spec, args.n, seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write_samples_csv(out / "data.csv", samples)
    _write_json(out / "make-data.config.json", {"dataset": resolved, "n": args.n})
    print(f"wrote {samples.shape[0]} samples to {out / 'data.csv'}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_json(args.config)
    spec, data_seed, data_resolved = _dataset_spec(cfg)
    manifold_sec = _section(cfg, "manifold")
    manifold = _manifold_from_dict(manifold_sec)
    schedule, sched_resolved = _schedule(cfg)
    training = _training(cfg)
    if args.seed is not None:
        training["seed"] = args.seed

    try:
        dataset, _, _ = build_dataset(spec, training["n_data"], data_seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _check_dims(dataset, spec, manifold_sec, manifold)
    model, model_resolved = _model(cfg, dataset.shape[1])

    out = _ensure_out(args.out, cfg)
    resolved = {
        "dataset": data_resolved,
        "manifold": _manifold_to_dict(manifold_sec),
        "schedule": sched_resolved,
        "model": model_resolved,
        "training": training,
        "out_dir": str(out),
    }
    params, curve = train(
        model,
        training["loss_kind"],
        dataset,
        manifold,
        schedule,
        steps=training["steps"],
        batch_size=training["batch_size"],
        lr=training["lr"],
        seed=training["seed"],
    )
    extras = {
        "loss_kind": training["loss_kind"],
        "manifold": resolved["manifold"],
        "schedule": sched_resolved,
        "dataset": data_resolved,
    }
    save_checkpoint(out / "checkpoint.bin", params, model, extras)
    _write_loss_csv(out / "loss.csv", curve)
    _write_json(out / "train.config.json", resolved)
    message = f"trained {training['steps']} steps"
    if curve.size:
        message += f"; final-100 mean loss {float(curve[-100:].mean())}"
    print(message)
    return 0


def _score_field(params, model, loss_kind, manifold):
    if loss_kind == "mad":
        return lambda x, sig: base_score(x, sig, manifold) + forward(params, model, x, sig)
    return lambda x, sig: forward(params, model, x, sig)


def cmd_sample(args) -> int:
    params, model, extras = load_checkpoint(args.checkpoint)
    for key in ("loss_kind", "manifold", "schedule"):
        if key not in extras:
            raise ConfigError(f"checkpoint lacks the {key!r} record; cannot sample from it")
    manifold = _manifold_from_dict(extras["manifold"])
    if manifold.ambient_dim != model.input_dim:
        raise ConfigError("checkpoint manifold does not match the network input dimension")
    schedule, sched_resolved = _schedule({"schedule": extras["schedule"]})
    if args.num_scales is not None:
        # finer generation grids reduce integrator bias without retraining
        schedule = NoiseSchedule.geometric(
            schedule.sigma_min, schedule.sigma_max, args.num_scales
        )
        sched_resolved["num_scales"] = args.num_scales

    seed = 0 if args.seed is None else args.seed
    field = _score_field(params, model, extras["loss_kind"], manifold)
    samples = reverse_sample(
        field, schedule, args.n, manifold, np.random.default_rng(seed)
    ).samples
    drift = manifold_drift(samples) if args.n > 0 else None
    if args.project:
        samples = project(samples, manifold)
    out = _ensure_out(args.out, None)
    _write_samples_csv(out / "samples.csv", samples)
    if drift is not None:
        report = MetricReport(
            name="manifold_drift",
            value=drift.value,
            std_error=drift.std_error,
            config={**drift.config, "seed": seed, "projected": args.project,
                    "stage": "pre_projection"},
        )
        append_metric(out / "metrics.log", report)
        print(format_line(report))
    _write_json(
        out / "sample.config.json",
        {
            "checkpoint": str(args.checkpoint),
            "loss_kind": extras["loss_kind"],
            "manifold": extras["manifold"],
            "n": args.n,
            "project": args.project,
            "schedule": sched_resolved,
            "seed": seed,
        },
    )
    print(f"wrote {args.n} samples to {out / 'samples.csv'}")
    return 0


def cmd_eval(args) -> int:
    samples = _read_samples_csv(args.samples)
    if args.metric == "mmd":
        if not args.reference:
            raise ConfigError("eval mmd needs --reference")
        reference = _read_samples_csv(args.reference)
        try:
            report = mmd(samples, reference, bandwidth=args.bandwidth)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    elif args.metric == "drift":
        try:
            report = manifold_drift(samples)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    elif args.metric == "tv":
        if args.kind not in ("discrete_uniform", "discrete_skewed"):
            raise ConfigError("eval tv needs --kind discrete_uniform or discrete_skewed")
        try:
            pts = circle_points(args.n_coords)
            pmf = (
                np.full(args.n_coords, 1.0 / args.n_coords)
                if args.kind == "discrete_uniform"
                else skewed_pmf(args.n_coords, args.decay)
            )
            report = discrete_tv(samples, DiscreteSet(pts), pmf)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:  # spread
        if not args.group or args.q_gt is None:
            raise ConfigError("eval spread needs --group and --q-gt")
        try:
            group = build_symmetry_group(args.group, args.m)
            q_gt = np.array([float(v) for v in args.q_gt.split(",")])
            if q_gt.shape != (4,):
                raise ValueError("--q-gt must be four comma-separated numbers")
            q_gt = q_gt / np.linalg.norm(q_gt)
            report = spread(samples, q_gt, group)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    out = _ensure_out(args.out, None)
    append_metric(out / "metrics.log", report)
    print(format_line(report))
    return 0


def cmd_oracle_check(args) -> int:
    radii = [float(v) for v in args.radii.split(",")]
    sigmas = [float(v) for v in args.sigmas.split(",")]
    if any(r <= 0 for r in radii) or any(s <= 0 for s in sigmas):
        raise ConfigError("radii and sigmas must be positive")
    try:
        if args.manifold == "sphere":
            manifold = Sphere(args.n)
        elif args.manifold == "discrete":
            manifold = DiscreteSet(circle_points(args.n_coords))
        else:
            raise ValueError(f"unknown manifold {args.manifold!r}")
        if args.n_mc < 2:
            raise ValueError("--n-mc must be at least 2")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    direction = np.zeros(manifold.ambient_dim)
    direction[0] = 1.0

    seed = 0 if args.seed is None else args.seed
    print(f"{'r':>6} {'sigma':>6} {'rel_err':>10} {'max_dev/se':>11}  status")
    failed = 0
    for r in radii:
        for sig in sigmas:
            x = r * direction
            closed = base_score(x, sig, manifold)
            try:
                est = mc_score_oracle(
                    x, sig, manifold, n_samples=args.n_mc,
                    rng=np.random.default_rng(seed),
                )
            except UnreliableEstimateError:
                print(f"{r:6.2f} {sig:6.2f} {'-':>10} {'-':>11}  INCONCLUSIVE")
                continue
            dev = np.abs(closed - est.score)
            ratio = float(np.max(dev / np.maximum(4.0 * est.std_error, 1e-300)))
            scale = float(np.max(np.abs(closed)))
            rel = float(np.max(dev)) / scale if scale > 0 else float(np.max(dev))
            ok = ratio <= 1.0
            failed += 0 if ok else 1
            print(f"{r:6.2f} {sig:6.2f} {rel:10.2e} {4.0 * ratio:11.2f}  "
                  f"{'PASS' if ok else 'FAIL'}")
    if failed:
        print(f"{failed} cell(s) exceeded 4 oracle standard errors", file=sys.stderr)
        return 3
    return 0


# ----------------------------------------------------------------- main -----


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdsm",
        description="Score-based diffusion experiments on spheres, rotations, and point sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-data", help="generate a dataset CSV from a run config")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_make_data)

    p = sub.add_parser("train", help="train a score/residual network from a run config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override training.seed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="reverse-sample from a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--project", action="store_true")
    p.add_argument("--num-scales", type=int, default=None,
                   help="override the generation grid resolution")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="compute a metric over sample CSVs")
    p.add_argument("metric", choices=["mmd", "drift", "tv", "spread"])
    p.add_argument("--samples", required=True)
    p.add_argument("--reference", default=None, help="second batch for mmd")
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--kind", default=None, help="target pmf for tv")
    p.add_argument("--n-coords", type=int, default=8)
    p.add_argument("--decay", type=float, default=0.8)
    p.add_argument("--group", default=None, help="symmetry group for spread")
    p.add_argument("--m", type=int, default=None, help="fold count for cyclic_z")
    p.add_argument("--q-gt", default=None, help="ground-truth quaternion w,x,y,z")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle-check", help="closed-form scores vs the Monte Carlo oracle")
    p.add_argument("--manifold", choices=["sphere", "discrete"], required=True)
    p.add_argument("--n", type=int, default=2, help="sphere dimension n")
    p.add_argument("--n-coords", type=int, default=8, help="circle points for discrete")
    p.add_argument("--radii", default="0.5,1.0,1.5")
    p.add_argument("--sigmas", default="0.3,0.6,1.0")
    p.add_argument("--n-mc", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CheckpointFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
