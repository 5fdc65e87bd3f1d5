"""Command line front end for experiment runs; README gives its subcommands,
config sections, files and exit codes.

Each config section is one frozen dataclass: `dataset` is `DatasetSpec`,
`schedule` is `NoiseSchedule`, `model` is `MlpConfig` (its `input_dim` is the
manifold's), and `manifold` and `training` are declared here.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .basescore import base_score, mc_score_oracle
from .datasets import DatasetSpec, build_dataset, circle_points, discrete_target
from .diffusion import NoiseSchedule, reverse_sample
from .errors import (
    CheckpointFormatError,
    ConfigError,
    TrainingDivergedError,
    UnreliableEstimateError,
)
from .geometry import DiscreteSet, Sphere, build_symmetry_group, project
from .metrics import append_metric, discrete_tv, format_line, manifold_drift, mmd, spread
from .mlp import (MlpConfig, drop_workspace, forward, json_fields, load_checkpoint,
                  save_checkpoint, train)

__all__ = ["main"]


# ---------------------------------------------------------------- config ----


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return cfg


# the size key each manifold kind reads
_MANIFOLD_KEYS = {"discrete_circle": ("n_coords",), "sphere": ("n",), "rotation_group": ()}


@dataclass(frozen=True)
class ManifoldConfig:
    """The manifold a run lives on; its record keeps only its kind's size key."""

    kind: str
    n_coords: int = 8
    n: int = 2

    def __post_init__(self):
        if self.kind not in _MANIFOLD_KEYS:
            raise ValueError(f"unknown kind {self.kind!r}")

    def build(self):
        if self.kind == "discrete_circle":
            return DiscreteSet(circle_points(self.n_coords))
        # rotations are unit quaternions, and their uniform measure is the 3-sphere's
        return Sphere(self.n if self.kind == "sphere" else 3)

    def record(self) -> dict:
        keep = ("kind", *_MANIFOLD_KEYS[self.kind])
        return {k: v for k, v in asdict(self).items() if k in keep}


@dataclass(frozen=True)
class TrainingConfig:
    loss_kind: str = "mad"
    steps: int = 2000
    batch_size: int = 512
    lr: float = 1e-3
    seed: int = 0
    n_data: int = 16384

    def __post_init__(self):
        if self.loss_kind not in ("dsm", "mad"):
            raise ValueError(f"unknown loss_kind {self.loss_kind!r}")
        if self.steps < 0 or self.batch_size < 1 or self.lr <= 0 or self.n_data < 1:
            raise ValueError("steps >= 0, batch_size >= 1, lr > 0, n_data >= 1 required")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _checked(section: str, make, *args, **kwargs):
    """make(*args, **kwargs), reporting a ValueError or TypeError as a ConfigError
    of the section."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def from_dict(cls, cfg: dict, section: str, **overrides):
    """Build the config dataclass `cls` from the JSON object cfg[section].

    Keys and value types follow `mlp.json_fields`, as checkpoint headers do,
    and `overrides` set fields whatever the section says.  Failures past the
    section's presence and type, the class's own validation included, raise
    ConfigError("<section>: ...").
    """
    if section not in cfg:
        raise ConfigError(f"config is missing the {section!r} section")
    data = cfg[section]
    if not isinstance(data, dict):
        raise ConfigError(f"the {section!r} section must be a JSON object, got {json.dumps(data)}")
    kwargs = _checked(section, json_fields, cls, data)
    return _checked(section, cls, **{**kwargs, **overrides})


def _manifold(cfg: dict):
    """The manifold config of a run config or checkpoint record, and the manifold it builds."""
    config = from_dict(ManifoldConfig, cfg, "manifold")
    return config, _checked("manifold", config.build)


def _check_dims(dataset_samples: np.ndarray, spec: DatasetSpec, manifold_cfg, manifold):
    if dataset_samples.shape[1] != manifold.ambient_dim:
        raise ConfigError(
            f"dataset ambient dimension {dataset_samples.shape[1]} does not match "
            f"the declared manifold ({manifold.ambient_dim})"
        )
    if spec.kind.startswith("discrete"):
        if manifold_cfg.kind != "discrete_circle":
            raise ConfigError("discrete datasets need a discrete_circle manifold")
        if manifold_cfg.n_coords != spec.n_coords:
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


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write the header, then each row as it comes: an int as written, any
    other value as its float's round-trip repr."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row) + "\n")


def _nonnegative(args, *flags) -> None:
    for flag in flags:
        if getattr(args, flag) < 0:
            raise ConfigError(f"--{flag} must be nonnegative")


def _read_samples_csv(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header or not header.split(",")[0].startswith("x"):
                raise ConfigError(f"{path}: expected a sample CSV header like x0,x1,...")
            width = len(header.split(","))
            with warnings.catch_warnings():  # a header-only file is the empty sample set
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read samples {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if data.size == 0:
        return np.empty((0, width))
    if data.shape[1] != width:
        raise ConfigError(f"{path}: header names {width} columns, rows have {data.shape[1]}")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ConfigError(f"{path}: sample row {bad[0] + 1} holds a non-finite value")
    return data


# ----------------------------------------------------------- subcommands ----


def cmd_make_data(args) -> int:
    _nonnegative(args, "n")
    cfg = _load_json(args.config)
    seed = {} if args.seed is None else {"seed": args.seed}
    spec = from_dict(DatasetSpec, cfg, "dataset", **seed)
    out = _ensure_out(args.out, cfg)
    samples, _, _ = _checked("dataset", build_dataset, spec, args.n, spec.seed)
    _write_csv(out / "data.csv", [f"x{i}" for i in range(samples.shape[1])], samples)
    _write_json(out / "make-data.config.json", {"dataset": asdict(spec), "n": args.n})
    print(f"wrote {samples.shape[0]} samples to {out / 'data.csv'}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_json(args.config)
    spec = from_dict(DatasetSpec, cfg, "dataset")
    manifold_cfg, manifold = _manifold(cfg)
    schedule = from_dict(NoiseSchedule, cfg, "schedule")
    seed = {} if args.seed is None else {"seed": args.seed}
    training = from_dict(TrainingConfig, cfg, "training", **seed)

    dataset, _, _ = _checked("dataset", build_dataset, spec, training.n_data, spec.seed)
    _check_dims(dataset, spec, manifold_cfg, manifold)
    # the network input dimension is the manifold's, whatever the section says
    model = from_dict(MlpConfig, cfg, "model", input_dim=manifold.ambient_dim)

    out = _ensure_out(args.out, cfg)
    params, curve = train(
        model,
        training.loss_kind,
        dataset,
        manifold,
        schedule,
        steps=training.steps,
        batch_size=training.batch_size,
        lr=training.lr,
        seed=training.seed,
    )
    record = {"dataset": asdict(spec), "manifold": manifold_cfg.record(),
              "schedule": asdict(schedule), "model": asdict(model),
              "training": asdict(training)}
    extras = {"loss_kind": training.loss_kind,
              **{name: record[name] for name in ("manifold", "schedule", "dataset")}}
    save_checkpoint(out / "checkpoint.bin", params, model, extras)
    _write_csv(out / "loss.csv", ["step", "loss"], enumerate(curve))
    _write_json(out / "train.config.json", {**record, "out_dir": str(out)})
    message = f"trained {training.steps} steps"
    if curve.size:
        message += f"; final-100 mean loss {float(curve[-100:].mean())}"
    print(message)
    return 0


def _score_field(params, model, loss_kind, manifold):
    if loss_kind == "mad":
        return lambda x, sig: base_score(x, sig, manifold) + forward(params, model, x, sig)
    if loss_kind == "dsm":
        return lambda x, sig: forward(params, model, x, sig)
    raise ConfigError(f"checkpoint loss_kind {loss_kind!r} is neither 'dsm' nor 'mad'")


def cmd_sample(args) -> int:
    _nonnegative(args, "n", "seed")
    params, model, extras = load_checkpoint(args.checkpoint)
    for key in ("loss_kind", "manifold", "schedule"):
        if key not in extras:
            raise ConfigError(f"checkpoint lacks the {key!r} record; cannot sample from it")
    manifold_cfg, manifold = _manifold(extras)
    if manifold.ambient_dim != model.input_dim:
        raise ConfigError("checkpoint manifold does not match the network input dimension")
    # finer generation grids reduce integrator bias without retraining
    scales = {} if args.num_scales is None else {"num_scales": args.num_scales}
    schedule = from_dict(NoiseSchedule, extras, "schedule", **scales)

    field = _score_field(params, model, extras["loss_kind"], manifold)
    try:
        samples = reverse_sample(field, schedule, args.n, manifold, np.random.default_rng(args.seed))
    finally:  # the forward's buffers, reused across steps, end with the run
        drop_workspace()
    out = _ensure_out(args.out, None)
    if args.n > 0:
        # measured before --project snaps the samples onto the support
        report = manifold_drift(samples, manifold)
        report = replace(report, config={**report.config, "seed": args.seed,
                                         "projected": args.project, "stage": "pre_projection"})
        append_metric(out / "metrics.log", report)
        print(format_line(report))
    if args.project:
        samples = project(samples, manifold)
    _write_csv(out / "samples.csv", [f"x{i}" for i in range(samples.shape[1])], samples)
    _write_json(
        out / "sample.config.json",
        {
            "checkpoint": str(args.checkpoint),
            "loss_kind": extras["loss_kind"],
            "manifold": manifold_cfg.record(),
            "n": args.n,
            "project": args.project,
            "schedule": asdict(schedule),
            "seed": args.seed,
        },
    )
    print(f"wrote {args.n} samples to {out / 'samples.csv'}")
    return 0


def cmd_eval(args) -> int:
    for flag, value in (("--decay", args.decay), ("--bandwidth", args.bandwidth)):
        if value is not None and not 0.0 < value < np.inf:
            raise ConfigError(f"{flag} must be positive and finite, got {value!r}")
    samples = _read_samples_csv(args.samples)
    try:
        if args.metric == "mmd":
            if not args.reference:
                raise ValueError("eval mmd needs --reference")
            report = mmd(samples, _read_samples_csv(args.reference), bandwidth=args.bandwidth)
        elif args.metric == "drift":
            report = manifold_drift(samples)
        elif args.metric == "tv":
            if args.kind not in ("discrete_uniform", "discrete_skewed"):
                raise ValueError("eval tv needs --kind discrete_uniform or discrete_skewed")
            ring, pmf = discrete_target(args.kind, args.n_coords, args.decay)
            report = discrete_tv(samples, ring, pmf)
        else:  # spread
            if not args.group or args.q_gt is None:
                raise ValueError("eval spread needs --group and --q-gt")
            group = build_symmetry_group(args.group, args.m)
            q_gt = np.array([float(v) for v in args.q_gt.split(",")])
            if q_gt.shape != (4,):
                raise ValueError("--q-gt must be four comma-separated numbers")
            norm = np.linalg.norm(q_gt)
            if not 0.0 < norm < np.inf:
                raise ValueError(f"--q-gt must be finite and nonzero, got {args.q_gt}")
            report = spread(samples, q_gt / norm, group)
    except ValueError as exc:  # a ConfigError from reading --reference keeps its message
        raise ConfigError(str(exc)) from exc
    out = _ensure_out(args.out, None)
    append_metric(out / "metrics.log", report)
    print(format_line(report))
    return 0


def cmd_oracle_check(args) -> int:
    kind = "sphere" if args.manifold == "sphere" else "discrete_circle"
    try:
        radii = [float(v) for v in args.radii.split(",")]
        sigmas = [float(v) for v in args.sigmas.split(",")]
        if not all(0.0 < v < np.inf for v in radii + sigmas):
            raise ValueError("radii and sigmas must be positive and finite")
        if args.n_mc < 2:
            raise ValueError("--n-mc must be at least 2")
        _nonnegative(args, "seed")
        manifold = ManifoldConfig(kind, n_coords=args.n_coords, n=args.n).build()
        direction = np.zeros(manifold.ambient_dim)
        direction[0] = 1.0
        # every closed form before any Monte Carlo work: a radius or sigma it
        # rejects is an input error
        closed_forms = {(r, sig): base_score(r * direction, sig, manifold)
                        for r in radii for sig in sigmas}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    print(f"{'r':>6} {'sigma':>6} {'rel_err':>10} {'max_dev/se':>11}  status")
    failed = 0
    for r in radii:
        for sig in sigmas:
            x = r * direction
            closed = closed_forms[r, sig]
            try:
                est = mc_score_oracle(
                    x, sig, manifold, n_samples=args.n_mc,
                    rng=np.random.default_rng(args.seed),
                )
            except UnreliableEstimateError:
                print(f"{r:6g} {sig:6g} {'-':>10} {'-':>11}  INCONCLUSIVE")
                continue
            dev = np.abs(closed - est.score)
            ratio = float(np.max(dev / np.maximum(4.0 * est.std_error, 1e-300)))
            scale = float(np.max(np.abs(closed)))
            rel = float(np.max(dev)) / scale if scale > 0 else float(np.max(dev))
            ok = ratio <= 1.0
            failed += 0 if ok else 1
            print(f"{r:6g} {sig:6g} {rel:10.2e} {4.0 * ratio:11.2f}  "
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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
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
