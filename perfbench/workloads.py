"""The two benchmark workloads: run configs, the `mdsm` call chain, quality
metrics computed from the artifacts, and the call counts a traced run must see.

Seeds follow the acceptance tests, so `--seed 2` on `ring_mad` is the canonical
c5 pair (dataset 102, training seed 2, sampling seed 502) and `--seed s` on
`rotation_pair` is c6's seed s (dataset 200 + s, training seed s).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from manifold_dsm.datasets import circle_points, skewed_pmf
from manifold_dsm.geometry import DiscreteSet
from manifold_dsm.metrics import discrete_tv


SAMPLE_SCALES = 300  # `mdsm sample --num-scales`, as in acceptance check c5
# Per-chain checks.  Seeds 0-9 stay far below both (BASELINE.json: drift at
# most 1.4e-4, TV at most 0.11), so a value above one means the
# train-and-sample path broke, not that a seed was unlucky.  TV 0.25 is a lost
# mixture component on S^3; uniform samples on the ring read 0.38.
MAX_DRIFT = 1e-3
MAX_TV = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: dict
    manifold: dict
    schedule: dict
    model: dict
    training: dict  # everything but loss_kind and seed
    sample_n: int
    sample_seed_offset: int
    dataset_seed_offset: int
    eval_tv: bool  # run `mdsm eval tv` after sampling (ring only)

    @property
    def dim(self) -> int:
        return 2 if self.manifold["kind"] == "discrete_circle" else 4

    @property
    def steps(self) -> int:
        return int(self.training["steps"])

    def config(self, loss_kind: str, seed: int) -> dict:
        return {
            "dataset": {**self.dataset, "seed": self.dataset_seed_offset + seed},
            "manifold": self.manifold,
            "schedule": self.schedule,
            "model": self.model,
            "training": {**self.training, "loss_kind": loss_kind, "seed": seed},
        }

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Points that samples are scored against, and their target weights."""
        if self.manifold["kind"] == "discrete_circle":
            n = int(self.dataset["n_coords"])
            return circle_points(n), skewed_pmf(n, float(self.dataset["decay"]))
        comps = self.dataset["components"]
        return np.array([c[0] for c in comps], dtype=float), np.array([c[2] for c in comps])

    def drift(self, samples: np.ndarray) -> float:
        """Mean distance of unprojected samples to the support: the nearest
        ring point on the ring, |1 - ||x||| on S^3."""
        if self.manifold["kind"] == "discrete_circle":
            pts, _ = self.support()
            d = np.linalg.norm(samples[:, None, :] - pts[None], axis=2).min(axis=1)
        else:
            d = np.abs(1.0 - np.linalg.norm(samples, axis=1))
        return float(d.mean())

    def tv(self, samples: np.ndarray) -> float:
        """TV of the nearest-support histogram against the target weights:
        the skewed pmf on the ring, the mixture weights on S^3."""
        pts, pmf = self.support()
        return discrete_tv(samples, DiscreteSet(pts), pmf).value

    def expected_calls(self) -> dict[str, int]:
        """Calls per chain into each wrapped function (see tracing.WRAPPED)."""
        steps, scales = self.steps, SAMPLE_SCALES - 1
        sphere = self.manifold["kind"] != "discrete_circle"
        return {
            "cli.train": 2,
            "cli.build_dataset": 2,
            "cli.save_checkpoint": 2,
            "cli.load_checkpoint": 1,
            "cli.reverse_sample": 1,
            "cli.forward": scales,
            "cli.base_score": scales,
            "cli.manifold_drift": 1,
            "cli.discrete_tv": 1 if self.eval_tv else 0,
            "mlp.backward": 2 * steps,
            "mlp.adam_step": 2 * steps,
            "diffusion.perturb": 2 * steps,
            "diffusion.mad_target": steps,
            "diffusion.dsm_target": steps,
            "diffusion.base_score": steps,
            "basescore.bessel_ratio_i0_i1": steps + scales if sphere else 0,
        }


RING_MAD = Workload(
    name="ring_mad",
    dataset={"kind": "discrete_skewed", "n_coords": 8, "decay": 0.8},
    manifold={"kind": "discrete_circle", "n_coords": 8},
    schedule={"sigma_min": 1e-4, "sigma_max": 4.0, "num_scales": 100},
    model={"hidden_dim": 128, "num_hidden_layers": 3, "activation": "relu"},
    training={"steps": 2000, "batch_size": 512, "lr": 2e-3, "n_data": 16384},
    sample_n=10_000,
    sample_seed_offset=500,
    dataset_seed_offset=100,
    eval_tv=True,
)

_AXES = ((1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, -1.0, 0.0, 0.0))

ROTATION_PAIR = Workload(
    name="rotation_pair",
    dataset={
        "kind": "vmf_mixture",
        "manifold_n": 3,
        "components": [[list(axis), 40.0, 0.25] for axis in _AXES],
    },
    manifold={"kind": "rotation_group"},
    schedule={"sigma_min": 1e-4, "sigma_max": 2.0, "num_scales": 100},
    model={"hidden_dim": 64, "num_hidden_layers": 3, "activation": "silu",
           "antisymmetrize": True},
    training={"steps": 1000, "batch_size": 128, "lr": 2e-3, "n_data": 4096},
    sample_n=4096,
    sample_seed_offset=600,
    dataset_seed_offset=200,
    eval_tv=False,
)

WORKLOADS = {w.name: w for w in (RING_MAD, ROTATION_PAIR)}


def chain(w: Workload, seed: int, cfg_dir: Path, out: Path) -> list[tuple[str, list[str]]]:
    """The `mdsm` argv lists of one closed-loop pass, tagged by phase."""
    calls = [
        ("train", ["train", "--config", str(cfg_dir / f"{kind}.json"), "--out", str(out / kind)])
        for kind in ("mad", "dsm")
    ]
    calls.append(("sample", [
        "sample", "--checkpoint", str(out / "mad" / "checkpoint.bin"),
        "--n", str(w.sample_n), "--num-scales", str(SAMPLE_SCALES),
        "--seed", str(w.sample_seed_offset + seed), "--out", str(out / "sample"),
    ]))
    if w.eval_tv:
        calls.append(("eval", [
            "eval", "tv", "--samples", str(out / "sample" / "samples.csv"),
            "--kind", w.dataset["kind"], "--n-coords", str(w.dataset["n_coords"]),
            "--decay", str(w.dataset["decay"]), "--out", str(out / "sample"),
        ]))
    return calls
