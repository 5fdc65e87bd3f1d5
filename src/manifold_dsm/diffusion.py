"""Variance-exploding forward process x_t = x0 + sigma eps, training targets,
and reverse sampler.

The mad target is the dsm target less sigma times the known uniform-measure
score, so the network learns only the correction s - s_base.  Both targets
are built here so the identity dsm - mad = sigma s_base holds arithmetically,
not just in exact math.  In the reverse sampler g^2 dt telescopes to sigma^2
differences, so no time variable appears anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basescore import base_score
from .errors import TrainingDivergedError
from .geometry import Manifold

__all__ = [
    "NoiseSchedule",
    "perturb",
    "dsm_target",
    "mad_target",
    "reverse_sample",
]


@dataclass(frozen=True)
class NoiseSchedule:
    """Descending geometric noise grid sigma_max = s_1 > ... > s_N = sigma_min,
    in the read-only array `sigmas`; also a run config's `schedule` section."""

    sigma_min: float = 1e-4
    sigma_max: float = 2.0
    num_scales: int = 100

    def __post_init__(self):
        if not (0.0 < self.sigma_min < self.sigma_max < math.inf):
            raise ValueError("need 0 < sigma_min < sigma_max, both finite")
        if self.num_scales < 2:
            raise ValueError("need at least 2 noise scales")
        s = np.geomspace(self.sigma_max, self.sigma_min, self.num_scales)
        # geomspace endpoints can miss the exact inputs by an ulp
        s[0] = self.sigma_max
        s[-1] = self.sigma_min
        s.flags.writeable = False
        object.__setattr__(self, "sigmas", s)

    @classmethod
    def geometric(cls, sigma_min: float, sigma_max: float, num_scales: int) -> "NoiseSchedule":
        return cls(float(sigma_min), float(sigma_max), int(num_scales))


def perturb(x0, sigma, rng: np.random.Generator) -> np.ndarray:
    """x0 + sigma * eps with standard normal eps; sigma = 0 returns x0 exactly."""
    x0 = np.asarray(x0, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if not np.all(np.isfinite(sigma) & (sigma >= 0.0)):
        raise ValueError("sigma must be nonnegative and finite")
    eps = rng.standard_normal(x0.shape)
    return x0 + sigma[..., None] * eps if sigma.ndim else x0 + sigma * eps


def _residual(x0, xt, sigma):
    """Checked xt and sigma, sigma shaped to scale rows, and (x0 - xt)/sigma."""
    x0 = np.asarray(x0, dtype=np.float64)
    xt = np.asarray(xt, dtype=np.float64)
    if x0.shape != xt.shape:
        raise ValueError("x0 and xt shapes must match")
    sigma = np.asarray(sigma, dtype=np.float64)
    if not np.all(np.isfinite(sigma) & (sigma > 0.0)):
        raise ValueError("sigma must be positive and finite")
    sig = sigma[..., None] if sigma.ndim else sigma
    return xt, sigma, sig, (x0 - xt) / sig


def dsm_target(x0, xt, sigma) -> np.ndarray:
    """Denoising target (x0 - xt)/sigma; loss term ||sigma f(xt) - target||^2."""
    return _residual(x0, xt, sigma)[3]


def mad_target(x0, xt, sigma, manifold: Manifold) -> np.ndarray:
    """Correction target (x0 - xt)/sigma - sigma * s_base(xt, sigma)."""
    xt, sigma, sig, res = _residual(x0, xt, sigma)
    return res - sig * base_score(xt, sigma, manifold)


def reverse_sample(
    score_field: Callable[[np.ndarray, float], np.ndarray],
    schedule: NoiseSchedule,
    n: int,
    manifold: Manifold,
    rng: np.random.Generator,
) -> np.ndarray:
    """Integrate the reverse SDE from sigma_max down to sigma_min.

    Starts at x ~ Normal(0, sigma_max^2 I) and applies, for each consecutive
    pair (s_i, s_{i+1}), the Euler-Maruyama step

        x <- x + (s_i^2 - s_{i+1}^2) score_field(x, s_i)
               + sqrt(s_i^2 - s_{i+1}^2) eps.

    Noise is drawn as one (n, dim) block per step in sample order, and
    score_field sees the whole batch once per step.  Returns the raw (n, dim)
    final state, neither measured (`metrics.manifold_drift`) nor projected.
    A score shaped unlike x raises ValueError, a non-finite one TrainingDivergedError.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    dim = manifold.ambient_dim
    x = schedule.sigma_max * rng.standard_normal((n, dim))
    s = schedule.sigmas
    if n > 0:
        for i in range(schedule.num_scales - 1):
            sc = np.asarray(score_field(x, float(s[i])), dtype=np.float64)
            if sc.shape != x.shape:
                raise ValueError(f"score of shape {sc.shape} for a state of shape {x.shape}")
            if not np.all(np.isfinite(sc)):
                bad = float(np.linalg.norm(x[~np.all(np.isfinite(sc), axis=1)][0]))
                raise TrainingDivergedError(
                    f"non-finite score at sigma={s[i]:g} (state norm {bad:g})",
                    sigma=float(s[i]),
                    state_norm=bad,
                )
            dv = float(s[i] ** 2 - s[i + 1] ** 2)
            x = x + dv * sc + np.sqrt(dv) * rng.standard_normal((n, dim))
        if not np.all(np.isfinite(x)):
            raise TrainingDivergedError(
                f"non-finite state after the final step at sigma={s[-1]:g}",
                sigma=float(s[-1]),
            )
    return x
