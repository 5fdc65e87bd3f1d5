"""Closed-form scores of noised reference measures, plus a Monte Carlo oracle.

For data x0 ~ mu on a support M, perturbed to x_t = x0 + sigma eps, the score
of the noised marginal is (E[x0|x_t] - x_t)/sigma^2.  When mu is the uniform
measure on M this posterior mean has a closed form for every support handled
here, and the resulting "base score" carries all of the support's geometry:

* discrete point sets: softmax-weighted mean of the points u_i, with logits
  ((u_i - c).(x - c) - ||u_i - c||^2 / 2) / sigma^2 about the centroid c (the
  same softmax as -||x - u_i||^2 / (2 sigma^2)), from one GEMM; each logit
  rounds by about eps (||x - c|| R + R^2) / sigma^2 with R = max ||u_i - c||;
* the n-sphere: a radial field whose magnitude depends on one Bessel ratio,
  rho(z) = I_{(n-3)/2}(z) / I_{(n-1)/2}(z) at z = ||x||/sigma^2, through one
  formula (`_sphere_score`) shared by every n;
* S^2: the ratio collapses to coth(z), no special functions needed;
* S^3 (unit quaternions): the ratio is I_0/I_1.

The ratio is never formed from Bessel values, so nothing overflows as
sigma -> 0 (z reaches 1e8 and beyond) and nothing underflows at high n.
Near-origin queries (||x|| < 1e-8) are rejected: the formulas are undefined at
x = 0 and reverse-SDE trajectories hit the origin with probability zero.

`mc_score_oracle` estimates the same score by self-normalized importance
sampling from mu directly.  It shares no code with the closed forms, reports a
standard error, and refuses to answer when the effective sample size is tiny;
it exists to validate the formulas above.

Functions accept a single query row (d,) or a batch (m, d), with sigma scalar
or per-row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bessel import bessel_ratio, bessel_ratio_i0_i1
from .errors import DegenerateInputError, UnreliableEstimateError
from .geometry import DiscreteSet, Manifold, Sphere

__all__ = [
    "posterior_mean_discrete",
    "base_score_discrete",
    "exact_score_discrete",
    "base_score_nsphere",
    "base_score_s2",
    "base_score_s3",
    "base_score",
    "OracleEstimate",
    "mc_score_oracle",
]

_MIN_SPHERE_NORM = 1e-8
_MAX_SIGMA = np.sqrt(np.finfo(np.float64).max)  # the largest sigma whose square is finite
_ORACLE_CHUNK = 1 << 17  # draws per Monte Carlo oracle pass


def _points_of(support) -> np.ndarray:
    if isinstance(support, DiscreteSet):
        return support.points
    pts = np.asarray(support, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("discrete support must be an (N, d) array")
    return pts


def _check_xy_sigma(x, sigma, dim: int):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != dim:
        raise ValueError(f"query dimension {x.shape[-1]} does not match support {dim}")
    sigma = np.asarray(sigma, dtype=np.float64)
    if not np.all((sigma > 0.0) & (sigma <= _MAX_SIGMA)):  # also false for nan
        raise ValueError("sigma must be positive and finite, with a finite square")
    return x, sigma


def _sphere_radius(x: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(x, axis=-1)
    if np.any(r < _MIN_SPHERE_NORM):
        raise DegenerateInputError(
            f"sphere score undefined near the origin (||x|| < {_MIN_SPHERE_NORM:g})"
        )
    return r


def _softmax_weights(x, sigma, points, log_probs=None) -> np.ndarray:
    """Posterior weights over support points for queries x, shape (..., N).

    With c the support's centroid, the logits -||x - u||^2 / (2 sigma^2) less
    their common part -||x - c||^2 / (2 sigma^2) are ((u - c).(x - c) -
    ||u - c||^2 / 2) / sigma^2: one GEMM into an (N, rows) array, whose max and
    sum over the N points are elementwise passes over contiguous rows.
    Centering keeps a logit's rounding near eps (||x - c|| R + R^2) / sigma^2,
    R = max ||u - c||, wherever the support sits.
    """
    dim = points.shape[1]
    c = points.mean(axis=0)
    u = points - c
    logits = u @ (x.reshape(-1, dim) - c).T
    logits -= 0.5 * np.sum(u * u, axis=1)[:, None]
    logits /= np.broadcast_to(sigma, x.shape[:-1]).reshape(-1) ** 2
    if log_probs is not None:
        logits += log_probs[:, None]
    logits -= logits.max(axis=0)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=0)
    return logits.T.reshape(x.shape[:-1] + (points.shape[0],))


def _score_from_mean(mean, x, sigma) -> np.ndarray:
    """(mean - x)/sigma^2, computed in mean's buffer."""
    mean -= x
    mean /= np.asarray(sigma)[..., None] ** 2
    return mean


def posterior_mean_discrete(x, sigma, support) -> np.ndarray:
    """E[x0 | x] for the uniform measure on a discrete support."""
    points = _points_of(support)
    x, sigma = _check_xy_sigma(x, sigma, points.shape[1])
    return _softmax_weights(x, sigma, points) @ points


def base_score_discrete(x, sigma, support) -> np.ndarray:
    """(posterior mean - x)/sigma^2 for the uniform discrete measure."""
    points = _points_of(support)
    x, sigma = _check_xy_sigma(x, sigma, points.shape[1])
    return _score_from_mean(_softmax_weights(x, sigma, points) @ points, x, sigma)


def exact_score_discrete(x, sigma, points, probs) -> np.ndarray:
    """Score of a noised arbitrary discrete distribution (probability-weighted).

    Every point must carry strictly positive probability; mass exactly on the
    support is what makes the base score a good small-sigma approximation.
    """
    points = _points_of(points)
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (points.shape[0],):
        raise ValueError("probs must have one entry per support point")
    if np.any(probs <= 0.0):
        raise ValueError("all support points need strictly positive probability")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("probs must sum to 1")
    x, sigma = _check_xy_sigma(x, sigma, points.shape[1])
    w = _softmax_weights(x, sigma, points, log_probs=np.log(probs))
    return _score_from_mean(w @ points, x, sigma)


def _sphere_score(x, sigma, n: int, ratio) -> np.ndarray:
    """Uniform-measure base score on S^n, radial in x:

    x (-1/sigma^2 + (1-n)/2 / ||x||^2 + (rho(z) - (n-1)/(2z)) / (sigma^2 ||x||))

    at z = ||x||/sigma^2, with rho(z) = ratio(z) = I_{(n-3)/2}(z) / I_{(n-1)/2}(z).
    rho - (n-1)/(2z) is the Bessel bracket (I_{(n-3)/2} + I_{(n+1)/2}) / (2 I_{(n-1)/2})
    after the recurrence I_{nu-1} - I_{nu+1} = (2 nu / z) I_nu.  A sigma that
    puts z below the smallest normal double raises ValueError.
    """
    x, sigma = _check_xy_sigma(x, sigma, n + 1)
    r = _sphere_radius(x)
    sig2 = np.broadcast_to(sigma, r.shape) ** 2
    z = r / sig2
    if np.any(z < np.finfo(np.float64).tiny):
        raise ValueError("sigma too large for the sphere score: ||x||/sigma^2 is below "
                         "the smallest normal double")
    # this evaluation order fixes the bits of every seeded S^3 run
    radial = -1.0 / sig2 + (1 - n) / 2 / r**2 + (ratio(z) - (n - 1) / 2 * sig2 / r) / (sig2 * r)
    return x * radial[..., None]


def base_score_nsphere(x, sigma, n: int) -> np.ndarray:
    """Uniform-measure base score on the n-sphere, radial in x, from the Bessel
    ratio I_{(n-3)/2}/I_{(n-1)/2} (see `_sphere_score`)."""
    if n < 1:
        raise ValueError("n-sphere score needs n >= 1")
    return _sphere_score(x, sigma, n, lambda z: bessel_ratio((n - 1) / 2, z))


def _coth(z):
    # 1 - tanh(40) is below double precision's relative resolution, so coth
    # saturates to 1 there, which keeps it overflow-free for any z
    return np.where(z > 40.0, 1.0, 1.0 / np.tanh(np.minimum(z, 40.0)))


def base_score_s2(x, sigma) -> np.ndarray:
    """S^2 base score, where the Bessel ratio I_{-1/2}/I_{1/2} is coth(z)."""
    return _sphere_score(x, sigma, 2, _coth)


def base_score_s3(x, sigma) -> np.ndarray:
    """S^3 (unit quaternion) base score, where the Bessel ratio is I_0/I_1."""
    return _sphere_score(x, sigma, 3, bessel_ratio_i0_i1)


def base_score(x, sigma, manifold: Manifold) -> np.ndarray:
    """Base score dispatch over the supported manifold kinds."""
    if isinstance(manifold, DiscreteSet):
        return base_score_discrete(x, sigma, manifold)
    if isinstance(manifold, Sphere):
        if manifold.n == 2:
            return base_score_s2(x, sigma)
        if manifold.n == 3:
            return base_score_s3(x, sigma)
        return base_score_nsphere(x, sigma, manifold.n)
    raise TypeError(f"unsupported manifold {manifold!r}")


@dataclass(frozen=True)
class OracleEstimate:
    """Monte Carlo score estimate with its per-coordinate standard error."""

    score: np.ndarray
    std_error: np.ndarray
    ess: float
    n_samples: int


def mc_score_oracle(x, sigma: float, manifold: Manifold, n_samples: int,
                    rng: np.random.Generator) -> OracleEstimate:
    """Importance-sampled score estimate for a single query point.

    Draws x0 ~ mu (uniform on the sphere via normalized Gaussians, uniform
    over the points of a discrete support), forms self-normalized weights
    w_i proportional to exp(-||x - x0_i||^2/(2 sigma^2)) in log domain, and
    returns (sum w x0 / sum w - x)/sigma^2 together with the delta-method
    standard error.  Refuses to report when the effective sample size drops
    below 100.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("the oracle evaluates one query point at a time")
    dim = manifold.ambient_dim
    x, sig = _check_xy_sigma(x, sigma, dim)
    sigma = float(sig)
    if isinstance(manifold, Sphere):
        _sphere_radius(x)
    discrete = isinstance(manifold, DiscreteSet)

    # Streaming log-sum-exp accumulators, rescaled whenever the max log-weight
    # moves: S1 = sum w, Sx = sum w x0, and the squared versions for the SE.
    m_log = -np.inf
    s1 = 0.0
    sx = np.zeros(dim)
    s1_sq = 0.0
    sx_sq = np.zeros(dim)
    sxx_sq = np.zeros(dim)

    remaining = int(n_samples)
    while remaining > 0:
        m = min(remaining, _ORACLE_CHUNK)
        remaining -= m
        if discrete:
            x0 = manifold.points[rng.integers(manifold.points.shape[0], size=m)]
        else:
            g = rng.standard_normal((m, dim))
            x0 = g / np.linalg.norm(g, axis=1, keepdims=True)
        logw = -np.sum((x - x0) ** 2, axis=1) / (2.0 * sigma**2)
        m_chunk = float(np.max(logw))
        if m_chunk > m_log:
            scale = np.exp(m_log - m_chunk)
            s1 *= scale
            sx *= scale
            s1_sq *= scale**2
            sx_sq *= scale**2
            sxx_sq *= scale**2
            m_log = m_chunk
        w = np.exp(logw - m_log)
        s1 += float(np.sum(w))
        sx += w @ x0
        w2 = w * w
        s1_sq += float(np.sum(w2))
        sx_sq += w2 @ x0
        sxx_sq += w2 @ (x0 * x0)

    ess = s1 * s1 / s1_sq
    if ess < 100.0:
        raise UnreliableEstimateError(
            f"effective sample size {ess:.1f} < 100 at sigma={sigma:g}; "
            "increase n_samples"
        )
    mean = sx / s1
    var = (sxx_sq - 2.0 * mean * sx_sq + mean**2 * s1_sq) / (s1 * s1)
    std_error = np.sqrt(np.maximum(var, 0.0))
    return OracleEstimate(
        score=(mean - x) / sigma**2,
        std_error=std_error / sigma**2,
        ess=float(ess),
        n_samples=int(n_samples),
    )
