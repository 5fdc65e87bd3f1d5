"""Closed-form scores of noised reference measures, plus a Monte Carlo oracle.

For data x0 ~ mu on a support M, perturbed to x_t = x0 + sigma eps, the score
of the noised marginal is (E[x0|x_t] - x_t)/sigma^2.  When mu is the uniform
measure on M this posterior mean has a closed form for every support handled
here, and the resulting "base score" carries all of the support's geometry:

* discrete point sets: softmax-weighted mean of the points, weights
  exp(-||x - u_i||^2 / (2 sigma^2)), evaluated with log-sum-exp;
* the n-sphere: a radial field whose magnitude is a ratio of modified Bessel
  functions of orders (n-3)/2, (n-1)/2, (n+1)/2 at z = ||x||/sigma^2;
* S^2: the Bessel ratio collapses to coth(z), no special functions needed;
* S^3 (unit quaternions): the ratio reduces to I_0/I_1.

Every sphere formula is assembled from exponentially scaled Bessel values so
nothing overflows as sigma -> 0 (z reaches 1e8 and beyond).  Near-origin
queries (||x|| < 1e-8) are rejected: the formulas are undefined at x = 0 and
reverse-SDE trajectories hit the origin with probability zero.

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

from .bessel import _ratio_cf, bessel_i_scaled, bessel_ratio_i0_i1
from .errors import DegenerateInputError, UnreliableEstimateError
from .geometry import DiscreteSet, Manifold, Sphere
from .rowblocks import map_shards, row_blocks

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
    if np.any(sigma <= 0.0):
        raise ValueError("sigma must be positive")
    return x, sigma


def _sphere_radius(x: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(x, axis=-1)
    if np.any(r < _MIN_SPHERE_NORM):
        raise DegenerateInputError(
            f"sphere score undefined near the origin (||x|| < {_MIN_SPHERE_NORM:g})"
        )
    return r


def _sphere_args(x, sigma, dim: int):
    """Checked query x with r = ||x||, sig2 = sigma^2 per row and z = r/sig2."""
    x, sigma = _check_xy_sigma(x, sigma, dim)
    r = _sphere_radius(x)
    sig2 = np.broadcast_to(sigma, r.shape) ** 2
    return x, r, sig2, r / sig2


def _softmax_weights(x, sigma, points, log_probs=None) -> np.ndarray:
    """Posterior weights over support points for queries x, shape (..., N).

    Filled in row blocks (see rowblocks), so the (rows, N, d) difference
    tensor stays one block in size.
    """
    n_pts, dim = points.shape
    xs = x.reshape(-1, dim)
    sig = np.reshape(sigma, -1)
    out = np.empty((xs.shape[0], n_pts))

    def shard(blocks):
        diff = np.empty((max(stop - start for start, stop in blocks), n_pts, dim))
        for start, stop in blocks:
            d = np.subtract(xs[start:stop, None, :], points, out=diff[: stop - start])
            np.multiply(d, d, out=d)
            expo = np.sum(d, axis=-1, out=out[start:stop])
            np.negative(expo, out=expo)
            expo /= 2.0 * sig[start:stop, None] ** 2
            if log_probs is not None:
                expo += log_probs
            expo -= np.max(expo, axis=-1, keepdims=True)
            np.exp(expo, out=expo)
            expo /= np.sum(expo, axis=-1, keepdims=True)

    map_shards(shard, row_blocks(xs.shape[0]))
    return out.reshape(x.shape[:-1] + (n_pts,))


def _score_from_mean(mean, x, sigma) -> np.ndarray:
    """(mean - x)/sigma^2, computed in mean's buffer."""
    mean -= x
    mean /= np.asarray(sigma)[..., None] ** 2
    return mean


def posterior_mean_discrete(x, sigma, support) -> np.ndarray:
    """E[x0 | x] for the uniform measure on a discrete support."""
    points = _points_of(support)
    x, sigma = _check_xy_sigma(x, sigma, points.shape[1])
    w = _softmax_weights(x, np.broadcast_to(sigma, x.shape[:-1]), points)
    return w @ points


def base_score_discrete(x, sigma, support) -> np.ndarray:
    """(posterior mean - x)/sigma^2 for the uniform discrete measure."""
    points = _points_of(support)
    x, sigma = _check_xy_sigma(x, sigma, points.shape[1])
    return _score_from_mean(posterior_mean_discrete(x, sigma, points), x, sigma)


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
    w = _softmax_weights(
        x, np.broadcast_to(sigma, x.shape[:-1]), points, log_probs=np.log(probs)
    )
    return _score_from_mean(w @ points, x, sigma)


def base_score_nsphere(x, sigma, n: int) -> np.ndarray:
    """Uniform-measure base score on the n-sphere, radial in x.

    -x/sigma^2 + (1-n)/2 * x/||x||^2 + B(z) * x/(sigma^2 ||x||) where B is the
    Bessel bracket (I_{(n-3)/2}(z) + I_{(n+1)/2}(z)) / (2 I_{(n-1)/2}(z)) at
    z = ||x||/sigma^2, computed from scaled Bessel values, or from the
    continued-fraction ratios I_{(n+1)/2}/I_{(n-1)/2} and I_{(n-1)/2}/I_{(n-3)/2}
    where the scaled I_{(n-1)/2} underflows to zero (high n, small z).
    """
    if n < 1:
        raise ValueError("n-sphere score needs n >= 1")
    x, r, sig2, z = _sphere_args(x, sigma, n + 1)
    lo = (n - 3) / 2.0
    if lo < -0.5:
        # only n = 1 lands here; integer-order symmetry I_{-1} = I_1
        lo = -lo
    mid = (n - 1) / 2.0
    hi = (n + 1) / 2.0
    lo_v, mid_v, hi_v = (np.asarray(bessel_i_scaled(nu, z)) for nu in (lo, mid, hi))
    with np.errstate(divide="ignore", invalid="ignore"):
        bracket = np.asarray((lo_v + hi_v) / (2.0 * mid_v))
    under = mid_v == 0.0
    if np.any(under):
        # high order at small z: the scaled values underflow, their ratios do not
        zu = np.asarray(z)[under]
        up = _ratio_cf(mid, zu)
        down = up if n == 1 else 1.0 / _ratio_cf(lo, zu)
        bracket[under] = (down + up) / 2.0
    radial = -1.0 / sig2 + (1.0 - n) / 2.0 / r**2 + bracket / (sig2 * r)
    return x * radial[..., None]


def base_score_s2(x, sigma) -> np.ndarray:
    """S^2 base score: x * (-1/sigma^2 - 1/||x||^2 + coth(z)/(sigma^2 ||x||)).

    coth saturates to 1 beyond z = 40 (1 - tanh(40) is below double precision
    relative resolution), which keeps the expression overflow-free for any z.
    """
    x, r, sig2, z = _sphere_args(x, sigma, 3)
    coth = np.where(z > 40.0, 1.0, 1.0 / np.tanh(np.minimum(z, 40.0)))
    radial = -1.0 / sig2 - 1.0 / r**2 + coth / (sig2 * r)
    return x * radial[..., None]


def base_score_s3(x, sigma) -> np.ndarray:
    """S^3 (unit quaternion) base score via the I_0/I_1 Bessel ratio."""
    x, r, sig2, z = _sphere_args(x, sigma, 4)
    ratio = bessel_ratio_i0_i1(z)
    radial = -1.0 / sig2 - 1.0 / r**2 + (ratio - sig2 / r) / (sig2 * r)
    return x * radial[..., None]


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


def mc_score_oracle(
    x,
    sigma: float,
    manifold: Manifold,
    n_samples: int,
    rng: np.random.Generator,
    chunk_size: int = 1 << 17,
) -> OracleEstimate:
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
        m = min(remaining, chunk_size)
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
