"""Sample-quality metrics: MMD, orbit spread, manifold drift, discrete TV.

Every metric returns a MetricReport carrying the number, an optional standard
error, and the config needed to reproduce it.  Reports serialize to single
text lines with a fixed field order so a metrics log diffs cleanly across
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import DiscreteSet, SymmetryGroup, quat_mul

__all__ = [
    "MetricReport",
    "format_line",
    "append_metric",
    "mmd",
    "spread",
    "manifold_drift",
    "discrete_tv",
]

_MEDIAN_POOL_CAP = 4096
_KERNEL_BLOCK = 2048


@dataclass(frozen=True)
class MetricReport:
    name: str
    value: float
    std_error: float | None = None
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("metric value must be finite")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def format_line(report: MetricReport) -> str:
    """`name=... value=... std_error=... key=value...`, config keys sorted.

    Floats use round-trip decimal repr; std_error prints `none` when absent.
    Config keys must avoid the three reserved field names.
    """
    parts = [f"name={report.name}", f"value={_fmt(float(report.value))}"]
    se = "none" if report.std_error is None else _fmt(float(report.std_error))
    parts.append(f"std_error={se}")
    for key in sorted(report.config):
        if key in ("name", "value", "std_error"):
            raise ValueError(f"config key {key!r} collides with a reserved field")
        parts.append(f"{key}={_fmt(report.config[key])}")
    return " ".join(parts)


def append_metric(path, report: MetricReport) -> None:
    """Atomic one-line append (single write on an O_APPEND handle)."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(format_line(report) + "\n")


def _rows(batch) -> np.ndarray:
    return np.atleast_2d(np.asarray(batch, dtype=np.float64))


def _mean_report(name: str, values: np.ndarray, config: dict) -> MetricReport:
    """The mean of values, with its standard error once there are two."""
    n = len(values)
    se = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else None
    return MetricReport(name=name, value=float(np.mean(values)), std_error=se, config=config)


def _median_distance(pooled: np.ndarray) -> float:
    if pooled.shape[0] > _MEDIAN_POOL_CAP:
        stride = -(-pooled.shape[0] // _MEDIAN_POOL_CAP)
        pooled = pooled[::stride]
    sq = np.sum(pooled * pooled, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pooled @ pooled.T)
    iu = np.triu_indices(pooled.shape[0], k=1)
    med = float(np.median(np.maximum(d2[iu], 0.0)))
    return float(np.sqrt(med))


def _kernel_sum(a: np.ndarray, b: np.ndarray, h: float) -> float:
    """Sum of exp(-||x-y||^2 / (2 h^2)) over all row pairs, in blocks."""
    inv = -0.5 / (h * h)
    sq_b = np.sum(b * b, axis=1)
    total = 0.0
    for lo in range(0, a.shape[0], _KERNEL_BLOCK):
        blk = a[lo : lo + _KERNEL_BLOCK]
        d2 = np.sum(blk * blk, axis=1)[:, None] + sq_b[None, :] - 2.0 * (blk @ b.T)
        total += float(np.exp(inv * np.maximum(d2, 0.0)).sum())
    return total


def mmd(x_batch, y_batch, bandwidth: float | None = None) -> MetricReport:
    """Unbiased Gaussian-kernel MMD between two sample batches.

    Reports sqrt(max(MMD^2_u, 0)), as the estimate can go negative on close
    batches; the unclamped estimate and the bandwidth land in the config.  The
    bandwidth defaults to the median pairwise distance of the pooled batches
    (median heuristic), over every k-th row of a pool past 4096 rows.
    """
    x = _rows(x_batch)
    y = _rows(y_batch)
    if x.shape[0] == 0 or y.shape[0] == 0:
        raise ValueError("mmd needs nonempty batches")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"ambient dimensions differ: {x.shape[1]} vs {y.shape[1]}")
    if x.shape[0] < 2 or y.shape[0] < 2:
        raise ValueError("the unbiased estimator needs at least 2 rows per batch")
    if bandwidth is None:
        h = _median_distance(np.concatenate([x, y], axis=0))
        if h <= 0.0:
            h = 1.0  # all pooled points coincide; any kernel width gives MMD 0
    else:
        h = float(bandwidth)
        if not 0.0 < h < np.inf:
            raise ValueError("bandwidth must be positive and finite")
    m, n = x.shape[0], y.shape[0]
    s_xx = _kernel_sum(x, x, h) - m  # drop the diagonal (k(x,x) = 1)
    s_yy = _kernel_sum(y, y, h) - n
    s_xy = _kernel_sum(x, y, h)
    est = s_xx / (m * (m - 1)) + s_yy / (n * (n - 1)) - 2.0 * s_xy / (m * n)
    return MetricReport(
        name="mmd",
        value=float(np.sqrt(max(est, 0.0))),
        config={"bandwidth": h, "n_x": m, "n_y": n, "mmd2_unclamped": est},
    )


def spread(samples, q_gt, group: SymmetryGroup) -> MetricReport:
    """Mean over samples of the minimum geodesic distance to the orbit of
    q_gt under the group, reported in degrees."""
    q = _rows(samples)
    if q.shape[0] == 0:
        raise ValueError("spread needs at least one sample")
    if q.shape[1] != 4:
        raise ValueError("spread expects unit quaternions")
    q_gt = np.asarray(q_gt, dtype=np.float64)
    orbit = quat_mul(q_gt[None, :], group.elements)
    # min geodesic over the orbit = 2 arccos of the largest |dot|
    best = np.max(np.abs(q @ orbit.T), axis=1)
    deg = np.degrees(2.0 * np.arccos(np.clip(best, 0.0, 1.0)))
    return _mean_report("spread", deg, {"group_order": len(group), "n_samples": q.shape[0]})


def manifold_drift(batch, manifold=None) -> MetricReport:
    """Mean distance of the rows to the manifold; the max and the measure
    land in the config.

    On a DiscreteSet the distance is to the nearest support point (measure
    `nearest_point`); on the other manifolds, or with none given, it is
    |1 - ||x||| (measure `radial`).
    """
    x = _rows(batch)
    if x.shape[0] == 0:
        raise ValueError("manifold_drift needs at least one sample")
    if isinstance(manifold, DiscreteSet):
        measure, d = "nearest_point", manifold.nearest(x)[1]
    else:
        measure, d = "radial", np.abs(1.0 - np.linalg.norm(x, axis=1))
    return _mean_report("manifold_drift", d, {"max": float(np.max(d)), "measure": measure,
                                              "n_samples": x.shape[0]})


def discrete_tv(batch, manifold: DiscreteSet, target_probs) -> MetricReport:
    """Project rows to the nearest support point, then half the L1 distance
    between the empirical and target pmfs."""
    x = _rows(batch)
    pts = manifold.points
    target = np.asarray(target_probs, dtype=np.float64)
    if target.shape != (pts.shape[0],) or np.any(target < 0) or abs(target.sum() - 1.0) > 1e-9:
        raise ValueError("target_probs must be a probability vector over the support")
    if x.shape[0] > 0:
        if x.shape[1] != pts.shape[1]:
            raise ValueError("batch dimension does not match the support")
        emp = np.bincount(manifold.nearest(x)[0], minlength=pts.shape[0]) / x.shape[0]
    else:
        emp = np.zeros(pts.shape[0])
    return MetricReport(
        name="discrete_tv",
        value=float(0.5 * np.abs(emp - target).sum()),
        config={"n_points": pts.shape[0], "n_samples": x.shape[0]},
    )
