"""Synthetic targets (discrete rings, sphere mixtures) and lat/lon ingestion."""

from __future__ import annotations

import csv
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import DiscreteSet, Sphere

__all__ = [
    "DatasetSpec",
    "circle_points",
    "skewed_pmf",
    "discrete_target",
    "sample_discrete",
    "sample_vmf",
    "sample_vmf_mixture",
    "load_latlon_csv",
    "build_dataset",
]

_KINDS = ("discrete_uniform", "discrete_skewed", "vmf_mixture", "latlon_file")


def _number(value) -> float:
    # float() would also take the JSON strings "20" and booleans
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"components entries must be numbers, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # nan, inf, or an int past the float range all fail
        raise ValueError(f"components entries must be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class DatasetSpec:
    """What to generate; interpreted by build_dataset and the command line.

    `seed` is the draw seed a run config records with the spec; build_dataset
    takes the seed to draw with as its own argument.
    """

    kind: str
    n_coords: int = 8
    decay: float = 0.8
    manifold_n: int = 2
    # ((mean, ...), kappa, weight) triples; means need not be normalized
    components: tuple = ()
    path: str = ""
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(
            (tuple(_number(v) for v in mean), _number(kappa), _number(weight))
            for mean, kappa, weight in self.components
        ))
        if self.kind not in _KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind.startswith("discrete"):
            if self.n_coords < 2:
                raise ValueError("n_coords must be >= 2")
            if self.decay <= 0.0:
                raise ValueError("decay must be positive")
        if self.kind == "vmf_mixture":
            if self.manifold_n not in (2, 3):
                raise ValueError("vmf_mixture supports S^2 and S^3 only")
            if not self.components:
                raise ValueError("vmf_mixture needs at least one component")
            w = [c[2] for c in self.components]
            if any(c[1] <= 0.0 for c in self.components):
                raise ValueError("kappa must be positive")
            if any(wi < 0.0 for wi in w) or abs(sum(w) - 1.0) > 1e-9:
                raise ValueError("component weights must be nonnegative and sum to 1")
            for c in self.components:
                if len(c[0]) != self.manifold_n + 1:
                    raise ValueError("component mean dimension does not match manifold_n")
        if self.kind == "latlon_file" and not self.path:
            raise ValueError("latlon_file needs a path")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def circle_points(n_coords: int) -> np.ndarray:
    """n equally spaced points on the unit circle, starting at (1, 0)."""
    if n_coords < 2:
        raise ValueError("n_coords must be >= 2")
    ang = 2.0 * np.pi * np.arange(n_coords) / n_coords
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def skewed_pmf(n_coords: int, decay: float = 0.8) -> np.ndarray:
    """exp(-decay * circular distance to floor(n/4)), normalized."""
    if n_coords < 2:
        raise ValueError("n_coords must be >= 2")
    if not 0.0 < decay < np.inf:
        raise ValueError("decay must be positive and finite")
    i_peak = n_coords // 4
    off = np.abs(np.arange(n_coords) - i_peak)
    d = np.minimum(off, n_coords - off)
    w = np.exp(-decay * d)
    return w / w.sum()


def discrete_target(kind: str, n_coords: int, decay: float):
    """The ring support of a discrete dataset kind and its target pmf over the points."""
    ring = DiscreteSet(circle_points(n_coords))
    if kind == "discrete_uniform":
        return ring, np.full(n_coords, 1.0 / n_coords)
    if kind == "discrete_skewed":
        return ring, skewed_pmf(n_coords, decay)
    raise ValueError(f"unknown discrete dataset kind {kind!r}")


def sample_discrete(points, pmf, n: int, seed: int) -> np.ndarray:
    """n categorical draws mapped to their coordinates."""
    points = np.asarray(points, dtype=np.float64)
    pmf = np.asarray(pmf, dtype=np.float64)
    if pmf.shape != (points.shape[0],) or np.any(pmf < 0) or abs(pmf.sum() - 1.0) > 1e-9:
        raise ValueError("pmf must be a probability vector over the points")
    rng = np.random.default_rng(seed)
    return points[rng.choice(points.shape[0], size=n, p=pmf)]


def _householder_to(mean: np.ndarray) -> np.ndarray:
    """Orthogonal H with H e_p = mean (reflection; identity when aligned)."""
    p = mean.shape[0]
    e = np.zeros(p)
    e[-1] = 1.0
    u = e - mean
    nu = np.linalg.norm(u)
    if nu < 1e-12:
        return np.eye(p)
    u /= nu
    return np.eye(p) - 2.0 * np.outer(u, u)


def sample_vmf(mean, kappa: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """von Mises-Fisher draws on the unit sphere of the mean's dimension.

    Wood-style rejection for the cosine w of the angle to the mean, then a
    uniform direction in the tangent space, assembled at the pole and
    reflected onto the mean.
    """
    mean = np.asarray(mean, dtype=np.float64)
    norm = np.linalg.norm(mean)
    if norm < 1e-12:
        raise ValueError("vMF mean must be a nonzero direction")
    mean = mean / norm
    # a nan or infinite kappa makes the rejection loop below never accept
    if not 0.0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    p = mean.shape[0]
    b = (-2.0 * kappa + np.sqrt(4.0 * kappa**2 + (p - 1.0) ** 2)) / (p - 1.0)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + (p - 1.0) * np.log(1.0 - x0**2)

    w = np.empty(0)
    while w.shape[0] < n:
        m = max(n - w.shape[0], 64)
        z = rng.beta((p - 1.0) / 2.0, (p - 1.0) / 2.0, size=m)
        cand = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        accept = kappa * cand + (p - 1.0) * np.log(1.0 - x0 * cand) - c >= np.log(
            rng.uniform(size=m)
        )
        w = np.concatenate([w, cand[accept]])
    w = w[:n]

    v = rng.standard_normal((n, p - 1))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    at_pole = np.concatenate([np.sqrt(np.maximum(1.0 - w**2, 0.0))[:, None] * v, w[:, None]], axis=1)
    out = at_pole @ _householder_to(mean).T
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def sample_vmf_mixture(spec: DatasetSpec, n: int, seed: int) -> np.ndarray:
    """Component chosen by weight, then one vMF draw about its mean."""
    if spec.kind != "vmf_mixture":
        raise ValueError("spec.kind must be vmf_mixture")
    rng = np.random.default_rng(seed)
    weights = np.array([c[2] for c in spec.components])
    counts = rng.multinomial(n, weights)
    dim = spec.manifold_n + 1
    out = np.empty((n, dim))
    row = 0
    for (mean, kappa, _), k in zip(spec.components, counts):
        if k:
            out[row : row + k] = sample_vmf(np.asarray(mean), kappa, int(k), rng)
            row += k
    return rng.permutation(out, axis=0)


def load_latlon_csv(path) -> np.ndarray:
    """Read "lat,lon" degree rows into unit vectors on S^2.

    (lat, lon) maps to (cos lat cos lon, cos lat sin lon, sin lat); any
    malformed or out-of-range row aborts with its 1-based line number.
    """
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("line 1: empty file; expected header 'lat,lon'") from None
        if [h.strip().lower() for h in header] != ["lat", "lon"]:
            raise ValueError("line 1: expected header 'lat,lon'")
        for line_no, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 2:
                raise ValueError(f"line {line_no}: expected 2 fields, got {len(rec)}")
            try:
                lat, lon = float(rec[0]), float(rec[1])
            except ValueError:
                raise ValueError(f"line {line_no}: could not parse decimal values") from None
            if not -90.0 <= lat <= 90.0:
                raise ValueError(f"line {line_no}: latitude {lat} outside [-90, 90]")
            if not -180.0 <= lon <= 180.0:
                raise ValueError(f"line {line_no}: longitude {lon} outside [-180, 180]")
            rows.append((lat, lon))
    deg = np.deg2rad(np.asarray(rows, dtype=np.float64).reshape(-1, 2))
    lat, lon = deg[:, 0], deg[:, 1]
    return np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], axis=1)


def build_dataset(spec: DatasetSpec, n: int, seed: int):
    """Realize a spec: returns (samples, manifold, target_pmf-or-None).

    A latlon_file yields its rows in file order: all of them when n is at
    least the row count, else a subset of n rows drawn with `seed`.
    """
    if spec.kind.startswith("discrete"):
        ring, pmf = discrete_target(spec.kind, spec.n_coords, spec.decay)
        return sample_discrete(ring.points, pmf, n, seed), ring, pmf
    if spec.kind == "vmf_mixture":
        return sample_vmf_mixture(spec, n, seed), Sphere(spec.manifold_n), None
    points = load_latlon_csv(spec.path)
    if n < points.shape[0]:
        keep = np.random.default_rng(seed).choice(points.shape[0], size=n, replace=False)
        points = points[np.sort(keep)]
    return points, Sphere(2), None
