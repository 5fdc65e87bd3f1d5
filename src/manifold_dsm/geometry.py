"""Supports, quaternion algebra, finite rotation symmetry groups, projections.

Quaternions are plain float64 arrays [w, x, y, z] with the scalar part first,
Hamilton product convention.  A unit quaternion q and its antipode -q encode
the same rotation (double cover), so rotation-valued comparisons always go
through the absolute inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, GroupClosureError

__all__ = [
    "DiscreteSet",
    "Sphere",
    "Manifold",
    "SymmetryGroup",
    "quat_mul",
    "quat_conj",
    "quat_from_axis_angle",
    "random_quaternion",
    "geodesic_distance",
    "canonicalize",
    "lift",
    "project",
    "build_symmetry_group",
]

_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


@dataclass(frozen=True, eq=False)
class DiscreteSet:
    """Finite point support in ambient coordinates, one row per point."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ValueError("DiscreteSet needs a 2-D array with at least 2 points")
        if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
            raise ValueError("DiscreteSet points must be distinct")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    def nearest(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index of the nearest point (ties: lowest index) and the distance to
        it, for each row of x."""
        d = np.linalg.norm(x[..., None, :] - self.points, axis=-1)
        return np.argmin(d, axis=-1), np.min(d, axis=-1)


@dataclass(frozen=True)
class Sphere:
    """Unit n-sphere embedded in R^(n+1); Sphere(3) holds rotations as unit quaternions."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("Sphere needs intrinsic dimension n >= 1")

    @property
    def ambient_dim(self) -> int:
        return self.n + 1


Manifold = DiscreteSet | Sphere


@dataclass(frozen=True, eq=False)
class SymmetryGroup:
    """Finite subgroup of SO(3) as sign-fixed unit quaternions, identity first."""

    name: str
    elements: np.ndarray = field(repr=False)

    def __post_init__(self):
        elems = np.asarray(self.elements, dtype=np.float64)
        if elems.ndim != 2 or elems.shape[1] != 4:
            raise ValueError("SymmetryGroup elements must be an (m, 4) array")
        if not np.allclose(elems[0], _IDENTITY, atol=1e-9):
            raise ValueError("SymmetryGroup must list the identity first")
        elems.setflags(write=False)
        object.__setattr__(self, "elements", elems)

    def __len__(self) -> int:
        return self.elements.shape[0]


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of unit quaternions, renormalized; broadcasts."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


def quat_conj(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * angle
    return np.concatenate([[math.cos(half)], math.sin(half) * axis / norm])


def random_quaternion(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Uniform (Haar) unit quaternions via normalized 4-dim Gaussians."""
    shape = (4,) if n is None else (n, 4)
    q = rng.standard_normal(shape)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def geodesic_distance(a: np.ndarray, b: np.ndarray):
    """Rotation distance 2 arccos(|<a, b>|) in radians; sign-flip invariant."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    dot = np.abs(np.sum(a * b, axis=-1))
    out = 2.0 * np.arccos(np.clip(dot, 0.0, 1.0))
    return float(out) if out.ndim == 0 else out


def _fix_sign(q: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """One representative per antipodal pair: Re >= 0, ties by first nonzero > 0."""
    if q[0] > tol:
        return q
    if q[0] < -tol:
        return -q
    for c in q[1:]:
        if abs(c) > tol:
            return q if c > 0 else -q
    return q


def canonicalize(q: np.ndarray, group: SymmetryGroup) -> np.ndarray:
    """Deterministic orbit representative: argmax_g |Re(qg)|, sign-fixed.

    Ties go to the lowest group-element index; the identity sits at index 0,
    which makes the map idempotent.
    """
    q = np.asarray(q, dtype=np.float64)
    orbit = quat_mul(q[None, :], group.elements)
    best = int(np.argmax(np.abs(orbit[:, 0])))
    return _fix_sign(orbit[best])


def lift(q_canon: np.ndarray, group: SymmetryGroup, rng: np.random.Generator) -> np.ndarray:
    """Right-multiply by a uniformly drawn group element."""
    g = group.elements[rng.integers(len(group))]
    return quat_mul(q_canon, g)


def project(x: np.ndarray, manifold: Manifold) -> np.ndarray:
    """Nearest-point projection onto the support; handles single rows or batches."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != manifold.ambient_dim:
        raise ValueError(
            f"point dimension {x.shape[-1]} does not match ambient {manifold.ambient_dim}"
        )
    if isinstance(manifold, DiscreteSet):
        return manifold.points[manifold.nearest(x)[0]]
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norms < 1e-12):
        raise DegenerateInputError("cannot project a zero vector onto a sphere")
    return x / norms


_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_MAX_ORDER = 360  # the largest group the walk builds
_Z = (0.0, 0.0, 1.0)
_DIAGONAL = (1.0, 1.0, 1.0)
# name -> ((axis, angle) generators, order); the cyclic_z row is built from m
_GROUPS = {
    "tetrahedral": (((_Z, math.pi), (_DIAGONAL, 2.0 * math.pi / 3.0)), 12),
    "octahedral": (((_Z, math.pi / 2.0), (_DIAGONAL, 2.0 * math.pi / 3.0)), 24),
    # 5-fold axis through an icosahedron vertex, 2-fold through an edge midpoint
    "icosahedral": ((((0.0, 1.0, _PHI), 2.0 * math.pi / 5.0), (_Z, math.pi)), 60),
}


def build_symmetry_group(name: str, m: int | None = None) -> SymmetryGroup:
    """Walk the generators from the identity, dedup antipodal pairs.

    `m` is the fold count of `cyclic_z` and must be None for any other group.
    """
    if name == "cyclic_z":
        if m is None or not 1 <= m <= _MAX_ORDER:
            raise ValueError(f"cyclic_z needs a fold count 1 <= m <= {_MAX_ORDER}, got {m}")
        rotations, expected = ((_Z, 2.0 * math.pi / m),), m
    elif name not in _GROUPS:
        raise ValueError(f"unknown symmetry group {name!r}")
    elif m is not None:
        raise ValueError(f"{name} has a fixed order and takes no fold count, got m={m}")
    else:
        rotations, expected = _GROUPS[name]
    generators = [quat_from_axis_angle(axis, angle) for axis, angle in rotations]

    # every element times every generator, the elements appended on the way
    # included: the list stops growing once it is closed
    elems = [_IDENTITY.copy()]
    for a in elems:
        for g in generators:
            _insert(elems, quat_mul(a, g))
        if len(elems) > _MAX_ORDER:
            raise GroupClosureError(f"{name}: walk exceeded {_MAX_ORDER} elements")

    arr = np.array(elems)
    # Stable deterministic order with the identity first: sort by descending
    # rounded coordinates (identity has the unique maximal Re).
    r = np.round(arr, 12)
    arr = arr[np.lexsort((-r[:, 3], -r[:, 2], -r[:, 1], -r[:, 0]))]

    if arr.shape[0] != expected:
        raise GroupClosureError(
            f"{name}: walk produced {arr.shape[0]} elements, expected {expected}"
        )
    return SymmetryGroup(name=name, elements=arr)


def _insert(elems: list[np.ndarray], q: np.ndarray) -> None:
    """Append q, sign-fixed, unless an element of the list matches it up to sign."""
    q = _fix_sign(q / np.linalg.norm(q))
    if np.max(np.abs(np.asarray(elems) @ q)) <= 1.0 - 1e-9:
        elems.append(q)
