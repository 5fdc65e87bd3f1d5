"""Quaternion algebra, symmetry groups, canonicalization, projection."""

import numpy as np
import pytest

from manifold_dsm.errors import DegenerateInputError
from manifold_dsm.geometry import (
    DiscreteSet,
    Sphere,
    build_symmetry_group,
    canonicalize,
    geodesic_distance,
    lift,
    project,
    quat_conj,
    quat_from_axis_angle,
    quat_mul,
    random_quaternion,
)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])


def test_manifold_validation():
    with pytest.raises(ValueError):
        DiscreteSet(np.array([[1.0, 0.0]]))  # fewer than 2 points
    with pytest.raises(ValueError):
        DiscreteSet(np.array([[1.0, 0.0], [1.0, 0.0]]))  # duplicates
    with pytest.raises(ValueError):
        Sphere(0)
    assert Sphere(2).ambient_dim == 3
    assert Sphere(3).ambient_dim == 4
    assert DiscreteSet(np.array([[-1.0, 0.0], [1.0, 0.0]])).ambient_dim == 2


def test_quat_mul_table():
    np.testing.assert_allclose(quat_mul(I, J), K, atol=1e-15)
    np.testing.assert_allclose(quat_mul(J, K), I, atol=1e-15)
    np.testing.assert_allclose(quat_mul(K, I), J, atol=1e-15)
    rng = np.random.default_rng(7)
    q = random_quaternion(rng)
    np.testing.assert_allclose(quat_mul(IDENTITY, q), q, atol=1e-15)
    np.testing.assert_allclose(quat_mul(q, quat_conj(q)), IDENTITY, atol=1e-12)
    assert abs(np.linalg.norm(quat_mul(q, random_quaternion(rng))) - 1.0) < 1e-12


def test_geodesic_distance():
    rng = np.random.default_rng(3)
    q = random_quaternion(rng)
    assert geodesic_distance(q, q) == 0.0
    assert geodesic_distance(q, -q) == 0.0
    half_turn = quat_from_axis_angle([0, 0, 1], np.pi / 2)
    assert geodesic_distance(IDENTITY, half_turn) == pytest.approx(np.pi / 2, abs=1e-12)
    # triangle inequality on random triples
    for _ in range(200):
        a, b, c = random_quaternion(rng, 3)
        assert geodesic_distance(a, c) <= (
            geodesic_distance(a, b) + geodesic_distance(b, c) + 1e-9
        )


def test_group_cardinalities_and_structure():
    sizes = {
        ("cyclic_z", 1): 1,
        ("cyclic_z", 4): 4,
        ("cyclic_z", 7): 7,
        ("tetrahedral", None): 12,
        ("octahedral", None): 24,
        ("icosahedral", None): 60,
    }
    for (name, m), want in sizes.items():
        group = build_symmetry_group(name, m)
        elems = group.elements
        assert len(group) == want
        np.testing.assert_allclose(elems[0], IDENTITY, atol=1e-12)
        # closure and inverses up to sign
        for a in elems:
            assert np.max(np.abs(elems @ quat_conj(a))) > 1 - 1e-9
            for b in elems:
                assert np.max(np.abs(elems @ quat_mul(a, b))) > 1 - 1e-9
        # one sign representative per element: no antipodal duplicates
        dots = elems @ elems.T
        off = np.abs(dots - np.eye(len(group)))
        assert np.max(np.abs(dots[off > 1e-9])) < 1 - 1e-9 if len(group) > 1 else True


def test_build_symmetry_group_rejects_bad_names():
    with pytest.raises(ValueError):
        build_symmetry_group("dihedral")
    with pytest.raises(ValueError):
        build_symmetry_group("cyclic_z", 0)
    # past the walk's 360 elements: rejected before any walk
    with pytest.raises(ValueError, match="1 <= m <= 360, got 361"):
        build_symmetry_group("cyclic_z", 361)
    # a fold count means nothing to a polyhedral group
    with pytest.raises(ValueError, match="octahedral has a fixed order and takes no fold count, got m=5"):
        build_symmetry_group("octahedral", 5)


def _closure_by_all_pairs(name, m):
    """Reference: close the generators by multiplying every pair of elements,
    round after round, then sort as build_symmetry_group does."""
    z, diagonal = [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]
    if name == "cyclic_z":
        generators = [(z, 2.0 * np.pi / m)]
    else:
        generators = {
            "tetrahedral": [(z, np.pi), (diagonal, 2.0 * np.pi / 3.0)],
            "octahedral": [(z, np.pi / 2.0), (diagonal, 2.0 * np.pi / 3.0)],
            "icosahedral": [([0.0, 1.0, (1.0 + np.sqrt(5.0)) / 2.0], 2.0 * np.pi / 5.0),
                            (z, np.pi)],
        }[name]

    def insert(elems, q):
        q = q / np.linalg.norm(q)
        lead = q[np.flatnonzero(np.abs(q) > 1e-12)[0]]
        q = q if lead > 0 else -q
        if np.max(np.abs(np.asarray(elems) @ q)) > 1.0 - 1e-9:
            return False
        elems.append(q)
        return True

    elems = [IDENTITY.copy()]
    for axis, angle in generators:
        insert(elems, quat_from_axis_angle(axis, angle))
    while True:
        current = list(elems)
        added = [insert(elems, quat_mul(a, b)) for a in current for b in current]
        if not any(added):
            break
    arr = np.array(elems)
    r = np.round(arr, 12)
    return arr[np.lexsort((-r[:, 3], -r[:, 2], -r[:, 1], -r[:, 0]))]


@pytest.mark.parametrize(
    "name, m",
    [("tetrahedral", None), ("octahedral", None), ("icosahedral", None)]
    + [("cyclic_z", m) for m in (1, 2, 3, 4, 7, 60, 120)],
)
def test_generator_walk_matches_all_pairs_closure(name, m):
    want = _closure_by_all_pairs(name, m)
    got = build_symmetry_group(name, m).elements
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0.0, atol=2e-15)


def test_cyclic_group_of_order_360_builds_fast(time_limit):
    with time_limit(5):
        group = build_symmetry_group("cyclic_z", 360)
    elems = group.elements
    assert len(group) == 360
    # closed: the generator maps the group onto itself, up to sign
    step = quat_mul(elems, elems[1])
    assert np.all(np.max(np.abs(step @ elems.T), axis=1) > 1 - 1e-9)
    # sign-distinct: no two elements are the same rotation
    dots = np.abs(elems @ elems.T)
    np.fill_diagonal(dots, 0.0)
    assert np.max(dots) < 1 - 1e-9


def test_canonicalize_known_cell():
    # 90-degree z-symmetry folds a 50-degree rotation to -40 degrees.
    group = build_symmetry_group("cyclic_z", 4)
    q = quat_from_axis_angle([0, 0, 1], np.deg2rad(50.0))
    got = canonicalize(q, group)
    want = quat_from_axis_angle([0, 0, 1], np.deg2rad(-40.0))
    np.testing.assert_allclose(got, want, atol=1e-12)
    # brute force over the orbit agrees
    orbit = np.array([quat_mul(q, g) for g in group.elements])
    assert np.max(np.abs(orbit[:, 0])) == pytest.approx(abs(got[0]), abs=1e-12)


@pytest.mark.parametrize(
    "name,m", [("cyclic_z", 4), ("tetrahedral", None), ("octahedral", None), ("icosahedral", None)]
)
def test_canonicalize_invariants(name, m):
    group = build_symmetry_group(name, m)
    rng = np.random.default_rng(42)
    for _ in range(100):
        q = random_quaternion(rng)
        rep = canonicalize(q, group)
        assert rep[0] >= 0.0
        # representative attains the orbit maximum of |Re|
        assert rep[0] >= np.max(np.abs(quat_mul(q[None], group.elements)[:, 0])) - 1e-12
        np.testing.assert_allclose(canonicalize(rep, group), rep, atol=1e-12)
        for g in group.elements:
            np.testing.assert_allclose(
                canonicalize(quat_mul(q, g), group), rep, atol=1e-9
            )


def test_lift_roundtrip_and_uniformity():
    group = build_symmetry_group("tetrahedral")
    rng = np.random.default_rng(11)
    q = canonicalize(random_quaternion(rng), group)
    counts = np.zeros(len(group))
    n = 10_000
    for _ in range(n):
        lifted = lift(q, group, rng)
        np.testing.assert_allclose(canonicalize(lifted, group), q, atol=1e-9)
        member = np.argmax(np.abs(quat_mul(quat_conj(q)[None], lifted[None])[0] @ group.elements.T))
        counts[member] += 1
    p = 1.0 / len(group)
    sd = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(counts / n - p) < 3 * sd + 1e-12)


def test_lift_identity_group():
    group = build_symmetry_group("cyclic_z", 1)
    rng = np.random.default_rng(0)
    q = random_quaternion(rng)
    np.testing.assert_allclose(lift(q, group, rng), q, atol=1e-12)


def test_project():
    sphere = Sphere(2)
    np.testing.assert_allclose(project(np.array([0.0, 0.0, 2.0]), sphere), [0, 0, 1])
    on_m = np.array([0.0, 1.0, 0.0])
    np.testing.assert_allclose(project(on_m, sphere), on_m)
    with pytest.raises(DegenerateInputError):
        project(np.zeros(3), sphere)
    with pytest.raises(ValueError):
        project(np.zeros(4), sphere)

    points = DiscreteSet(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    np.testing.assert_allclose(project(np.array([0.2, 0.5]), points), [1.0, 0.0])
    # tie at the midpoint: lowest index wins
    np.testing.assert_allclose(project(np.array([0.0, 3.0]), points), [-1.0, 0.0])
    # batch form
    batch = np.array([[0.2, 0.5], [-5.0, 0.1]])
    np.testing.assert_allclose(project(batch, points), [[1.0, 0.0], [-1.0, 0.0]])
    # idempotence on batches of sphere points
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 3))
    p = project(x, sphere)
    np.testing.assert_allclose(project(p, sphere), p, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(p, axis=1), 1.0, atol=1e-12)


def test_discrete_set_nearest():
    points = DiscreteSet(np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
    x = np.array([[0.2, 0.5], [0.0, 0.0], [0.0, 2.0], [3.0, 4.0]])
    idx, dist = points.nearest(x)
    # (0, 0) ties points 0 and 1: lowest index wins
    np.testing.assert_array_equal(idx, [1, 0, 2, 2])
    np.testing.assert_allclose(dist, [np.hypot(0.8, 0.5), 1.0, 0.0, np.hypot(3.0, 2.0)])
    assert dist[2] == 0.0
    one_idx, one_dist = points.nearest(x[0])
    assert one_idx == 1 and one_dist == dist[0]
