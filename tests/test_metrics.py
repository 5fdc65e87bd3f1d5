"""Metric behavior: MMD estimator properties, spread, drift, TV, log lines."""

import numpy as np
import pytest

from manifold_dsm.datasets import circle_points, sample_vmf
from manifold_dsm.geometry import (
    DiscreteSet,
    build_symmetry_group,
    quat_from_axis_angle,
    quat_mul,
    random_quaternion,
)
from manifold_dsm.metrics import (
    MetricReport,
    append_metric,
    discrete_tv,
    format_line,
    manifold_drift,
    mmd,
    spread,
)


def test_mmd_identical_batches_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 3))
    rep = mmd(x, x)
    assert rep.value == 0.0
    assert rep.config["mmd2_unclamped"] <= 0.0
    assert rep.config["bandwidth"] > 0.0
    assert rep.config["n_x"] == rep.config["n_y"] == 200


def test_mmd_symmetry_and_permutation_invariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((150, 2))
    y = rng.standard_normal((130, 2)) + 0.5
    a = mmd(x, y).value
    b = mmd(y, x).value
    assert abs(a - b) < 1e-12
    perm = rng.permutation(150)
    c = mmd(x[perm], y).value
    assert abs(a - c) < 1e-12


def test_mmd_separates_distinct_vmf_modes():
    # distinct-mode MMD should dwarf the same-distribution MMD, seed by seed
    mu_a = np.array([0.0, 0.0, 1.0])
    mu_b = np.array([1.0, 0.0, 0.0])
    distinct, same = [], []
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        xa = sample_vmf(mu_a, 10.0, 500, rng)
        xb = sample_vmf(mu_b, 10.0, 500, rng)
        xa2 = sample_vmf(mu_a, 10.0, 500, rng)
        distinct.append(mmd(xa, xb).value)
        same.append(mmd(xa, xa2).value)
    assert min(distinct) >= 5.0 * max(same)


def test_mmd_unbiased_near_zero_under_null():
    # 20 same-distribution pairs: mean unclamped estimate within 2 SE of 0
    vals = []
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        x = rng.standard_normal((80, 2))
        y = rng.standard_normal((80, 2))
        vals.append(mmd(x, y).config["mmd2_unclamped"])
    vals = np.asarray(vals)
    se = np.std(vals, ddof=1) / np.sqrt(len(vals))
    assert abs(np.mean(vals)) < 2.0 * se


def test_mmd_bandwidth_override_and_validation():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 2))
    y = rng.standard_normal((60, 2))
    rep = mmd(x, y, bandwidth=2.5)
    assert rep.config["bandwidth"] == 2.5
    with pytest.raises(ValueError):
        mmd(x, rng.standard_normal((10, 3)))
    with pytest.raises(ValueError):
        mmd(np.empty((0, 2)), y)
    with pytest.raises(ValueError):
        mmd(x[:1], y)
    for bad in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            mmd(x, y, bandwidth=bad)


def test_mmd_degenerate_pool():
    # all points coincide: median distance 0 falls back to a unit bandwidth
    x = np.ones((10, 2))
    rep = mmd(x, np.ones((12, 2)))
    assert rep.value == 0.0


def test_spread_exact_orbit_is_zero():
    group = build_symmetry_group("octahedral")
    q_gt = random_quaternion(np.random.default_rng(4))
    orbit = quat_mul(q_gt[None, :], group.elements)
    rep = spread(orbit, q_gt, group)
    # arccos near 1 turns 1-ulp dot products into ~1e-7 degrees
    assert rep.value < 1e-5
    assert rep.config["group_order"] == 24


def test_spread_two_degree_construction():
    group = build_symmetry_group("tetrahedral")
    rng = np.random.default_rng(5)
    q_gt = random_quaternion(rng)
    two_deg = np.deg2rad(2.0)
    rows = []
    for g in group.elements:
        axis = rng.standard_normal(3)
        rows.append(quat_mul(quat_mul(q_gt, g), quat_from_axis_angle(axis, two_deg)))
    rep = spread(np.asarray(rows), q_gt, group)
    assert abs(rep.value - 2.0) < 1e-6


def test_spread_identity_group_and_invariances():
    group = build_symmetry_group("cyclic_z", 1)
    assert len(group) == 1
    rng = np.random.default_rng(6)
    q_gt = random_quaternion(rng)
    q = quat_mul(q_gt, quat_from_axis_angle([0.0, 0.0, 1.0], 0.3))
    rep = spread(q[None, :], q_gt, group)
    assert abs(rep.value - np.degrees(0.3)) < 1e-9

    # invariant under sample sign flips and under q_gt -> q_gt * g
    group4 = build_symmetry_group("cyclic_z", 4)
    samples = random_quaternion(rng, 50)
    base = spread(samples, q_gt, group4).value
    assert abs(spread(-samples, q_gt, group4).value - base) < 1e-12
    shifted = quat_mul(q_gt, group4.elements[2])
    assert abs(spread(samples, shifted, group4).value - base) < 1e-9

    with pytest.raises(ValueError):
        spread(np.empty((0, 4)), q_gt, group4)


def test_manifold_drift_values():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((100, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    rep = manifold_drift(x)
    assert rep.value < 1e-14
    assert rep.config["max"] < 1e-14

    rep = manifold_drift(np.array([[1.25, 0.0, 0.0]]))
    assert rep.value == 0.25
    assert rep.std_error is None


def test_manifold_drift_on_discrete_set_is_distance_to_nearest_point():
    ring = DiscreteSet(circle_points(8))
    x = np.array([[1.0, 0.0], [0.0, 1.1], [np.sqrt(0.5), np.sqrt(0.5)]])
    x[2] *= 0.9
    rep = manifold_drift(x, ring)
    d = [0.0, 0.1, 0.1]
    assert rep.value == pytest.approx(np.mean(d), abs=1e-15)
    assert rep.config["max"] == pytest.approx(0.1, abs=1e-15)
    # the radial measure cannot see a point on the circle between support points
    between = np.array([[np.cos(np.pi / 8), np.sin(np.pi / 8)]])
    assert manifold_drift(between).value < 1e-15
    assert manifold_drift(between, ring).value == pytest.approx(2.0 * np.sin(np.pi / 16))


def test_manifold_drift_orthogonal_invariance():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((200, 3)) * 1.3
    # a rotation: orthonormalize a random matrix
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a = manifold_drift(x)
    b = manifold_drift(x @ q.T)
    assert abs(a.value - b.value) < 1e-12
    assert abs(a.config["max"] - b.config["max"]) < 1e-12


def test_discrete_tv_values():
    pts = circle_points(8)
    ds = DiscreteSet(pts)
    uniform = np.full(8, 0.125)

    # point mass vs uniform
    batch = np.tile(pts[0], (40, 1))
    assert discrete_tv(batch, ds, uniform).value == 7.0 / 8.0

    # empirical pmf equal to the target
    batch = np.repeat(pts, 5, axis=0)
    assert discrete_tv(batch, ds, uniform).value == 0.0

    # projection to the nearest point, not containment
    jittered = pts + 0.05
    assert discrete_tv(jittered, ds, uniform).value == 0.0


def test_discrete_tv_concentration_and_bounds():
    from manifold_dsm.datasets import sample_discrete, skewed_pmf

    pts = circle_points(8)
    ds = DiscreteSet(pts)
    pmf = skewed_pmf(8)
    batch = sample_discrete(pts, pmf, 10_000, seed=12)
    rep = discrete_tv(batch, ds, pmf)
    assert 0.0 <= rep.value < 0.02

    with pytest.raises(ValueError):
        discrete_tv(batch, ds, np.full(8, 0.2))
    with pytest.raises(ValueError):
        discrete_tv(np.ones((3, 3)), ds, pmf)


def test_metric_report_validation():
    with pytest.raises(ValueError):
        MetricReport(name="x", value=float("nan"))


def test_format_line_and_append(tmp_path):
    rep = MetricReport(
        name="mmd",
        value=0.5,
        std_error=None,
        config={"n_x": 10, "bandwidth": 1.25, "kind": "test"},
    )
    line = format_line(rep)
    assert line == "name=mmd value=0.5 std_error=none bandwidth=1.25 kind=test n_x=10"

    rep2 = MetricReport(name="drift", value=0.1, std_error=0.025)
    path = tmp_path / "metrics.log"
    append_metric(path, rep)
    append_metric(path, rep2)
    lines = path.read_text().splitlines()
    assert lines == [line, "name=drift value=0.1 std_error=0.025"]

    with pytest.raises(ValueError):
        format_line(MetricReport(name="x", value=1.0, config={"value": 2}))
