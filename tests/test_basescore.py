"""Closed-form scores checked against independent oracles.

Two oracle families, neither sharing code with the implementation:

* extended-precision direct summation (mpmath) for discrete supports;
* central finite differences of a log-density computed by 1D quadrature
  for spheres (the noised uniform-sphere density only depends on the
  angle to the query, so it reduces to an integral over [0, pi]).

The Monte Carlo oracle in the package is itself validated here against the
closed forms, which closes the loop: formulas vs quadrature, sampling vs
formulas.
"""

import mpmath as mp
import numpy as np
import pytest

from manifold_dsm import rowblocks
from manifold_dsm.basescore import (
    OracleEstimate,
    base_score,
    base_score_discrete,
    base_score_nsphere,
    base_score_s2,
    base_score_s3,
    exact_score_discrete,
    mc_score_oracle,
    posterior_mean_discrete,
)
from manifold_dsm.bessel import bessel_i_scaled
from manifold_dsm.errors import DegenerateInputError, UnreliableEstimateError
from manifold_dsm.geometry import DiscreteSet, Sphere

OCTAGON = np.stack(
    [np.array([np.cos(2 * np.pi * k / 8), np.sin(2 * np.pi * k / 8)]) for k in range(8)]
)
QUERY = np.array([0.9, 0.1])

# skewed weights used in the gap tests: peak at index 2, exp(-0.8 * ring distance)
_d = np.minimum(np.abs(np.arange(8) - 2), 8 - np.abs(np.arange(8) - 2))
SKEWED = np.exp(-0.8 * _d) / np.exp(-0.8 * _d).sum()

# frozen from this suite's own oracles; regressions only
GAP_UNIQUE = {0.4: 1.1308522506969123, 0.2: 0.18567830633954624, 0.1: 3.935061345688146e-07}
GAP_EQUIDISTANT = {0.4: 1.2026090586175389, 0.2: 3.635139001213243, 0.1: 14.540017299938333}


def mp_discrete_score(x, sig, pts, probs=None):
    """Direct summation at 50 significant digits."""
    with mp.workdps(50):
        if probs is None:
            probs = [mp.mpf(1) / len(pts)] * len(pts)
        else:
            probs = [mp.mpf(float(p)) for p in probs]
        sig = mp.mpf(float(sig))
        num = [mp.mpf(0)] * len(x)
        den = mp.mpf(0)
        for p, u in zip(probs, pts):
            d2 = sum((mp.mpf(float(a)) - mp.mpf(float(b))) ** 2 for a, b in zip(x, u))
            wt = p * mp.e ** (-d2 / (2 * sig**2))
            den += wt
            num = [n + wt * mp.mpf(float(uj)) for n, uj in zip(num, u)]
        return np.array([float((n / den - mp.mpf(float(a))) / sig**2) for n, a in zip(num, x)])


def fd_sphere_radial_score(r, sig, n):
    """Central difference of log p(r) where p comes from quadrature over the angle."""
    with mp.workdps(25):
        sig_mp = mp.mpf(float(sig))

        def log_p(rr):
            f = lambda th: mp.e ** (-(rr * rr + 1 - 2 * rr * mp.cos(th)) / (2 * sig_mp**2)) * mp.sin(th) ** (n - 1)
            return mp.log(mp.quad(f, [0, mp.pi]))

        h = mp.mpf("1e-6")
        rr = mp.mpf(float(r))
        return float((log_p(rr + h) - log_p(rr - h)) / (2 * h))


def test_discrete_score_matches_extended_precision():
    got = base_score_discrete(QUERY, 0.5, OCTAGON)
    want = mp_discrete_score(QUERY, 0.5, OCTAGON)
    assert np.max(np.abs(got - want)) < 1e-12
    # same answer whether the support is raw points or a DiscreteSet
    ds = DiscreteSet(OCTAGON)
    assert np.array_equal(base_score_discrete(QUERY, 0.5, ds), got)
    assert np.array_equal(base_score(QUERY, 0.5, ds), got)


def test_weighted_score_matches_extended_precision():
    got = exact_score_discrete(QUERY, 0.5, OCTAGON, SKEWED)
    want = mp_discrete_score(QUERY, 0.5, OCTAGON, SKEWED)
    assert np.max(np.abs(got - want)) < 1e-12


def test_exact_score_with_uniform_weights_is_base_score():
    uni = np.full(8, 1.0 / 8.0)
    a = exact_score_discrete(QUERY, 0.5, OCTAGON, uni)
    b = base_score_discrete(QUERY, 0.5, OCTAGON)
    assert np.max(np.abs(a - b)) < 1e-14


def test_exact_score_validates_probabilities():
    with pytest.raises(ValueError):
        exact_score_discrete(QUERY, 0.5, OCTAGON, np.array([0.5, 0.5, 0, 0, 0, 0, 0, 0.0]))
    with pytest.raises(ValueError):
        exact_score_discrete(QUERY, 0.5, OCTAGON, np.full(7, 1.0 / 7.0))
    bad = np.full(8, 1.0 / 8.0) * 1.01
    with pytest.raises(ValueError):
        exact_score_discrete(QUERY, 0.5, OCTAGON, bad)


def test_posterior_mean_limits():
    # sigma -> 0: collapses onto the nearest support point
    x = 0.7 * np.array([np.cos(0.3), np.sin(0.3)])
    pm = posterior_mean_discrete(x, 1e-3, OCTAGON)
    nearest = OCTAGON[np.argmin(np.linalg.norm(OCTAGON - x, axis=1))]
    assert np.linalg.norm(pm - nearest) < 1e-8
    # sigma -> inf: centroid (zero for a centered ring)
    pm = posterior_mean_discrete(x, 50.0, OCTAGON)
    assert np.linalg.norm(pm) < 1e-3


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("r,sig", [(0.3, 0.8), (1.0, 0.3), (1.7, 0.3)])
def test_sphere_score_matches_quadrature_gradient(n, r, sig):
    x = np.zeros(n + 1)
    x[0] = r
    got = base_score_nsphere(x, sig, n)[0]
    want = fd_sphere_radial_score(r, sig, n)
    assert abs(got - want) < 5e-9


def test_circle_score_matches_quadrature_gradient():
    for r, sig in [(0.7, 0.5), (1.2, 0.3)]:
        x = np.array([r, 0.0])
        assert abs(base_score_nsphere(x, sig, 1)[0] - fd_sphere_radial_score(r, sig, 1)) < 5e-9


def test_special_forms_agree_with_general_formula():
    rng = np.random.default_rng(0)
    for n, special in [(2, base_score_s2), (3, base_score_s3)]:
        for sig in np.geomspace(0.002, 2.0, 12):
            x = rng.standard_normal((40, n + 1))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            x *= rng.uniform(0.5, 1.5, (40, 1))
            a = special(x, sig)
            b = base_score_nsphere(x, sig, n)
            scale = np.abs(a) + 1.0 / sig**2
            assert np.max(np.abs(a - b) / scale) < 1e-12


def test_sphere_score_is_radial_and_odd():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(0.5, 1.5, (30, 1))
    s = base_score_s3(x, 0.6)
    # s = x * scalar, so the cross terms must vanish
    outer = s[:, :, None] * x[:, None, :] - s[:, None, :] * x[:, :, None]
    assert np.max(np.abs(outer)) < 1e-12 * np.max(np.abs(s))
    assert np.max(np.abs(base_score_s3(-x, 0.6) + s)) == 0.0


def test_dispatcher_routes_by_manifold():
    x = np.array([0.1, -0.4, 0.9])
    assert np.array_equal(base_score(x, 0.5, Sphere(2)), base_score_s2(x, 0.5))
    q = np.array([0.9, 0.1, -0.2, 0.3])
    assert np.array_equal(base_score(q, 0.5, Sphere(3)), base_score_s3(q, 0.5))
    x5 = np.zeros(6)
    x5[0] = 1.1
    assert np.array_equal(base_score(x5, 0.5, Sphere(5)), base_score_nsphere(x5, 0.5, 5))


def test_validation_errors():
    with pytest.raises(DegenerateInputError):
        base_score_s2(np.array([1e-9, 0.0, 0.0]), 0.5)
    with pytest.raises(ValueError):
        base_score_s2(np.array([1.0, 0.0]), 0.5)
    with pytest.raises(ValueError):
        base_score_s2(np.array([1.0, 0.0, 0.0]), 0.0)
    with pytest.raises(ValueError):
        base_score_discrete(np.array([1.0, 0.0, 0.0]), 0.5, OCTAGON)


def test_tiny_sigma_stays_finite_and_restoring():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((50, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    radii = rng.uniform(0.5, 2.0, (50, 1))
    x *= radii
    s = base_score_s3(x, 1e-6)
    assert np.all(np.isfinite(s))
    # at tiny sigma the field pushes hard toward the unit sphere
    radial = np.sum(s * x, axis=1) / radii[:, 0]
    assert np.all(radial[radii[:, 0] < 1.0] > 0)
    assert np.all(radial[radii[:, 0] > 1.0] < 0)


def ref_softmax_weights(x, sigma, points, log_probs=None):
    """The allocating posterior weights the in-place version replaced."""
    diff = x[..., None, :] - points
    expo = -np.sum(diff * diff, axis=-1) / (2.0 * sigma[..., None] ** 2)
    if log_probs is not None:
        expo = expo + log_probs
    expo -= np.max(expo, axis=-1, keepdims=True)
    w = np.exp(expo)
    return w / np.sum(w, axis=-1, keepdims=True)


def ref_discrete_score(x, sigma, points, log_probs=None):
    w = ref_softmax_weights(x, np.broadcast_to(sigma, x.shape[:-1]), points, log_probs)
    return (w @ points - x) / np.asarray(sigma)[..., None] ** 2


@pytest.mark.parametrize(
    "rows,per_row_sigma",
    [(None, False), (1, False), (1, True), (7, False), (7, True), (512, False), (512, True)],
)
def test_discrete_scores_match_reference_bitwise(rows, per_row_sigma):
    rng = np.random.default_rng(50)
    x = rng.standard_normal(2 if rows is None else (rows, 2))
    sig = np.exp(rng.uniform(-7.0, 1.0, rows)) if per_row_sigma else 0.05
    cases = [
        (base_score_discrete(x, sig, OCTAGON), ref_discrete_score(x, sig, OCTAGON)),
        (exact_score_discrete(x, sig, OCTAGON, SKEWED),
         ref_discrete_score(x, sig, OCTAGON, np.log(SKEWED))),
    ]
    for got, want in cases:
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [2, 511, 512, 513, 1025, 4096, 10000, 10001])
@pytest.mark.parametrize("per_row_sigma", [False, True])
def test_blocked_discrete_scores_match_reference_bitwise(monkeypatch, rows, per_row_sigma):
    rng = np.random.default_rng(51)
    x = 1.5 * rng.standard_normal((rows, 2))
    sig = np.exp(rng.uniform(-7.0, 1.0, rows)) if per_row_sigma else 0.05
    want = [ref_discrete_score(x, sig, OCTAGON).tobytes(),
            ref_discrete_score(x, sig, OCTAGON, np.log(SKEWED)).tobytes()]
    for workers in (None, 1, 3):
        if workers is not None:
            monkeypatch.setattr(rowblocks, "_WORKERS", workers)
        got = [base_score_discrete(x, sig, OCTAGON).tobytes(),
               exact_score_discrete(x, sig, OCTAGON, SKEWED).tobytes()]
        assert got == want, workers


def mp_nsphere_radial(r, sig, n):
    """Radial factor of the S^n base score from mpmath Bessel values."""
    with mp.workdps(40):
        r, sig2 = mp.mpf(float(r)), mp.mpf(float(sig)) ** 2
        z = r / sig2
        bracket = (mp.besseli(mp.mpf(n - 3) / 2, z) + mp.besseli(mp.mpf(n + 1) / 2, z)) / (
            2 * mp.besseli(mp.mpf(n - 1) / 2, z)
        )
        return float(-1 / sig2 + mp.mpf(1 - n) / 2 / r**2 + bracket / (sig2 * r))


def test_high_order_sphere_score_survives_bessel_underflow():
    # on S^400 the scaled I_{199.5}(z) underflows to 0 at z = 1; z = 400 does not
    n = 400
    cases = [(1.0, 1.0), (0.5, 1.0), (1.3, 2.0), (1.0, 0.05)]
    x = np.zeros((len(cases), n + 1))
    x[:, 0] = [r for r, _ in cases]
    sig = np.array([s for _, s in cases])
    batch = base_score_nsphere(x, sig, n)
    assert np.all(np.isfinite(batch))
    for i, (r, s) in enumerate(cases):
        want = mp_nsphere_radial(r, s, n) * r
        assert abs(batch[i, 0] - want) <= 1e-10 * abs(want)
        assert np.all(batch[i, 1:] == 0.0)
        assert base_score_nsphere(x[i], s, n).tobytes() == batch[i].tobytes()
    # where nothing underflows, the bits are those of the scaled-value formula
    z = 1.0 / 0.05**2
    assert bessel_i_scaled((n - 1) / 2, z) > 0.0
    bracket = (bessel_i_scaled((n - 3) / 2, z) + bessel_i_scaled((n + 1) / 2, z)) / (
        2.0 * bessel_i_scaled((n - 1) / 2, z)
    )
    sig2 = 0.05**2
    assert batch[3, 0] == -1.0 / sig2 + (1.0 - n) / 2.0 + bracket / sig2


def test_batch_and_scalar_shapes():
    xb = np.array([[0.9, 0.1], [0.0, 1.1], [-0.5, -0.5]])
    sb = base_score_discrete(xb, 0.5, OCTAGON)
    assert sb.shape == (3, 2)
    # batch and single-row paths hit different BLAS kernels; allow last-bit drift
    for i, row in enumerate(xb):
        assert np.max(np.abs(base_score_discrete(row, 0.5, OCTAGON) - sb[i])) < 1e-14
    # per-row sigma
    sig = np.array([0.5, 0.7, 0.9])
    sb2 = base_score_discrete(xb, sig, OCTAGON)
    for i in range(3):
        assert np.max(np.abs(base_score_discrete(xb[i], sig[i], OCTAGON) - sb2[i])) < 1e-14
    xs = np.array([[0.1, -0.4, 0.9]] * 4)
    assert base_score_s2(xs, np.array([0.3, 0.4, 0.5, 0.6])).shape == (4, 3)


def test_ring_score_points_inward_on_the_ring_gap():
    # (1, 0) is a support point; at sigma comparable to the spacing the
    # posterior mean sits inside the ring, so the score points inward
    s = base_score_discrete(np.array([1.0, 0.0]), 0.8, OCTAGON)
    assert s[0] < 0
    assert abs(s[1]) < 1e-15


def test_gap_to_uniform_base_decays_when_nearest_point_is_unique():
    gaps = {}
    for sig in (0.4, 0.2, 0.1, 0.05):
        gaps[sig] = float(
            np.linalg.norm(
                exact_score_discrete(QUERY, sig, OCTAGON, SKEWED)
                - base_score_discrete(QUERY, sig, OCTAGON)
            )
        )
    for sig, want in GAP_UNIQUE.items():
        assert gaps[sig] == pytest.approx(want, rel=1e-9)
    assert gaps[0.4] > gaps[0.2] > gaps[0.1]
    assert gaps[0.1] < 1e-6
    # at sigma = 0.05 both posteriors collapse onto the same point
    assert gaps[0.05] < 1e-12


def test_gap_grows_at_equidistant_queries():
    # equidistant from two support points with unequal weights: the weighted
    # posterior keeps favoring the heavier point, so the gap scales as 1/sigma^2
    ang = np.pi / 8
    xe = 0.9 * np.array([np.cos(ang), np.sin(ang)])
    gaps = {}
    for sig in (0.4, 0.2, 0.1, 0.05):
        gaps[sig] = float(
            np.linalg.norm(
                exact_score_discrete(xe, sig, OCTAGON, SKEWED)
                - base_score_discrete(xe, sig, OCTAGON)
            )
        )
    for sig, want in GAP_EQUIDISTANT.items():
        assert gaps[sig] == pytest.approx(want, rel=1e-9)
    assert gaps[0.1] > gaps[0.2] > gaps[0.4]
    p0, p1 = SKEWED[0], SKEWED[1]
    limit = (p1 - p0) / (p0 + p1) / 2 * np.linalg.norm(OCTAGON[0] - OCTAGON[1])
    assert gaps[0.05] * 0.05**2 == pytest.approx(limit, rel=1e-6)


def test_mc_oracle_agrees_with_closed_forms():
    cells = [
        (np.array([0.0, 0.0, 1.2]), 0.5, Sphere(2), base_score_s2(np.array([0.0, 0.0, 1.2]), 0.5)),
        (
            np.array([0.9, 0.0, 0.0, 0.0]),
            0.4,
            Sphere(3),
            base_score_s3(np.array([0.9, 0.0, 0.0, 0.0]), 0.4),
        ),
        (QUERY, 0.5, DiscreteSet(OCTAGON), base_score_discrete(QUERY, 0.5, OCTAGON)),
    ]
    for seed, (x, sig, man, closed) in enumerate(cells, start=7):
        est = mc_score_oracle(x, sig, man, 1_000_000, np.random.default_rng(seed))
        assert isinstance(est, OracleEstimate)
        assert est.ess > 100_000
        assert np.all(np.abs(est.score - closed) < 4 * est.std_error + 1e-12)
    # dominant coordinate of the first cell should land within 1% relative
    est = mc_score_oracle(np.array([0.0, 0.0, 1.2]), 0.5, Sphere(2), 1_000_000, np.random.default_rng(7))
    closed = base_score_s2(np.array([0.0, 0.0, 1.2]), 0.5)
    assert abs(est.score[2] - closed[2]) < 0.01 * abs(closed[2])


def test_mc_oracle_refuses_low_effective_sample_size():
    with pytest.raises(UnreliableEstimateError):
        mc_score_oracle(np.array([0.0, 0.0, 1.0]), 0.01, Sphere(2), 20_000, np.random.default_rng(1))


def test_mc_oracle_is_deterministic_and_validates_input():
    x = np.array([0.9, 0.0, 0.0, 0.0])
    a = mc_score_oracle(x, 0.4, Sphere(3), 200_000, np.random.default_rng(5))
    b = mc_score_oracle(x, 0.4, Sphere(3), 200_000, np.random.default_rng(5))
    assert np.array_equal(a.score, b.score)
    assert np.array_equal(a.std_error, b.std_error)
    assert a.ess == b.ess
    with pytest.raises(ValueError):
        mc_score_oracle(np.stack([x, x]), 0.4, Sphere(3), 1000, np.random.default_rng(0))
    with pytest.raises(ValueError):
        mc_score_oracle(x, 0.4, Sphere(3), 1, np.random.default_rng(0))
