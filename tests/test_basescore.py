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
    _softmax_weights,
    _sphere_radius,
    posterior_mean_discrete,
)
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


NON_FINITE_SIGMA_CASES = {
    "discrete": (lambda x, s: base_score_discrete(x, s, OCTAGON), QUERY),
    "discrete_mean": (lambda x, s: posterior_mean_discrete(x, s, OCTAGON), QUERY),
    "discrete_exact": (lambda x, s: exact_score_discrete(x, s, OCTAGON, SKEWED), QUERY),
    "s2": (base_score_s2, np.array([0.1, -0.4, 0.9])),
    "s3": (base_score_s3, np.array([0.9, 0.1, -0.2, 0.3])),
    "s5": (lambda x, s: base_score_nsphere(x, s, 5), np.array([1.1, 0.0, 0.2, 0.0, 0.0, 0.1])),
}


# 1e200 is finite, but its square is not
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "square_overflows"])
@pytest.mark.parametrize("case", sorted(NON_FINITE_SIGMA_CASES))
def test_scores_reject_non_finite_sigma(case, bad):
    fn, x = NON_FINITE_SIGMA_CASES[case]
    with np.errstate(all="raise"):
        for xs, sigma in ((x, bad), (np.stack([x, x]), np.array([0.5, bad]))):
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                fn(xs, sigma)


# sigma^2 is finite but ||x||/sigma^2 is subnormal at ||x|| = 1: the score
# would need the Bessel ratio where its argument has lost precision
@pytest.mark.parametrize("case", ["s2", "s3", "s5"])
def test_sphere_scores_reject_sigma_past_the_normal_range(case):
    fn, x = NON_FINITE_SIGMA_CASES[case]
    x = x / np.linalg.norm(x)
    for xs, sigma in ((x, 1.3e154), (np.stack([x, x]), np.array([0.5, 1.3e154]))):
        with pytest.raises(ValueError, match="sigma too large"):
            fn(xs, sigma)
    assert np.all(np.isfinite(fn(x, 1e153)))


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
    """Posterior weights in the difference form -||x - u||^2 / (2 sigma^2)."""
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


def ref_logit_weights(x, sigma, points, log_probs=None):
    """The centered-logits posterior weights, allocating at every step."""
    c = points.mean(axis=0)
    u = points - c
    sig2 = np.broadcast_to(sigma, x.shape[:-1]).reshape(-1) ** 2
    logits = (u @ (np.atleast_2d(x) - c).T - 0.5 * np.sum(u * u, axis=1)[:, None]) / sig2
    if log_probs is not None:
        logits = logits + log_probs[:, None]
    w = np.exp(logits - logits.max(axis=0))
    return (w / w.sum(axis=0)).T.reshape(x.shape[:-1] + (points.shape[0],))


def ref_logit_score(x, sigma, points, log_probs=None):
    w = ref_logit_weights(x, sigma, points, log_probs)
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
        (base_score_discrete(x, sig, OCTAGON), ref_logit_score(x, sig, OCTAGON)),
        (exact_score_discrete(x, sig, OCTAGON, SKEWED),
         ref_logit_score(x, sig, OCTAGON, np.log(SKEWED))),
    ]
    for got, want in cases:
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def test_discrete_weights_where_exp_underflows_match_reference_bitwise():
    # a two-point support queried at one point, with sigma set so the other
    # point's logit gap lands on a dense grid where exp turns from subnormal
    # to 0, and around the -746 cut below which the gap becomes -inf
    gaps = np.concatenate([np.linspace(-745.2, -745.0, 4001), np.linspace(-746.1, -745.9, 2001)])
    points = np.array([[0.0, 0.0], [1.0, 0.0]])
    x = np.zeros((gaps.size, 2))
    sig = np.sqrt(-0.5 / gaps)
    got = _softmax_weights(x, sig, points)
    assert got.tobytes() == ref_logit_weights(x, sig, points).tobytes()
    assert np.any(got[:, 1] > 0.0) and np.any(got[:, 1] == 0.0)


@pytest.mark.parametrize("per_row_sigma", [False, True])
def test_discrete_scores_match_reference_bitwise_from_sigma_min_to_max(per_row_sigma):
    # the ring schedule's sigma range: most far logits underflow at small sigma
    rng = np.random.default_rng(52)
    sigmas = np.geomspace(1e-4, 4.0, 40)
    x = 1.5 * rng.standard_normal((sigmas.size * 50, 2))
    cases = [(x, np.repeat(sigmas, 50))] if per_row_sigma else [(x, s) for s in sigmas]
    for xs, sig in cases:
        assert (base_score_discrete(xs, sig, OCTAGON).tobytes()
                == ref_logit_score(xs, sig, OCTAGON).tobytes())
        assert (exact_score_discrete(xs, sig, OCTAGON, SKEWED).tobytes()
                == ref_logit_score(xs, sig, OCTAGON, np.log(SKEWED)).tobytes())


@pytest.mark.parametrize("rows", [2, 511, 512, 513, 1025, 4096, 10000, 10001])
@pytest.mark.parametrize("per_row_sigma", [False, True])
def test_blocked_discrete_scores_match_reference_bitwise(monkeypatch, rows, per_row_sigma):
    # the discrete score runs on the calling thread: the row-block worker
    # count must not move a byte
    rng = np.random.default_rng(51)
    x = 1.5 * rng.standard_normal((rows, 2))
    sig = np.exp(rng.uniform(-7.0, 1.0, rows)) if per_row_sigma else 0.05
    want = [ref_logit_score(x, sig, OCTAGON).tobytes(),
            ref_logit_score(x, sig, OCTAGON, np.log(SKEWED)).tobytes()]
    for workers in (None, 1, 3):
        if workers is not None:
            monkeypatch.setattr(rowblocks, "_WORKERS", workers)
        got = [base_score_discrete(x, sig, OCTAGON).tobytes(),
               exact_score_discrete(x, sig, OCTAGON, SKEWED).tobytes()]
        assert got == want, workers


# Rounding bound for the discrete scores, per query row.  The logits are
# ((u - c).(x - c) - ||u - c||^2 / 2) / sigma^2 + log p with c the support's
# centroid and R = max ||u - c||, so each carries an error of about
#     delta = eps ((||x - c|| R + R^2) / sigma^2 + max |log p|).
# Softmax weights move by at most ~2 delta relative, which moves the posterior
# mean by ~2 delta R (the weight errors sum to ~0, so only u - c counts), and
# forming the mean and (mean - x) / sigma^2 adds eps (||x|| + max ||u||) of
# ordinary rounding.  The score error is then at most
#     DISCRETE_BOUND_C * (R delta + eps (||x|| + max ||u||)) / sigma^2.
# Over the hard queries below the worst measured error is 0.65 of the bound
# with C = 1 (0.78 for the difference form the logits replaced); C = 4 leaves
# room for BLAS kernels that sum in another order.  Without the centering the
# translated octagon reaches ~1e5 of the bound, and without log p ~1e12.
DISCRETE_BOUND_C = 4.0


def discrete_score_bound(x, sigma, points, log_probs=None):
    eps = np.finfo(np.float64).eps
    x = np.atleast_2d(x)
    c = points.mean(axis=0)
    radius = np.max(np.linalg.norm(points - c, axis=1))
    lp = 0.0 if log_probs is None else np.max(np.abs(log_probs))
    sig2 = np.broadcast_to(sigma, x.shape[:1]) ** 2
    delta = eps * ((np.linalg.norm(x - c, axis=1) * radius + radius**2) / sig2 + lp)
    plain = eps * (np.linalg.norm(x, axis=1) + np.max(np.linalg.norm(points, axis=1)))
    return DISCRETE_BOUND_C * (radius * delta + plain) / sig2


HARD_SIGMAS = (4.0, 0.5, 0.05, 1e-2, 1e-3, 1e-4)


def hard_ring_queries(points):
    """Queries near support points, near the bisector of two neighbours
    (where the posterior is a coin flip at small sigma) and far out."""
    c = points.mean(axis=0)
    rows = []
    for k in (0, 3, 6):
        radial = (points[k] - c) / np.linalg.norm(points[k] - c)
        tangent = np.array([-radial[1], radial[0]])
        for off in (0.0, 1e-9, 1e-6, 1e-3, 0.05):
            rows += [points[k] + off * radial, points[k] - off * tangent]
    mid = (points[0] + points[1]) / 2.0 - c
    mid /= np.linalg.norm(mid)
    across = points[1] - points[0]
    across /= np.linalg.norm(across)
    for r in (0.9, 1.0, 1.1):
        for off in (0.0, 1e-10, 1e-9, 1e-8, 1e-6, 1e-4):
            rows.append(c + r * mid + off * across)
    for ang in (0.0, np.pi / 8, 2.0, 4.0):
        rows.append(c + 10.0 * np.array([np.cos(ang), np.sin(ang)]))
    rows.append(c.copy())
    return np.array(rows)


@pytest.mark.parametrize("probs", [None, SKEWED], ids=["uniform", "skewed"])
@pytest.mark.parametrize("shift", [0.0, 1e3], ids=["octagon", "translated"])
def test_discrete_scores_on_hard_queries_match_extended_precision(probs, shift):
    pts = OCTAGON + shift
    queries = hard_ring_queries(pts)
    log_probs = None if probs is None else np.log(probs)

    def score(x, sig):
        if probs is None:
            return base_score_discrete(x, sig, pts)
        return exact_score_discrete(x, sig, pts, probs)

    xs = np.repeat(queries, len(HARD_SIGMAS), axis=0)
    sigs = np.tile(np.array(HARD_SIGMAS), len(queries))
    per_row = score(xs, sigs)
    scalar = np.concatenate([score(queries, s) for s in HARD_SIGMAS])
    order = np.argsort(np.tile(np.arange(len(HARD_SIGMAS)), len(queries)), kind="stable")
    want = np.array([mp_discrete_score(x, s, pts, probs) for x, s in zip(xs, sigs)])
    bound = discrete_score_bound(xs, sigs, pts, log_probs)
    for got, ref, tol in ((per_row, want, bound), (scalar, want[order], bound[order])):
        err = np.max(np.abs(got - ref), axis=1)
        assert np.all(np.isfinite(got))
        assert np.all(err <= tol), np.max(err / tol)


@pytest.mark.parametrize("rows", [None, 1, 2, 7, 511, 512, 513, 1025, 4096, 10000, 10001])
@pytest.mark.parametrize("per_row_sigma", [False, True])
def test_discrete_scores_match_difference_form(rows, per_row_sigma):
    rng = np.random.default_rng(51)
    x = 1.5 * rng.standard_normal(2 if rows is None else (rows, 2))
    sig = np.exp(rng.uniform(-7.0, 1.0, rows)) if per_row_sigma else 0.05
    for probs in (None, SKEWED):
        log_probs = None if probs is None else np.log(probs)
        got = (base_score_discrete(x, sig, OCTAGON) if probs is None
               else exact_score_discrete(x, sig, OCTAGON, probs))
        want = ref_discrete_score(x, sig, OCTAGON, log_probs)
        # both sides are within the bound of the exact score
        tol = 2.0 * discrete_score_bound(x, sig, OCTAGON, log_probs)
        assert got.shape == want.shape
        assert np.all(np.max(np.abs(got - want), axis=-1) <= tol)


def test_discrete_score_rows_do_not_depend_on_the_batch():
    rng = np.random.default_rng(52)
    x = 1.5 * rng.standard_normal((10001, 2))
    sig = np.exp(rng.uniform(-7.0, 1.0, 10001))
    full = [base_score_discrete(x, sig, OCTAGON),
            exact_score_discrete(x, sig, OCTAGON, SKEWED),
            base_score_discrete(x, 0.05, OCTAGON)]
    for start, stop in [(0, 1), (5, 6), (0, 2), (3, 10), (100, 612), (511, 1024),
                        (4000, 8097), (9990, 10001), (1, 10001)]:
        part = [base_score_discrete(x[start:stop], sig[start:stop], OCTAGON),
                exact_score_discrete(x[start:stop], sig[start:stop], OCTAGON, SKEWED),
                base_score_discrete(x[start:stop], 0.05, OCTAGON)]
        for whole, got in zip(full, part):
            assert got.tobytes() == whole[start:stop].tobytes(), (start, stop)


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
    # on S^400 the scaled I_{199.5}(z) underflows to 0 at z = 1, is subnormal
    # (8e-323, five significant bits) at z = 3.7, and is normal at z = 400
    n = 400
    cases = [(1.0, 1.0), (0.5, 1.0), (1.3, 2.0), (1.0, 0.52), (1.0, 0.05)]
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


@pytest.mark.parametrize("n", [1, 4, 5, 9, 50])
def test_nsphere_score_rows_do_not_depend_on_the_batch(n):
    # z = ||x||/sigma^2 from 0.1 to ~600 mixes asymptotic and continued-fraction
    # rows, and fast- and slow-converging ones within the continued fraction
    rng = np.random.default_rng(n)
    x = rng.standard_normal((200, n + 1))
    x *= rng.uniform(0.5, 1.5, (200, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    sig = np.exp(rng.uniform(np.log(0.04), np.log(3.0), 200))
    batch = base_score_nsphere(x, sig, n)
    for i in range(200):
        assert base_score_nsphere(x[i], sig[i], n).tobytes() == batch[i].tobytes(), i


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 51, 128])
def test_sphere_radius_matches_numpy_norm(dim):
    # summed a column at a time, the squares add in np.linalg.norm's order up
    # to 7 columns; from 8 on numpy's pairwise sum unrolls and adds them in
    # another order, which moves a radius by a few ulp (5 at most seen, at 128
    # columns), within the dim ulp that dim rounded additions allow
    rng = np.random.default_rng(dim)
    x = rng.standard_normal((2000, dim)) * np.exp(rng.uniform(-5.0, 30.0, (2000, 1)))
    want = np.linalg.norm(x, axis=-1)
    got = _sphere_radius(x)
    if dim <= 7:
        assert got.tobytes() == want.tobytes()
        assert _sphere_radius(x[0]).tobytes() == want[0].tobytes()
    else:
        assert np.all(np.abs(got - want) <= dim * np.spacing(want))


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


def test_mc_oracle_refuses_weights_whose_squares_underflow():
    # both draws lie far enough past the shift that each weight is ~1.5e-162
    # and its square underflows to 0, which leaves nothing to form the ESS
    # and the standard error from
    x, sigma, seed = np.array([0.3, -0.4, 1.1]), 0.0335035, 12282
    g = np.random.default_rng(seed).standard_normal((2, 3))
    x0 = g / np.linalg.norm(g, axis=1, keepdims=True)
    w = np.exp(((np.linalg.norm(x) - 1.0) ** 2 - np.sum((x - x0) ** 2, axis=1)) / (2 * sigma**2))
    assert 1e-300 < w.max() < 1e-160
    assert np.all(w * w == 0.0)
    with pytest.raises(UnreliableEstimateError, match="effective sample size 0.0 < 100"):
        mc_score_oracle(x, sigma, Sphere(2), 2, np.random.default_rng(seed))


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


def test_mc_oracle_chunk_size_is_fixed():
    with pytest.raises(TypeError):
        mc_score_oracle(np.array([0.0, 0.0, 1.2]), 0.5, Sphere(2), 1000,
                        np.random.default_rng(0), chunk_size=100)
