"""Forward perturbation, training targets, and the reverse sampler."""

import dataclasses

import numpy as np
import pytest

from manifold_dsm.basescore import (
    base_score,
    base_score_discrete,
    base_score_s2,
    exact_score_discrete,
)
from manifold_dsm.diffusion import (
    NoiseSchedule,
    dsm_target,
    mad_target,
    perturb,
    reverse_sample,
)
from manifold_dsm.errors import TrainingDivergedError
from manifold_dsm.geometry import DiscreteSet, Sphere, project
from manifold_dsm.metrics import manifold_drift
from manifold_dsm.mlp import json_fields

TWO_POINTS = np.array([[1.0, 0.0], [-1.0, 0.0]])


def test_schedule_geometric_construction():
    sch = NoiseSchedule.geometric(1e-4, 2.0, 100)
    assert sch.sigmas[0] == 2.0 and sch.sigmas[-1] == 1e-4
    assert sch.num_scales == 100
    ratios = sch.sigmas[1:] / sch.sigmas[:-1]
    assert np.max(np.abs(ratios - ratios[0])) < 1e-12
    # telescoping of the squared increments
    total = np.sum(sch.sigmas[:-1] ** 2 - sch.sigmas[1:] ** 2)
    assert abs(total - (sch.sigma_max**2 - sch.sigma_min**2)) < 1e-10


def test_schedule_is_the_schedule_section():
    # the defaults a run config's schedule section falls back on, and a
    # record of exactly the three keys
    sch = NoiseSchedule()
    assert (sch.sigma_min, sch.sigma_max, sch.num_scales) == (1e-4, 2.0, 100)
    assert sch.sigmas.tobytes() == NoiseSchedule.geometric(1e-4, 2.0, 100).sigmas.tobytes()
    assert dataclasses.asdict(sch) == {"sigma_min": 1e-4, "sigma_max": 2.0, "num_scales": 100}
    assert json_fields(NoiseSchedule, {"num_scales": 7, "sigma_max": 3}) == {
        "num_scales": 7, "sigma_max": 3.0}
    with pytest.raises(ValueError, match="unknown key 'sigmas'"):
        json_fields(NoiseSchedule, {"sigmas": [1.0, 0.5]})
    with pytest.raises(ValueError):
        sch.sigmas[0] = 1.0


def test_schedule_rejects_bad_input():
    with pytest.raises(ValueError):
        NoiseSchedule.geometric(2.0, 1.0, 10)
    with pytest.raises(ValueError):
        NoiseSchedule.geometric(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        NoiseSchedule.geometric(0.1, 1.0, 1)
    for lo, hi in ((1e-4, np.inf), (1e-4, np.nan), (np.nan, 1.0), (-np.inf, 1.0)):
        with pytest.raises(ValueError, match="both finite"):
            NoiseSchedule.geometric(lo, hi, 10)


def test_perturb_zero_sigma_is_identity():
    x0 = np.random.default_rng(0).standard_normal((16, 3))
    assert np.array_equal(perturb(x0, 0.0, np.random.default_rng(1)), x0)


def test_perturb_noise_statistics():
    rng = np.random.default_rng(2)
    x0 = np.zeros((100_000, 2))
    xt = perturb(x0, 0.7, rng)
    var = np.var(xt, axis=0)
    # chi^2 sampling error of a variance estimate: sd ~ var * sqrt(2/n)
    se = 0.49 * np.sqrt(2.0 / 100_000)
    assert np.all(np.abs(var - 0.49) < 3 * se)
    assert np.all(np.abs(np.mean(xt, axis=0)) < 3 * 0.7 / np.sqrt(100_000))


def test_perturb_rejects_negative_sigma():
    with pytest.raises(ValueError):
        perturb(np.zeros(3), -0.1, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_perturb_and_targets_reject_non_finite_sigma(bad):
    x0 = np.array([[1.0, 0.0], [-1.0, 0.0]])
    xt = x0 + 0.1
    ds = DiscreteSet(TWO_POINTS)
    for sigma in (bad, np.array([0.5, bad])):
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
                perturb(x0, sigma, np.random.default_rng(0))
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                dsm_target(x0, xt, sigma)
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                mad_target(x0, xt, sigma, ds)


def test_dsm_target_recovers_negative_noise():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((500, 2))
    eps = rng.standard_normal((500, 2))
    sigma = 0.8
    xt = x0 + sigma * eps
    t = dsm_target(x0, xt, sigma)
    assert isinstance(t, np.ndarray) and t.shape == x0.shape
    assert np.max(np.abs(t + eps)) < 1e-12
    same = dsm_target(x0, x0, sigma)
    assert np.all(same == 0.0)


def test_target_identity_dsm_minus_mad_is_scaled_base_score():
    rng = np.random.default_rng(4)
    ds = DiscreteSet(TWO_POINTS)
    x0 = TWO_POINTS[rng.integers(2, size=50_000)]
    sigma = np.exp(rng.uniform(np.log(1e-3), np.log(2.0), 50_000))
    xt = perturb(x0, sigma, rng)
    d = dsm_target(x0, xt, sigma)
    m = mad_target(x0, xt, sigma, ds)
    sbase = sigma[:, None] * base_score(xt, sigma, ds)
    # identical up to the single rounding in the subtraction
    assert np.max(np.abs(d - m - sbase)) < 5e-16 * (
        1.0 + np.max(np.abs(sbase))
    )


def test_loss_equivalence_shifted_dsm_equals_mad():
    rng = np.random.default_rng(5)
    ds = DiscreteSet(TWO_POINTS)
    x0 = TWO_POINTS[rng.integers(2, size=2000)]
    sigma = np.full(2000, 0.6)
    xt = perturb(x0, sigma, rng)
    delta = rng.standard_normal((2000, 2))  # arbitrary correction field values
    sbase = base_score(xt, sigma, ds)
    d = dsm_target(x0, xt, sigma)
    m = mad_target(x0, xt, sigma, ds)
    dsm_terms = np.sum((sigma[:, None] * (sbase + delta) - d) ** 2, axis=1)
    mad_terms = np.sum((sigma[:, None] * delta - m) ** 2, axis=1)
    assert np.max(np.abs(dsm_terms - mad_terms)) < 1e-12


def test_exact_score_minimizes_dsm_loss():
    rng = np.random.default_rng(6)
    sigma = 0.6
    x0 = TWO_POINTS[rng.integers(2, size=100_000)]
    xt = perturb(x0, sigma, rng)
    res = dsm_target(x0, xt, sigma)
    s = base_score_discrete(xt, sigma, TWO_POINTS)  # exact for the uniform pair
    loss_exact = np.mean(np.sum((sigma * s - res) ** 2, axis=1))
    loss_zero = np.mean(np.sum(res**2, axis=1))
    assert loss_exact < loss_zero


def test_correction_beats_zero_on_skewed_pair():
    rng = np.random.default_rng(7)
    sigma = 0.6
    probs = np.array([0.1, 0.9])
    ds = DiscreteSet(TWO_POINTS)
    x0 = TWO_POINTS[rng.choice(2, size=100_000, p=probs)]
    xt = perturb(x0, sigma, rng)
    res = mad_target(x0, xt, sigma, ds)
    delta = exact_score_discrete(xt, sigma, TWO_POINTS, probs) - base_score(xt, sigma, ds)
    loss_delta = np.mean(np.sum((sigma * delta - res) ** 2, axis=1))
    loss_zero = np.mean(np.sum(res**2, axis=1))
    assert loss_delta < loss_zero


def test_mad_residual_centers_at_zero_for_uniform_weights():
    # condition on a fixed xt: draw x0 from the exact two-way posterior and
    # average the correction target; for uniform weights it must vanish
    rng = np.random.default_rng(8)
    sigma = 0.6
    xt = np.array([0.4, 0.3])
    logits = -np.sum((xt - TWO_POINTS) ** 2, axis=1) / (2 * sigma**2)
    post = np.exp(logits - logits.max())
    post /= post.sum()
    idx = rng.choice(2, size=200_000, p=post)
    x0 = TWO_POINTS[idx]
    res = mad_target(x0, np.broadcast_to(xt, x0.shape), sigma, DiscreteSet(TWO_POINTS))
    mean = np.mean(res, axis=0)
    se = np.std(res, axis=0) / np.sqrt(200_000)
    assert np.all(np.abs(mean) < 4 * se + 1e-12)


def test_correction_target_smaller_than_score_target_near_support():
    # skewed pair, query at the lighter point: the correction the network must
    # learn is smaller than the full score
    x = np.array([1.0, 0.0])
    sigma = 0.8
    s = exact_score_discrete(x, sigma, TWO_POINTS, np.array([0.1, 0.9]))
    delta = s - base_score_discrete(x, sigma, TWO_POINTS)
    assert np.linalg.norm(delta) < np.linalg.norm(s)


def test_reverse_sample_base_score_only_covers_the_sphere():
    sch = NoiseSchedule.geometric(1e-4, 2.0, 100)
    x = reverse_sample(
        lambda x, s: base_score_s2(x, s), sch, 4096, Sphere(2), np.random.default_rng(42)
    )
    assert x.shape == (4096, 3)
    assert manifold_drift(x, Sphere(2)).value < 0.01
    # octant occupancy: all eight within 3 sigma of 1/8
    octant = (x[:, 0] > 0) * 4 + (x[:, 1] > 0) * 2 + (x[:, 2] > 0)
    p = np.bincount(octant.astype(int), minlength=8) / 4096
    se = np.sqrt((1 / 8) * (7 / 8) / 4096)
    assert np.max(np.abs(p - 1 / 8)) < 3 * se


def test_reverse_sample_concentrates_on_discrete_support():
    sch = NoiseSchedule.geometric(1e-4, 2.0, 100)
    ds = DiscreteSet(TWO_POINTS)
    x = reverse_sample(
        lambda x, s: base_score_discrete(x, s, ds), sch, 2000, ds, np.random.default_rng(1)
    )
    dmin = np.min(np.linalg.norm(x[:, None, :] - TWO_POINTS, axis=-1), axis=1)
    assert np.mean(dmin < 0.05) >= 0.99
    assert manifold_drift(x, ds).value == pytest.approx(np.mean(dmin))


def test_reverse_sample_is_deterministic():
    sch = NoiseSchedule.geometric(1e-3, 2.0, 50)
    mk = lambda: reverse_sample(
        lambda x, s: base_score_s2(x, s), sch, 64, Sphere(2), np.random.default_rng(9)
    )
    assert np.array_equal(mk(), mk())


def test_reverse_sample_empty_batch():
    sch = NoiseSchedule.geometric(1e-3, 2.0, 10)
    x = reverse_sample(lambda x, s: x, sch, 0, Sphere(2), np.random.default_rng(0))
    assert x.shape == (0, 3)


def test_reverse_sample_projection_lands_on_manifold():
    sch = NoiseSchedule.geometric(1e-3, 2.0, 50)
    x = reverse_sample(
        lambda x, s: base_score_s2(x, s), sch, 128, Sphere(2), np.random.default_rng(3)
    )
    # the raw final state is off the sphere; projecting it lands on it
    assert manifold_drift(x, Sphere(2)).config["max"] > 0.0
    assert np.max(np.abs(np.linalg.norm(project(x, Sphere(2)), axis=1) - 1.0)) < 1e-12


def test_reverse_sample_aborts_on_non_finite_score():
    sch = NoiseSchedule.geometric(1e-3, 2.0, 10)

    def bad_field(x, s):
        out = np.zeros_like(x)
        if s < 1.0:
            out[0, 0] = np.inf
        return out

    with pytest.raises(TrainingDivergedError) as info:
        reverse_sample(bad_field, sch, 8, Sphere(2), np.random.default_rng(0))
    assert info.value.sigma is not None and info.value.sigma < 1.0
    assert info.value.state_norm is not None


def test_reverse_sample_rejects_a_wrongly_shaped_score():
    # a (n, 3) field on S^3 is a caller's error, not a non-finite score
    sch = NoiseSchedule.geometric(1e-3, 2.0, 10)
    with pytest.raises(ValueError, match=r"score of shape \(8, 3\) for a state of shape \(8, 4\)"):
        reverse_sample(lambda x, s: np.zeros((len(x), 3)), sch, 8, Sphere(3),
                       np.random.default_rng(0))
