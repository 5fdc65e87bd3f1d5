"""Dataset generators: ring pmfs, vMF mixtures, lat/lon ingestion."""

import numpy as np
import pytest
from mpmath import mp

from manifold_dsm.datasets import (
    DatasetSpec,
    build_dataset,
    circle_points,
    load_latlon_csv,
    sample_discrete,
    sample_vmf,
    sample_vmf_mixture,
    skewed_pmf,
)
from manifold_dsm.geometry import DiscreteSet, Sphere

# skewed ring pmf for n=8, decay=0.8; frozen from the defining formula
SKEWED_8 = np.array(
    [
        0.07997013129920769,
        0.17797680026330323,
        0.39609465330811033,
        0.17797680026330323,
        0.07997013129920769,
        0.03593289625699118,
        0.01614569105288544,
        0.03593289625699118,
    ]
)


def vmf_mean_cosine(p, kappa):
    """E[cos angle] = I_{p/2}(kappa) / I_{p/2-1}(kappa), high-precision."""
    mp.dps = 30
    return float(mp.besseli(p / 2.0, kappa) / mp.besseli(p / 2.0 - 1.0, kappa))


def test_circle_points_layout():
    pts = circle_points(8)
    assert pts.shape == (8, 2)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-15)
    np.testing.assert_allclose(pts[0], [1.0, 0.0], atol=1e-16)
    # consecutive gaps all equal the chord of 2 pi / 8
    gaps = np.linalg.norm(pts - np.roll(pts, -1, axis=0), axis=1)
    np.testing.assert_allclose(gaps, 2.0 * np.sin(np.pi / 8.0), rtol=1e-14)
    with pytest.raises(ValueError):
        circle_points(1)


def test_skewed_pmf_matches_formula():
    pmf = skewed_pmf(8)
    np.testing.assert_allclose(pmf, SKEWED_8, rtol=1e-15)
    assert abs(pmf.sum() - 1.0) < 1e-15
    assert np.all(pmf > 0)
    assert np.argmax(pmf) == 2  # peak at n // 4
    # symmetric about the peak in circular index distance
    assert pmf[1] == pmf[3]
    assert pmf[0] == pmf[4]
    assert pmf[7] == pmf[5]
    # recompute from the definition
    d = np.minimum(np.abs(np.arange(8) - 2), 8 - np.abs(np.arange(8) - 2))
    w = np.exp(-0.8 * d)
    np.testing.assert_allclose(pmf, w / w.sum(), rtol=1e-15)
    for bad in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="decay must be positive and finite"):
            skewed_pmf(8, decay=bad)


def test_sample_discrete_point_mass():
    pts = circle_points(4)
    pmf = np.array([0.0, 1.0, 0.0, 0.0])
    out = sample_discrete(pts, pmf, 64, seed=0)
    assert out.shape == (64, 2)
    assert np.all(out == pts[1])


def test_sample_discrete_frequencies():
    pts = circle_points(8)
    pmf = skewed_pmf(8)
    n = 20000
    out = sample_discrete(pts, pmf, n, seed=11)
    idx = np.argmin(np.linalg.norm(out[:, None, :] - pts, axis=-1), axis=1)
    emp = np.bincount(idx, minlength=8) / n
    se = np.sqrt(pmf * (1.0 - pmf) / n)
    assert np.all(np.abs(emp - pmf) < 4.0 * se + 1e-12)


def test_sample_discrete_edge_cases():
    pts = circle_points(3)
    assert sample_discrete(pts, np.full(3, 1 / 3), 0, seed=0).shape == (0, 2)
    a = sample_discrete(pts, np.full(3, 1 / 3), 100, seed=5)
    b = sample_discrete(pts, np.full(3, 1 / 3), 100, seed=5)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample_discrete(pts, np.array([0.5, 0.5]), 10, seed=0)
    with pytest.raises(ValueError):
        sample_discrete(pts, np.array([0.7, 0.2, 0.2]), 10, seed=0)


def test_vmf_unit_norm_and_validation():
    rng = np.random.default_rng(3)
    out = sample_vmf(np.array([0.0, 0.0, 1.0]), 5.0, 500, rng)
    assert out.shape == (500, 3)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        sample_vmf(np.zeros(3), 5.0, 10, rng)
    with pytest.raises(ValueError):
        sample_vmf(np.array([0.0, 0.0, 1.0]), 0.0, 10, rng)


@pytest.mark.parametrize("kappa", [np.inf, np.nan, -np.inf])
def test_vmf_rejects_non_finite_kappa(time_limit, kappa):
    # a nan or infinite kappa makes the rejection loop's acceptance test nan
    with time_limit(30), pytest.raises(ValueError, match="kappa must be positive and finite"):
        sample_vmf(np.array([0.0, 0.0, 1.0]), kappa, 10, np.random.default_rng(0))


def test_vmf_high_concentration_hugs_mean():
    mean = np.array([1.0, 2.0, 2.0]) / 3.0
    rng = np.random.default_rng(4)
    out = sample_vmf(mean * 3.0, 1e4, 2000, rng)  # unnormalized mean allowed
    cosines = out @ mean
    # at kappa=1e4 essentially all mass sits within ~2 degrees of the mean
    assert np.mean(cosines) > 0.999
    assert np.min(cosines) > 0.99


@pytest.mark.parametrize(
    "p,kappa,seed",
    [(3, 3.0, 21), (3, 50.0, 22), (4, 3.0, 23), (4, 20.0, 24)],
)
def test_vmf_mean_cosine_matches_bessel_ratio(p, kappa, seed):
    # sample moment of cos(angle) against the exact Bessel ratio
    mean = np.zeros(p)
    mean[-1] = 1.0
    rng = np.random.default_rng(seed)
    n = 40000
    w = sample_vmf(mean, kappa, n, rng) @ mean
    exact = vmf_mean_cosine(p, kappa)
    se = np.std(w, ddof=1) / np.sqrt(n)
    assert abs(np.mean(w) - exact) < 4.0 * se


def test_vmf_tangent_symmetry():
    # components orthogonal to the mean have zero expectation
    mean = np.array([0.0, 0.0, 1.0])
    rng = np.random.default_rng(9)
    out = sample_vmf(mean, 5.0, 40000, rng)
    se = np.std(out[:, :2], axis=0, ddof=1) / np.sqrt(out.shape[0])
    assert np.all(np.abs(out[:, :2].mean(axis=0)) < 4.0 * se)


def test_vmf_mixture_weights_and_parity():
    comps = (((1.0, 0.0, 0.0, 0.0), 30.0, 0.5), ((-1.0, -0.0, -0.0, -0.0), 30.0, 0.5))
    spec = DatasetSpec(kind="vmf_mixture", manifold_n=3, components=comps)
    out = sample_vmf_mixture(spec, 20000, seed=6)
    assert out.shape == (20000, 4)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    # antipodal halves: the mean vanishes, |x . e1| stays concentrated
    se = np.std(out, axis=0, ddof=1) / np.sqrt(out.shape[0])
    assert np.all(np.abs(out.mean(axis=0)) < 4.0 * se)
    assert np.mean(np.abs(out[:, 0])) > 0.9


def test_vmf_mixture_degenerate_weight():
    comps = (((0.0, 0.0, 1.0), 100.0, 1.0), ((1.0, 0.0, 0.0), 100.0, 0.0))
    spec = DatasetSpec(kind="vmf_mixture", manifold_n=2, components=comps)
    out = sample_vmf_mixture(spec, 300, seed=7)
    assert np.all(out @ np.array([0.0, 0.0, 1.0]) > 0.5)


def test_vmf_mixture_determinism():
    comps = (((0.0, 1.0, 0.0), 5.0, 0.5), ((1.0, 0.0, 0.0), 5.0, 0.5))
    spec = DatasetSpec(kind="vmf_mixture", manifold_n=2, components=comps)
    a = sample_vmf_mixture(spec, 500, seed=8)
    b = sample_vmf_mixture(spec, 500, seed=8)
    assert np.array_equal(a, b)


def test_dataset_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(kind="nope")
    with pytest.raises(ValueError):
        DatasetSpec(kind="discrete_uniform", n_coords=1)
    with pytest.raises(ValueError):
        DatasetSpec(kind="discrete_skewed", decay=-1.0)
    with pytest.raises(ValueError):
        DatasetSpec(kind="vmf_mixture", manifold_n=2, components=())
    with pytest.raises(ValueError):
        DatasetSpec(
            kind="vmf_mixture", manifold_n=2, components=(((0.0, 0.0, 1.0), -1.0, 1.0),)
        )
    with pytest.raises(ValueError):
        DatasetSpec(
            kind="vmf_mixture", manifold_n=2, components=(((0.0, 0.0, 1.0), 5.0, 0.7),)
        )
    with pytest.raises(ValueError):
        DatasetSpec(
            kind="vmf_mixture", manifold_n=3, components=(((0.0, 0.0, 1.0), 5.0, 1.0),)
        )
    with pytest.raises(ValueError):
        DatasetSpec(kind="vmf_mixture", manifold_n=4, components=(((1.0,) * 5, 5.0, 1.0),))
    with pytest.raises(ValueError):
        DatasetSpec(kind="latlon_file")


def test_latlon_known_points(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("lat,lon\n0,0\n90,123\n45,90\n-90,0\n")
    out = load_latlon_csv(f)
    s2 = np.sqrt(2.0) / 2.0
    np.testing.assert_allclose(out[0], [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(out[1], [0.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(out[2], [0.0, s2, s2], atol=1e-15)
    np.testing.assert_allclose(out[3], [0.0, 0.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-15)


def test_build_dataset_latlon_keeps_a_seeded_subset_of_n_rows(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("lat,lon\n" + "".join(f"{lat},{2 * lat}\n" for lat in range(-40, 50, 10)))
    rows = load_latlon_csv(f)
    spec = DatasetSpec(kind="latlon_file", path=str(f))
    for n in (rows.shape[0], rows.shape[0] + 1, 16384):
        out, manifold, pmf = build_dataset(spec, n, seed=0)
        assert np.array_equal(out, rows)
        assert manifold == Sphere(2) and pmf is None
    picked = build_dataset(spec, 4, seed=3)[0]
    index = [int(np.flatnonzero(np.all(rows == p, axis=1))[0]) for p in picked]
    assert len(set(index)) == 4 and index == sorted(index)  # distinct rows, file order
    assert np.array_equal(build_dataset(spec, 4, seed=3)[0], picked)
    others = {build_dataset(spec, 4, seed=s)[0].tobytes() for s in range(4, 10)}
    assert others - {picked.tobytes()}


def test_latlon_header_tolerance_and_crlf(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_bytes(b" LAT , Lon \r\n10.5,-20.25\r\n\r\n30,40\r\n")
    out = load_latlon_csv(f)
    assert out.shape == (2, 3)  # blank row skipped
    lat, lon = np.deg2rad(10.5), np.deg2rad(-20.25)
    np.testing.assert_allclose(
        out[0], [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], atol=1e-15
    )


def test_latlon_error_line_numbers(tmp_path):
    f = tmp_path / "bad.csv"

    f.write_text("lat,lon\n1,2\n3,4,5\n")
    with pytest.raises(ValueError, match="line 3"):
        load_latlon_csv(f)

    f.write_text("lat,lon\n1,2\nx,4\n")
    with pytest.raises(ValueError, match="line 3"):
        load_latlon_csv(f)

    f.write_text("lat,lon\n91,0\n")
    with pytest.raises(ValueError, match="line 2.*latitude"):
        load_latlon_csv(f)

    f.write_text("lat,lon\n0,181\n")
    with pytest.raises(ValueError, match="line 2.*longitude"):
        load_latlon_csv(f)

    f.write_text("not,a header\n0,0\n")
    with pytest.raises(ValueError, match="line 1"):
        load_latlon_csv(f)

    f.write_text("")
    with pytest.raises(ValueError, match="line 1"):
        load_latlon_csv(f)


def test_latlon_header_only(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("lat,lon\n")
    assert load_latlon_csv(f).shape == (0, 3)


def test_build_dataset_discrete():
    spec = DatasetSpec(kind="discrete_skewed", n_coords=8)
    samples, manifold, pmf = build_dataset(spec, 100, seed=0)
    assert samples.shape == (100, 2)
    assert isinstance(manifold, DiscreteSet)
    np.testing.assert_allclose(pmf, SKEWED_8, rtol=1e-15)

    spec_u = DatasetSpec(kind="discrete_uniform", n_coords=5)
    samples, manifold, pmf = build_dataset(spec_u, 50, seed=1)
    assert manifold.points.shape == (5, 2)
    np.testing.assert_allclose(pmf, 0.2)


def test_build_dataset_vmf_and_file(tmp_path):
    spec = DatasetSpec(
        kind="vmf_mixture", manifold_n=3, components=(((1.0, 0.0, 0.0, 0.0), 10.0, 1.0),)
    )
    samples, manifold, pmf = build_dataset(spec, 64, seed=2)
    assert samples.shape == (64, 4)
    assert isinstance(manifold, Sphere) and manifold.n == 3
    assert pmf is None

    f = tmp_path / "d.csv"
    f.write_text("lat,lon\n0,0\n0,90\n")
    spec_f = DatasetSpec(kind="latlon_file", path=str(f))
    samples, manifold, pmf = build_dataset(spec_f, 2, seed=0)
    assert samples.shape == (2, 3)
    assert isinstance(manifold, Sphere) and manifold.n == 2
    assert pmf is None
