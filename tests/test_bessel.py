"""Bessel function tests against an independent extended-precision series oracle."""

import importlib.util
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from manifold_dsm import bessel
from manifold_dsm.bessel import BesselOrder, bessel_i, bessel_i_scaled, bessel_ratio_i0_i1

mp.mp.dps = 50

# Oracle anchors, frozen from the series oracle below at 40 digits.
I_HALF_AT_2 = 2.0462368630890550366
RATIO_AT_2 = 1.4331274267223117583
IE0_AT_700 = 0.015081295651531357587
IE0_AT_1E8 = 3.9894228090011053125e-05
IE3_AT_40 = 0.056466812232290738025


def series_oracle(nu: float, x: float) -> mp.mpf:
    """Truncated ascending series  sum_k (x/2)^(2k+nu) / (k! Gamma(k+nu+1))."""
    s, xm = mp.mpf(0), mp.mpf(x)
    for k in range(400):
        term = (xm / 2) ** (2 * k + nu) / (mp.factorial(k) * mp.gamma(k + nu + 1))
        s += term
        if k > 4 and term < mp.mpf(10) ** -45 * s:
            break
    return s


def asymptotic_oracle_scaled(nu: float, x: float, terms: int = 12) -> float:
    """Leading asymptotic partial sum for e^{-x} I_nu(x), float arithmetic."""
    mu = 4.0 * nu * nu
    total, term = 1.0, 1.0
    for k in range(1, terms):
        term *= ((2 * k - 1) ** 2 - mu) / (8.0 * k * x)
        total += term
    return total / math.sqrt(2 * math.pi * x)


ORDERS = [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]


def test_order_validation():
    for good in (-0.5, 0, 0.5, 1, 1.5, 7, 12.5):
        BesselOrder(good)
    for bad in (0.3, -1.0, -1.5, 2.25, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            BesselOrder(bad)
    with pytest.raises(ValueError):
        bessel_i(0.3, 1.0)


def test_series_oracle_agreement():
    for nu in ORDERS:
        for x in np.geomspace(1e-3, 30.0, 25):
            got = bessel_i(nu, float(x))
            ref = series_oracle(nu, float(x))
            assert abs((mp.mpf(got) - ref) / ref) < 1e-12, (nu, x)


def test_half_integer_closed_forms():
    assert bessel_i(0.5, 2.0) == pytest.approx(I_HALF_AT_2, rel=1e-12)
    for x in np.geomspace(1e-3, 30.0, 20):
        x = float(x)
        assert bessel_i(0.5, x) == pytest.approx(
            math.sqrt(2 / (math.pi * x)) * math.sinh(x), rel=1e-12
        )
        assert bessel_i(-0.5, x) == pytest.approx(
            math.sqrt(2 / (math.pi * x)) * math.cosh(x), rel=1e-12
        )


def test_values_at_zero():
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i_scaled(0, 0.0) == 1.0
    for nu in (0.5, 1.0, 2.0):
        assert bessel_i(nu, 0.0) == 0.0
        assert bessel_i_scaled(nu, 0.0) == 0.0
    with pytest.raises(ValueError):
        bessel_i(-0.5, 0.0)
    with pytest.raises(ValueError):
        bessel_i_scaled(-0.5, 0.0)


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_i(0, -1.0)
    with pytest.raises(ValueError):
        bessel_i_scaled(1, -0.5)
    with pytest.raises(ValueError):
        bessel_ratio_i0_i1(0.0)
    with pytest.raises(ValueError):
        bessel_ratio_i0_i1(-2.0)


def test_overflow_distinct_from_domain_error():
    with pytest.raises(OverflowError):
        bessel_i(0, 800.0)
    # Scaled variant stays finite at the same argument.
    assert np.isfinite(bessel_i_scaled(0, 800.0))
    # x = 710 is past exp overflow but I_0(710) itself still fits in a double.
    assert np.isfinite(bessel_i(0, 710.0))


def test_recurrence_identity():
    # 2 nu I_nu(x) = x (I_{nu-1}(x) - I_{nu+1}(x)), residual relative to I_nu.
    for nu in (0.5, 1.0):
        for x in np.geomspace(0.1, 50.0, 30):
            x = float(x)
            lhs = 2 * nu * bessel_i(nu, x)
            rhs = x * (bessel_i(nu - 1, x) - bessel_i(nu + 1, x))
            assert abs(lhs - rhs) <= 1e-10 * bessel_i(nu, x), (nu, x)
    # Spec point value at x = 1.5 with the tighter bound.
    x = 1.5
    lhs = 2 * 0.5 * bessel_i(0.5, x)
    rhs = x * (bessel_i(-0.5, x) - bessel_i(1.5, x))
    assert abs(lhs - rhs) < 1e-12 * bessel_i(0.5, x)


def test_reduction_identities():
    # I_{3/2} = I_{-1/2} - I_{1/2}/x and I_2 = I_0 - 2 I_1/x.  The right-hand
    # sides cancel catastrophically at small x, so residuals are measured
    # against the dominant magnitude entering the identity.
    for x in np.geomspace(1e-3, 50.0, 40):
        x = float(x)
        lhs = bessel_i(1.5, x)
        rhs = bessel_i(-0.5, x) - bessel_i(0.5, x) / x
        scale = max(abs(lhs), bessel_i(-0.5, x))
        assert abs(lhs - rhs) <= 1e-10 * scale, x

        lhs = bessel_i(2.0, x)
        rhs = bessel_i(0.0, x) - 2.0 * bessel_i(1.0, x) / x
        scale = max(abs(lhs), bessel_i(0.0, x))
        assert abs(lhs - rhs) <= 1e-10 * scale, x


def test_scaled_consistency():
    for nu in ORDERS:
        for x in np.geomspace(1e-3, 50.0, 25):
            x = float(x)
            assert bessel_i_scaled(nu, x) * math.exp(x) == pytest.approx(
                bessel_i(nu, x), rel=1e-12
            )


def test_scaled_finite_for_huge_arguments():
    for nu in ORDERS:
        for x in (1e4, 1e6, 1e8):
            v = bessel_i_scaled(nu, x)
            assert np.isfinite(v) and v > 0.0, (nu, x)
    assert bessel_i_scaled(0, 700.0) == pytest.approx(IE0_AT_700, rel=1e-12)
    assert bessel_i_scaled(0, 700.0) == pytest.approx(
        asymptotic_oracle_scaled(0.0, 700.0), rel=1e-10
    )
    assert bessel_i_scaled(0, 1e8) == pytest.approx(IE0_AT_1E8, rel=1e-12)
    assert bessel_i_scaled(3, 40.0) == pytest.approx(IE3_AT_40, rel=1e-12)


def test_chebyshev_pieces_agree_at_split():
    # x = 8 ends the series in x and starts the series in 1/x; orders 0 and 1
    # must come out the same from both.
    x = np.array([8.0])
    np.testing.assert_allclose(bessel._ie01_small(x), bessel._ie01_large(x), rtol=2e-15, atol=0)


@pytest.mark.parametrize("nu, xs", [(2.0, [15.0, 16.0, 25.0, 1e3, 1e7]),
                                    (3.0, [36.0, 50.0, 1e4])])
def test_asymptotic_expansion_for_higher_orders(nu, xs):
    # orders >= 2 still take the asymptotic expansion from x = 15 on
    got = bessel._asym_ie(nu, np.array(xs))
    for g, x in zip(got, xs):
        want = mp.besseli(nu, x) * mp.exp(-x)
        assert abs(g / want - 1) < 1e-12, (nu, x)


def load_generator():
    path = Path(__file__).resolve().parents[1] / "tools" / "gen_bessel_i01.py"
    spec = importlib.util.spec_from_file_location("gen_bessel_i01", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_committed_tables_match_generator():
    gen = load_generator()
    tables = gen.tables()
    assert gen.render(tables) in Path(bessel.__file__).read_text()
    for name, coef in tables.items():
        assert getattr(bessel, name) == coef, name


def test_orders_zero_one_and_ratio_match_mpmath():
    xs = np.unique(np.concatenate([
        np.geomspace(1e-300, 1e10, 621),
        np.linspace(0.05, 40.0, 400),
        np.linspace(7.9, 8.1, 201),
        np.linspace(14.5, 15.5, 201),
    ]))
    got = np.stack([bessel_i_scaled(0, xs), bessel_i_scaled(1, xs), bessel_ratio_i0_i1(xs)])
    for i, x in enumerate(xs):
        xm = mp.mpf(float(x))
        ie0 = mp.besseli(0, xm) * mp.exp(-xm)
        ie1 = mp.besseli(1, xm) * mp.exp(-xm)
        for g, want in zip(got[:, i], (ie0, ie1, ie0 / ie1)):
            assert abs(g / want - 1) <= 2e-15, (x, g, want)


def test_ratio_i0_i1():
    assert bessel_ratio_i0_i1(2.0) == pytest.approx(RATIO_AT_2, rel=1e-12)
    r = bessel_ratio_i0_i1(1e6)
    assert 1.0 < r < 1.0 + 1e-5
    for x in (0.5, 1.0, 4.0, 16.0):
        assert bessel_ratio_i0_i1(x) > bessel_ratio_i0_i1(2 * x)
    for x in np.geomspace(1e-2, 1e8, 30):
        assert bessel_ratio_i0_i1(float(x)) > 1.0


def test_log_domain_half_order_example():
    # e^{-50} sqrt(2/(50 pi)) sinh 50, assembled without overflow.
    want = math.sqrt(2 / (50 * math.pi)) * math.sinh(50.0) * math.exp(-50.0)
    assert bessel_i_scaled(0.5, 50.0) == pytest.approx(want, rel=1e-13)


ORDER_0_1_AND_RATIO = (
    lambda x: bessel_i_scaled(0, x),
    lambda x: bessel_i_scaled(1, x),
    bessel_ratio_i0_i1,
)


def test_array_and_scalar_shapes():
    xs = np.geomspace(0.1, 20, 7)
    for fn in ORDER_0_1_AND_RATIO:
        out = fn(xs)
        assert isinstance(out, np.ndarray) and out.shape == xs.shape
        assert isinstance(fn(2.0), float)
        singles = np.array([fn(float(x)) for x in xs])
        assert out.tobytes() == singles.tobytes()
        assert fn(xs.reshape(7, 1)).tobytes() == out.tobytes()


def test_values_do_not_depend_on_the_batch():
    # 3 and 8 sit in the all-small and mixed batches, 8 and 40 in the
    # all-large and mixed ones; every element must equal its lone evaluation
    small = np.array([1e-300, 1e-3, 0.5, 3.0, 7.999, 8.0])
    large = np.array([8.0, 8.001, 15.0, 40.0, 1e3, 1e8])
    mixed = np.array([40.0, 3.0, 1e3, 8.0, 0.5, 15.0, 1e-3])
    for fn in ORDER_0_1_AND_RATIO:
        for batch in (small, large, mixed):
            singles = np.array([fn(float(x)) for x in batch])
            assert fn(batch).tobytes() == singles.tobytes(), batch
