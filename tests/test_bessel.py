"""Bessel function tests against an independent extended-precision series oracle."""

import math

import mpmath as mp
import numpy as np
import pytest

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


def test_series_asymptotic_crossover():
    # Both evaluation branches agree at the handoff argument itself.
    from manifold_dsm.bessel import _asym_ie, _series_ie

    x = np.array([15.0])
    assert _series_ie(0.0, x)[0] == pytest.approx(_asym_ie(0.0, x)[0], rel=1e-12)
    assert _series_ie(1.0, x)[0] == pytest.approx(_asym_ie(1.0, x)[0], rel=1e-12)


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


def test_array_and_scalar_shapes():
    xs = np.geomspace(0.1, 20, 7)
    out = bessel_i_scaled(1.0, xs)
    assert isinstance(out, np.ndarray) and out.shape == xs.shape
    assert isinstance(bessel_i_scaled(1.0, 2.0), float)
    singles = np.array([bessel_i_scaled(1.0, float(x)) for x in xs])
    np.testing.assert_allclose(out, singles, rtol=1e-15)
