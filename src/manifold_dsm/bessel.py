"""Modified Bessel functions of the first kind, I_nu, for score computations.

Only the orders that show up in the sphere posterior means are supported:
integers >= 0 and half-integers >= -1/2.  The evaluation strategy per order:

* nu = +-1/2: closed forms I_{1/2} = sqrt(2/(pi x)) sinh x and
  I_{-1/2} = sqrt(2/(pi x)) cosh x (DLMF 10.47), written against expm1 so the
  scaled variants stay fully accurate at small x.
* nu = 0, 1: both orders at once, as one fixed-length Chebyshev sum per
  argument, on [0, 8] in x and beyond 8 in 1/x, as in Cephes `i0e`/`i1e`
  (Moshier, "Methods and Programs for Mathematical Functions", 1989), summed
  for both pieces in one Clenshaw loop.  The coefficients come from
  tools/gen_bessel_i01.py.
* remaining orders: the order-1 or order-1/2 base value divided by each ratio
  I_{k-1}/I_k up to nu.  A ratio is the quotient of two large-x asymptotic
  expansions (DLMF 10.40.1) where they converge fast, otherwise the
  three-term recurrence run in its numerically stable downward direction, as
  the Gauss continued fraction.  The upward recurrence subtracts nearly equal
  terms and is avoided.

Everything is evaluated in scaled form e^{-x} I_nu(x) internally; the unscaled
value is reconstructed on demand.  Scaled values stay finite for arguments up
to 1e8 and beyond, which the score formulas need because their Bessel argument
is ||x||/sigma^2.  The sphere scores need only the ratio I_{nu-1}/I_nu, which
`bessel_ratio` takes from the same two expansions without forming I_nu, so it
stays finite where high orders underflow.  Every element's bytes are
independent of the batch it is evaluated in.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["bessel_i", "bessel_i_scaled", "bessel_ratio", "bessel_ratio_i0_i1"]

# Ratios use the asymptotic expansions from this argument on (where they
# also need 4 nu^2 <= x); they reach <= 1e-12 relative error there.
_CROSSOVER = 15.0
# Stop summing once a term drops below this fraction of the partial sum.
_TAIL = 1e-17
_LOG_DBL_MAX = math.log(np.finfo(np.float64).max)

# Chebyshev series, highest degree first, written by tools/gen_bessel_i01.py:
# (1 + x) e^{-x} I_nu(x) / x^nu on [0, 8] in t = x/4 - 1 (SMALL) and
# sqrt(x) e^{-x} I_nu(x) on [8, inf) in t = 16/x - 1 (LARGE).
_I0_SMALL = (
    4.567301774543236e-17, -3.285469266614377e-16, 2.2817585382127336e-15,
    -1.527996529752083e-14, 9.852782815324172e-14, -6.10850747448126e-13,
    3.635405644675414e-12, -2.0732551869805302e-11, 1.1308497146164624e-10,
    -5.887051943872218e-10, 2.9182658292546064e-09, -1.3739340696640081e-08,
    6.125829740089075e-08, -2.5780951986075134e-07, 1.0203180517207398e-06,
    -3.780697792105105e-06, 1.3047979427404248e-05, -4.167513656491509e-05,
    0.00012219291582903592, -0.00032532062379959855, 0.000774079131381443,
    -0.0016039930544716377, 0.0027503220478197884, -0.003391147628925098,
    0.0010164152390340696, 0.009249397490459317, -0.032653113716479255,
    0.05893696882855179, 0.17341899014737772, 2.1652456826745867,
)
_I1_SMALL = (
    3.872623394384126e-18, -2.9047170077866515e-17, 2.1071115905485388e-16,
    -1.4766063408898357e-15, 9.984110242341122e-15, -6.505148251635197e-14,
    4.078507665421902e-13, -2.4568958226516582e-12, 1.41972592821462e-11,
    -7.855681177111594e-11, 4.154159427331038e-10, -2.0949741571396406e-09,
    1.0051944070687821e-08, -4.576799514689336e-08, 1.9716906904360218e-07,
    -8.009978587389498e-07, 3.056801434638057e-06, -1.090881482432957e-05,
    3.620598648707926e-05, -0.00011098970358636966, 0.0003113991353586689,
    -0.0007892367520714209, 0.0017695555478066621, -0.003373199968950462,
    0.004945319476747819, -0.003387887052309795, -0.009989690599527732,
    0.054493294317377386, -0.17162090152220877, 0.5572698587868321,
)
_I0_LARGE = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)
_I1_LARGE = (
    7.517296310842105e-18, 4.414348323071708e-18, -4.6503053684893586e-17,
    -3.209525921993424e-17, 2.96262899764595e-16, 3.3082023109209285e-16,
    -1.8803547755107825e-15, -3.8144030724370075e-15, 1.0420276984128802e-14,
    4.272440016711951e-14, -2.1015418427726643e-14, -4.0835511110921974e-13,
    -7.198551776245908e-13, 2.0356285441470896e-12, 1.4125807436613782e-11,
    3.2526035830154884e-11, -1.8974958123505413e-11, -5.589743462196584e-10,
    -3.835380385964237e-09, -2.6314688468895196e-08, -2.512236237870209e-07,
    -3.882564808877691e-06, -0.00011058893876262371, -0.009761097491361469,
    0.7785762350182801,
)
# (30, 2, 1): row k holds the degree-(29 - k) coefficients of orders 0 and 1.
# LARGE leads with zero rows, which keep the Clenshaw sums at +0, so both
# pieces run in one loop of SMALL's length.
_PAD = len(_I0_SMALL) - len(_I0_LARGE)
_SMALL = np.array([_I0_SMALL, _I1_SMALL]).T[:, :, None]
_LARGE = np.pad(np.array([_I0_LARGE, _I1_LARGE]).T[:, :, None], ((_PAD, 0), (0, 0), (0, 0)))


def _as_order(nu) -> float:
    """nu as a float, if it is an integer >= 0 or a half-integer >= -1/2."""
    order = float(nu)
    if not math.isfinite(order) or 2.0 * order != round(2.0 * order) or order < -0.5:
        raise ValueError(
            f"unsupported Bessel order {order!r}: need an integer >= 0 "
            "or a half-integer >= -1/2"
        )
    return order


def _asym_ie(nu: float, x: np.ndarray) -> np.ndarray:
    # e^{-x} I_nu(x) ~ (2 pi x)^{-1/2} sum_k t_k with t_0 = 1 and
    # t_k = t_{k-1} ((2k-1)^2 - 4 nu^2) / (8 k x).  The series is asymptotic:
    # each element stops at its smallest term (or at the tail tolerance).
    mu = 4.0 * nu * nu
    total = np.ones_like(x)
    term = np.ones_like(x)
    stopped = np.zeros(x.shape, dtype=bool)
    for k in range(1, 400):
        nxt = term * (((2 * k - 1) ** 2 - mu) / (8.0 * k)) / x
        stopped |= np.abs(nxt) >= np.abs(term)
        if stopped.all():
            break
        total = np.where(stopped, total, total + nxt)
        term = np.where(stopped, term, nxt)
        stopped |= np.abs(term) <= _TAIL * np.abs(total)
    return total / np.sqrt(2.0 * np.pi * x)


def _ratio_cf(nu: float, x: np.ndarray) -> np.ndarray:
    """I_{nu+1}(x) / I_nu(x) for 1-D x > 0 by modified Lentz on the Gauss
    continued fraction.

    I_nu/I_{nu+1} = b_0 + 1/(b_1 + 1/(b_2 + ...)) with b_j = 2(nu+1+j)/x;
    this is the downward-stable form of the recurrence
    2 nu I_nu = x (I_{nu-1} - I_{nu+1}).  Each element leaves the loop at its
    own convergence, so its bytes do not depend on its batch.
    """
    tiny = 1e-300
    out = np.empty_like(x)
    left = np.arange(x.size)
    f = np.maximum(2.0 * (nu + 1.0) / x, tiny)
    c = f.copy()
    d = np.zeros_like(x)
    for j in range(1, 1_000_000):
        b = 2.0 * (nu + 1.0 + j) / x
        d = 1.0 / (b + d)
        c = b + 1.0 / c
        delta = c * d
        f = f * delta
        done = np.abs(delta - 1.0) < 1e-15
        if done.any():
            out[left[done]] = 1.0 / f[done]
            if done.all():
                return out
            keep = ~done
            left, x, f, c, d = left[keep], x[keep], f[keep], c[keep], d[keep]
    raise RuntimeError("Bessel ratio continued fraction failed to converge")


def _ie01(x: np.ndarray) -> np.ndarray:
    """Rows e^{-x} I_0(x) and e^{-x} I_1(x) for 1-D x > 0, as one Clenshaw pass
    b_k = c_k + 2t b_{k+1} - b_{k+2} over both orders and both pieces, with
    sum (b_0 - b_2) / 2.  Each element takes a fixed sequence of operations,
    so its bytes do not depend on its batch."""
    small = x <= 8.0
    one_piece = small.all() or not small.any()
    if one_piece:
        # numpy adds a (2, 1) column in its unvectorised broadcast loop, so
        # the coefficients go in row by row as scalars
        table = (_SMALL if small.all() else _LARGE[_PAD:])[:, :, 0].tolist()
    else:
        table = np.where(small, _SMALL, _LARGE)
    # both branches run on every row: the maximum keeps 16/x finite for tiny x
    t = np.where(small, 0.25 * x - 1.0, 16.0 / np.maximum(x, 8.0) - 1.0)
    t2 = np.empty((2, x.size))
    np.multiply(t, 2.0, out=t2)
    b0 = np.zeros_like(t2)
    b1 = np.zeros_like(t2)
    b2 = np.empty_like(t2)
    for c in table:
        b0, b1, b2 = b2, b0, b1
        np.multiply(t2, b1, out=b0)
        b0 -= b2
        if one_piece:
            b0[0] += c[0]
            b0[1] += c[1]
        else:
            b0 += c
    b0 -= b2
    b0 *= 0.5
    b0 /= np.where(small, 1.0 + x, np.sqrt(x))
    b0[1] *= np.where(small, x, 1.0)
    return b0


def _ihalf_e(x: np.ndarray) -> np.ndarray:
    # e^{-x} sqrt(2/(pi x)) sinh x = -expm1(-2x) / sqrt(2 pi x)
    return -np.expm1(-2.0 * x) / np.sqrt(2.0 * np.pi * x)


def _imhalf_e(x: np.ndarray) -> np.ndarray:
    # e^{-x} sqrt(2/(pi x)) cosh x = (1 + e^{-2x}) / sqrt(2 pi x)
    return (1.0 + np.exp(-2.0 * x)) / np.sqrt(2.0 * np.pi * x)


def _ie_positive(nu: float, x: np.ndarray) -> np.ndarray:
    """Scaled e^{-x} I_nu(x) for strictly positive x."""
    if nu in (0.0, 1.0):
        return _ie01(x)[int(nu)]
    if nu == 0.5:
        return _ihalf_e(x)
    if nu == -0.5:
        return _imhalf_e(x)

    # higher orders: the base order's value divided by each ratio up to nu
    base = 1.0 if nu == round(nu) else 0.5
    val = _ie_positive(base, x)
    for k in np.arange(base + 1.0, nu + 0.5):
        val = val / _ratio(k, x)
    return val


def _ratio(nu: float, x: np.ndarray) -> np.ndarray:
    """I_{nu-1}(x) / I_nu(x) for 1-D x > 0: the quotient of the asymptotic
    expansions where x >= _CROSSOVER and 4 nu^2 <= x, else the Gauss continued
    fraction for I_nu / I_{nu-1}."""
    out = np.empty_like(x)
    direct = (x >= _CROSSOVER) & (4.0 * nu * nu <= x)
    if direct.any():
        out[direct] = _asym_ie(nu - 1.0, x[direct]) / _asym_ie(nu, x[direct])
    if not direct.all():
        out[~direct] = 1.0 / _ratio_cf(nu - 1.0, x[~direct])
    return out


def _scaled(nu, x):
    """Checked order, x as an array, and e^{-x} I_nu(x) over it (I_nu(0) is 1 for
    nu = 0 and 0 otherwise)."""
    order = _as_order(nu)
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0.0):
        raise ValueError("Bessel argument must be nonnegative")
    if order < 0.0 and np.any(arr == 0.0):
        raise ValueError(f"Bessel argument 0 not allowed for order {order}")
    out = np.empty_like(arr)
    zero = arr == 0.0
    if zero.any():
        out[zero] = 1.0 if order == 0.0 else 0.0
    if (~zero).any():
        out[~zero] = _ie_positive(order, arr[~zero])
    return order, arr, out


def _match_shape(out: np.ndarray, x) -> np.ndarray | float:
    return float(out) if np.ndim(x) == 0 else out


def bessel_i_scaled(nu, x):
    """Exponentially scaled modified Bessel function e^{-x} I_nu(x).

    Finite for every representable x >= 0, which makes it the right primitive
    for score formulas whose argument grows like 1/sigma^2.  `nu` is an
    integer >= 0 or a half-integer >= -1/2; x may be a scalar or array (x > 0
    when nu < 0).
    """
    return _match_shape(_scaled(nu, x)[2], x)


def bessel_i(nu, x):
    """Modified Bessel function of the first kind I_nu(x).

    Raises OverflowError (distinct from the ValueError domain failures) when
    the unscaled value exceeds float range; callers hitting that should switch
    to bessel_i_scaled.
    """
    order, arr, scaled = _scaled(nu, x)
    out = np.empty_like(arr)
    small = arr <= 700.0
    out[small] = scaled[small] * np.exp(arr[small])
    big = ~small
    if big.any():
        # Reconstruct through the log to dodge intermediate e^x overflow.
        ln_val = arr[big] + np.log(scaled[big])
        if np.any(ln_val > _LOG_DBL_MAX):
            raise OverflowError(
                f"I_{order}(x) overflows double range at x = "
                f"{float(np.max(arr[big])):g}; use bessel_i_scaled"
            )
        out[big] = np.exp(ln_val)
    return _match_shape(out, x)


def bessel_ratio_i0_i1(x):
    """I_0(x)/I_1(x), decreasing toward 1, for x at or above the smallest normal
    double; below it the ratio (~2/x) overflows, so such x raise ValueError."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < np.finfo(np.float64).tiny):
        raise ValueError("bessel_ratio_i0_i1 requires x >= the smallest normal double, 2.2e-308")
    ie = _ie01(arr.ravel())
    return _match_shape((ie[0] / ie[1]).reshape(arr.shape), x)


def bessel_ratio(nu, x):
    """I_{nu-1}(x) / I_nu(x) for an order nu >= 0 (I_{-1} = I_1) and finite x > 0.

    Neither of `_ratio`'s two forms builds an I_nu value, so the ratio
    survives where e^{-x} I_nu(x) underflows (high order, small x).
    """
    order = _as_order(nu)
    arr = np.asarray(x, dtype=np.float64)
    if order < 0.0:
        raise ValueError(f"bessel_ratio needs an order >= 0, got {order}")
    if not np.all((arr > 0.0) & (arr < np.inf)):
        raise ValueError("bessel_ratio requires finite x > 0")
    return _match_shape(_ratio(order, arr.ravel()).reshape(arr.shape), x)
