"""Modified Bessel functions of the first kind, I_nu, for score computations.

Only the orders that show up in the sphere posterior means are supported:
integers >= 0 and half-integers >= -1/2.  The evaluation strategy per order:

* nu = +-1/2: closed forms I_{1/2} = sqrt(2/(pi x)) sinh x and
  I_{-1/2} = sqrt(2/(pi x)) cosh x (DLMF 10.47), written against expm1 so the
  scaled variants stay fully accurate at small x.
* nu = 0, 1: ascending power series below the crossover argument, the large-x
  asymptotic expansion (DLMF 10.40.1) above it.
* remaining orders: the three-term recurrence run in its numerically stable
  downward direction, i.e. ratios I_{k+1}/I_k from the Gauss continued
  fraction chained up from the order-0/1 or order-1/2 base value.  The upward
  recurrence subtracts nearly equal terms and is avoided.

Everything is evaluated in scaled form e^{-x} I_nu(x) internally; the unscaled
value is reconstructed on demand.  Scaled values stay finite for arguments up
to 1e8 and beyond, which the score formulas need because their Bessel argument
is ||x||/sigma^2.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["BesselOrder", "bessel_i", "bessel_i_scaled", "bessel_ratio_i0_i1"]

# Series/asymptotic crossover for integer orders: both sides reach <= 1e-12
# relative error here for orders 0 and 1.
_CROSSOVER = 15.0
# Stop summing once a term drops below this fraction of the partial sum.
_TAIL = 1e-17
_LOG_DBL_MAX = math.log(np.finfo(np.float64).max)


@dataclass(frozen=True)
class BesselOrder:
    """Validated Bessel order: an integer >= 0 or a half-integer >= -1/2."""

    nu: float

    def __post_init__(self):
        nu = float(self.nu)
        if not math.isfinite(nu) or 2.0 * nu != round(2.0 * nu) or nu < -0.5:
            raise ValueError(
                f"unsupported Bessel order {self.nu!r}: need an integer >= 0 "
                "or a half-integer >= -1/2"
            )
        object.__setattr__(self, "nu", nu)


def _as_order(nu) -> float:
    if isinstance(nu, BesselOrder):
        return nu.nu
    return BesselOrder(float(nu)).nu


def _series_ie(nu: float, x: np.ndarray) -> np.ndarray:
    # (x/2)^nu sum_k (x^2/4)^k / (k! (k+nu)!) for nu = 0 or 1, then scale by
    # e^{-x}; all terms positive.
    q = 0.25 * x * x
    term = 0.5 * x if nu else np.ones_like(x)
    total = term.copy()
    k = 1
    while np.any(term > _TAIL * total):
        term = term * q / (k * (k + nu))
        total = total + term
        k += 1
    return total * np.exp(-x)


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
    """I_{nu+1}(x) / I_nu(x) by modified Lentz on the Gauss continued fraction.

    I_nu/I_{nu+1} = b_0 + 1/(b_1 + 1/(b_2 + ...)) with b_j = 2(nu+1+j)/x;
    this is the downward-stable form of the recurrence
    2 nu I_nu = x (I_{nu-1} - I_{nu+1}).  Requires x > 0.
    """
    tiny = 1e-300
    b = 2.0 * (nu + 1.0) / x
    f = np.maximum(b, tiny)
    c = f.copy()
    d = np.zeros_like(x)
    for j in range(1, 1_000_000):
        b = 2.0 * (nu + 1.0 + j) / x
        d = 1.0 / (b + d)
        c = b + 1.0 / c
        delta = c * d
        f = f * delta
        if np.all(np.abs(delta - 1.0) < 1e-15):
            return 1.0 / f
    raise RuntimeError("Bessel ratio continued fraction failed to converge")


def _ihalf_e(x: np.ndarray) -> np.ndarray:
    # e^{-x} sqrt(2/(pi x)) sinh x = -expm1(-2x) / sqrt(2 pi x)
    return -np.expm1(-2.0 * x) / np.sqrt(2.0 * np.pi * x)


def _imhalf_e(x: np.ndarray) -> np.ndarray:
    # e^{-x} sqrt(2/(pi x)) cosh x = (1 + e^{-2x}) / sqrt(2 pi x)
    return (1.0 + np.exp(-2.0 * x)) / np.sqrt(2.0 * np.pi * x)


def _ie_positive(nu: float, x: np.ndarray) -> np.ndarray:
    """Scaled e^{-x} I_nu(x) for strictly positive x."""
    if nu in (0.0, 1.0):
        out = np.empty_like(x)
        lo = x < _CROSSOVER
        if lo.any():
            out[lo] = _series_ie(nu, x[lo])
        if (~lo).any():
            out[~lo] = _asym_ie(nu, x[~lo])
        return out
    if nu == 0.5:
        return _ihalf_e(x)
    if nu == -0.5:
        return _imhalf_e(x)

    # Higher orders: asymptotic directly where it is safely convergent,
    # otherwise chain continued-fraction ratios up from the base order.
    out = np.empty_like(x)
    direct = (x >= _CROSSOVER) & (4.0 * nu * nu <= x)
    if direct.any():
        out[direct] = _asym_ie(nu, x[direct])
    rest = ~direct
    if rest.any():
        xr = x[rest]
        base = 1.0 if nu == round(nu) else 0.5
        val = _ie_positive(base, xr)
        k = base
        while k < nu:
            val = val * _ratio_cf(k, xr)
            k += 1.0
        out[rest] = val
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
    for score formulas whose argument grows like 1/sigma^2.  `nu` may be a
    float or a BesselOrder; x may be a scalar or array (x > 0 when nu < 0).
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
    """The ratio I_0(x)/I_1(x), finite for all x > 0 and decreasing toward 1."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr <= 0.0):
        raise ValueError("bessel_ratio_i0_i1 requires x > 0")
    out = _ie_positive(0.0, arr) / _ie_positive(1.0, arr)
    return _match_shape(out, x)
