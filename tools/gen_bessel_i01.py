"""Generate the Chebyshev tables behind manifold_dsm.bessel's orders 0 and 1.

    python tools/gen_bessel_i01.py

prints the four coefficient tables exactly as they appear in
src/manifold_dsm/bessel.py; tests/test_bessel.py checks that they still do.

Each table is the Chebyshev series sum' c_k T_k(t) (first term halved, as in
Cephes `chbevl`) of one function on one piece, listed highest degree first:

* x in [0, 8], t = x/4 - 1:    (1 + x) e^{-x} I_0(x)  and  (1 + x) e^{-x} I_1(x) / x;
* x in [8, inf), t = 16/x - 1:  sqrt(x) e^{-x} I_0(x)  and  sqrt(x) e^{-x} I_1(x).

The factor 1 + x flattens the small-x functions, which fall 7- and 30-fold
over [0, 8] without it; a flat series loses less to rounding.  The
coefficients come from the discrete cosine transform of the function at
NODES Chebyshev nodes, evaluated with mpmath at DIGITS significant digits.
Both series of a piece are cut at one length, the shortest at which each
one's dropped coefficients add up to less than 2^-56 of its smallest value
on the piece, so the two orders can be summed in one pass.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 50
NODES = 64
PER_LINE = 3

PIECES = {
    "SMALL": (
        lambda t: 4 * (t + 1),
        lambda x: (1 + x) * mp.exp(-x) * mp.besseli(0, x),
        lambda x: (1 + x) * mp.exp(-x) * mp.besseli(1, x) / x,
    ),
    "LARGE": (
        lambda t: 16 / (t + 1),
        lambda x: mp.sqrt(x) * mp.exp(-x) * mp.besseli(0, x),
        lambda x: mp.sqrt(x) * mp.exp(-x) * mp.besseli(1, x),
    ),
}


def chebyshev(x_of_t, f):
    """All NODES coefficients of f(x_of_t(t)) on t in [-1, 1], lowest degree
    first, and the number of them needed."""
    theta = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
    values = [f(x_of_t(mp.cos(th))) for th in theta]
    coef = [
        2 * mp.fsum(v * mp.cos(k * th) for v, th in zip(values, theta)) / NODES
        for k in range(NODES)
    ]
    cut = mp.mpf(2) ** -56 * min(abs(v) for v in values)
    keep = NODES
    while keep > 1 and mp.fsum(abs(c) for c in coef[keep - 1:]) < cut:
        keep -= 1
    return coef, keep


def tables() -> dict[str, tuple[float, ...]]:
    out = {}
    with mp.workdps(DIGITS):
        for piece, (x_of_t, *fs) in PIECES.items():
            series = [chebyshev(x_of_t, f) for f in fs]
            keep = max(k for _, k in series)
            for nu, (coef, _) in enumerate(series):
                out[f"_I{nu}_{piece}"] = tuple(float(c) for c in reversed(coef[:keep]))
    return out


def render(coefs: dict[str, tuple[float, ...]]) -> str:
    """The tables as Python source, one tuple per table."""
    out = []
    for name, coef in coefs.items():
        out.append(f"{name} = (")
        for i in range(0, len(coef), PER_LINE):
            out.append("    " + " ".join(f"{c!r}," for c in coef[i:i + PER_LINE]))
        out.append(")")
    return "\n".join(out) + "\n"


if __name__ == "__main__":
    print(render(tables()), end="")
