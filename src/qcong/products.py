"""q-Pochhammer products and Euler functions f_m.

The product builders (`pochhammer_inf`, `pochhammer_fin`, `euler_fm`) are
one step of `series.eulerian_sum` each: every binomial factor is an O(N)
multiply or divide, so no dense inversion is needed;
`euler_fm` is the product definition of f_m and the reference for the
pentagonal series. `pentagonal_series` writes f_m down directly from
Euler's pentagonal number theorem in O(N) time, and is what `f[m]` in
`qcong.qexpr` and the leading term of the `c` builder read.
"""

from __future__ import annotations

import numpy as np

from .series import (
    EXACT,
    CoefficientRing,
    Series,
    eulerian_sum,
    monomial,
)


def pochhammer_inf(sign: int, s: int, m: int, order: int,
                   ring: CoefficientRing = EXACT) -> Series:
    """(sign*q^s; q^m)_inf = prod over j >= 0 of (1 - sign*q^(s+jm))."""
    return pochhammer_fin(sign, s, m, order, order, ring)


def pochhammer_fin(sign: int, s: int, m: int, n: int, order: int,
                   ring: CoefficientRing = EXACT) -> Series:
    """(sign*q^s; q^m)_n = prod over 0 <= j < n of (1 - sign*q^(s+jm))."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if s < 1 or m < 1:
        raise ValueError("offset s and step m must be >= 1, so the product is a unit")
    if n < 0:
        raise ValueError("factor count n must be >= 0")
    up = [(-sign, e) for e in range(s, min(s + n * m, order), m)]
    return eulerian_sum(monomial(ring, order, 0), [(0, up, [])])


def euler_fm(m: int, order: int, ring: CoefficientRing = EXACT) -> Series:
    """f_m = (q^m; q^m)_inf."""
    return pochhammer_inf(1, m, m, order, ring)


def pentagonal_series(m: int, order: int, ring: CoefficientRing = EXACT) -> Series:
    """f_m by Euler's pentagonal number theorem:
    sum over all integers j of (-1)^j * q^(m*j*(3j-1)/2).

    Only the O(sqrt(order)) nonzero terms are written, into zeroed storage of
    the ring's dtype; the exponents are distinct, so each is set once."""
    if m < 1:
        raise ValueError("m must be >= 1")
    coeffs = np.zeros(order, dtype=ring.dtype)
    plus, minus = ring.normalize(1), ring.normalize(-1)
    j = 0
    while m * j * (3 * j - 1) // 2 < order:
        for jj in (j, -j) if j else (0,):
            e = m * jj * (3 * jj - 1) // 2
            if e < order:
                coeffs[e] = minus if j % 2 else plus
        j += 1
    return Series._wrap(ring, coeffs)
