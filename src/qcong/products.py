"""q-Pochhammer products, Euler functions f_m, and eta quotients.

The product builders (`pochhammer_inf`, `pochhammer_fin`, `euler_fm`,
`eta_quotient`) materialize truncated products by chaining sparse binomial
multiplies/divides, so every factor costs O(N) and no dense inversion is
needed; `euler_fm` is the product definition of f_m and the reference for
the pentagonal series. `pentagonal_series` writes f_m down directly from
Euler's pentagonal number theorem in O(N) time, and is what `f[m]` in
`qcong.qexpr` and the leading term of the `c` builder read.
"""

from __future__ import annotations

import numpy as np

from .series import (
    EXACT,
    CoefficientRing,
    Series,
    mul_sparse_binomial,
    one_series,
)


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")


def pochhammer_inf(sign: int, s: int, m: int, order: int,
                   ring: CoefficientRing = EXACT) -> Series:
    """(sign*q^s; q^m)_inf = prod over j >= 0 of (1 - sign*q^(s+jm))."""
    _check_sign(sign)
    if s < 1:
        raise ValueError("offset s must be >= 1 so the product is a unit")
    if m < 1:
        raise ValueError("step m must be >= 1")
    out = one_series(ring, order)
    for j in range(s, order, m):
        out = mul_sparse_binomial(out, -sign, j)
    return out


def pochhammer_fin(sign: int, s: int, m: int, n: int, order: int,
                   ring: CoefficientRing = EXACT) -> Series:
    """(sign*q^s; q^m)_n = prod over 0 <= j < n of (1 - sign*q^(s+jm))."""
    _check_sign(sign)
    if s < 1 or m < 1:
        raise ValueError("offsets and steps must be >= 1")
    if n < 0:
        raise ValueError("factor count n must be >= 0")
    out = one_series(ring, order)
    for j in range(n):
        e = s + j * m
        if e >= order:
            break
        out = mul_sparse_binomial(out, -sign, e)
    return out


def euler_fm(m: int, order: int, ring: CoefficientRing = EXACT) -> Series:
    """f_m = (q^m; q^m)_inf."""
    return pochhammer_inf(1, m, m, order, ring)


def eta_quotient(exponents: dict[int, int], order: int,
                 ring: CoefficientRing = EXACT) -> Series:
    """prod over m of f_m^(e_m); all multiplies happen before any divide."""
    out = one_series(ring, order)
    items = sorted(exponents.items())
    for m, e in items:
        if m < 1:
            raise ValueError(f"eta index must be >= 1, got {m}")
        if e > 0:
            out = _fm_apply(out, m, e, "multiply")
    for m, e in items:
        if e < 0:
            out = _fm_apply(out, m, -e, "divide")
    return out


def _fm_apply(a: Series, m: int, reps: int, direction: str) -> Series:
    for _ in range(reps):
        for j in range(m, a.order, m):
            a = mul_sparse_binomial(a, -1, j, direction)
    return a


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
