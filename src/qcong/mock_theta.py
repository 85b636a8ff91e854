"""Truncated expansions of the mock theta functions omega(q), B(q), and the
third-order f(q).

Each Eulerian sum is one call to `series.eulerian_sum`: its terms' ratio is a
product of binomials (1 +- q^j)^(+-1), so each term costs O(N). B and omega
also have bilateral (Appell-Lerch) forms, f4/f2^2 and 1/f2 times
`appell_sum` (eq 2-3; Watson 1936), an O(N log N) kernel that the mod-2^w
`series_c` also reads through eq 2-2. The two forms of each must agree.
"""

from __future__ import annotations

import numpy as np

from .series import (
    EXACT,
    CoefficientRing,
    Series,
    _mask_arr,
    eulerian_sum,
    invert,
    mul,
    one_series,
    shift,
    substitute_power,
)
from .products import pentagonal_series


def omega_series(order: int, ring: CoefficientRing = EXACT) -> Series:
    """omega(q) = sum over n >= 0 of q^(2n(n+1)) / (q; q^2)_(n+1)^2."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return eulerian_sum(one_series(ring, order),
                        ((2 * n * (n + 1), [], [(-1, 2 * n + 1)] * 2) for n in range(order)))


def b_eulerian(order: int, ring: CoefficientRing = EXACT) -> Series:
    """B(q) = sum over n >= 0 of (-q^2; q^2)_n * q^(n(n+1)) / (q; q^2)_(n+1)^2."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return eulerian_sum(one_series(ring, order),
                        ((n * (n + 1), [(1, 2 * n)] if n else [], [(-1, 2 * n + 1)] * 2)
                         for n in range(order)))


def appell_sum(quadratic: int, order: int, ring: CoefficientRing = EXACT) -> Series:
    """Sum over n >= 0 of (-1)^n q^(quadratic*n(n+1)) (1+q^a)/(1-q^a), a = 2n+1:
    the bilateral sum over all n of (-1)^n q^(quadratic*n(n+1)) / (1-q^a)
    with index -n-1 folded onto n. Term n is 1 + 2*(q^a + q^2a + ...) times
    its monomial, one strided add of order/a terms: O(order log order)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if quadratic < 1:
        raise ValueError("quadratic must be >= 1")
    out = np.zeros(order, dtype=ring.dtype)
    n = 0
    with np.errstate(over="ignore"):  # uint64 wraparound is the point here
        while quadratic * n * (n + 1) < order:
            start, a, sign = quadratic * n * (n + 1), 2 * n + 1, (-1) ** n
            out[start] += ring.scalar(sign)
            out[start + a::a] += ring.scalar(2 * sign)
            n += 1
    return Series._wrap(ring, _mask_arr(out, ring))


def b_appell(order: int, ring: CoefficientRing = EXACT) -> Series:
    """B(q) through its bilateral form (eq 2-3): f4/f2^2 * appell_sum(2)."""
    total = appell_sum(2, order, ring)
    inv_f2 = invert(pentagonal_series(2, order, ring))
    return mul(mul(pentagonal_series(4, order, ring), mul(inv_f2, inv_f2)), total)


def omega_appell(order: int, ring: CoefficientRing = EXACT) -> Series:
    """omega(q) through its bilateral form (Watson 1936): 1/f2 * appell_sum(3)."""
    total = appell_sum(3, order, ring)
    return mul(invert(pentagonal_series(2, order, ring)), total)


def c_appell(order: int, ring: CoefficientRing = EXACT) -> Series:
    """The series C of c(n) through eq 2-2, C = 2q*f2*f4/f1^2*B(-q) - q*omega(-q).
    With the bilateral forms of B and omega, and f2, f4 even in q, that is
    q/f2 * (2*f4^2/f1^2 * appell_sum(2)(-q) - appell_sum(3)(-q)): one
    `invert`, three FFT products mod 2^w, and 1/f2 read as 1/f1 at q^2."""
    if order < 1:
        raise ValueError("order must be >= 1")
    inv_f1 = invert(pentagonal_series(1, order, ring))
    f4 = pentagonal_series(4, order, ring)
    b = mul(f4, mul(f4, mul(inv_f1, inv_f1)))
    b = mul(b, substitute_power(appell_sum(2, order, ring), 1, -1))
    inner = 2 * b - substitute_power(appell_sum(3, order, ring), 1, -1)
    return shift(mul(substitute_power(inv_f1, 2, 1, order), inner), 1)


def f3_series(order: int, ring: CoefficientRing = EXACT) -> Series:
    """Third-order f(q) = sum over n >= 0 of q^(n^2) / (-q; q)_n^2."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return eulerian_sum(one_series(ring, order),
                        ((n * n, [], [(1, n)] * 2 if n else []) for n in range(order)))
