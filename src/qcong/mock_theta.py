"""Truncated expansions of the q-Pochhammer products and Euler functions f_m,
of the mock theta functions omega(q), B(q), and the third-order f(q), and of
the two-color counting series C and C_k built from them.

Each product and each Eulerian sum is one call to `series.eulerian_sum`: its
terms' ratio is a product of binomials (1 +- q^j)^(+-1), so each term costs
O(N), and no dense inversion is needed. Each builder streams its steps last
term first, as Horner's rule takes them, after the kernel allocates; the C and
C_k sums leave out the leading factor u_0 and multiply it in as Euler sums,
later sums of the same `eulerian_sum` call, in every ring.
`pentagonal_series` writes f_m down directly from Euler's pentagonal number
theorem in O(N) time, for `f[m]` in `qcong.qexpr` and for `c_appell`;
`euler_fm`, the product definition of f_m, is its reference. B and omega
also have bilateral (Appell-Lerch) forms, f4/f2^2 and 1/f2 times
`appell_sum` (eq 2-3; Watson 1936), an O(N log N) kernel that `qexpr` reads
as `appell[a]` and `c_appell` through eq 2-2. `series_c` takes that route
mod 2^w and sums the definition (`_c_sum`) exactly, as `series_ck` does in
every ring, so that eq 2-2 is checked, not assumed.
"""

from __future__ import annotations

from math import isqrt
from typing import Optional

import numpy as np

from .series import (
    EXACT,
    CoefficientRing,
    Series,
    _reduce,
    eulerian_sum,
    invert,
    mul,
    mul_sparse,
    substitute_power,
)


def pochhammer_inf(sign: int, s: int, m: int, order: int,
                   ring: CoefficientRing = EXACT) -> Series:
    """(sign*q^s; q^m)_inf = prod over j >= 0 of (1 - sign*q^(s+jm))."""
    return pochhammer_fin(sign, s, m, order, order, ring)


def pochhammer_fin(sign: int, s: int, m: int, n: int, order: int,
                   ring: CoefficientRing = EXACT) -> Series:
    """(sign*q^s; q^m)_n = prod over 0 <= j < n of (1 - sign*q^(s+jm))."""
    if sign not in (1, -1):
        raise ValueError("pochhammer sign must be 1 or -1")
    if s < 1 or m < 1:  # so the product is a unit
        raise ValueError("pochhammer needs s >= 1 and m >= 1")
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")

    def step():  # one step, listed only once eulerian_sum holds the order
        yield 0, [(-sign, e) for e in range(s, min(s + n * m, order), m)], []
    return eulerian_sum(ring, order, step())


def euler_fm(m: int, order: int, ring: CoefficientRing = EXACT) -> Series:
    """f_m = (q^m; q^m)_inf."""
    return pochhammer_inf(1, m, m, order, ring)


def pentagonal_series(m: int, order: int, ring: CoefficientRing = EXACT) -> Series:
    """f_m by Euler's pentagonal number theorem:
    sum over all integers j of (-1)^j * q^(m*j*(3j-1)/2).

    Only the O(sqrt(order)) nonzero terms are written, into zeroed storage of
    the ring's dtype; the exponents are distinct, so each is set once."""
    if m < 1:
        raise ValueError("f[m] needs m >= 1")
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


def _last_to_first(order: int) -> range:
    """isqrt(order), ..., 1, 0: the term indices, last to first, of an
    Eulerian sum whose term n sits at q^e with e >= n^2, so that every term
    below q^order is among them (`eulerian_sum` skips the rest)."""
    return range(isqrt(order), -1, -1)


def omega_series(order: int, ring: CoefficientRing = EXACT) -> Series:
    """omega(q) = sum over n >= 0 of q^(2n(n+1)) / (q; q^2)_(n+1)^2."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return eulerian_sum(ring, order, ((2 * n * (n + 1), [], [(-1, 2 * n + 1)] * 2)
                                      for n in _last_to_first(order)))


def b_eulerian(order: int, ring: CoefficientRing = EXACT) -> Series:
    """B(q) = sum over n >= 0 of (-q^2; q^2)_n * q^(n(n+1)) / (q; q^2)_(n+1)^2."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return eulerian_sum(ring, order,
                        ((n * (n + 1), [(1, 2 * n)] if n else [], [(-1, 2 * n + 1)] * 2)
                         for n in _last_to_first(order)))


def appell_sum(quadratic: int, order: int, ring: CoefficientRing = EXACT) -> Series:
    """Sum over n >= 0 of (-1)^n q^(quadratic*n(n+1)) (1+q^a)/(1-q^a), a = 2n+1:
    the bilateral sum over all n of (-1)^n q^(quadratic*n(n+1)) / (1-q^a)
    with index -n-1 folded onto n. Term n is 1 + 2*(q^a + q^2a + ...) times
    its monomial, one strided add of order/a terms: O(order log order)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if quadratic < 1:
        raise ValueError("appell[a] needs a >= 1")
    out = np.zeros(order, dtype=ring.dtype)
    n = 0
    with np.errstate(over="ignore"):  # uint64 wraparound is the point here
        while quadratic * n * (n + 1) < order:
            start, a, sign = quadratic * n * (n + 1), 2 * n + 1, (-1) ** n
            out[start] += ring.scalar(sign)
            out[start + a::a] += ring.scalar(2 * sign)
            n += 1
    return Series._wrap(ring, _reduce(out, ring.modulus))


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
    return mul_sparse(mul(substitute_power(inv_f1, 2, 1, order), inner), {1: 1})


def series_c(order: int, ring: CoefficientRing = EXACT) -> Series:
    """Generating series of the counts c(n): sum over n >= 0 of
    q^(2n+1) * (-q^(2n+2); q^2)_inf / (q^(2n+1); q^2)_inf^2. Mod 2^w through
    eq 2-2 (`c_appell`); exactly the sum of the definition (`_c_sum`), so that
    claim eq-2-2 does not check itself; exact at 2800 the two take 27 and 36 ms."""
    return _c_sum(order, ring, None) if ring.modulus is None else c_appell(order, ring)


def series_ck(k: int, order: int, ring: CoefficientRing = EXACT) -> Series:
    """Generating series of the counts c(k, n): sum over n >= 0 of
    q^(2n+1) * (-q^(2n+2k), -q^(2n+2); q^2)_inf / (q^(2n+1); q^2)_inf^2."""
    if k < 1:
        raise ValueError("Ck[k] needs k >= 1")
    return _c_sum(order, ring, k)


def _c_sum(order: int, ring: CoefficientRing, k: Optional[int]) -> Series:
    """C (k None) or C_k as the sum of its definition. Term n is
    q^(2n+1) * u_n, and (-q^2; q^2)_inf = f4/f2 and (q; q^2)_inf = f1/f2 give
    u_0 = f2*f4/f1^2 for C and f4^2/f1^2/(-q^2; q^2)_(k-1) for C_k. It is one
    `eulerian_sum` call. Its first sum takes the ~N/2 terms last to first over
    u_0 = 1, each adding 1, not a window (C_k's 1/(-q^2; q^2)_(k-1) is its
    last step). The rest of u_0 is (-q; q)_inf^2 (-q^2; q^2)_inf, its last
    factor squared for C_k, and each factor is a later sum of the call by
    Euler's identity (-q; q)_inf = sum of q^(n(n+1)/2) / (q; q)_n (Andrews
    1976, 2.2), in O(N^1.5). So exact C stays in one limb array: to 2800 it
    takes 27 ms, against 30 ms as four calls and 57 ms with a sum that left
    int64 and two divides by f1; mod 2^8, C_k's four factors take 185 ms at
    10^5, against 49 ms for Newton's invert(f1) and two FFT products."""
    if order < 1:
        raise ValueError("order must be >= 1")

    def steps():
        # u_(n+1) = u_n * (1 - q^j)^2 / (1 + q^(j+1)) [/ (1 + q^(j+2k-1))], j = 2n+1,
        # and term n+1 sits at q^(j+2), below the order for j < order - 2
        for j in reversed(range(1, order - 2, 2)):
            yield j + 2, [(-1, j)] * 2, [(1, j + 1)] + ([] if k is None else [(1, j + 2 * k - 1)])
        yield 1, [], [] if k is None else [(1, j) for j in range(2, min(2 * k, order), 2)]

    def euler(m):  # u_0's factor (-q^m; q^m)_inf, a call each so that each binds its own m
        return ((m * n * (n + 1) // 2, [], [(-1, m * n)] if n else [])
                for n in range(isqrt(2 * order), -1, -1))
    return eulerian_sum(ring, order, steps(), *map(euler, (1, 1, 2, 2)[:3 if k is None else 4]))


def f3_series(order: int, ring: CoefficientRing = EXACT) -> Series:
    """Third-order f(q) = sum over n >= 0 of q^(n^2) / (-q; q)_n^2."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return eulerian_sum(ring, order,
                        ((n * n, [], [(1, n)] * 2 if n else []) for n in _last_to_first(order)))
