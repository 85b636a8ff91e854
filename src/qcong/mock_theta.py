"""Truncated expansions of the mock theta functions omega(q), B(q), and the
third-order f(q), and of the two-color counting series C and C_k built
from them.

Each Eulerian sum is one call to `series.eulerian_sum`: its terms' ratio is a
product of binomials (1 +- q^j)^(+-1), so each term costs O(N). B and omega
also have bilateral (Appell-Lerch) forms, f4/f2^2 and 1/f2 times
`appell_sum` (eq 2-3; Watson 1936), an O(N log N) kernel that `qexpr` reads
as `appell[a]` and the mod-2^w `series_c` through eq 2-2 (`c_appell`). In
the exact ring `series_c`, and `series_ck` in every ring, sum the definition
(`_c_sum`), so that eq 2-2 is checked, not assumed.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

import numpy as np

from .series import (
    EXACT,
    CoefficientRing,
    Series,
    _reduce,
    _terms,
    eulerian_sum,
    invert,
    monomial,
    mul,
    mul_sparse,
    power,
    substitute_power,
)
from .products import pentagonal_series


def omega_series(order: int, ring: CoefficientRing = EXACT) -> Series:
    """omega(q) = sum over n >= 0 of q^(2n(n+1)) / (q; q^2)_(n+1)^2."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return eulerian_sum(monomial(ring, order, 0),
                        ((2 * n * (n + 1), [], [(-1, 2 * n + 1)] * 2) for n in range(order)))


def b_eulerian(order: int, ring: CoefficientRing = EXACT) -> Series:
    """B(q) = sum over n >= 0 of (-q^2; q^2)_n * q^(n(n+1)) / (q; q^2)_(n+1)^2."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return eulerian_sum(monomial(ring, order, 0),
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
    q^(2n+1) * (-q^(2n+2); q^2)_inf / (q^(2n+1); q^2)_inf^2, built by the
    route `c_builder` names for the ring."""
    if c_builder(ring) == "sum":
        return _c_sum(order, ring, None)
    return c_appell(order, ring)


def c_builder(ring: CoefficientRing) -> str:
    """The route `series_c` takes in `ring`: eq 2-2 mod 2^w; the sum of the
    definition in the exact ring, where it is the reference that claim eq-2-2
    is checked against (built by eq 2-2, C would check itself). Exact eq 2-2
    is about as fast: 16/70/272 ms against 24/78/232 ms at order 800/1600/2800."""
    return "sum" if ring.modulus is None else "eq-2-2-appell"


def series_ck(k: int, order: int, ring: CoefficientRing = EXACT) -> Series:
    """Generating series of the counts c(k, n): sum over n >= 0 of
    q^(2n+1) * (-q^(2n+2k), -q^(2n+2); q^2)_inf / (q^(2n+1); q^2)_inf^2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _c_sum(order, ring, k)


def _c_sum(order: int, ring: CoefficientRing, k: Optional[int]) -> Series:
    """C (k None) or C_k as the sum of its definition: term n is
    q^(2n+1) * u_n, and (-q^2; q^2)_inf = f4/f2 and (q; q^2)_inf = f1/f2 give
    u_0 = f2*f4/f1^2 for C and f4^2/f1^2/(-q^2; q^2)_(k-1) for C_k, from the
    sparse pentagonal f1, f2, f4. Exact, u_0 divides by f1 twice term by term
    (`mul_sparse`), which beats Newton's Kronecker products; mod 2^w it takes
    Newton's invert(f1)^2, which beats the divides' Python-int recurrence."""
    if order < 1:
        raise ValueError("order must be >= 1")
    f1, f4 = (pentagonal_series(m, order, ring) for m in (1, 4))
    u = mul_sparse(pentagonal_series(2 if k is None else 4, order, ring), _terms(f4._c))
    if ring.modulus is None:
        u = mul_sparse(mul_sparse(u, _terms(f1._c), "divide"), _terms(f1._c), "divide")
    else:
        u = mul(u, power(invert(f1), 2))
    first = (1, [], [] if k is None else [(1, j) for j in range(2, min(2 * k, order), 2)])
    # u_(n+1) = u_n * (1 - q^j)^2 / (1 + q^(j+1)) [/ (1 + q^(j+2k-1))], j = 2n+1
    rest = ((j + 2, [(-1, j)] * 2, [(1, j + 1)] + ([] if k is None else [(1, j + 2 * k - 1)]))
            for j in range(1, order, 2))
    return eulerian_sum(u, chain([first], rest))


def f3_series(order: int, ring: CoefficientRing = EXACT) -> Series:
    """Third-order f(q) = sum over n >= 0 of q^(n^2) / (-q; q)_n^2."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return eulerian_sum(monomial(ring, order, 0),
                        ((n * n, [], [(1, n)] * 2 if n else []) for n in range(order)))
