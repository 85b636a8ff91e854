"""Truncated Eulerian expansions of the mock theta functions omega(q), B(q),
and the third-order f(q).

Every sum is materialized through a term recurrence whose ratio is a product
of sparse binomials, so each additional term costs O(N). B(q) also gets an
independent bilateral (Appell-style) construction; the two must agree.
"""

from __future__ import annotations

from .series import (
    EXACT,
    CoefficientRing,
    Series,
    add,
    mul,
    mul_sparse_binomial,
    one_series,
    shift,
    zero_series,
)
from .products import eta_quotient


def omega_series(order: int, ring: CoefficientRing = EXACT) -> Series:
    """omega(q) = sum over n >= 0 of q^(2n(n+1)) / (q; q^2)_(n+1)^2."""
    if order < 1:
        raise ValueError("order must be >= 1")
    # n-th term = q^(2n(n+1)) * (unit series), so terms with 2n(n+1) >= order
    # contribute nothing below the truncation window and are skipped.
    term = one_series(ring, order)
    term = mul_sparse_binomial(term, -1, 1, "divide")
    term = mul_sparse_binomial(term, -1, 1, "divide")  # 1/(1-q)^2
    total = zero_series(ring, order)
    n = 0
    while 2 * n * (n + 1) < order:
        total = add(total, term)
        term = shift(term, 4 * n + 4)
        term = mul_sparse_binomial(term, -1, 2 * n + 3, "divide")
        term = mul_sparse_binomial(term, -1, 2 * n + 3, "divide")
        n += 1
    return total


def b_eulerian(order: int, ring: CoefficientRing = EXACT) -> Series:
    """B(q) = sum over n >= 0 of (-q^2; q^2)_n * q^(n(n+1)) / (q; q^2)_(n+1)^2."""
    if order < 1:
        raise ValueError("order must be >= 1")
    # n-th term = q^(n(n+1)) * (unit series): stop once n(n+1) >= order.
    term = one_series(ring, order)
    term = mul_sparse_binomial(term, -1, 1, "divide")
    term = mul_sparse_binomial(term, -1, 1, "divide")
    total = zero_series(ring, order)
    n = 0
    while n * (n + 1) < order:
        total = add(total, term)
        term = shift(term, 2 * n + 2)
        term = mul_sparse_binomial(term, 1, 2 * n + 2)
        term = mul_sparse_binomial(term, -1, 2 * n + 3, "divide")
        term = mul_sparse_binomial(term, -1, 2 * n + 3, "divide")
        n += 1
    return total


def b_appell(order: int, ring: CoefficientRing = EXACT) -> Series:
    """B(q) through its bilateral form: the product (-q^2;q^2)_inf/(q^2;q^2)_inf
    times the sum over all integers n of (-1)^n q^(2n(n+1)) / (1 - q^(2n+1))."""
    if order < 1:
        raise ValueError("order must be >= 1")
    # Negative indices n = -m-1 fold onto m >= 0 via
    #   1/(1 - q^-(2m+1)) = -q^(2m+1)/(1 - q^(2m+1)),
    # pairing with index m into (-1)^m q^(2m(m+1)) (1+q^(2m+1))/(1-q^(2m+1)).
    # The m-th folded term starts at exponent 2m(m+1), so the loop may stop
    # once that exceeds the window.
    total = zero_series(ring, order)
    m = 0
    while 2 * m * (m + 1) < order:
        term = one_series(ring, order)
        term = mul_sparse_binomial(term, 1, 2 * m + 1)
        term = mul_sparse_binomial(term, -1, 2 * m + 1, "divide")
        term = shift(term, 2 * m * (m + 1))
        total = add(total, term if m % 2 == 0 else -term)
        m += 1
    # (-q^2; q^2)_inf = f4/f2, so the prefactor is f4/f2^2
    return mul(eta_quotient({4: 1, 2: -2}, order, ring), total)


def f3_series(order: int, ring: CoefficientRing = EXACT) -> Series:
    """Third-order f(q) = sum over n >= 0 of q^(n^2) / (-q; q)_n^2."""
    if order < 1:
        raise ValueError("order must be >= 1")
    # n-th term = q^(n^2) * (unit series): stop once n^2 >= order.
    term = one_series(ring, order)
    total = zero_series(ring, order)
    n = 0
    while n * n < order:
        total = add(total, term)
        term = shift(term, 2 * n + 1)
        term = mul_sparse_binomial(term, 1, n + 1, "divide")
        term = mul_sparse_binomial(term, 1, n + 1, "divide")
        n += 1
    return total


MOCK_THETA = {
    "omega": omega_series,
    "B": b_eulerian,
    "f3": f3_series,
}
