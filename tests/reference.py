"""Independent references for the series kernels, in plain lists of ints.

A `modulus` is 2^w, or None for the exact integers. This module imports no
qcong module and not numpy, so a reference shares no code with the kernels
it judges.
"""


def schoolbook_mul(a: list, b: list, n: int) -> list:
    """The first n coefficients of a*b: a double loop over all index pairs."""
    out = [0] * n
    for i in range(min(len(a), n)):
        for j in range(min(len(b), n - i)):
            out[i + j] += a[i] * b[j]
    return out


def recurrence_divide(xs: list, ys: list, modulus: int | None = None) -> list:
    """xs / ys one coefficient at a time, each reduced mod `modulus`:
    b[k] = (xs[k] - (ys[1]*b[k-1] + ... + ys[k]*b[0])) / ys[0]. ys[0] must
    be a unit (+-1 when exact)."""
    if not xs:
        return []
    inv0 = ys[0] if modulus is None else pow(ys[0], -1, modulus)
    terms = [(i, y) for i, y in enumerate(ys) if i and y]  # the zero ys[i] add nothing
    b = []
    for k, x in enumerate(xs):
        s = (x - sum(y * b[k - i] for i, y in terms if i <= k)) * inv0
        b.append(s if modulus is None else s % modulus)
    return b


def inverse(ys: list, modulus: int | None = None) -> list:
    """1 / ys to as many terms as ys has."""
    return recurrence_divide(([1] + [0] * len(ys))[:len(ys)], ys, modulus)


def sparse_list(terms: dict, n: int) -> list:
    """The sum of c*q^e over `terms` {e: c} as a list of n coefficients;
    {0: 1, j: c} is the binomial 1 + c*q^j."""
    coeffs = [0] * n
    for e, c in terms.items():
        if e < n:
            coeffs[e] = c
    return coeffs


def partition_table(n_max: int, distinct: bool = False) -> list:
    """The number of partitions of 0..n_max, into distinct parts when
    `distinct`, by the standard dynamic program over the parts."""
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(n_max, part - 1, -1) if distinct else range(part, n_max + 1):
            table[n] += table[n - part]
    return table
