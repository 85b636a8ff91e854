"""Truncated formal power series in q over exact integers or integers mod 2^w.

A coefficient ring is its modulus: 2^w (1 <= w <= 64), or None for the exact
integers. Its rules are arithmetic on the modulus: a unit is coprime to it, a
residue mod m is resolved when m divides it, and a change of ring must go to
a divisor of it. A Series holds the coefficients of q^0 .. q^(order-1) and is
immutable, in one read-only numpy array of the ring's `dtype`: Python ints in
an object array for the exact ring, uint64 mod 2^w, whose arithmetic wraps
mod 2^64. Every operation has one body for both rings and reduces its result
through one hook, `_reduce(arr, modulus)`: nothing when exact or mod 2^64, a
mask mod a smaller 2^w, a % on Python ints. The rings part ways only where
storage or algorithm does: the dtype, `_reduce`, and the dense product route.

`mul` goes term by term through `mul_sparse` when the sparser operand has
few nonzero coefficients (f[m] and its low powers). Otherwise a product is
np.convolve at small orders (exact ones only when every sum fits an int64),
else one big-integer multiply (Kronecker substitution) when exact, and mod
2^w a float FFT on as few balanced limbs as the order and width allow (4 of
16 bits mod 2^64 below order 8192, one of 8 bits mod 2^8). So a check mod M
builds its series in `narrowest_ring([M, ...])`: mod 2^8, or mod M if wider.
`invert` runs the coefficient recurrence in Python ints for the first few
terms, then Newton's iteration, which doubles them with two products a step.
Both work on series in q^d, such as f[m] = f1(q^m), at 1/d of the order.
`eulerian_sum` is the one kernel behind every Eulerian sum and every
Pochhammer or eta product: it sums q^e * u while it steps u by binomial
factors (1 +- q^j)^(+-1), each an O(N) pass. All of it is exact arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

import numpy as np

class RingMismatchError(ValueError):
    """Operands belong to different coefficient rings."""


class NonUnitError(ValueError):
    """Constant term is not invertible in the coefficient ring."""


class OrderError(ValueError):
    """Requested index or comparison order exceeds the known truncation order."""


@dataclass(frozen=True)
class CoefficientRing:
    """The integers mod `modulus`: 2^w for 1 <= w <= 64, or None for the
    exact integers. Every ring rule is arithmetic on the modulus."""

    modulus: int | None

    def __post_init__(self) -> None:
        m = self.modulus
        if m is not None and not (isinstance(m, int) and 2 <= m <= 1 << 64 and not m & (m - 1)):
            raise ValueError(f"ring modulus must be None or 2^w with 1 <= w <= 64, got {m!r}")

    @property
    def width(self) -> int | None:
        return None if self.modulus is None else self.modulus.bit_length() - 1

    def normalize(self, x: int) -> int:
        """x in the ring: an integer (a Python, numpy or bool one), never a
        float or a string, so no coefficient is silently truncated."""
        x = operator.index(x)
        return x if self.modulus is None else x % self.modulus

    def unit_inverse(self, x: int) -> int:
        x = self.normalize(x)
        # gcd(x, 0) = |x|: the exact ring's units are +-1
        if gcd(x, self.modulus or 0) != 1:
            where = "in the exact ring" if self.modulus is None else f"mod 2^{self.width}"
            raise NonUnitError(f"constant term {x} is not a unit {where}")
        return x if self.modulus is None else pow(x, -1, self.modulus)

    @property
    def dtype(self) -> np.dtype:
        """The storage of a coefficient: a Python int or a uint64."""
        return np.dtype(object) if self.modulus is None else np.dtype(np.uint64)

    def scalar(self, c: int):
        """c as an element of the storage."""
        return self.dtype.type(self.normalize(c))

    def resolves(self, modulus: int) -> bool:
        """Whether coefficients in this ring fix their residues mod
        `modulus` >= 2: those that divide the ring's modulus, and every
        one in the exact ring."""
        return self.modulus is None or (modulus > 1 and self.modulus % modulus == 0)

    def __str__(self) -> str:
        return "exact" if self.modulus is None else f"mod2pow:{self.width}"


EXACT = CoefficientRing(None)


def mod2pow(width: int) -> CoefficientRing:
    return CoefficientRing(1 << width)


MOD64 = mod2pow(64)

# narrowest_ring never goes below 2^8, so a witness's value keeps eight bits of
# c(n) beside its residue; a narrower ring would cost the same (one FFT limb,
# one uint64 a coefficient, one mask).
_NARROW_MIN_WIDTH = 8


def narrowest_ring(moduli) -> CoefficientRing:
    """The ring in which to check congruences mod every one of `moduli`:
    mod 2^max(8, w) when each is a power of two and 2^w, the largest, is at
    most 2^64; else the exact ring."""
    if not all(1 < m <= 1 << 64 and not m & (m - 1) for m in moduli):
        return EXACT
    return mod2pow(max(_NARROW_MIN_WIDTH, max(moduli, default=1).bit_length() - 1))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class Series:
    """Immutable truncated power series: coefficients of q^0 .. q^(order-1)."""

    __slots__ = ("ring", "order", "_c")

    def __init__(self, ring: CoefficientRing, coeffs) -> None:
        self.ring = ring
        if isinstance(coeffs, np.ndarray) and coeffs.dtype == np.uint64:
            arr = _reduce(coeffs.astype(ring.dtype), ring.modulus)
        else:
            arr = np.array([ring.normalize(x) for x in coeffs], dtype=ring.dtype)
        self._c = _freeze(arr)
        self.order = len(arr)

    @classmethod
    def _wrap(cls, ring: CoefficientRing, storage) -> "Series":
        # storage must already be canonical: Python ints, or uint64 reduced mod 2^w
        s = object.__new__(cls)
        object.__setattr__(s, "ring", ring)
        object.__setattr__(s, "_c", _freeze(np.ascontiguousarray(storage, dtype=ring.dtype)))
        object.__setattr__(s, "order", len(s._c))
        return s

    def __setattr__(self, name, value):
        if name in self.__slots__ and hasattr(self, "order"):
            raise AttributeError("Series is immutable")
        object.__setattr__(self, name, value)

    def coefficient(self, n: int) -> int:
        if not 0 <= n < self.order:
            raise OrderError(f"coefficient index {n} outside known range 0..{self.order - 1}")
        return int(self._c[n])

    __getitem__ = coefficient

    def coefficients(self) -> list[int]:
        return [int(x) for x in self._c]

    def truncate(self, n: int) -> "Series":
        if not 0 <= n <= self.order:
            raise OrderError(f"cannot truncate order-{self.order} series to {n}")
        return Series._wrap(self.ring, self._c[:n])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        if self.ring != other.ring or self.order != other.order:
            return False
        return bool(np.array_equal(self._c, other._c))

    def __hash__(self):
        return hash((self.ring, self.order, tuple(int(x) for x in self._c[:16])))

    def __repr__(self) -> str:
        head = ", ".join(str(int(x)) for x in self._c[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"Series({self.ring}, order={self.order}, [{head}{tail}])"

    # a sum or difference is truncated to the shorter order
    def __add__(self, other):
        ring, n = _check_rings(self, other), min(self.order, other.order)
        return Series._wrap(ring, _reduce(self._c[:n] + other._c[:n], ring.modulus))

    def __sub__(self, other):
        ring, n = _check_rings(self, other), min(self.order, other.order)
        return Series._wrap(ring, _reduce(self._c[:n] - other._c[:n], ring.modulus))

    def __neg__(self):
        return Series._wrap(self.ring, _reduce(-self._c, self.ring.modulus))

    def __mul__(self, other):
        if isinstance(other, int):
            ring = self.ring
            return Series._wrap(ring, _reduce(self._c * ring.scalar(other), ring.modulus))
        return mul(self, other)

    def __rmul__(self, other):
        return self * other if isinstance(other, int) else NotImplemented

    def __truediv__(self, other):
        if isinstance(other, Series):
            return mul(self, invert(other))
        return NotImplemented

    def __pow__(self, e: int):
        return power(self, e)


def monomial(ring: CoefficientRing, order: int, exponent: int, c: int = 1) -> Series:
    """c * q^exponent, truncated to the given order."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    arr = np.zeros(order, dtype=ring.dtype)
    if exponent < order:
        arr[exponent] = ring.scalar(c)
    return Series._wrap(ring, arr)


def _check_rings(a: Series, b: Series) -> CoefficientRing:
    if a.ring != b.ring:
        raise RingMismatchError(f"ring mismatch: {a.ring} vs {b.ring}")
    return a.ring


def _reduce(arr: np.ndarray, modulus: int | None) -> np.ndarray:
    """arr mod `modulus` (None: the exact ring, no reduction), the one hook
    through which every kernel reduces into its ring. Python ints take a %.
    uint64 arithmetic wraps mod 2^64 by itself, and a smaller power of two
    masks the rest."""
    if modulus is None:
        return arr
    if arr.dtype.hasobject:
        return arr % modulus
    return arr if modulus == 1 << 64 else arr & (modulus - 1)


def _terms(arr: np.ndarray) -> dict[int, int]:
    """The nonzero coefficients of arr as {exponent: coefficient}."""
    return {int(e): int(arr[e]) for e in np.flatnonzero(arr)}


def _stride(*arrs: np.ndarray) -> int:
    """The largest d such that every arr is a series in q^d; 0 for constants."""
    if any(len(x) > 1 and x[1] for x in arrs):
        return 1
    return int(np.gcd.reduce([np.gcd.reduce(np.flatnonzero(x[1:]) + 1) for x in arrs]))


def mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated to min(a.order, b.order).

    Operands that are both series in q^d (d > 1) multiply as a[::d] and
    b[::d] by this same rule. Otherwise the sparser operand goes through
    `mul_sparse` in O(order * terms) when it has at most order/16 terms (f[m]
    or a low power of it), or order/4 when the dense kernel would be
    `_kronecker_mul`. Below _FFT_MIN_ORDER a dense product is np.convolve,
    in int64 if exact and bits(max|x|) + bits(max|y|) + bitlen(order) <= 63
    (no sum then passes 2^63). Else it is `_kronecker_mul` or the FFT."""
    ring = _check_rings(a, b)
    n = min(a.order, b.order)
    d = _stride(a._c[:n], b._c[:n])
    if d > 1:
        x = Series._wrap(ring, a._c[:n:d])
        return substitute_power(mul(x, x if b is a else Series._wrap(ring, b._c[:n:d])),
                                d, 1, n)
    x, y = sorted((a._c[:n], b._c[:n]), key=np.count_nonzero)
    terms, exact = np.count_nonzero(x), ring.modulus is None
    kronecker = exact and terms * _SPARSE_RATIO > n and (
        n >= _FFT_MIN_ORDER
        or n.bit_length() + sum(int(abs(v).max()).bit_length() for v in (x, y)) > 63)
    if terms * (_SPARSE_RATIO_KRONECKER if kronecker else _SPARSE_RATIO) <= n:
        return mul_sparse(Series._wrap(ring, y), _terms(x))
    if kronecker:
        return Series._wrap(ring, _kronecker_mul(x, None if b is a else y))
    out = _fft_mul(x, None if b is a else y, ring.width) if n >= _FFT_MIN_ORDER else None
    if out is None:
        out = np.convolve(*(v.astype(np.int64) if exact else v for v in (x, y)))[:n]
    return Series._wrap(ring, _reduce(out, ring.modulus))


# Dense mod-2^w products at or above this order go through the float FFT;
# below it np.convolve is faster.
_FFT_MIN_ORDER = 800
# mul_sparse takes the sparser operand when its nonzero terms are at most
# order / ratio, priced against the dense kernel the product would take: 16
# against np.convolve and the FFT, 4 against Kronecker (see README).
_SPARSE_RATIO = 16
_SPARSE_RATIO_KRONECKER = 4
# invert runs the coefficient recurrence up to this order and Newton's
# iteration above it.
_NEWTON_MIN_ORDER = 64
# _fft_mul gives each coefficient the fewest balanced limbs whose largest
# possible group sum stays below this budget. Measured on worst-case operands at
# the last order of each limb count: the float FFT then rounds every group sum
# to within 1/16 of its integer, half of _FFT_TOLERANCE (see README).
_FFT_BUDGET = 2 ** 45
# largest tolerated distance of a limb-product sum from the nearest integer
_FFT_TOLERANCE = 0.125


def _fft_size(m: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= m: a length pocketfft transforms fast."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < m:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _fft_limbs(n: int, width: int) -> tuple[int, int]:
    """The fewest limbs L, and their bits b = ceil(width / L), for which the
    largest group sum of an order-n product, L * n * 4^(b-1), is below
    _FFT_BUDGET."""
    limbs = 1
    while limbs < width and limbs * n * 4 ** (-(-width // limbs) - 1) >= _FFT_BUDGET:
        limbs += 1
    return limbs, -(-width // limbs)


def _fft_mul(x: np.ndarray, y: np.ndarray | None, width: int) -> np.ndarray | None:
    """The first len(x) coefficients of x*y mod 2^width (x*x when y is None),
    or None when float rounding leaves an exact result in doubt.

    The first try takes the limbs of `_fft_limbs`. When the rounding guard
    fails, the product is tried again on limbs one bit narrower, down to
    1-bit limbs; None means every try failed.
    """
    for bits in range(_fft_limbs(len(x), width)[1], 0, -1):
        out = _fft_mul_bits(x, y, width, bits)
        if out is not None:
            return out
    return None


def _fft_mul_bits(x: np.ndarray, y: np.ndarray | None, width: int,
                  bits: int) -> np.ndarray | None:
    """_fft_mul on ceil(width / bits) limbs of the given bits, or None if the
    guard fails.

    Each coefficient is split into balanced digits d_i in [-2^(bits-1),
    2^(bits-1)) with sum of d_i << bits*i equal to it mod 2^64: adding
    K = sum of 2^(bits-1) << bits*i and cutting the sum into unsigned digits
    e_i gives d_i = e_i - 2^(bits-1) (Crandall and Fagin 1994). So x*y mod
    2^width is the sum over s of g_s << bits*s, where g_s sums the products
    of limb i of x with limb s-i of y: a signed integer of magnitude at most
    limbs * len(x) * 4^(bits-1), which the real FFT computes up to rounding.
    Groups with bits*s >= width vanish mod 2^width.
    """
    n, limbs = len(x), -(-width // bits)
    size = _fft_size(2 * n - 1)
    fft = np.fft  # numpy loads np.fft on first use, so only this branch pays
    mask, half = np.uint64((1 << bits) - 1), 1 << (bits - 1)
    offset = np.uint64(sum(half << (bits * i) for i in range(limbs)) % (1 << 64))

    def spectra(v: np.ndarray) -> np.ndarray:
        # one float digit at a time: all of them at once would take
        # limbs * n * 8 bytes more
        w, digit = v + offset, np.empty(n)
        ints = digit.view(np.int64)
        out = np.empty((limbs, size // 2 + 1), dtype=np.complex128)
        for row in out:
            np.bitwise_and(w, mask, out=ints.view(np.uint64))
            ints -= half
            np.copyto(digit, ints)  # in place: a ufunc would copy ints first
            fft.rfft(digit, size, out=row)
            w >>= np.uint64(bits)
        return out

    xs = spectra(x)
    ys = xs if y is None else spectra(y)
    out = np.zeros(n, dtype=np.uint64)
    acc = np.empty_like(xs[0]) if y is None else None
    for s in reversed(range(limbs)):
        # group s sums in limb s of y (in acc for a square) and takes limb s
        # of x as scratch: no lower group reads either
        acc, tmp = acc if y is None else ys[s], xs[s]
        np.multiply(xs[0], ys[s], out=acc)
        for i in range(s, 0, -1):  # term s reads limb s of x before tmp overwrites it
            acc += np.multiply(xs[i], ys[s - i], out=tmp)
        # the inverse transform lands in tmp and its rounding in acc, both spent
        g = fft.irfft(acc, size, out=tmp.view(np.float64)[:size])[:n]
        r = np.rint(g, out=acc.view(np.float64)[:n])
        if np.abs(np.subtract(g, r, out=g), out=g).max() > _FFT_TOLERANCE:
            return None
        digits = g.view(np.int64)  # r as integers, in the memory of g
        np.copyto(digits, r, casting="unsafe")
        digits = digits.view(np.uint64)
        digits <<= np.uint64(bits * s)
        out += digits
    return out


def _kronecker_mul(x: np.ndarray, y: np.ndarray | None) -> np.ndarray:
    """The first len(x) coefficients of x*y over the integers (x*x when y is
    None) by one big-integer multiply (Kronecker substitution, Harvey 2009).
    A product coefficient sums at most n terms, so it lies inside (-2^(B-1),
    2^(B-1)) for slots of B >= bitlen(max|x|) + bitlen(max|y|) + bitlen(n) + 1
    bits; raised by 2^(B-1), each slot is in (0, 2^B) and borrows from no other.
    An operand packs the same way, its raised slots less the raise of all n.
    The cut to n slots is an &: a % would be a long division."""
    n = len(x)
    bits = sum(int(abs(v).max()).bit_length() for v in (x, x if y is None else y))
    size = (bits + n.bit_length() + 8) // 8  # B / 8, rounded up
    half = 1 << (8 * size - 1)
    offset = int.from_bytes(half.to_bytes(size, "little") * n, "little")

    def pack(v: np.ndarray) -> int:
        return int.from_bytes(b"".join((c + half).to_bytes(size, "little") for c in v),
                              "little") - offset

    px = pack(x)
    prod = px * (px if y is None else pack(y))  # px * px squares
    buf = ((prod + offset) & ((1 << (8 * size * n)) - 1)).to_bytes(size * n, "little")
    return np.array([int.from_bytes(buf[i:i + size], "little") - half
                     for i in range(0, size * n, size)], dtype=object)


def invert(a: Series) -> Series:
    """Multiplicative inverse, valid to a.order; constant term must be a unit.

    A series in q^d (d > 1) inverts as a[::d]. Else the recurrence over the
    nonzero terms of a (`mul_sparse` dividing one by a) gives the first
    _NEWTON_MIN_ORDER terms, then Newton's iteration (Brent and Kung 1978)
    takes over, each step two `mul` calls that double the terms.
    """
    if a.order == 0:
        return a
    d = _stride(a._c)
    if d > 1:
        return substitute_power(invert(Series._wrap(a.ring, a._c[::d])), d, 1, a.order)
    ring = a.ring
    sizes = [a.order]
    while sizes[-1] > _NEWTON_MIN_ORDER:
        sizes.append((sizes[-1] + 1) // 2)
    # the recurrence b[k] = -(a[1]*b[k-1] + ... + a[k]*b[0]) / a[0] gives the
    # first terms; then each step of Newton's iteration doubles them: if b
    # inverts a to k terms, a*b - 1 = q^k * e and b - q^k * b*e inverts a to
    # 2k terms
    head = a._c[:sizes.pop()]
    b = mul_sparse(monomial(ring, len(head), 0), _terms(head), "divide")._c
    for m in reversed(sizes):
        k = len(b)
        padded = Series._wrap(ring, np.concatenate([b, np.zeros(m - k, dtype=ring.dtype)]))
        e = Series._wrap(ring, mul(a.truncate(m), padded)._c[k:])
        step = -mul(Series._wrap(ring, b[:m - k]), e)
        b = np.concatenate([b, step._c])
    return Series._wrap(ring, b)


def power(a: Series, e: int) -> Series:
    """a**e by square-and-multiply; e < 0 inverts first; a**0 = 1."""
    if e == 0:
        return monomial(a.ring, a.order, 0)
    if e < 0:
        return power(invert(a), -e)
    result = None
    base = a
    while e:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def mul_sparse_binomial(a: Series, c: int, j: int, direction: str = "multiply") -> Series:
    """Multiply or divide by (1 + c*q^j) in O(order) operations: a divide
    with c = +-1 is `_div_binomial`, the rest goes through `mul_sparse`."""
    if j < 1:
        raise ValueError("binomial exponent j must be >= 1")
    ring, c = a.ring, a.ring.normalize(c)
    if direction == "divide" and c in (1, ring.normalize(-1)):
        return Series._wrap(ring, _reduce(_div_binomial(a._c.copy(), c, j), ring.modulus))
    return mul_sparse(a, {0: 1, j: c}, direction)


def _div_binomial(u: np.ndarray, c: int, j: int) -> np.ndarray:
    """u / (1 + c*q^j) for c = 1 or -1 (or its residue), in place and
    unreduced; returns u."""
    n = len(u)
    # b[i] = a[i] - c*b[i-j]: one slice op a block of j up to 16 blocks, else a cumsum
    # along each residue class mod j, with 1/(1 + q^j) = (1 - q^j)/(1 - q^(2j)) if c = 1
    if n <= 16 * j:
        op = np.subtract if c == 1 else np.add
        for r in range(j, n, j):
            op(u[r:r + j], u[r - j:min(r, n - j)], out=u[r:r + j])
        return u
    p = 2 * j if c == 1 else j
    if p != j:
        u[j:] -= u[:-j]  # numpy reads the overlapping operands before writing
    mat = u[:n - n % p].reshape(-1, p)
    np.cumsum(mat, axis=0, out=mat)
    u[n - n % p:] += mat[-1, :n % p]
    return u


def mul_sparse(a: Series, terms: dict[int, int], direction: str = "multiply") -> Series:
    """Multiply or divide by the polynomial sum of c*q^e over `terms` (e -> c)
    in O(order * len(terms)) operations; dividing needs a unit constant term.

    A multiply is one numpy pass a term. A divide is the recurrence
    b[i] = (a[i] - sum of c*b[i-e]) / c0 in Python ints, one coefficient at
    a time with one reduction each; a +-1 term is an add or a subtract."""
    if direction not in ("multiply", "divide"):
        raise ValueError(f"direction must be 'multiply' or 'divide', got {direction!r}")
    if any(e < 0 for e in terms):
        raise ValueError("sparse factor exponents must be nonnegative")
    ring, n = a.ring, a.order
    c0, scale = ring.normalize(terms.get(0, 0)), 1
    if direction == "divide":  # from here on c0 holds 1/c0 and each c holds c/c0
        c0 = scale = ring.unit_inverse(c0)
    rest = [(e, ring.normalize(c * scale)) for e, c in terms.items() if 0 < e < n]
    out, minus_one = a._c * ring.scalar(c0), ring.normalize(-1)
    if direction == "multiply":
        for e, c in rest:
            # every term of f[m] is +-1, which needs no multiply pass
            if c == 1:
                out[e:] += a._c[:n - e]
            elif c == minus_one:
                out[e:] -= a._c[:n - e]
            else:
                out[e:] += a._c[:n - e] * ring.scalar(c)
        return Series._wrap(ring, _reduce(out, ring.modulus))
    # the term of q^e joins the sums once b holds e coefficients: b[-e] is then
    # b[i-e] for the b[i] being summed (mod 2, -1 is 1 and counts once, as 1)
    m, b, joins = ring.modulus, [], dict(rest)
    at, plus, minus, cs, es = b.__getitem__, [], [], [], []
    for i, v in enumerate(out.tolist()):
        if (c := joins.get(i)) is not None:
            if c == 1 or c == minus_one:
                (plus if c == 1 else minus).append(-i)
            else:
                cs.append(c), es.append(-i)
        v += sum(map(at, minus)) - sum(map(at, plus)) - sum(map(operator.mul, cs, map(at, es)))
        b.append(v % m if m else v)
    return Series._wrap(ring, np.array(b, dtype=ring.dtype))


def eulerian_sum(head: Series, steps) -> Series:
    """Sum of q^e * u over the (e, up, down) tuples of `steps`, truncated to
    head.order: an Eulerian sum whose term ratio is a product of binomials.

    u starts as head. Each step cuts u to its window u[:order - e] (e must
    not decrease), multiplies it by (1 + c*q^j) for each (c, j) in `up`,
    divides it by (1 + c*q^j) for each (c, j) in `down`, and adds q^e * u.
    The sum stops at the first e >= order, so `steps` may be endless. Every
    c is 1 or -1, so a multiply and a divide (`_div_binomial`) each work in
    place in O(window); a factor with j at or past the window is a no-op.
    """
    ring, order = head.ring, head.order
    acc = np.zeros(order, dtype=ring.dtype)
    u = head._c.copy()
    for e, up, down in steps:
        if e >= order:
            break
        for c, j in (*up, *down):
            if c not in (1, -1) or j < 1:
                raise ValueError(f"binomial factor (1 + {c}*q^{j}) needs c = +-1 and j >= 1")
        u = u[:order - e]
        for c, j in up:  # numpy reads the overlapping operands before writing
            if c == 1:
                u[j:] += u[:-j]
            else:
                u[j:] -= u[:-j]
        for c, j in down:
            _div_binomial(u, c, j)
        acc[e:] += u
    return Series._wrap(ring, _reduce(acc, ring.modulus))


def substitute_power(a: Series, m: int, sign: int, order: int | None = None) -> Series:
    """a(sign * q^m) to `order` coefficients, by default m*(a.order-1) + 1:
    the coefficient of q^(m*n) is sign^n * a[n]. a must know ceil(order/m)
    coefficients."""
    if m < 1:
        raise ValueError("substitution power m must be >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if order is None:
        order = max(0, m * (a.order - 1) + 1)
    if order > m * a.order:
        raise OrderError(f"a(q^{m}) to {order} coefficients needs {-(-order // m)} "
                         f"coefficients of a, which knows {a.order}")
    out = np.zeros(order, dtype=a.ring.dtype)
    out[::m] = a._c[:-(-order // m)]
    if sign == -1:
        out[m::2 * m] = -out[m::2 * m]
    return Series._wrap(a.ring, _reduce(out, a.ring.modulus))


def dissect(a: Series, m: int, r: int) -> Series:
    """Extract sum over n of a[m*n + r] * q^n, for any m >= 1 and r >= 0."""
    if m < 1 or r < 0:
        raise ValueError(f"dissection needs m >= 1 and r >= 0, got m={m}, r={r}")
    return Series._wrap(a.ring, a._c[r::m].copy())


def check_modulus(ring: CoefficientRing, modulus: int) -> None:
    """Reject a modulus below 2, or one that `ring` cannot resolve."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if not ring.resolves(modulus):
        raise ValueError(
            f"modulus {modulus} must be a power of 2 dividing 2^{ring.width}")


def change_ring(a: Series, ring: CoefficientRing) -> Series:
    """Apply the reduction homomorphism into `ring`: its modulus must divide
    a's (never a lift to the exact ring)."""
    if ring == a.ring:
        return a
    if ring.modulus is None:
        raise RingMismatchError("cannot lift modular coefficients back to the exact ring")
    if a.ring.modulus is not None and a.ring.modulus % ring.modulus:
        raise RingMismatchError(f"no reduction from {a.ring} to wider {ring}")
    return Series._wrap(ring, _reduce(a._c, ring.modulus))


def first_incongruence(a: Series, b: Series, modulus: int | None, n: int) -> int | None:
    """First exponent < n where (a - b) is nonzero mod `modulus`, or where a
    and b differ when `modulus` is None; else None."""
    _check_rings(a, b)
    if n > a.order or n > b.order:
        raise OrderError(f"comparison order {n} exceeds operand orders {a.order}, {b.order}")
    diff = a._c[:n] - b._c[:n]
    if modulus is not None:
        check_modulus(a.ring, modulus)
        diff = _reduce(diff, modulus)
    hits = np.flatnonzero(diff)
    return int(hits[0]) if len(hits) else None


def scan_progressions(s: Series, a_max: int, moduli: list[int],
                      n_max: int) -> list[tuple[int, int, int]]:
    """Every (A, B, M) with A <= a_max, B < A and M in moduli such that
    s[A*n + B] vanishes mod M for every n <= n_max, ordered by A, then B,
    then the moduli as given. Empirical only: holding on a sample proves
    nothing.

    Each A reads the first A*(n_max+1) coefficients once, as an
    (n_max+1) x A block whose column B holds s[A*n + B]; class B vanishes
    mod M when `_reduce` of the block mod M is zero down column B."""
    if a_max < 1 or n_max < 0:
        raise ValueError("a_max must be >= 1 and n_max >= 0")
    # deepest read: exponent a*n_max + b with b < a <= a_max
    if a_max * (n_max + 1) > s.order:
        raise ValueError(
            f"scan reads up to exponent {a_max * (n_max + 1) - 1}, "
            f"series order is {s.order}")
    for m in moduli:
        check_modulus(s.ring, m)
    found = []
    for a in range(1, a_max + 1):
        block = s._c[:a * (n_max + 1)].reshape(n_max + 1, a)
        vanish = [(_reduce(block, m) == 0).all(axis=0) for m in moduli]
        found += [(a, b, m) for b in range(a) for m, v in zip(moduli, vanish) if v[b]]
    return found


def dump_text(a: Series) -> str:
    """One line per exponent: 'n<TAB>coefficient'."""
    return "\n".join(f"{i}\t{int(x)}" for i, x in enumerate(a._c))


def dump_json_dict(a: Series) -> dict:
    return {
        "order": a.order,
        "ring": str(a.ring),
        "coeffs": [str(int(x)) for x in a._c],
    }
