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
storage does: the dtype, `_reduce`, and how the FFT product cuts a
coefficient into digits and back.

`mul` goes term by term through `mul_sparse` when the sparser operand has
few nonzero coefficients (f[m] and its low powers). Otherwise a product is
np.convolve at small orders (exact ones only when every sum fits an int64),
else a float FFT on balanced limbs, their spectra and then group products:
mod 2^w as few as the order and width allow (4 of 16 bits mod 2^64 below
order 8192, one of 8 bits mod 2^8), exact as many 16-bit ones as needed. So
a check mod M builds its series in `narrowest_ring([M, ...])`, mod max(2^8, M).
`invert` runs the coefficient recurrence in Python ints for the first few
terms, then Newton's iteration, each step one `_newton_step`: two products
sharing b's spectra on the FFT, else two `mul` calls. Both work on series in
q^d, such as f[m] = f1(q^m), at 1/d of the order. `eulerian_sum` is the one
kernel behind every Eulerian sum, every product of them and every Pochhammer
or eta product: it takes each sum's terms last to first by Horner's rule, each
step adding q^e times 1 (in a later sum, times the product of the sums before
it) and applying binomial factors (1 +- q^j)^(+-1) in place, an O(N) pass
each. An exact product runs on int64 limbs of 32 bits from its first sum to
its last, carried before a factor could overflow them, and turns into Python
ints once. All of it is exact arithmetic.
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


class OrderError(IndexError, ValueError):
    """Requested index or comparison order exceeds the known truncation order.
    An IndexError, so iteration over a series stops at its last coefficient."""


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

    def __getitem__(self, n: int) -> int:
        if not 0 <= n < self.order:
            raise OrderError(f"coefficient index {n} outside known range 0..{self.order - 1}")
        return int(self._c[n])

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

    def __repr__(self) -> str:
        head = ", ".join(str(int(x)) for x in self._c[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"Series({self.ring}, order={self.order}, [{head}{tail}])"

    # a sum or difference is truncated to the shorter order; an operand of
    # +, - or * is a series, or for * an integer (Python, numpy or bool)
    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        ring, n = _check_rings(self, other), min(self.order, other.order)
        return Series._wrap(ring, _reduce(self._c[:n] + other._c[:n], ring.modulus))

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        ring, n = _check_rings(self, other), min(self.order, other.order)
        return Series._wrap(ring, _reduce(self._c[:n] - other._c[:n], ring.modulus))

    def __neg__(self):
        return Series._wrap(self.ring, _reduce(-self._c, self.ring.modulus))

    def __mul__(self, other):
        if isinstance(other, Series):
            return mul(self, other)
        try:
            c = self.ring.scalar(other)
        except TypeError:  # not an integer: a float, a string, ...
            return NotImplemented
        return Series._wrap(self.ring, _reduce(self._c * c, self.ring.modulus))

    __rmul__ = __mul__

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
    """Cauchy product truncated to min(a.order, b.order), on the route of
    `_route`: series in q^d as a[::d] times b[::d], a sparse operand term by
    term (`mul_sparse`, O(order * terms)), a small dense product by
    np.convolve, and every other one by the float FFT of `_fft_mul`, with
    np.convolve as its fallback."""
    ring = _check_rings(a, b)
    n = min(a.order, b.order)
    x = a._c[:n]
    y = x if b is a else b._c[:n]
    route, arg = _route(ring, x, y)
    if route == "stride":
        w = Series._wrap(ring, x[::arg])
        return substitute_power(mul(w, w if y is x else Series._wrap(ring, y[::arg])), arg, 1, n)
    if route == "sparse":
        return mul_sparse(Series._wrap(ring, arg[1]), _terms(arg[0]))
    if route == "int64":
        out = np.convolve(x.astype(np.int64), y.astype(np.int64))[:n]
    elif route != "fft" or (out := _fft_mul(x, None if y is x else y, ring.width, arg)) is None:
        out = np.convolve(x, y)[:n]
    return Series._wrap(ring, _reduce(out, ring.modulus))


def _route(ring: CoefficientRing, x: np.ndarray, y: np.ndarray) -> tuple[str, object]:
    """How `mul` multiplies x by y (y is x: a square) to len(x) terms, y
    read as padded with zeros: ("stride", d) when both are series in q^d,
    d > 1; ("sparse", (sparser, other)) when one has at most len(x) /
    _SPARSE_RATIO nonzero terms; else "int64" for exact ones below
    _FFT_MIN_ORDER whose bits(max|x|) + bits(max|y|) + bitlen(len(x)) <= 63,
    so that no sum passes 2^63, "convolve" for the rest below it, and "fft",
    each with those bits."""
    n = len(x)
    if (d := _stride(x, y)) > 1:
        return "stride", d
    if min(cx := np.count_nonzero(x), cy := np.count_nonzero(y)) * _SPARSE_RATIO <= n:
        return "sparse", (x, y) if cx <= cy else (y, x)
    small = n < _FFT_MIN_ORDER
    if ring.modulus is not None:
        return ("convolve" if small else "fft"), None
    sizes = (bx := _bits(x), bx if y is x else _bits(y))
    return ("int64" if small and n.bit_length() + sum(sizes) <= 63 else "fft"), sizes


# Dense products at or above this order, and exact ones whose sums may pass
# an int64, go through the float FFT; below it np.convolve is faster.
_FFT_MIN_ORDER = 800
# mul_sparse takes an operand with at most order / ratio nonzero terms (README)
_SPARSE_RATIO = 16
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


def _bits(v: np.ndarray) -> int:
    """bits(max|v|), 0 for an empty or zero v."""
    return max(map(int.bit_length, v.tolist()), default=0)


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


def _fft_mul(x: np.ndarray, y: np.ndarray | None, width: int | None,
             sizes: tuple[int, int] | None = None) -> np.ndarray | None:
    """The first len(x) coefficients of x*y (x*x when y is None) mod
    2^width, or exact when width is None, with `sizes` bits(max|x|) and
    bits(max|y|): `_groups` of `_spectra` at length _fft_size(2n - 1), where
    nothing wraps. When the rounding guard fails it tries narrower limbs:
    one bit narrower mod 2^width, down to 1 bit, and exact 8 bits after 16.
    None means every try failed."""
    n, size = len(x), _fft_size(2 * len(x) - 1)
    if width is None:
        first, step, top = _exact_bits(min(sizes), n), 8, sum(sizes) + n.bit_length() + 1
    else:
        first, step, top = _fft_limbs(n, width)[1], 1, width
    for bits in range(first, 0, -step):
        xs = _spectra(x, size, width, bits, sizes and sizes[0])
        out = _groups(xs, xs if y is None else _spectra(y, size, width, bits, sizes and sizes[1]),
                      size, 0, n, width, bits, top)
        if out is not None:
            return out
        del xs  # spent as scratch, and freed before the next try's
    return None


def _exact_bits(v_bits: int, n: int) -> int:
    """16, or 8 when the largest group sum of 16-bit exact limbs, min(Lx, Ly)
    * n * 4^15, reaches _FFT_BUDGET for a smaller operand of v_bits bits."""
    return 16 if (v_bits + 17) // 16 * n * 4 ** 15 < _FFT_BUDGET else 8


def _spectra(v: np.ndarray, size: int, width: int | None, bits: int,
             v_bits: int | None) -> np.ndarray:
    """The rfft at length `size` of each balanced limb of v, one row a limb:
    ceil(width / bits) limbs mod 2^width, and exact, for |c| < 2^v_bits,
    enough for bits*limbs >= v_bits + 2, as K below exceeds 2^(bits*limbs-1).
    A coefficient c is the sum of its digits d_i << bits*i, each in
    [-2^(bits-1), 2^(bits-1)) (mod 2^64 for uint64): the unsigned digits of
    c + K, for K = sum of 2^(bits-1) << bits*i, less 2^(bits-1) (Crandall and
    Fagin 1994). Exact digits come from bytes, in one transform call; mod
    2^width one float digit at a time, not limbs * n * 8 bytes at once."""
    fft = np.fft  # numpy loads np.fft on first use, so only the FFT pays
    half = 1 << (bits - 1)
    limbs = (v_bits + 1 + bits) // bits if width is None else -(-width // bits)
    k = sum(half << (bits * i) for i in range(limbs))
    out = np.empty((limbs, size // 2 + 1), dtype=np.complex128)
    if width is None:
        e = np.frombuffer(b"".join((c + k).to_bytes(limbs * bits // 8, "little")
                                   for c in v.tolist()), dtype=f"<u{bits // 8}")
        return fft.rfft(e.reshape(len(v), limbs).T - float(half), size, out=out)
    mask = np.uint64((1 << bits) - 1)
    w, digit = v + np.uint64(k % (1 << 64)), np.empty(len(v))
    ints = digit.view(np.int64)
    for row in out:
        np.bitwise_and(w, mask, out=ints.view(np.uint64))
        ints -= half
        np.copyto(digit, ints)  # in place: a ufunc would copy ints first
        fft.rfft(digit, size, out=row)
        w >>= np.uint64(bits)
    return out


def _groups(xs: np.ndarray, ys: np.ndarray, size: int, lo: int, hi: int,
            width: int | None, bits: int, top: int) -> np.ndarray | None:
    """Coefficients lo..hi-1 of the cyclic product mod q^size - 1 of the
    operands whose `_spectra` are xs and ys (ys is xs: a square), mod
    2^width, or exact for coefficients in (-2^(top-1), 2^(top-1)); None if
    the rounding guard fails. The product is the sum over s of g_s <<
    bits*s, where g_s sums limb i of x times limb s-i of y, at most
    min(Lx, Ly) * terms * 4^(bits-1) in magnitude for the most terms a
    coefficient sums. Mod 2^width the groups below width add in, shifted,
    mod 2^64; exact, ceil(top / bits) digits carried up from them and read
    as one signed number are all of it."""
    fft, n, exact = np.fft, hi - lo, width is None
    lx, ly, digits = len(xs), len(ys), -(-top // bits)
    groups = min(lx + ly - 1, digits)
    # group s sums in limb s of y and takes limb s of x as scratch: no lower group
    # reads either; a square, a read-only (shared) ys and a group past a limb use spares
    keep = ys is xs or not ys.flags.writeable
    spare = np.empty(((keep or groups > ly) + (groups > lx), xs.shape[1]), complex)
    sums = np.zeros((groups, n), dtype=np.int64) if exact else np.zeros(n, dtype=np.uint64)
    for s in reversed(range(groups)):
        acc = ys[s] if not keep and s < ly else spare[0]
        tmp = xs[s] if s < lx else spare[-1]
        first, last = max(0, s - ly + 1), min(s, lx - 1)
        np.multiply(xs[first], ys[s - first], out=acc)  # reads limb s of y first
        for i in range(last, first, -1):  # reads limb s of x before tmp overwrites it
            acc += np.multiply(xs[i], ys[s - i], out=tmp)
        # the inverse transform lands in tmp and its rounding in acc, both spent
        g = fft.irfft(acc, size, out=tmp.view(np.float64)[:size])[lo:hi]
        r = np.rint(g, out=acc.view(np.float64)[:n])
        if np.abs(np.subtract(g, r, out=g), out=g).max() > _FFT_TOLERANCE:
            return None
        if exact:
            np.copyto(sums[s], r, casting="unsafe")
            continue
        group = g.view(np.int64)  # r as integers, in the memory of g
        np.copyto(group, r, casting="unsafe")
        group = group.view(np.uint64)
        group <<= np.uint64(bits * s)
        sums += group
    return _join_limbs(sums, bits, digits) if exact else sums


def _join_limbs(limbs: np.ndarray, bits: int, digits: int) -> np.ndarray:
    """The Python ints sum over s of limbs[s] << bits*s, for int64 rows
    `limbs`, in an object array: the limbs are carried into `digits`
    unsigned digits, low to high, and the last carry is the sign, which the
    top digit already holds. So each int must fit in digits*bits signed bits."""
    n = limbs.shape[1]
    out = np.empty((n, digits), dtype=f"<u{bits // 8}")
    carry = np.zeros(n, dtype=np.int64)
    for s, column in enumerate(out.T):
        if s < len(limbs):
            carry += limbs[s]
        column[:] = carry  # the low bits
        carry >>= bits
    buf, step = out.tobytes(), digits * bits // 8
    return np.array([int.from_bytes(buf[i:i + step], "little", signed=True)
                     for i in range(0, n * step, step)], dtype=object)


def invert(a: Series) -> Series:
    """Multiplicative inverse, valid to a.order; constant term must be a unit.

    A series in q^d (d > 1) inverts as a[::d]. Else the recurrence over the
    nonzero terms of a (`mul_sparse` dividing one by a) gives the first
    _NEWTON_MIN_ORDER terms, then Newton's iteration (Brent and Kung 1978)
    takes over, each step two products that double the terms, all in
    `_newton_step`.
    """
    if a.order == 0:
        return a
    d = _stride(a._c)
    if d > 1:
        return substitute_power(invert(Series._wrap(a.ring, a._c[::d])), d, 1, a.order)
    ring, sizes = a.ring, [a.order]
    while sizes[-1] > _NEWTON_MIN_ORDER:
        sizes.append((sizes[-1] + 1) // 2)
    # the recurrence b[k] = -(a[1]*b[k-1] + ... + a[k]*b[0]) / a[0] gives the
    # first terms; then each step of Newton's iteration doubles them: if b
    # inverts a to k terms, a*b - 1 = q^k * e and b - q^k * b*e inverts a to
    # 2k terms
    head = a._c[:sizes.pop()]
    b = mul_sparse(monomial(ring, len(head), 0), _terms(head), "divide")._c
    for m in reversed(sizes):
        b = np.concatenate([b, _newton_step(a._c[:m], b, ring)])
    return Series._wrap(ring, b)


def _newton_step(x: np.ndarray, b: np.ndarray, ring: CoefficientRing) -> np.ndarray:
    """Coefficients k..m-1 of 1/x, m = len(x), from b = 1/x to k = len(b)
    >= m/2 terms: -(b*e)[:m-k], for e = (x*b)[k:m]. Where `mul` would send
    x*b to the FFT, both products are `_groups` at length N = _fft_size(m) on
    one `_spectra` of b (Bernstein 2004): x*b, of degree m+k-2 at most, wraps
    below q^k; b*e, of degree m-2, does not wrap. No coefficient of either
    sums more than k terms, and b's bits bound both smaller operands'. On
    another route, or when a rounding guard fails, they are two `mul` calls."""
    route, sizes = _route(ring, x, b)
    m, k, width, out = len(x), len(b), ring.width, None
    if route == "fft":
        (bx, bb), size, kbits = sizes or (None, None), _fft_size(m), k.bit_length() + 1
        bits = _fft_limbs(k, width)[1] if sizes is None else _exact_bits(bb, k)
        bs = _freeze(_spectra(b, size, width, bits, bb))
        e = _groups(_spectra(x, size, width, bits, bx), bs, size, k, m, width, bits,
                    width or bx + bb + kbits)
        if e is not None:
            be = None if sizes is None else _bits(e)
            out = _groups(_spectra(e, size, width, bits, be), bs, size, 0, m - k, width, bits,
                          width or bb + be + kbits)
    if out is None:
        padded = np.concatenate([b, np.zeros(m - k, dtype=ring.dtype)])
        e = mul(Series._wrap(ring, x), Series._wrap(ring, padded))._c[k:]
        out = mul(Series._wrap(ring, b[:m - k]), Series._wrap(ring, e))._c
    return _reduce(-out, ring.modulus)


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
    """u / (1 + c*q^j) for c = 1 or -1 (or its residue) along the first
    axis of u (limbs go along), in place and unreduced; returns u."""
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
    mat = u[:n - n % p].reshape(-1, p, *u.shape[1:])  # a view, so the cumsum is in place
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


# An exact eulerian_sum keeps its limbs below _SUM_BOUND, one bit of margin
# under 2^63; a carried limb is below 2^32 + 2^30.
_SUM_BOUND, _CARRIED = 2 ** 62, 5 << 30


def eulerian_sum(ring: CoefficientRing, order: int, steps, *more) -> Series:
    """The product, truncated to `order`, of the Eulerian sums of `steps`
    and of each further iterable of steps in `more`. Each is the sum over i
    of q^(e_i) * r_1 * ... * r_i for its (e_i, up_i, down_i) tuples, whose
    term ratio r_i, the product of (1 + c*q^j) over (c, j) in up_i divided
    by that over down_i, is a product of binomials with c = +-1 and j >= 1.

    The steps of each sum come last to first: e is never negative and never
    grows from one step to the next (else a ValueError names the step, and a
    later sum, before its arithmetic). A sum is taken by Horner's rule,
    v = r_1 (q^(e_1) a + r_2 (q^(e_2) a + ...)), where a is 1 in the first
    sum and the product of the sums before it in a later one: each step adds
    a at q^e, then multiplies the window v[e:] by its `up` factors, one
    in-place pass v[j:] +-= v[:-j] each, and divides it by its `down`
    factors (`_div_binomial`, in place). v is zero below q^e, so the window
    is all the step can reach. A step with e >= order adds nothing, and a
    factor with j at or past the window is a no-op. So a sum of many steps
    belongs first, where each adds 1 and not a window.

    Every pass is Z-linear with coefficients +-1, so exact v is an
    (order, L) int64 array of 32-bit limbs, v[i, l] << 32*l summing to
    coefficient i, and a pass runs on all limbs at once (delayed carries;
    Knuth, TAOCP vol. 2, 4.3.1). A bound on the limbs is kept factor by
    factor: an up factor at most doubles it, and a down factor makes each
    limb a signed sum of at most ceil(len(v[e:]) / j) of them, or of
    ceil(len/2j) differences of two. Before a factor that could pass
    _SUM_BOUND the bound is read from v again, and if it still could, v is
    carried. A later sum's addend is the sum before it carried once, whose
    limbs are below _CARRIED. The limbs become Python ints once, at the end.
    Orders below 2^28 keep the bound.
    """
    exact = ring.modulus is None
    v = np.zeros((order, 1), dtype=np.int64 if exact else ring.dtype)
    add, top = None, 1
    for k, sum_steps in enumerate((steps, *more)):
        if k:
            add, top = _carry(v) if exact else v, _CARRIED
            v = np.zeros_like(add)
        bound, last, name = 0, None, f"sum {k + 1}, step" if k else "step"
        for i, (e, up, down) in enumerate(sum_steps):
            if e < 0:
                raise ValueError(f"eulerian_sum {name} {i} has e = {e} < 0")
            if last is not None and e > last:
                raise ValueError(f"eulerian_sum {name} {i} has e = {e} > {last}, the e of "
                                 f"step {i - 1}: the steps go last to first")
            factors = (*up, *down)
            for c, j in factors:
                if c not in (1, -1) or j < 1:
                    raise ValueError(f"binomial factor (1 + {c}*q^{j}) needs c = +-1 and j >= 1")
            last = e
            if e >= order:
                continue
            w = v[e:]
            if add is None:
                w[0, 0] += 1
            else:
                w[:, :add.shape[1]] += add[:len(w)]
            bound += top
            for f, (c, j) in enumerate(factors):
                if exact:
                    grow = 2 if f < len(up) else 2 * -(-len(w) // j)
                    if bound * grow >= _SUM_BOUND and (
                            bound := max(int(w.max()), -int(w.min()))) * grow >= _SUM_BOUND:
                        v, bound = _carry(v), _CARRIED
                        w = v[e:]
                    bound *= grow
                if f >= len(up):
                    _div_binomial(w, c, j)
                elif c == 1:  # numpy reads the overlapping operands before writing
                    w[j:] += w[:-j]
                else:
                    w[j:] -= w[:-j]
    out = _join_limbs(v.T, 32, v.shape[1] + 1) if exact else _reduce(v[:, 0], ring.modulus)
    return Series._wrap(ring, out)


def _carry(v: np.ndarray) -> np.ndarray:
    """v's limbs, each below 2^62, carried once: a limb below the top keeps
    its low 32 bits and adds the rest, signed, to the next. A top limb that
    could pass 2^31 so first gets a zero limb above it."""
    if max(int(v[:, -1].max()), -int(v[:, -1].min())) >= 1 << 30:
        v = np.concatenate([v, np.zeros((len(v), 1), dtype=np.int64)], axis=1)
    high = v[:, :-1] >> 32
    v[:, :-1] &= 0xFFFFFFFF
    v[:, 1:] += high
    return v


def substitute_power(a: Series, m: int, sign: int, order: int | None = None) -> Series:
    """a(sign * q^m) to `order` coefficients, by default m*(a.order-1) + 1:
    the coefficient of q^(m*n) is sign^n * a[n]. a must know ceil(order/m)
    coefficients."""
    if sign not in (1, -1):
        raise ValueError("argument sign must be 1 or -1")
    if m < 1:
        raise ValueError("argument power must be >= 1")
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
    and b differ when `modulus` is None; else None. n must lie in
    0..min(a.order, b.order)."""
    _check_rings(a, b)
    if not 0 <= n <= min(a.order, b.order):
        raise OrderError(f"comparison order {n} is not within 0..{min(a.order, b.order)}, "
                         f"for operand orders {a.order}, {b.order}")
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
    then the moduli as given, each once. Empirical only: holding on a sample
    proves nothing.

    Each A reads the first A*(n_max+1) coefficients once, as an
    (n_max+1) x A block whose column B holds s[A*n + B]; class B vanishes
    mod M when `_reduce` of the block mod M is zero down column B."""
    moduli = list(dict.fromkeys(moduli))  # a repeated modulus finds nothing new
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
