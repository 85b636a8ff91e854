import dataclasses
import functools
import inspect
import os
import random
import subprocess
import sys
import tracemalloc
from math import comb, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcong as qc
import qcong.series
from qcong import EXACT, Series
from qcong.series import (_FFT_BUDGET, _FFT_MIN_ORDER, _FFT_TOLERANCE,
                          _NEWTON_MIN_ORDER, _SPARSE_RATIO, _bits, _fft_limbs, _fft_mul,
                          _fft_size, dump_json_dict, dump_text, monomial, mul_sparse)

from reference import (inverse, partition_table, recurrence_divide, schoolbook_mul,
                       sparse_list)


def sparse_limit(n: int, ratio: int = _SPARSE_RATIO) -> int:
    """The most nonzero terms an operand of order n may have and still
    multiply through mul_sparse."""
    return n // ratio


coeff_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=24)
unit_lists = st.tuples(st.sampled_from([1, -1]), coeff_lists).map(lambda t: [t[0]] + t[1])
widths = st.sampled_from([1, 2, 3, 6, 16, 64])


def exact_series(coeffs):
    return Series(EXACT, coeffs)


class TestConstruction:
    def test_exact_coefficients_roundtrip(self):
        s = exact_series([3, -1, 0, 7])
        assert s.order == 4
        assert s.coefficients() == [3, -1, 0, 7]
        assert s[3] == 7

    def test_mod_coefficients_are_masked(self):
        s = Series(qc.mod2pow(3), [9, -1, 8])
        assert s.coefficients() == [1, 7, 0]

    def test_coefficient_out_of_range(self):
        s = exact_series([1, 2])
        with pytest.raises(qc.OrderError):
            s[2]
        with pytest.raises(qc.OrderError):
            s[-1]
        assert issubclass(qc.OrderError, ValueError)

    @pytest.mark.parametrize("ring", [EXACT, qc.mod2pow(8)])
    def test_iterates_over_its_coefficients(self, ring):
        # OrderError is an IndexError, which ends the sequence protocol
        s = Series(ring, [3, -1, 0, 300])
        assert list(s) == s.coefficients()
        assert 0 in s and s.coefficients()[1] in s and 5 not in s
        assert sum(s) == sum(s.coefficients())
        assert list(Series(ring, [])) == []

    def test_series_is_immutable(self):
        s = Series(qc.MOD64, [1, 2, 3])
        with pytest.raises(AttributeError):
            s.order = 5
        got = s.coefficients()
        got[0] = 99
        assert s[0] == 1

    def test_monomial(self):
        assert monomial(EXACT, 5, 2, -3).coefficients() == [0, 0, -3, 0, 0]
        assert monomial(EXACT, 2, 4).coefficients() == [0, 0]

    @pytest.mark.parametrize("ring", [EXACT, qc.mod2pow(8), qc.MOD64], ids=str)
    @pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(2.7), "3"], ids=repr)
    def test_non_integer_coefficients_rejected(self, ring, bad):
        # a float or a string is never truncated into a coefficient
        with pytest.raises(TypeError):
            Series(ring, [1, bad])
        with pytest.raises(TypeError):
            Series(ring, np.array([1.0, 2.0]))
        with pytest.raises(TypeError):
            monomial(ring, 4, 1, bad)
        for terms in ({0: bad}, {0: 1, 2: bad}):
            for direction in ("multiply", "divide"):
                with pytest.raises(TypeError):
                    qc.mul_sparse(monomial(ring, 4, 0), terms, direction)

    @pytest.mark.parametrize("ring", [EXACT, qc.mod2pow(8), qc.MOD64], ids=str)
    def test_numpy_and_bool_integers_accepted(self, ring):
        want = Series(ring, [-1, 2**64 - 1, 1, 0, 5])
        got = Series(ring, [np.int64(-1), np.uint64(2**64 - 1), True, False, np.int8(5)])
        assert got == want
        assert Series(ring, np.array([-1, 5], dtype=np.int64)) == Series(ring, [-1, 5])
        assert monomial(ring, 3, 1, np.int64(-1)) == monomial(ring, 3, 1, -1)
        a = Series(ring, [1, 2, 3, 4])
        assert (qc.mul_sparse(a, {0: np.int64(-1), 2: np.uint64(3)})
                == qc.mul_sparse(a, {0: -1, 2: 3}))

    def test_invalid_rings(self):
        with pytest.raises(ValueError):
            qc.mod2pow(0)
        with pytest.raises(ValueError):
            qc.mod2pow(65)
        for modulus in (0, 1, 3, 12, -4, 2**65, "float"):
            with pytest.raises(ValueError):
                qc.CoefficientRing(modulus)


class TestArithmetic:
    def test_add_sub_neg(self):
        a = exact_series([1, 2, 3])
        b = exact_series([5, -2, 1])
        assert (a + b).coefficients() == [6, 0, 4]
        assert (a - b).coefficients() == [-4, 4, 2]
        assert (-a).coefficients() == [-1, -2, -3]

    def test_order_propagates_as_minimum(self):
        a = exact_series([1] * 9)
        b = exact_series([1] * 5)
        assert (a + b).order == 5
        assert (a * b).order == 5
        assert (b - a).order == 5

    def test_scalar_mul(self):
        a = exact_series([1, -2, 3])
        assert (5 * a).coefficients() == [5, -10, 15]
        assert (a * -1).coefficients() == [-1, 2, -3]

    @pytest.mark.parametrize("ring", [EXACT, qc.MOD64], ids=str)
    def test_numpy_and_bool_scalars(self, ring):
        a = Series(ring, [1, -2, 3])
        want = Series(ring, [3, -6, 9])
        assert a * np.int64(3) == want
        assert np.int64(3) * a == want
        assert a * np.uint8(3) == want
        assert a * True == a
        assert False * a == Series(ring, [0, 0, 0])

    # an integer scales a series, but is no series to add or subtract
    @pytest.mark.parametrize("ring", [EXACT, qc.MOD64], ids=str)
    @pytest.mark.parametrize("op, other", [
        *((op, other) for op in "+-" for other in (1, np.int64(1), 1.5, "2", None)),
        *(("*", other) for other in (1.5, "2", None, [1, 2, 3]))], ids=repr)
    def test_other_operands_raise_type_error(self, ring, op, other):
        a = Series(ring, [1, 2, 3])
        apply = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y}[op]
        for left, right in ((a, other), (other, a)):
            with pytest.raises(TypeError):
                apply(left, right)

    def test_ring_mismatch_rejected(self):
        a = exact_series([1, 2])
        b = Series(qc.MOD64, [1, 2])
        with pytest.raises(qc.RingMismatchError):
            a + b
        with pytest.raises(qc.RingMismatchError):
            qc.mul(a, b)

    @given(coeff_lists, coeff_lists)
    def test_mul_matches_schoolbook(self, xs, ys):
        n = min(len(xs), len(ys))
        got = qc.mul(exact_series(xs), exact_series(ys))
        assert got.coefficients() == schoolbook_mul(xs, ys, n)

    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_mul_distributes_over_add(self, xs, ys, zs):
        a, b, c = exact_series(xs), exact_series(ys), exact_series(zs)
        lhs = qc.mul(a, b + c)
        rhs = qc.mul(a, b) + qc.mul(a, c)
        n = min(lhs.order, rhs.order)
        assert qc.first_incongruence(lhs, rhs, None, n) is None

    @given(coeff_lists, coeff_lists, widths)
    def test_mod_mul_is_homomorphic_image(self, xs, ys, w):
        ring = qc.mod2pow(w)
        exact = qc.mul(exact_series(xs), exact_series(ys))
        modular = qc.mul(Series(ring, xs), Series(ring, ys))
        assert qc.change_ring(exact, ring) == modular

    def test_mod64_wraparound(self):
        big = 1 << 63
        a = Series(qc.MOD64, [big, 1])
        assert (a + a).coefficients() == [0, 2]
        assert (-1 * a)[0] == big  # -2^63 == 2^63 mod 2^64


def random_u64(rng, n: int, ring) -> np.ndarray:
    return rng.integers(0, 1 << 64, n, dtype=np.uint64) & np.uint64(ring.modulus - 1)


def convolve_ref(x: np.ndarray, y: np.ndarray, ring) -> Series:
    """The reference product mod 2^w: np.convolve wraps uint64 exactly."""
    return Series(ring, np.convolve(x, y)[:len(x)])


class TestFFTMul:
    """mul mod 2^w at and above the FFT crossover against np.convolve."""

    @pytest.mark.parametrize("n", [1, _FFT_MIN_ORDER - 1, _FFT_MIN_ORDER,
                                   1499, 1500, 2000, 6000, 40000])
    @pytest.mark.parametrize("ring", [qc.MOD64, qc.mod2pow(5)], ids=str)
    def test_matches_convolve(self, n, ring):
        rng = np.random.default_rng(n)
        x, y = random_u64(rng, n, ring), random_u64(rng, n, ring)
        a, b = Series(ring, x), Series(ring, y)
        assert qc.mul(a, b) == convolve_ref(x, y, ring)
        assert qc.mul(a, a) == convolve_ref(x, x, ring)  # the square route

    def test_all_ones_operands(self):
        # every limb at its maximum: the largest limb-product sums there are
        x = np.full(40000, (1 << 64) - 1, dtype=np.uint64)
        a, want = Series(qc.MOD64, x), convolve_ref(x, x, qc.MOD64)
        assert qc.mul(a, Series(qc.MOD64, x)) == want
        assert qc.mul(a, a) == want

    def test_all_ones_guard_holds_at_200000(self):
        # the FFT route of the mod-2^64 series_c build must not trip the
        # rounding guard into the quadratic np.convolve fallback; the square
        # of sum of -q^i is sum of (i+1) q^i
        n = 200000
        x = np.full(n, (1 << 64) - 1, dtype=np.uint64)
        out = _fft_mul(x, None, 64)
        assert out is not None
        assert np.array_equal(out, np.arange(1, n + 1, dtype=np.uint64))
        assert np.array_equal(_fft_mul(x, x.copy(), 64), out)

    @pytest.mark.parametrize("noise", [0.3, 0.6])
    def test_rounding_guard_falls_back_to_convolve(self, monkeypatch, noise):
        # noise 0.3 still rounds to the right integers and 0.6 does not;
        # either way the guard must refuse the FFT result
        n = 2000
        rng = np.random.default_rng(7)
        x, y = random_u64(rng, n, qc.MOD64), random_u64(rng, n, qc.MOD64)
        want = convolve_ref(x, y, qc.MOD64)
        irfft, convolve, calls = np.fft.irfft, np.convolve, []
        monkeypatch.setattr(np.fft, "irfft",
                            lambda *args, **kw: irfft(*args, **kw) + noise)
        monkeypatch.setattr(np, "convolve",
                            lambda *args: calls.append(1) or convolve(*args))
        assert qc.mul(Series(qc.MOD64, x), Series(qc.MOD64, y)) == want
        assert calls == [1]

    @staticmethod
    def worst_case(n: int, side: str) -> np.ndarray:
        """n equal coefficients mod 2^64 whose balanced limbs, as _fft_limbs
        sizes them for order n, all sit at -2^(b-1) (side "min") or at
        2^(b-1) - 1 ("max"): the largest group sums there are."""
        limbs, bits = _fft_limbs(n, 64)
        digit = -(1 << (bits - 1)) if side == "min" else (1 << (bits - 1)) - 1
        v = sum(digit << (bits * i) for i in range(limbs)) % (1 << 64)
        return np.full(n, v, dtype=np.uint64)

    @staticmethod
    def record_rounding(monkeypatch, n: int) -> list:
        """[worst distance from an integer of the first n values of every
        inverse transform], kept up to date."""
        irfft, worst = np.fft.irfft, [0.0]

        def recorded(*args, **kw):
            g = irfft(*args, **kw)
            worst[0] = max(worst[0], float(np.abs(g[:n] - np.rint(g[:n])).max()))
            return g

        monkeypatch.setattr(np.fft, "irfft", recorded)
        return worst

    @pytest.mark.parametrize("side", ["min", "max"])
    def test_worst_case_digits_at_last_four_limb_order(self, side, monkeypatch):
        # the budget leaves the rounding within half the guard's tolerance
        n = max(m for m in range(1, 1 << 16) if _fft_limbs(m, 64)[0] == 4)
        assert _fft_limbs(n + 1, 64)[0] == 5
        x = self.worst_case(n, side)
        worst = self.record_rounding(monkeypatch, n)
        want = np.convolve(x, x)[:n]
        assert np.array_equal(_fft_mul(x, None, 64), want)
        assert np.array_equal(_fft_mul(x, x.copy(), 64), want)
        assert worst[0] <= _FFT_TOLERANCE / 2

    @pytest.mark.parametrize("side", ["min", "max"])
    def test_worst_case_digits_at_200000(self, side, monkeypatch):
        # a constant v squares to sum of v^2 * (i+1) q^i
        n = 200000
        x = self.worst_case(n, side)
        worst = self.record_rounding(monkeypatch, n)
        want = np.uint64(int(x[0]) ** 2 % (1 << 64)) * np.arange(1, n + 1, dtype=np.uint64)
        assert np.array_equal(_fft_mul(x, None, 64), want)
        assert np.array_equal(_fft_mul(x, x.copy(), 64), want)
        assert worst[0] <= _FFT_TOLERANCE / 2

    @staticmethod
    def limb_edges(width: int, top: int) -> list:
        """The orders n < top after which _fft_limbs(n, width) changes."""
        edges, n = [], 1
        while _fft_limbs(n, width) != _fft_limbs(top, width):
            lo, hi = n, top  # bisect: lo has the limbs of n, hi does not
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _fft_limbs(mid, width) == _fft_limbs(n, width):
                    lo = mid
                else:
                    hi = mid
            edges.append(lo)
            n = hi
        return edges

    @pytest.mark.parametrize("width", [1, 5, 11, 13, 16, 17, 63, 64])
    def test_widths_across_limb_counts(self, width):
        # both sides of every change of limb count up to order 2^21 + 1;
        # past 40000 y is zero beyond q^63, so np.convolve stays cheap
        ring = qc.mod2pow(width)
        orders = {_FFT_MIN_ORDER}
        for edge in self.limb_edges(width, (1 << 21) + 2):
            orders |= {edge, edge + 1}
        rng = np.random.default_rng(width)
        for n in sorted(orders):
            x, y = random_u64(rng, n, ring), random_u64(rng, n, ring)
            head = 64 if n > 40000 else n
            y[head:] = 0
            want = np.convolve(x, y[:head])[:n] & np.uint64(ring.modulus - 1)
            got = _fft_mul(x, y, width) & np.uint64(ring.modulus - 1)
            assert np.array_equal(got, want), (width, n)

    def test_limb_rule(self):
        # the fewest limbs b = ceil(width / L) bits wide whose largest group
        # sum L * n * 4^(b-1) is below the budget, covering every bit
        for width in range(1, 65):
            for n in (1, 2, 3, 10, 11, 799, 800, 8191, 8192, 419430, 419431,
                      10 ** 6, 5592405, 5592406, 10 ** 8):
                limbs, bits = _fft_limbs(n, width)
                assert limbs * bits >= width and bits == -(-width // limbs)
                assert limbs * n * 4 ** (bits - 1) < _FFT_BUDGET
                fewer = limbs - 1
                assert not fewer or fewer * n * 4 ** (-(-width // fewer) - 1) >= _FFT_BUDGET

    @staticmethod
    def noisy_first_irfft(monkeypatch) -> list:
        """Noise of 0.3 in the first inverse transform only, past the guard's
        tolerance, and np.convolve raising at once; returns the irfft calls."""
        irfft, calls = np.fft.irfft, []

        def noisy_once(*args, **kw):
            calls.append("irfft")
            return irfft(*args, **kw) + (0.3 if len(calls) == 1 else 0.0)

        def convolve(*args):
            raise AssertionError("the retry fell back to np.convolve")

        monkeypatch.setattr(np.fft, "irfft", noisy_once)
        monkeypatch.setattr(np, "convolve", convolve)
        return calls

    def test_rounding_guard_retries_narrower_limbs(self, monkeypatch):
        # the retry on limbs one bit narrower is exact, and np.convolve is
        # never called
        n = 2000
        rng = np.random.default_rng(11)
        x, y = random_u64(rng, n, qc.MOD64), random_u64(rng, n, qc.MOD64)
        want = convolve_ref(x, y, qc.MOD64)
        calls = self.noisy_first_irfft(monkeypatch)
        assert qc.mul(Series(qc.MOD64, x), Series(qc.MOD64, y)) == want
        bits = _fft_limbs(n, 64)[1]
        assert calls == ["irfft"] * (1 + -(-64 // (bits - 1)))

    def test_rounding_guard_retries_at_eleven_bit_limbs(self, monkeypatch):
        # from the first order with 6 limbs of 11 bits on, a retry takes 7 of
        # 10 bits instead of np.convolve; constants u, v multiply to
        # sum of u*v*(i+1) q^i
        n = min(m for m in range(419000, 420000) if _fft_limbs(m, 64) == (6, 11))
        u, v = 0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F
        want = np.uint64(u * v % (1 << 64)) * np.arange(1, n + 1, dtype=np.uint64)
        x, y = np.full(n, u, dtype=np.uint64), np.full(n, v, dtype=np.uint64)
        calls = self.noisy_first_irfft(monkeypatch)
        assert qc.mul(Series(qc.MOD64, x), Series(qc.MOD64, y)) == Series(qc.MOD64, want)
        assert calls == ["irfft"] * (1 + 7)

    def test_rounding_guard_retries_down_to_one_bit(self, monkeypatch):
        # persistent noise: one try for every limb width from the first one
        # down to 1 bit, then np.convolve once
        n = _FFT_MIN_ORDER
        rng = np.random.default_rng(13)
        x, y = random_u64(rng, n, qc.MOD64), random_u64(rng, n, qc.MOD64)
        want = convolve_ref(x, y, qc.MOD64)
        irfft, convolve, calls = np.fft.irfft, np.convolve, []
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw:
                            calls.append("irfft") or irfft(*args, **kw) + 0.3)
        monkeypatch.setattr(np, "convolve",
                            lambda *args: calls.append("convolve") or convolve(*args))
        assert qc.mul(Series(qc.MOD64, x), Series(qc.MOD64, y)) == want
        assert calls == ["irfft"] * _fft_limbs(n, 64)[1] + ["convolve"]

    @staticmethod
    def peak_allowed(n: int, spectra: int) -> int:
        """Bytes of `spectra` limb spectra of an order-n product mod 2^64,
        and two arrays of n coefficients (plus change)."""
        return spectra * 16 * (_fft_size(2 * n - 1) // 2 + 1) + 20 * n

    def test_memory_is_the_spectra_and_two_rows(self):
        # a product keeps the limb spectra of both operands and a square
        # those of its operand and one sum; beyond them at most two arrays
        # of n coefficients (plus change), never a float copy of every limb
        n = 100000
        limbs = _fft_limbs(n, 64)[0]
        rng = np.random.default_rng(5)
        x, y = random_u64(rng, n, qc.MOD64), random_u64(rng, n, qc.MOD64)
        for other, spectra in ((y, 2 * limbs), (None, limbs + 1)):
            tracemalloc.start()
            _fft_mul(x, other, 64)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak <= self.peak_allowed(n, spectra)

    def test_numpy_fft_loads_on_first_use(self):
        # importing qcong must not pay for np.fft; the first FFT product does
        code = ("import sys, numpy as np, qcong as qc\n"
                "assert 'numpy.fft' not in sys.modules\n"
                "a = qc.Series(qc.MOD64, np.arange(1, 2001, dtype=np.uint64))\n"
                "qc.mul(a, a)\n"
                "assert 'numpy.fft' in sys.modules\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(qc.__file__)))
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr

    def test_fft_size_is_5_smooth(self):
        for m in (1, 2, 7, 2999, 3001, 11999, 79999):
            size = _fft_size(m)
            assert size >= m
            rest = size
            for p in (2, 3, 5):
                while rest % p == 0:
                    rest //= p
            assert rest == 1
        assert _fft_size(11999) == 12000 and _fft_size(3001) == 3072


def sparse_u64(rng, n: int, terms: int, ring) -> np.ndarray:
    """n coefficients of which exactly `terms` are nonzero, at random places."""
    x = np.zeros(n, dtype=np.uint64)
    x[rng.choice(n, terms, replace=False)] = rng.integers(1, 1 << ring.width, terms,
                                                           dtype=np.uint64)
    return x


@pytest.fixture
def sparse_calls(monkeypatch):
    """One entry for every product that mul sends term by term."""
    calls, mul_sparse = [], qcong.series.mul_sparse
    monkeypatch.setattr(qcong.series, "mul_sparse",
                        lambda *args: calls.append(1) or mul_sparse(*args))
    return calls


class TestSparseMul:
    """mul mod 2^w with an operand that has few nonzero coefficients, which
    goes term by term through mul_sparse, against np.convolve."""

    @pytest.mark.parametrize("n", [1000, 6000])
    @pytest.mark.parametrize("ring", [qc.MOD64, qc.mod2pow(5)], ids=str)
    @pytest.mark.parametrize("extra, routed", [(-1, True), (0, True), (1, False)])
    def test_threshold(self, n, ring, extra, routed, sparse_calls):
        rng = np.random.default_rng(n + extra)
        x = sparse_u64(rng, n, sparse_limit(n) + extra, ring)
        y = random_u64(rng, n, ring)
        want = Series(ring, np.convolve(x, y)[:n])
        assert qc.mul(Series(ring, x), Series(ring, y)) == want
        assert qc.mul(Series(ring, y), Series(ring, x)) == want
        assert len(sparse_calls) == (2 if routed else 0)

    @pytest.mark.parametrize("n", [700, 6000])
    @pytest.mark.parametrize("ring", [qc.MOD64, qc.mod2pow(5)], ids=str)
    def test_sparse_times_sparse_and_unequal_orders(self, n, ring, sparse_calls):
        rng = np.random.default_rng(n)
        x = sparse_u64(rng, n, n // (2 * _SPARSE_RATIO), ring)
        y = sparse_u64(rng, n + 57, sparse_limit(n - 300), ring)  # sparse at n - 300
        z = random_u64(rng, n - 300, ring)
        got = qc.mul(Series(ring, x), Series(ring, y))
        assert got == Series(ring, np.convolve(x, y)[:n])
        got = qc.mul(Series(ring, z), Series(ring, x))
        assert got.order == n - 300
        assert got == Series(ring, np.convolve(x, z)[:n - 300])
        got = qc.mul(Series(ring, y), Series(ring, z))
        assert got == Series(ring, np.convolve(y, z)[:n - 300])
        assert len(sparse_calls) == 3

    @pytest.mark.parametrize("n", [700, 6000])
    @pytest.mark.parametrize("ring", [qc.MOD64, qc.mod2pow(5)], ids=str)
    @pytest.mark.parametrize("values", [(1, -1), (2, -2), (1, -1, 2, -2)])
    def test_small_coefficients(self, n, ring, values, sparse_calls):
        # +-1 terms take plain adds and subtracts, the rest a multiply pass
        rng = np.random.default_rng(n)
        x = sparse_u64(rng, n, n // (2 * _SPARSE_RATIO), ring)
        x[x != 0] = [ring.normalize(c) for c in rng.choice(values, np.count_nonzero(x))]
        x[0] = ring.normalize(values[-1])
        y = random_u64(rng, n, ring)
        want = Series(ring, np.convolve(x, y)[:n])
        terms = {e: int(c) for e, c in enumerate(x) if c}
        assert qc.mul_sparse(Series(ring, y), terms) == want
        assert qc.mul(Series(ring, x), Series(ring, y)) == want
        assert len(sparse_calls) == 1

    @pytest.mark.parametrize("n", [1000, 6000, 40000])
    @pytest.mark.parametrize("ring", [qc.MOD64, qc.mod2pow(5)], ids=str)
    def test_square_of_pentagonal_series(self, n, ring, sparse_calls):
        # f[3] is a series in q^3, so its square is f[1]'s at ceil(n / 3)
        # coefficients, where the route rule applies: f[1] to 334 has 30
        # terms, too many for mul_sparse
        routes = {1000: (1, 0), 6000: (1, 1), 40000: (1, 1)}[n]
        for m, routed in zip((1, 3), routes):
            f = qc.pentagonal_series(m, n, ring)
            x = np.array(f.coefficients(), dtype=np.uint64)
            sparse_calls.clear()
            assert qc.mul(f, f) == Series(ring, np.convolve(x, x)[:n])
            assert len(sparse_calls) == routed


def signed_ints(rng: random.Random, n: int, bits: int, density: float) -> np.ndarray:
    """n exact coefficients of at most `bits` bits, random signs, each one
    nonzero with probability `density`."""
    return np.array([rng.choice((1, -1)) * rng.randrange(1, 1 << bits)
                     if rng.random() < density else 0 for _ in range(n)], dtype=object)


def record_dense_routes(monkeypatch) -> list:
    """Patch the two dense exact routes of mul to log ("int64", False) for
    an np.convolve of int64 operands and ("fft", square) for an exact
    _fft_mul, and return the log."""
    calls, fft_mul, convolve = [], qcong.series._fft_mul, np.convolve
    monkeypatch.setattr(qcong.series, "_fft_mul", lambda x, y, width, sizes=None: calls.append(
        ("fft", y is None)) or fft_mul(x, y, width, sizes))
    monkeypatch.setattr(np, "convolve", lambda x, y: calls.append(
        ("int64" if x.dtype == y.dtype == np.int64 else str(x.dtype), False)) or convolve(x, y))
    return calls


def exact_fft_mul(x: np.ndarray, y: np.ndarray | None) -> np.ndarray | None:
    """_fft_mul in the exact ring, given the operand sizes as mul gives them."""
    return _fft_mul(x, y, None, (_bits(x), _bits(x if y is None else y)))


class TestExactSparseRoute:
    """The exact ring's route rule at its boundary: floor(n / 16) terms go
    through mul_sparse and one more goes dense, to the int64 np.convolve or
    to the FFT, as mod 2^w."""

    @pytest.mark.parametrize("n, bits, ratio, dense", [
        (100, 8, _SPARSE_RATIO, "int64"),
        (700, 8, _SPARSE_RATIO, "int64"),
        (800, 8, _SPARSE_RATIO, "fft"),
        (1200, 8, _SPARSE_RATIO, "fft"),
        (200, 40, _SPARSE_RATIO, "fft"),  # 40 + 40 + 8 > 63 bits
    ])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_boundary(self, n, bits, ratio, dense, extra, sparse_calls, monkeypatch):
        rng = random.Random(n + extra)
        x = np.zeros(n, dtype=object)
        x[0] = (1 << bits) - 1  # so bits(max|x|) is `bits`
        for e in rng.sample(range(1, n), sparse_limit(n, ratio) + extra - 1):
            x[e] = rng.choice((1, -1)) * rng.randrange(1, 1 << bits)
        y = signed_ints(rng, n, bits, 1.0)
        calls = record_dense_routes(monkeypatch)
        for a, b in ((x, y), (y, x)):
            got = qc.mul(Series(EXACT, a), Series(EXACT, b))
            assert got.coefficients() == schoolbook_mul(list(x), list(y), n)
        assert (len(sparse_calls), calls) == ((0, [(dense, False)] * 2) if extra else (2, []))


class TestKroneckerMul:
    """The dense exact product on the float FFT, against mul_sparse, the
    term-by-term product it replaces. The name is historical: the product
    was once one big-integer multiply (Kronecker substitution)."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 400), st.integers(1, 400),
           st.sampled_from([1.0, 0.5, 0.05]), st.booleans(), st.integers(0, 2**32))
    def test_matches_mul_sparse(self, n, xbits, ybits, density, square, seed):
        rng = random.Random(seed)
        x = signed_ints(rng, n, xbits, density)
        x[rng.randrange(n)] = -((1 << xbits) - 1)  # the bound itself is reached
        y = x if square else signed_ints(rng, n, ybits, density)
        want = qc.mul_sparse(Series(EXACT, y), {e: int(x[e]) for e in np.flatnonzero(x)})
        assert exact_fft_mul(x, None if square else y).tolist() == want.coefficients()

    @pytest.mark.parametrize("n", [100, 700])
    def test_mul_routes_dense_products_here(self, n, monkeypatch):
        # the partition numbers to 99 have 28 bits, so their square at order 100
        # fits an int64 (28 + 28 + 7 = 63 bits); the next product does not
        routes = {100: [("int64", False), ("fft", False)],
                  700: [("fft", True), ("fft", False)]}[n]
        calls = record_dense_routes(monkeypatch)
        a = qc.invert(qc.pentagonal_series(1, n, EXACT))  # partition numbers
        calls.clear()
        b = qc.mul(a, a)
        sq = [int(v) for v in a.coefficients()]
        assert b.coefficients() == schoolbook_mul(sq, sq, n)
        assert qc.mul(b, a).coefficients() == schoolbook_mul(b.coefficients(), sq, n)
        assert calls == routes  # a square transforms one operand

    # A product coefficient of b-bit operands needs b + b + bitlen(n) + 1
    # bits with its sign, read from whole 16-bit digits: at n = 255 and
    # b = 200 that is 409 bits, 26 digits; 408 bits would leave
    # 255 * (2^200 - 1)^2 > 2^407 no room for its sign. The orders around it
    # put the top coefficient at every digit alignment, and 13 balanced
    # 16-bit limbs hold up to 206 bits, so 207 takes 14.
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 255, 256, 300])
    @pytest.mark.parametrize("bits", [200, 201, 204, 207])
    def test_slot_boundary(self, n, bits):
        m = (1 << bits) - 1
        negative = np.array([-m] * n, dtype=object)
        alternating = np.array([(-1) ** i * m for i in range(n)], dtype=object)
        positive = -negative
        for x, y, sign in ((negative, None, 1), (negative, positive, -1),
                           (alternating, None, None), (alternating, negative, None)):
            got = exact_fft_mul(x, y)
            ys = x if y is None else y
            want = [sum(int(x[i]) * int(ys[k - i]) for i in range(k + 1)) for k in range(n)]
            assert got.tolist() == want
            if sign is not None:  # every coefficient k has magnitude (k+1) * m^2
                assert want[-1] == sign * n * m * m

    @staticmethod
    def record_tries(monkeypatch) -> list:
        """Log (limb bits, passed the guard) for every exact FFT product: each
        try of `_fft_mul`, and each of the two products of a Newton step."""
        tries, groups = [], qcong.series._groups

        def recorded(xs, ys, size, lo, hi, width, bits, top):
            out = groups(xs, ys, size, lo, hi, width, bits, top)
            if width is None:
                tries.append((bits, out is not None))
            return out

        monkeypatch.setattr(qcong.series, "_groups", recorded)
        return tries

    @pytest.mark.parametrize("noisy_calls, want_tries, convolve_calls", [
        (1, [(16, False), (8, True)], 0),  # the first inverse transform only
        (None, [(16, False), (8, False)], 1),  # every one
    ])
    def test_rounding_guard_falls_back(self, monkeypatch, noisy_calls, want_tries,
                                       convolve_calls):
        # noise past the guard's tolerance: a retry on 8-bit limbs, and after
        # it np.convolve on Python ints, still give the exact product
        n, rng = 300, random.Random(17)
        x, y = signed_ints(rng, n, 150, 1.0), signed_ints(rng, n, 90, 1.0)
        tries = self.record_tries(monkeypatch)
        irfft, convolve, calls = np.fft.irfft, np.convolve, []

        def noisy(*args, **kw):
            calls.append("irfft")
            noise = 0.3 if noisy_calls is None or len(calls) <= noisy_calls else 0.0
            return irfft(*args, **kw) + noise

        monkeypatch.setattr(np.fft, "irfft", noisy)
        monkeypatch.setattr(np, "convolve",
                            lambda *args: calls.append("convolve") or convolve(*args))
        got = qc.mul(Series(EXACT, x), Series(EXACT, y))
        assert got.coefficients() == schoolbook_mul(list(x), list(y), n)
        assert tries == want_tries
        assert calls.count("convolve") == convolve_calls

    def test_published_suite_passes_the_guard_at_first_width(self, monkeypatch):
        # every dense exact product of the catalogue at (400, 40000, 2) is
        # exact on its first limb width
        tries = self.record_tries(monkeypatch)
        qc.run_catalogue(qc.build_suite_context(400, 40000, 2))
        assert tries and all(passed for _, passed in tries)


class TestInt64Mul:
    """A dense exact product below _FFT_MIN_ORDER with bits(max|x|) +
    bits(max|y|) + bitlen(n) <= 63 is one np.convolve in int64; at 64 it is
    the FFT. Operands at the largest magnitude put the top sum at
    n * (2^bx - 1) * (2^by - 1), below 2^63 at 63 bits, and at 64 bits past
    it for n = 127, 128, 255, 300 and 799, where an int64 would wrap."""

    @pytest.mark.parametrize("n", [1, 2, 127, 128, 255, 256, 300, _FFT_MIN_ORDER - 1])
    @pytest.mark.parametrize("total", [63, 64])
    @pytest.mark.parametrize("xbits", [1, 27])
    def test_bound(self, n, total, xbits, monkeypatch):
        ybits = total - n.bit_length() - xbits
        mx, my = (1 << xbits) - 1, (1 << ybits) - 1
        rng = random.Random(n * total + xbits)
        def operands(m):
            return {"negative": [-m] * n, "positive": [m] * n,
                    "alternating": [(-1) ** i * m for i in range(n)],
                    "mixed": [rng.choice((1, -1)) * m for _ in range(n)]}
        xs, ys = operands(mx), operands(my)
        calls = record_dense_routes(monkeypatch)
        route = ("int64", False) if total == 63 else ("fft", False)
        for kx, ky in (("negative", "negative"), ("negative", "positive"),
                       ("alternating", "alternating"), ("alternating", "negative"),
                       ("mixed", "mixed")):
            x, y = xs[kx], ys[ky]
            calls.clear()
            got = qc.mul(Series(EXACT, x), Series(EXACT, y))
            assert got.coefficients() == schoolbook_mul(x, y, n), (kx, ky)
            assert calls == [route]
            if (kx, ky) == ("negative", "positive"):
                assert got[n - 1] == -n * mx * my

    @pytest.mark.parametrize("n", [127, 128, 255, 256])
    @pytest.mark.parametrize("total", [63, 64])
    def test_square(self, n, total, monkeypatch):
        # a square's 2 * bits + bitlen(n) is 63 at n = 127 and 256 for both
        # totals, and 62 or 64 at n = 128 and 255
        bits = (total - n.bit_length()) // 2
        m = (1 << bits) - 1
        calls = record_dense_routes(monkeypatch)
        for x in ([-m] * n, [(-1) ** i * m for i in range(n)]):
            a = Series(EXACT, x)
            calls.clear()
            assert qc.mul(a, a).coefficients() == schoolbook_mul(x, x, n)
            fits = 2 * bits + n.bit_length() <= 63
            assert calls == [("int64", False) if fits else ("fft", True)]

    def test_at_fft_min_order_takes_the_fft(self, monkeypatch):
        n = _FFT_MIN_ORDER
        x = [(-1) ** i * 3 for i in range(n)]
        calls = record_dense_routes(monkeypatch)
        got = qc.mul(Series(EXACT, x), Series(EXACT, x[::-1]))
        assert got.coefficients() == schoolbook_mul(x, x[::-1], n)
        assert calls == [("fft", False)]


class TestInvert:
    def test_geometric_series(self):
        one_minus_q = exact_series([1, -1] + [0] * 10)
        assert qc.invert(one_minus_q).coefficients() == [1] * 12

    def test_invert_euler_product_counts_partitions(self):
        n = 40
        prod = monomial(EXACT, n, 0)
        for j in range(1, n):
            prod = qc.mul_sparse_binomial(prod, -1, j)
        assert qc.invert(prod).coefficients() == partition_table(n - 1)

    def test_nonunit_constant_rejected(self):
        with pytest.raises(qc.NonUnitError) as err:
            qc.invert(exact_series([2, 1]))
        assert str(err.value) == "constant term 2 is not a unit in the exact ring"
        with pytest.raises(qc.NonUnitError) as err:
            qc.invert(Series(qc.mod2pow(6), [2, 1]))
        assert str(err.value) == "constant term 2 is not a unit mod 2^6"
        with pytest.raises(qc.NonUnitError):
            qc.invert(Series(qc.MOD64, [4, 1]))

    @given(unit_lists)
    def test_invert_roundtrip(self, xs):
        a = exact_series(xs)
        prod = qc.mul(a, qc.invert(a))
        assert prod == monomial(EXACT, a.order, 0)

    @given(unit_lists.filter(lambda xs: xs[0] & 1), widths)
    def test_mod_invert_matches_reduced_exact(self, xs, w):
        # mod ring admits any odd unit, exact only +-1, so pin leading term
        ring = qc.mod2pow(w)
        a = Series(ring, xs)
        prod = qc.mul(a, qc.invert(a))
        assert prod == monomial(ring, a.order, 0)

    def test_division_dunder(self):
        a = exact_series([2, 3, 5, 7])
        b = exact_series([1, 1, 0, 0])
        assert qc.mul(a / b, b) == a


def recurrence_inverse(x: np.ndarray, ring) -> Series:
    """Reference 1/x mod 2^w, one coefficient at a time:
    b[k] = -(x[1]*b[k-1] + ... + x[k]*b[0]) / x[0]."""
    b = np.zeros(len(x), dtype=np.uint64)
    if len(x):
        inv0 = np.uint64(pow(int(x[0]), -1, 1 << 64))
        b[0] = inv0
        with np.errstate(over="ignore"):  # uint64 wraps mod 2^64
            for k in range(1, len(x)):
                b[k] = inv0 * (np.uint64(0) - np.dot(x[1:k + 1], b[k - 1::-1]))
    return Series(ring, b)


def newton_chain(n: int) -> list:
    """The orders m of invert's Newton steps to order n, first to last: each
    takes the k = ceil(m / 2) terms of the step before it to m."""
    chain = [n]
    while chain[-1] > _NEWTON_MIN_ORDER:
        chain.append((chain[-1] + 1) // 2)
    return chain[-2::-1]


def record_fft_mul(monkeypatch) -> list:
    """Log the order of every _fft_mul call."""
    orders, fft_mul = [], qcong.series._fft_mul
    monkeypatch.setattr(qcong.series, "_fft_mul", lambda x, y, width, sizes=None:
                        orders.append(len(x)) or fft_mul(x, y, width, sizes))
    return orders


class TestNewtonInvert:
    """invert mod 2^w (Newton's iteration above _NEWTON_MIN_ORDER), and in
    the exact ring, against the plain coefficient recurrence. Where `mul`
    would send a step's first product to the FFT, the step is one shared
    transform of b and two products at _fft_size(m), never `_fft_mul`; the
    chains of 800 and 1600 hold steps with _fft_size(m) = m, the tightest
    wrap, and that of 6001 odd m."""

    @pytest.mark.parametrize("n", [0, 1, 2, _NEWTON_MIN_ORDER - 1, _NEWTON_MIN_ORDER,
                                   _NEWTON_MIN_ORDER + 1, _FFT_MIN_ORDER - 1,
                                   _FFT_MIN_ORDER, 1499, 1500, 1600, 6000, 6001])
    @pytest.mark.parametrize("w", [1, 5, 8, 33, 64])
    def test_matches_recurrence(self, n, w, monkeypatch):
        ring = qc.mod2pow(w)
        x = random_u64(np.random.default_rng(n * w), n, ring)
        orders = record_fft_mul(monkeypatch)
        for c0 in (1, 3, ring.modulus - 1):
            x[:1] = c0 & (ring.modulus - 1)
            a = Series(ring, x)
            orders.clear()
            got = qc.invert(a)
            assert got == recurrence_inverse(x, ring)
            assert orders == []  # every FFT step is the shared-spectra one
            assert qc.mul(a, got) == monomial(ring, n, 0)

    @pytest.mark.parametrize("w", [5, 64])
    def test_matches_recurrence_at_40000(self, w):
        ring, n = qc.mod2pow(w), 40000
        x = random_u64(np.random.default_rng(w), n, ring)
        x[0] = ring.modulus - 1
        a = Series(ring, x)
        got = qc.invert(a)
        assert got == recurrence_inverse(x, ring)
        assert qc.mul(a, got) == monomial(ring, n, 0)

    @pytest.mark.parametrize("n", [1500, 6000])
    def test_sparse_operand(self, n, monkeypatch):
        # f[m] takes the sparse mul route inside every Newton step, and the
        # step's second product is `mul`'s, on the FFT from order 800 (f[2]
        # inverts as f[1] at half the order)
        orders = record_fft_mul(monkeypatch)
        for m in (1, 2):
            f = qc.pentagonal_series(m, n, qc.MOD64)
            orders.clear()
            got = qc.invert(f)
            assert got == recurrence_inverse(np.array(f.coefficients(), dtype=np.uint64),
                                             qc.MOD64)
            assert qc.mul(f, got) == monomial(qc.MOD64, n, 0)  # term by term
            chain = newton_chain(-(-n // m))
            assert orders == [s // 2 for s in chain if s // 2 >= _FFT_MIN_ORDER]

    def test_step_transforms_b_once(self, monkeypatch):
        # each FFT step mod 2^64 transforms a, b and e once each and makes
        # two products, all at _fft_size(m): 3L forward and 2L inverse
        # transforms for L limbs; the steps below _FFT_MIN_ORDER make none
        n, calls = 6000, []
        for name in ("rfft", "irfft"):
            real = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda v, size, *args, real=real, name=name, **kw:
                                calls.append((name, size)) or real(v, size, *args, **kw))
        x = random_u64(np.random.default_rng(9), n, qc.MOD64)
        x[0] = 1
        got = qc.invert(Series(qc.MOD64, x))
        want = []
        for m in newton_chain(n):
            if m >= _FFT_MIN_ORDER:
                limbs = -(-64 // _fft_limbs((m + 1) // 2, 64)[1])
                want += [("rfft", _fft_size(m))] * 3 * limbs
                want += [("irfft", _fft_size(m))] * 2 * limbs
        assert sorted(calls) == sorted(want) and len(want) == 3 * 5 * 4
        assert got == recurrence_inverse(x, qc.MOD64)

    @pytest.mark.parametrize("ring", [qc.MOD64, EXACT], ids=str)
    def test_noisy_step_falls_back_to_two_products(self, ring, monkeypatch):
        # noise past the guard's tolerance in the first inverse transform,
        # the first FFT step's: that step is `mul`'s two products instead,
        # the first on the FFT, and np.convolve runs at no FFT order. Exact,
        # 8-bit coefficients put every step's first product past an int64
        n = 1600 if ring == qc.MOD64 else 260
        if ring == EXACT:
            rng = random.Random(8)
            x = [-1] + [rng.randrange(-255, 256) for _ in range(n - 1)]
            a, want = Series(ring, x), inverse(x)
        else:
            x = random_u64(np.random.default_rng(4), n, ring)
            x[0] = 1
            a, want = Series(ring, x), recurrence_inverse(x, ring).coefficients()
        irfft, convolve, calls = np.fft.irfft, np.convolve, []

        def noisy_once(*args, **kw):
            calls.append("irfft")
            return irfft(*args, **kw) + (0.3 if calls.count("irfft") == 1 else 0.0)

        monkeypatch.setattr(np.fft, "irfft", noisy_once)
        monkeypatch.setattr(np, "convolve", lambda x, y: calls.append(len(x)) or convolve(x, y))
        orders = record_fft_mul(monkeypatch)
        got = qc.invert(a).coefficients()
        assert got == want and (ring == qc.MOD64 or max(map(abs, got)).bit_length() > 64)
        first = _FFT_MIN_ORDER if ring == qc.MOD64 else newton_chain(n)[0]
        assert orders[0] == first and set(orders) <= {first, first // 2}
        assert all(c == "irfft" or c < _FFT_MIN_ORDER for c in calls)

    @pytest.mark.parametrize("n", [200, 800, 1001])
    def test_exact_dense_matches_inverse(self, n, monkeypatch):
        # 1/f1^4 at -q: alternating signs, past 2^64 from about order 200.
        # A step whose first product fits an int64 convolves there, and its
        # second product may still take `_fft_mul`; every other step shares
        # b's spectra, so no first product of a step reaches `_fft_mul`
        f4 = qc.power(qc.pentagonal_series(1, n, EXACT), 4)
        firsts, windows = [], []
        fft_mul, groups = qcong.series._fft_mul, qcong.series._groups
        monkeypatch.setattr(qcong.series, "_fft_mul", lambda x, y, width, sizes=None:
                            firsts.append(np.shares_memory(x, a._c)) or fft_mul(x, y, width, sizes))
        monkeypatch.setattr(qcong.series, "_groups", lambda xs, ys, size, lo, *rest:
                            windows.append(lo) or groups(xs, ys, size, lo, *rest))
        for sign in (1, -1):
            a = qc.substitute_power(f4, 1, -1) * sign
            got = qc.invert(a).coefficients()
            assert got == inverse(a.coefficients())
            assert max(map(abs, got)).bit_length() > 64 and got[1] == -4 * sign
        assert not any(firsts)
        assert any(windows)  # only a step on b's shared spectra reads a window past q^0

    @pytest.mark.parametrize("route", ["sparse", "dense", "fft", "guard"])
    @pytest.mark.parametrize("ring", [EXACT, qc.mod2pow(8), qc.MOD64], ids=str)
    def test_step_is_the_next_terms_of_the_inverse(self, ring, route, monkeypatch):
        # one step from k = ceil(m/2) terms of 1/a to m on each route of its
        # first product, and on the FFT with its first rounding guard failed:
        # (1 + q)/(1 - q) and its inverse are dense with coefficients +-2, so
        # every exact sum fits an int64
        m = {"sparse": 1000, "dense": 301}.get(route, 801)
        if route == "sparse":
            xs = qc.pentagonal_series(1, m).coefficients()
        elif route == "dense":
            xs = [1] + [2] * (m - 1)
        else:
            xs = qc.power(qc.pentagonal_series(1, m), 4).coefficients()
        modulus, k = ring.modulus, (m + 1) // 2
        xs = [v % modulus if modulus else v for v in xs]
        b = inverse(xs[:k], modulus)
        e = schoolbook_mul(xs, b, m)[k:]
        want = [-v % modulus if modulus else -v for v in schoolbook_mul(b, e, m - k)]
        assert want == inverse(xs, modulus)[k:]
        routes, route_of, irfft = [], qcong.series._route, np.fft.irfft
        monkeypatch.setattr(qcong.series, "_route", lambda *args:
                            routes.append((r := route_of(*args))[0]) or r)
        if route == "guard":
            noise = iter([0.3])
            monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw:
                                irfft(*args, **kw) + next(noise, 0.0))
        orders = record_fft_mul(monkeypatch)
        got = qcong.series._newton_step(Series(ring, xs)._c, Series(ring, b)._c, ring)
        assert got.tolist() == want
        dense = "convolve" if modulus else "int64"
        assert routes[0] == {"sparse": "sparse", "dense": dense}.get(route, "fft")
        if route == "fft":
            assert orders == []  # both products on b's shared spectra
        if route == "guard":
            assert orders[0] == m  # the first product again, as `mul` takes it

    def test_dense_invert_memory_is_one_product(self):
        # one dense inverse at 100000 mod 2^64 peaks no higher than one
        # product at that order may: its largest step holds three limb
        # spectra at about half that product's transform length
        n = 100000
        x = random_u64(np.random.default_rng(6), n, qc.MOD64)
        x[0] = 1
        a = Series(qc.MOD64, x)
        tracemalloc.start()
        qc.invert(a)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= TestFFTMul.peak_allowed(n, 2 * _fft_limbs(n, 64)[0])

    @pytest.mark.parametrize("n", [0, 1, 2, _NEWTON_MIN_ORDER - 1, _NEWTON_MIN_ORDER,
                                   _NEWTON_MIN_ORDER + 1, 200])
    def test_exact_matches_recurrence(self, n):
        # coefficients beyond +-2^64, negative ones, and a constant term of +-1
        rng = np.random.default_rng(n)
        for a0 in (1, -1):
            x = ([a0] + [int(v) << 10 for v in rng.integers(-(1 << 62), 1 << 62, n)])[:n]
            a = exact_series(x)
            got = qc.invert(a)
            assert got.coefficients() == inverse(x)
            assert qc.mul(a, got) == monomial(EXACT, n, 0)

    @pytest.mark.parametrize("n", [_NEWTON_MIN_ORDER - 1, _NEWTON_MIN_ORDER,
                                   _NEWTON_MIN_ORDER + 1, 700, 2800])
    def test_exact_matches_mul_sparse_divide(self, n):
        # the exact divide recurrence Newton's iteration replaced above
        # _NEWTON_MIN_ORDER: on f[1] (sparse; its inverse, the partition
        # numbers, passes 2^150) and on that inverse at -q (dense, signed)
        one = monomial(EXACT, n, 0)
        f1 = qc.pentagonal_series(1, n, EXACT)
        partitions = qc.mul_sparse(one, {e: c for e, c in enumerate(f1.coefficients()) if c},
                                   "divide")
        for a in (f1, qc.substitute_power(partitions, 1, -1)):
            terms = {e: c for e, c in enumerate(a.coefficients()) if c}
            assert qc.invert(a) == qc.mul_sparse(one, terms, "divide")

    @pytest.mark.parametrize("n", [1, _NEWTON_MIN_ORDER + 1, 6000])
    @pytest.mark.parametrize("w", [1, 5, 64])
    def test_even_constant_term_rejected(self, n, w):
        ring = qc.mod2pow(w)
        x = random_u64(np.random.default_rng(n), n, ring)
        x[0] = 2 & (ring.modulus - 1)
        with pytest.raises(qc.NonUnitError):
            qc.invert(Series(ring, x))


def q_power_series(rng, ring, n: int, d: int, dense: bool) -> np.ndarray:
    """n coefficients of a random series in q^d: every d-th one drawn (dense)
    or about four of them (sparse), the rest zero; exact ones pass 2^64."""
    x = np.zeros(n, dtype=ring.dtype)
    slots = np.arange(0, n, d)
    if not dense:
        slots = rng.choice(slots, min(4, len(slots)), replace=False)
    shift = 8 if ring == EXACT else 0
    x[slots] = [ring.normalize(int(v) << shift)
                for v in rng.integers(-(1 << 62), 1 << 62, len(slots))]
    return x


def terms_of(x: np.ndarray) -> dict:
    return {e: int(c) for e, c in enumerate(x) if c}


def reference_mul(x: np.ndarray, y: np.ndarray, ring) -> Series:
    """The uncompressed product to min(len(x), len(y)): np.convolve mod 2^w,
    mul_sparse over x's terms in the exact ring."""
    n = min(len(x), len(y))
    if ring == EXACT:
        return qc.mul_sparse(Series(ring, y[:n]), terms_of(x[:n]))
    return Series(ring, np.convolve(x[:n], y[:n])[:n])


def reference_invert(x: np.ndarray, ring) -> Series:
    """The uncompressed inverse: mul_sparse's divide recurrence."""
    return qc.mul_sparse(monomial(ring, len(x), 0), terms_of(x), "divide")


class TestStrideCompression:
    """mul and invert of series in q^d run at ceil(n / d) coefficients; they
    must equal the uncompressed references."""

    rings = st.sampled_from([EXACT, qc.MOD64, qc.mod2pow(5)])

    @settings(max_examples=80, deadline=None)
    @given(rings, st.integers(2, 8), st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 3]),
           st.integers(1, 300), st.integers(0, 5), st.booleans(), st.booleans(),
           st.integers(0, 2**32))
    def test_mul_matches_uncompressed(self, ring, d, ka, kb, n, extra, dense_a, dense_b,
                                      seed):
        # a is a series in q^(d*ka), b in q^(d*kb) and one coefficient longer
        # or more: the stride is their gcd, at least d
        rng = np.random.default_rng(seed)
        x = q_power_series(rng, ring, n, d * ka, dense_a)
        y = q_power_series(rng, ring, n + extra, d * kb, dense_b)
        a, b = Series(ring, x), Series(ring, y)
        want = reference_mul(x, y, ring)
        assert qc.mul(a, b) == want
        assert qc.mul(b, a) == want
        assert qc.mul(a, a) == reference_mul(x, x, ring)  # the square route

    @settings(max_examples=80, deadline=None)
    @given(rings, st.integers(2, 8), st.integers(1, 300), st.booleans(),
           st.integers(0, 2**32))
    def test_invert_matches_uncompressed(self, ring, d, n, dense, seed):
        rng = np.random.default_rng(seed)
        x = q_power_series(rng, ring, n, d, dense)
        x[0] = ring.normalize(int(rng.choice([1, -1])) if ring == EXACT
                              else 2 * int(rng.integers(0, 1 << 20)) + 1)
        assert qc.invert(Series(ring, x)) == reference_invert(x, ring)

    @pytest.mark.parametrize("ring", [qc.MOD64, qc.mod2pow(5)], ids=str)
    def test_fft_route_at_6000(self, ring):
        # compressed to 3000 coefficients, a dense product is still an FFT one
        rng = np.random.default_rng(11)
        x, y = (q_power_series(rng, ring, 6000, 2, True) for _ in range(2))
        assert qc.mul(Series(ring, x), Series(ring, y)) == reference_mul(x, y, ring)
        x[0] = 1
        assert qc.invert(Series(ring, x)) == recurrence_inverse(x, ring)

    def test_product_runs_at_the_compressed_order(self, monkeypatch):
        orders, fft_mul = [], qcong.series._fft_mul
        monkeypatch.setattr(qcong.series, "_fft_mul",
                            lambda x, y, width, sizes=None: orders.append(len(x))
                            or fft_mul(x, y, width, sizes))
        x = q_power_series(np.random.default_rng(3), EXACT, 200, 3, True)
        a = Series(EXACT, x)
        assert qc.mul(a, a) == reference_mul(x, x, EXACT)
        assert orders == [67]

    @pytest.mark.parametrize("ring", [EXACT, qc.MOD64, qc.mod2pow(5)], ids=str)
    def test_stride(self, ring):
        def series(n, terms):
            x = np.zeros(n, dtype=ring.dtype)
            for e, c in terms.items():
                x[e] = ring.scalar(c)
            return x
        assert qcong.series._stride(series(0, {})) == 0
        assert qcong.series._stride(series(9, {}), series(9, {0: 3})) == 0
        assert qcong.series._stride(series(1, {0: 1})) == 0
        assert qcong.series._stride(series(30, {0: 1, 8: 1, 24: -1}),
                                    series(30, {6: 1, 18: 1})) == 2
        assert qcong.series._stride(series(30, {0: 1, 12: 3}), series(30, {1: 1})) == 1
        assert qcong.series._stride(series(30, {0: 1, 9: 1, 27: 1})) == 9

    @pytest.mark.parametrize("ring", [EXACT, qc.MOD64, qc.mod2pow(5)], ids=str)
    def test_zero_and_constant_operands(self, ring):
        rng = np.random.default_rng(5)
        y = q_power_series(rng, ring, 40, 3, True)
        b = Series(ring, y)
        zero, seven = monomial(ring, 40, 0, 0), monomial(ring, 40, 0, 7)
        assert qc.mul(zero, b) == qc.mul(b, zero) == qc.mul(zero, zero) == zero
        assert qc.mul(seven, b) == qc.mul(b, seven) == 7 * b
        assert qc.mul(seven, seven) == monomial(ring, 40, 0, 49)
        minus_one = monomial(ring, 40, 0, -1)
        assert qc.invert(minus_one) == minus_one
        with pytest.raises(qc.NonUnitError):
            qc.invert(zero)

    @pytest.mark.parametrize("ring", [EXACT, qc.MOD64, qc.mod2pow(5)], ids=str)
    def test_q4_times_q6_and_q_d_times_dense(self, ring):
        rng = np.random.default_rng(6)
        for n in (1, 2, 5, 47, 300):
            x4 = q_power_series(rng, ring, n, 4, True)
            x6 = q_power_series(rng, ring, n + 3, 6, True)
            dense = q_power_series(rng, ring, n, 1, True)
            for x, y in ((x4, x6), (x6, x4), (x4, dense), (dense, x6)):
                assert qc.mul(Series(ring, x), Series(ring, y)) == reference_mul(x, y, ring)

    @pytest.mark.parametrize("ring", [EXACT, qc.MOD64, qc.mod2pow(5)], ids=str)
    @pytest.mark.parametrize("n", [1, 2, 7, _NEWTON_MIN_ORDER * 3 + 1])
    def test_non_unit_constant_term_rejected(self, ring, n):
        x = q_power_series(np.random.default_rng(n), ring, n, 3, True)
        x[0] = ring.normalize(2)
        with pytest.raises(qc.NonUnitError):
            qc.invert(Series(ring, x))


class TestPower:
    def test_small_powers(self):
        a = exact_series([1, 1, 0, 0, 0, 0])
        assert qc.power(a, 3).coefficients() == [1, 3, 3, 1, 0, 0]
        assert qc.power(a, 0) == monomial(EXACT, 6, 0)
        assert qc.power(a, 1) == a

    def test_negative_power(self):
        a = exact_series([1, -1] + [0] * 6)
        assert qc.power(a, -2).coefficients() == [1, 2, 3, 4, 5, 6, 7, 8]

    @given(unit_lists, st.integers(2, 6))
    def test_power_matches_repeated_mul(self, xs, e):
        a = exact_series(xs)
        byhand = a
        for _ in range(e - 1):
            byhand = qc.mul(byhand, a)
        assert qc.power(a, e) == byhand
        assert a**e == byhand


class TestSparseBinomial:
    @given(coeff_lists, st.integers(-5, 5), st.integers(1, 8))
    def test_multiply_matches_dense(self, xs, c, j):
        dense = [1] + [0] * (j - 1) + [c]
        got = qc.mul_sparse_binomial(exact_series(xs), c, j)
        assert got.coefficients() == schoolbook_mul(xs, dense, len(xs))

    @given(coeff_lists, st.integers(-5, 5), st.integers(1, 8))
    def test_divide_undoes_multiply(self, xs, c, j):
        a = exact_series(xs)
        through = qc.mul_sparse_binomial(qc.mul_sparse_binomial(a, c, j), c, j, "divide")
        assert through == a

    @pytest.mark.parametrize("w", [2, 3, 64])
    @pytest.mark.parametrize("c", [1, -1, 3])
    def test_mod_divide_matches_exact_route(self, w, c):
        # covers the cumsum fast paths (c = +-1; 11 rows of period 6 for
        # c = 1, 22 rows of period 3 for c = -1) and the generic fallback
        ring = qc.mod2pow(w)
        xs = [1, 5, -2, 0, 3, 7, -9, 4, 4, 1, 0, 2, 6] * 5
        exact = recurrence_divide(xs, sparse_list({0: 1, 3: c}, len(xs)))
        assert qc.mul_sparse_binomial(exact_series(xs), c, 3, "divide") == exact_series(exact)
        modular = qc.mul_sparse_binomial(Series(ring, xs), c, 3, "divide")
        assert modular == Series(ring, exact)

    @pytest.mark.parametrize("ring", [EXACT, qc.mod2pow(5), qc.MOD64], ids=str)
    @pytest.mark.parametrize("c", [1, -1])
    @pytest.mark.parametrize("j", [1, 2, 7, 100])
    def test_divide_at_the_block_count_boundary(self, ring, c, j):
        # up to 16 blocks of j the divide is one slice op a block, past that
        # a cumsum along the residue classes
        rng = random.Random(j)
        for n in (16 * j - 1, 16 * j, 16 * j + 1, 40 * j + 3):
            xs = [rng.randrange(-2**70, 2**70) for _ in range(n)]
            got = qc.mul_sparse_binomial(Series(ring, xs), c, j, "divide")
            assert got == Series(ring, recurrence_divide(xs, sparse_list({0: 1, j: c}, n))), n

    def test_divide_is_geometric(self):
        got = qc.mul_sparse_binomial(monomial(EXACT, 9, 0), -1, 2, "divide")
        assert got.coefficients() == [1, 0, 1, 0, 1, 0, 1, 0, 1]

    def test_bad_arguments(self):
        a = exact_series([1, 2, 3])
        with pytest.raises(ValueError):
            qc.mul_sparse_binomial(a, 1, 0)
        with pytest.raises(ValueError):
            qc.mul_sparse_binomial(a, 1, 1, "sideways")


sparse_factors = st.dictionaries(st.integers(0, 30), st.integers(-9, 9), max_size=6)
rings = st.one_of(st.just(EXACT), widths.map(qc.mod2pow))


class TestSparseFactor:
    @given(coeff_lists, sparse_factors, rings)
    def test_multiply_matches_dense(self, xs, terms, ring):
        dense = sparse_list(terms, len(xs))
        got = qc.mul_sparse(Series(ring, xs), terms)
        assert got == Series(ring, schoolbook_mul(xs, dense, len(xs)))

    @given(coeff_lists, sparse_factors, rings, st.sampled_from([1, -1, 3]))
    def test_divide_matches_inverse(self, xs, terms, ring, c0):
        terms = dict(terms)
        terms[0] = 1 if ring == EXACT and c0 == 3 else c0  # exact units are +-1
        a = Series(ring, xs)
        dense = sparse_list(terms, len(xs))
        got = qc.mul_sparse(a, terms, "divide")
        assert got == Series(ring, schoolbook_mul(xs, inverse(dense, ring.modulus), len(xs)))
        assert got == Series(ring, recurrence_divide(xs, dense, ring.modulus))
        assert qc.mul_sparse(got, terms) == a

    def test_bad_arguments(self):
        a = exact_series([1, 2, 3])
        with pytest.raises(qc.NonUnitError):
            qc.mul_sparse(a, {0: 2, 1: 1}, "divide")
        with pytest.raises(qc.NonUnitError):
            qc.mul_sparse(Series(qc.MOD64, [1, 2]), {1: 1}, "divide")
        with pytest.raises(ValueError):
            qc.mul_sparse(a, {-1: 1})
        with pytest.raises(ValueError):
            qc.mul_sparse(a, {0: 1}, "sideways")


class TestSparseDivide:
    """mul_sparse's divide, a Python-int recurrence in both rings, against
    recurrence_divide at the orders around invert's recurrence head and at
    the depth of the exact u_0."""

    @pytest.mark.parametrize("n", [1, _NEWTON_MIN_ORDER - 1, _NEWTON_MIN_ORDER,
                                   _NEWTON_MIN_ORDER + 1, 2800])
    @pytest.mark.parametrize("ring", [EXACT, qc.mod2pow(8), qc.MOD64], ids=str)
    def test_matches_recurrence_and_undoes_multiply(self, n, ring):
        rng = random.Random(n)
        # a unit constant term: -1 exact, an odd value other than 1 mod 2^w;
        # the rest mostly +-1, as in f[m], and some other values
        terms = {0: -1 if ring == EXACT else rng.randrange(3, ring.modulus, 2)}
        for e in rng.sample(range(1, n), min(n - 1, 2 * isqrt(n))):
            terms[e] = rng.choice((1, -1, 1, -1, 2, -3))
        terms[n + 3] = 5  # past the order: ignored
        if ring == EXACT:
            xs = [rng.randrange(-2**80, 2**80) for _ in range(n)]
        else:
            xs = [rng.randrange(ring.modulus) for _ in range(n)]
        a = Series(ring, xs)
        got = qc.mul_sparse(a, terms, "divide")
        assert got.coefficients() == recurrence_divide(xs, sparse_list(terms, n), ring.modulus)
        assert qc.mul_sparse(got, terms) == a
        assert qc.mul_sparse(qc.mul_sparse(a, terms), terms, "divide") == a

    @pytest.mark.parametrize("ring", [qc.mod2pow(1), qc.mod2pow(2)], ids=str)
    def test_minus_one_is_one_mod_2(self, ring):
        # mod 2 the terms 1 and -1 are one residue, which the divide counts once
        xs = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1] * 3
        terms = {0: 1, 1: 1, 3: -1, 4: 3, 7: -3}
        got = qc.mul_sparse(Series(ring, xs), terms, "divide")
        assert got.coefficients() == recurrence_divide(xs, sparse_list(terms, 30), ring.modulus)


def eulerian_reference(steps, order: int) -> list:
    """Independent reference for eulerian_sum in exact ints, which takes the
    steps (given last to first) first to last: every term is carried at full
    order, with no window, and each factor is a schoolbook multiply or a
    coefficient recurrence."""
    acc, u = [0] * order, [1] + [0] * (order - 1)
    for e, up, down in reversed(steps):
        if e >= order:
            break
        for c, j in up:
            u = schoolbook_mul(u, [1] + [0] * (j - 1) + [c], order)
        for c, j in down:
            u = recurrence_divide(u, sparse_list({0: 1, j: c}, order))
        for i in range(order - e):
            acc[e + i] += u[i]
    return acc


binomials = st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(1, 30)), max_size=3)


def last_to_first(raw: list) -> list:
    """Steps (e, up, down) from (e_step, up, down) tuples, e counted up from
    0 by the e_steps, then put last to first as eulerian_sum takes them."""
    steps, e = [], 0
    for de, up, down in raw:
        e += de
        steps.append((e, up, down))
    return steps[::-1]


sums = st.lists(st.tuples(st.integers(0, 6), binomials, binomials), max_size=8).map(last_to_first)


class TestEulerianSum:
    @given(st.integers(1, 24), sums, rings)
    def test_matches_full_order_terms(self, order, steps, ring):
        got = qc.eulerian_sum(ring, order, steps)
        assert got == Series(ring, eulerian_reference(steps, order))

    @pytest.mark.parametrize("ring", [EXACT, qc.MOD64, qc.mod2pow(5)], ids=str)
    def test_factor_at_or_past_the_window_is_a_no_op(self, ring):
        # the term at q^7 fills the window of the step at q^4
        last = (7, [(-1, 1)], [(1, 2)])
        bare = qc.eulerian_sum(ring, 10, [last, (4, [], []), (0, [], [])])
        # the second step's window is 10 - 4 = 6 coefficients
        for c, j in ((1, 6), (-1, 6), (1, 7), (-1, 40)):
            for up, down in (([(c, j)], []), ([], [(c, j)])):
                assert qc.eulerian_sum(ring, 10, [last, (4, up, down), (0, [], [])]) == bare
        # one inside the window is not
        assert qc.eulerian_sum(ring, 10, [last, (4, [(1, 5)], []), (0, [], [])]) != bare
        assert qc.eulerian_sum(ring, 10, [last, (4, [], [(1, 5)]), (0, [], [])]) != bare

    def test_steps_past_the_order_add_nothing(self):
        # sum over n of q^n / (1 - q)^(n+1) = 1 / (1 - 2q)
        steps = ((n, [], [(-1, 1)]) for n in reversed(range(40)))
        got = qc.eulerian_sum(EXACT, 10, steps)
        assert got.coefficients() == [2**i for i in range(10)]

    @pytest.mark.parametrize("up,down", [([(2, 1)], []), ([], [(2, 1)]),
                                         ([(0, 1)], []), ([], [(-2, 3)]),
                                         ([(1, 0)], []), ([], [(-1, 0)])])
    def test_rejects_a_factor_other_than_one_plus_minus_q_j(self, up, down):
        with pytest.raises(ValueError):
            qc.eulerian_sum(qc.MOD64, 5, [(0, up, down)])

    def test_rejects_a_negative_e(self):
        with pytest.raises(ValueError, match=r"^eulerian_sum step 1 has e = -1 < 0$"):
            qc.eulerian_sum(EXACT, 5, [(2, [(1, 1)], []), (-1, [], [])])

    def test_rejects_a_growing_e(self):
        # steps given first to last, as the sum's definition writes them
        with pytest.raises(ValueError, match=r"^eulerian_sum step 2 has e = 3 > 1, the e of "
                                             r"step 1: the steps go last to first$"):
            qc.eulerian_sum(EXACT, 5, [(1, [], []), (1, [(1, 1)], []), (3, [], [])])

    @pytest.mark.parametrize("up,down", [([(1, 1)] * 2, []), ([], [(-1, 1)]),
                                         ([(1, 2)], [(-1, 1), (1, 3)])])
    def test_exact_sum_leaves_int64_partway(self, up, down):
        # the last terms are small enough for one int64 limb; the sum
        # outgrows 2^62 on the way down, so its limbs first carry at some
        # step past the first
        order = 70
        steps = [(n, up, down) for n in reversed(range(order))]
        want = eulerian_reference(steps, order)
        assert max(map(abs, want)) > 2**62
        assert qc.eulerian_sum(EXACT, order, steps).coefficients() == want

    def test_exact_product_fails_the_bound_at_its_first_step(self):
        # (q; q)_inf to order 70: its 69 up factors would put a per-step
        # bound at 2^69 at once; the bound is kept factor by factor instead
        steps = [(0, [(-1, j) for j in range(1, 70)], [])]
        got = qc.eulerian_sum(EXACT, 70, steps)
        assert got.coefficients() == eulerian_reference(steps, 70)
        assert got == qc.pochhammer_inf(1, 1, 1, 70) == qc.pentagonal_series(1, 70)


    def test_binomial_powers_check_the_bound_factor_by_factor(self):
        # one step of 70 up factors doubles the bound 70 times: a bound
        # checked once a step would wrap (1 + q)^70, whose top is 2^66
        ups = qc.eulerian_sum(EXACT, 80, [(0, [(1, 1)] * 70, [])])
        assert ups.coefficients() == [comb(70, k) for k in range(80)]
        downs = qc.eulerian_sum(EXACT, 80, [(0, [], [(-1, 1)] * 40)]).coefficients()
        assert downs == [comb(39 + k, k) for k in range(80)]
        assert max(downs).bit_length() == 105

    @pytest.mark.parametrize("target", [64, 96, 128])
    @pytest.mark.parametrize("up,down", [([], [(-1, 1)]), ([(-1, 1)] * 2, [(1, 1)] * 3),
                                         ([(1, 2)], [(-1, 1), (1, 3)])])
    def test_exact_sum_across_a_limb_boundary(self, target, up, down):
        # the shortest orders whose largest coefficient passes 2^target, so
        # the top coefficients straddle the 32-bit limbs of the sum
        steps = [(n, up, down) for n in reversed(range(200))]
        want = eulerian_reference(steps, 200)
        first = next(n for n in range(200) if abs(want[n]).bit_length() > target)
        for order in (first, first + 1, first + 7):
            got = qc.eulerian_sum(EXACT, order, steps)
            assert got.coefficients() == want[:order]

    @pytest.mark.parametrize("target", [64, 96, 128])
    @pytest.mark.parametrize("up,down", [([], [(-1, 1)]), ([(-1, 1)] * 2, [(1, 1)] * 3),
                                         ([(1, 2)], [(-1, 1), (1, 3)])])
    @given(st.integers(0, 7), st.lists(sums, min_size=1, max_size=3), rings)
    @settings(max_examples=25)
    def test_is_the_product_of_its_sums(self, target, up, down, extra, later, ring):
        # the first sum's coefficients pass 2^target, so the addend of the
        # second has top coefficients straddling 32-bit limbs, negative ones too
        first = [(n, up, down) for n in reversed(range(200))]
        alone = qc.eulerian_sum(EXACT, 200, first).coefficients()
        order = extra + next(n for n in range(200) if abs(alone[n]).bit_length() > target)
        got = qc.eulerian_sum(ring, order, first, *later)
        separately = [qc.eulerian_sum(ring, order, steps) for steps in (first, *later)]
        assert got == functools.reduce(qc.mul, separately)

    @pytest.mark.parametrize("first,later,order", [
        # (1 + q)^62 ends near 2^59 uncarried; 32 adds of it pass 2^63
        ([(0, [(1, 1)] * 62, [])], [(0, [], [])] * 32, 70),
        # 2^n fills every limb; 1/(1 - q)^6 sums each limb C(n+5, 5)-fold
        ([(n, [], [(-1, 1)]) for n in reversed(range(200))], [(0, [], [(-1, 1)] * 6)], 200),
    ], ids=["adds", "divides"])
    def test_a_later_sum_keeps_the_limb_bound(self, first, later, order):
        # the addend of a later sum is the sum before it, carried once, so
        # its limbs start the bound at _CARRIED however large it grew
        separately = [qc.eulerian_sum(EXACT, order, steps) for steps in (first, later)]
        assert qc.eulerian_sum(EXACT, order, first, later) == qc.mul(*separately)

    @pytest.mark.parametrize("bad,match", [
        ([(2, [(1, 1)], []), (-1, [], [])], r"^eulerian_sum step 1 has e = -1 < 0$"),
        ([(1, [], []), (3, [], [])], r"^eulerian_sum step 1 has e = 3 > 1, the e of step 0"),
        ([(0, [], [(2, 1)])], r"^binomial factor \(1 \+ 2\*q\^1\) needs c = \+-1"),
    ])
    def test_rejects_a_bad_step_in_a_later_sum(self, bad, match):
        # `match` is the message of the bad step in a first sum; in the third
        # sum an e-error names that sum before the step
        good = [(n, [], [(-1, 1)]) for n in reversed(range(5))]
        with pytest.raises(ValueError, match=match):
            qc.eulerian_sum(EXACT, 5, bad, good)
        later = match.replace("^eulerian_sum step", "^eulerian_sum sum 3, step")
        with pytest.raises(ValueError, match=later):
            qc.eulerian_sum(EXACT, 5, good, good, bad)


class TestReindexing:
    @given(coeff_lists, st.integers(1, 5), st.sampled_from([1, -1]))
    def test_substitute_power_places_coefficients(self, xs, m, sign):
        a = exact_series(xs)
        out = qc.substitute_power(a, m, sign)
        assert out.order == m * (a.order - 1) + 1
        for i, x in enumerate(xs):
            assert out[m * i] == (sign**i) * x
        nonzero = [i for i, x in enumerate(out.coefficients()) if x]
        assert all(i % m == 0 for i in nonzero)

    @given(coeff_lists, st.integers(1, 5), st.sampled_from([1, -1]),
           st.integers(0, 30))
    def test_substitute_power_to_an_order(self, xs, m, sign, order):
        a = exact_series(xs)
        if order > m * a.order:
            with pytest.raises(qc.OrderError):
                qc.substitute_power(a, m, sign, order)
            return
        out = qc.substitute_power(a, m, sign, order)
        assert out.coefficients() == [
            sign ** (i // m) * xs[i // m] if i % m == 0 else 0
            for i in range(order)]

    def test_substitute_power_composes(self):
        a = exact_series([1, 2, 3, 4])
        twice = qc.substitute_power(qc.substitute_power(a, 2, 1), 3, 1)
        assert twice == qc.substitute_power(a, 6, 1)
        flip = qc.substitute_power(qc.substitute_power(a, 1, -1), 1, -1)
        assert flip == a

    @given(coeff_lists, st.integers(1, 4))
    def test_dissect_extracts_arithmetic_progression(self, xs, m):
        a = exact_series(xs)
        for r in range(m):
            part = qc.dissect(a, m, r)
            expected = xs[r::m]
            assert part.coefficients() == expected

    @given(coeff_lists, st.sampled_from([2, 3, 4]))
    def test_dissection_reconstructs_series(self, xs, m):
        a = exact_series(xs)
        pieces = []
        for r in range(m):
            d = qc.dissect(a, m, r)
            if d.order > 0:
                pieces.append(mul_sparse(qc.substitute_power(d, m, 1), {r: 1}))
        n = min([p.order for p in pieces] + [a.order])
        total = monomial(EXACT, n, 0, 0)
        for p in pieces:
            total = total + p.truncate(n)
        assert qc.first_incongruence(total, a, None, n) is None

    def test_dissect_bad_residue(self):
        a = exact_series([1, 2, 3])
        with pytest.raises(ValueError):
            qc.dissect(a, 3, -1)
        with pytest.raises(ValueError):
            qc.dissect(a, 0, 0)

    def test_dissect_offset_past_the_step(self):
        # r >= m reads a[m*n + r]: the class r mod m from its (r // m)-th term
        a = exact_series([1, 2, 3, 4, 5, 6, 7])
        assert qc.dissect(a, 2, 3).coefficients() == [4, 6]
        assert qc.dissect(a, 3, 3).coefficients() == [4, 7]
        assert qc.dissect(a, 3, 9).order == 0

    def test_shift(self):
        a = exact_series([1, 2, 3, 4])
        assert mul_sparse(a, {2: 1}).coefficients() == [0, 0, 1, 2]
        assert mul_sparse(a, {9: 1}).coefficients() == [0, 0, 0, 0]


class TestComparisonAndReduction:
    def test_truncate(self):
        a = exact_series([1, 2, 3, 4])
        assert a.truncate(2).coefficients() == [1, 2]
        with pytest.raises(qc.OrderError):
            a.truncate(5)
        assert a.truncate(4) == a

    def test_plain_equality_requires_known_coefficients(self):
        a = exact_series([1, 2, 3])
        b = exact_series([1, 2])
        assert qc.first_incongruence(a, b, None, 2) is None
        with pytest.raises(qc.OrderError):
            qc.first_incongruence(a, b, None, 3)

    @given(st.lists(st.integers(-9, 9), max_size=12),
           st.lists(st.tuples(st.integers(0, 11), st.integers(1, 40)), max_size=3),
           st.integers(0, 12), st.integers(0, 13),
           st.sampled_from([EXACT, qc.MOD64, qc.mod2pow(5)]))
    def test_plain_equality_matches_a_loop(self, xs, bumps, cut, n, ring):
        # b is a cut to `cut` terms with a few bumped, by 32 at times, which
        # leaves the coefficient alone mod 2^5
        ys = list(xs)
        for i, c in bumps:
            ys[i:i + 1] = [y + c for y in ys[i:i + 1]]
        a, b = Series(ring, xs), Series(ring, ys[:cut])
        if n > min(a.order, b.order):
            with pytest.raises(qc.OrderError):
                qc.first_incongruence(a, b, None, n)
            return
        want = next((i for i in range(n) if a[i] != b[i]), None)
        assert qc.first_incongruence(a, b, None, n) == want

    def test_first_incongruence_reduces_in_each_ring(self):
        a = exact_series([8, -3, 5])
        assert qc.first_incongruence(a, exact_series([0, 1, 1]), 4, 3) is None
        m = Series(qc.MOD64, [8, 3, 5])
        assert qc.first_incongruence(m, Series(qc.MOD64, [0, 3, 1]), 4, 3) is None
        assert qc.first_incongruence(m, Series(qc.MOD64, [0, 1, 1]), 4, 3) == 1
        with pytest.raises(ValueError):
            qc.first_incongruence(m, m, 12, 3)  # not a power of two

    def test_first_incongruence_finds_index_zero(self):
        # witness at exponent 0 must not be conflated with "no witness"
        a = exact_series([1, 4, 8])
        z = monomial(EXACT, 3, 0, 0)
        assert qc.first_incongruence(a, z, 4, 3) == 0

    def test_congruence_mod_ring(self):
        ring = qc.mod2pow(6)
        a = Series(ring, [8, 4, 12])
        z = monomial(ring, 3, 0, 0)
        assert qc.first_incongruence(a, z, 4, 3) is None
        assert qc.first_incongruence(a, z, 8, 3) == 1
        with pytest.raises(ValueError):
            qc.first_incongruence(a, z, 128, 3)  # exceeds ring width

    def test_which_moduli_a_ring_resolves(self):
        assert all(EXACT.resolves(m) for m in (2, 3, 12, 2**65))
        assert [m for m in range(1, 130) if qc.mod2pow(6).resolves(m)] == [
            2, 4, 8, 16, 32, 64]
        assert qc.MOD64.resolves(2**64) and not qc.MOD64.resolves(2**65)

    def test_congruence_order_limit(self):
        a = exact_series([1, 2])
        with pytest.raises(qc.OrderError):
            qc.first_incongruence(a, a, 2, 3)

    @pytest.mark.parametrize("n", [-1, -3, -4])
    def test_negative_order_is_refused(self, n):
        # a negative n would slice from the end and pass a differing pair
        a, b = exact_series([1, 2, 3, 4]), exact_series([1, 2, 3, 5])
        with pytest.raises(qc.OrderError, match=f"comparison order {n} is not within 0..4"):
            qc.first_incongruence(a, b, None, n)
        with pytest.raises(qc.OrderError):
            qc.verify_congruent(a, b, None, n)

    @given(coeff_lists, widths)
    def test_change_ring_reduces(self, xs, w):
        ring = qc.mod2pow(w)
        got = qc.change_ring(exact_series(xs), ring)
        assert got.coefficients() == [x & (ring.modulus - 1) for x in xs]

    def test_change_ring_narrowing_only(self):
        a = Series(qc.MOD64, [300, 5])
        narrowed = qc.change_ring(a, qc.mod2pow(8))
        assert narrowed.coefficients() == [44, 5]
        with pytest.raises(qc.RingMismatchError):
            qc.change_ring(narrowed, qc.MOD64)
        with pytest.raises(qc.RingMismatchError):
            qc.change_ring(a, EXACT)


ALL_RINGS = [EXACT] + [qc.mod2pow(w) for w in range(1, 65)]


class TestRingRules:
    """Each ring rule, arithmetic on the modulus, against the rule it
    replaced: written on the width w of Z/2^w, with w None for the exact
    ring."""

    @staticmethod
    def width_normalize(w, x):
        return x if w is None else x & ((1 << w) - 1)

    @staticmethod
    def width_is_unit(w, x):
        return x in (1, -1) if w is None else x & 1 == 1

    @staticmethod
    def width_resolves(w, m):
        return w is None or (1 < m <= 1 << w and not m & (m - 1))

    @staticmethod
    def width_reduces(w_from, w_to):
        return w_from == w_to or w_to is not None and (w_from is None or w_to <= w_from)

    def test_a_ring_is_its_modulus(self):
        assert [f.name for f in dataclasses.fields(qc.CoefficientRing)] == ["modulus"]
        assert (EXACT.modulus, qc.MOD64.modulus, qc.mod2pow(6).modulus) == (None, 2**64, 64)
        assert (str(EXACT), str(qc.MOD64), str(qc.mod2pow(6))) == (
            "exact", "mod2pow:64", "mod2pow:6")

    @pytest.mark.parametrize("ring", ALL_RINGS, ids=str)
    def test_rules_match_width_rules(self, ring):
        w = ring.width
        moduli = [*range(1, 131), 2**63, 2**64, 2**65]
        assert [ring.resolves(m) for m in moduli] == [self.width_resolves(w, m) for m in moduli]
        xs = [0, 1, -1, 2, -2, 3, -3, 4, -5, 255, -256, 2**63 - 1, -(2**64) - 1, 2**70 + 6]
        for x in xs:
            assert ring.normalize(x) == self.width_normalize(w, x)
            x = self.width_normalize(w, x)
            if self.width_is_unit(w, x):
                assert ring.unit_inverse(x) == (x if w is None else pow(x, -1, 1 << w))
            else:
                with pytest.raises(qc.NonUnitError):
                    ring.unit_inverse(x)
        a = Series(ring, xs)
        for target in ALL_RINGS:
            if self.width_reduces(w, target.width):
                got = qc.change_ring(a, target)
                assert got.ring == target
                assert got.coefficients() == [self.width_normalize(target.width, x)
                                              for x in a.coefficients()]
            else:
                with pytest.raises(qc.RingMismatchError):
                    qc.change_ring(a, target)


class TestNarrowestRing:
    @pytest.mark.parametrize("moduli, width", [
        ([4, 8], 8), ([2], 8), ([256], 8), ([4, 512], 9), ([2**20, 2], 20),
        ([2**64], 64), ([], 8),
    ])
    def test_power_of_two_moduli(self, moduli, width):
        ring = qc.narrowest_ring(moduli)
        assert ring == qc.mod2pow(width)
        assert all(ring.resolves(m) for m in moduli)

    @pytest.mark.parametrize("moduli", [[3], [4, 12], [2**65], [8, 2**65]])
    def test_anything_else_is_exact(self, moduli):
        assert qc.narrowest_ring(moduli) == EXACT


def test_series_defines_one_spelling_per_operation():
    # every public function and class of qcong.series is exported from qcong,
    # but for the four below; a second spelling of an operation cannot regrow
    # there unnoticed
    defined = {name for name, obj in vars(qcong.series).items()
               if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and inspect.getmodule(obj) is qcong.series}
    exported = {name for name in qc.__all__
                if inspect.getmodule(getattr(qc, name)) is qcong.series}
    assert defined == (exported & defined) | {"monomial", "check_modulus", "dump_text",
                                              "dump_json_dict"}


class TestDump:
    def test_text_lines(self):
        a = exact_series([1, 0, -2])
        assert dump_text(a) == "0\t1\n1\t0\n2\t-2"

    def test_json_dict(self):
        a = Series(qc.mod2pow(6), [1, -1])
        assert dump_json_dict(a) == {
            "order": 2,
            "ring": "mod2pow:6",
            "coeffs": ["1", "63"],
        }
