import pytest

import qcong as qc
from qcong import EXACT
from qcong.products import (
    euler_fm,
    pentagonal_series,
    pochhammer_fin,
    pochhammer_inf,
)
from qcong.qexpr import evaluate, parse
from qcong.series import monomial, mul_sparse


def eta_quotient(exponents: dict, order: int, ring=EXACT) -> qc.Series:
    """prod over m of f_m^(e_m), evaluated from its expression source."""
    src = "*".join(f"f[{m}]^{e}" for m, e in sorted(exponents.items()))
    return evaluate(parse(src or "1"), order, ring)


def distinct_partition_table(n_max: int) -> list:
    """Partitions into distinct parts, counted by subset-sum DP."""
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(n_max, part - 1, -1):
            table[n] += table[n - part]
    return table


def partition_table(n_max: int) -> list:
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            table[n] += table[n - part]
    return table


class TestPochhammer:
    def test_f1_first_coefficients(self):
        got = pochhammer_inf(1, 1, 1, 13)
        assert got.coefficients() == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]

    def test_negative_sign_counts_distinct_partitions(self):
        got = pochhammer_inf(-1, 1, 1, 7)
        assert got.coefficients() == distinct_partition_table(6)

    def test_all_factors_beyond_truncation(self):
        n = 9
        assert pochhammer_inf(1, n, 1, n) == monomial(EXACT, n, 0)

    def test_offset_must_keep_unit_constant_term(self):
        with pytest.raises(ValueError):
            pochhammer_inf(1, 0, 1, 10)

    def test_finite_single_factor(self):
        assert pochhammer_fin(1, 1, 2, 1, 5).coefficients() == [1, -1, 0, 0, 0]

    def test_finite_empty_product(self):
        assert pochhammer_fin(1, 1, 1, 0, 6) == monomial(EXACT, 6, 0)

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_finite_times_tail_is_infinite(self, n):
        order = 40
        fin = pochhammer_fin(1, 1, 1, n, order)
        tail = pochhammer_inf(1, 1 + n, 1, order)
        assert qc.mul(fin, tail) == pochhammer_inf(1, 1, 1, order)


def list_mul(a: list, b: list) -> list:
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return out


def list_product(exponents: list, n: int, sign: int = 1) -> list:
    """prod of (1 - sign*q^e) over `exponents`, as a plain list of n ints."""
    out = [1] + [0] * (n - 1)
    for e in exponents:
        if e < n:
            out = list_mul(out, [1] + [0] * (e - 1) + [-sign] + [0] * (n - e - 1))
    return out


def list_inverse(a: list) -> list:
    b = [1] + [0] * (len(a) - 1)
    for k in range(1, len(a)):
        b[k] = -sum(a[i] * b[k - i] for i in range(1, k + 1))
    return b


def eta_by_lists(exponents: dict, n: int) -> list:
    num = list_product([m * j for m, e in exponents.items() if e > 0
                        for _ in range(e) for j in range(1, n)], n)
    den = list_product([m * j for m, e in exponents.items() if e < 0
                        for _ in range(-e) for j in range(1, n)], n)
    return list_mul(num, list_inverse(den))


RINGS = [EXACT, qc.MOD64, qc.mod2pow(5)]
ORDER = 40


class TestProductsAgainstLists:
    # a coefficient does not depend on the truncation, so one list product at
    # order 40 serves every order 1..40

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize("sign, s, m", [(1, 1, 1), (-1, 1, 2), (1, 3, 5), (-1, 2, 2)])
    def test_pochhammer_inf(self, ring, sign, s, m):
        want = list_product(range(s, ORDER, m), ORDER, sign)
        for n in range(1, ORDER + 1):
            assert pochhammer_inf(sign, s, m, n, ring) == qc.Series(ring, want[:n]), n

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize("sign, s, m, count", [(1, 1, 1, 4), (-1, 1, 2, 7),
                                                   (1, 3, 5, 2), (-1, 2, 3, 50)])
    def test_pochhammer_fin(self, ring, sign, s, m, count):
        want = list_product([s + j * m for j in range(count)], ORDER, sign)
        for n in range(1, ORDER + 1):
            assert pochhammer_fin(sign, s, m, count, n, ring) == qc.Series(ring, want[:n]), n

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize("exponents", [{1: -2}, {2: 3, 1: -2, 8: 1},
                                           {4: 2, 16: 2, 2: -5, 8: -1}, {3: 1}])
    def test_eta_quotient(self, ring, exponents):
        want = eta_by_lists(exponents, ORDER)
        for n in range(1, ORDER + 1):
            assert eta_quotient(exponents, n, ring) == qc.Series(ring, want[:n]), n


class TestEulerFm:
    @pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
    def test_matches_pentagonal_series(self, m):
        n = 500
        assert euler_fm(m, n) == pentagonal_series(m, n)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_is_substituted_f1(self, m):
        n = 120
        inner = euler_fm(1, -(-n // m) + 1)
        assert qc.substitute_power(inner, m, 1).truncate(n) == euler_fm(m, n)

    def test_mod_ring_matches_reduced_exact(self):
        ring = qc.mod2pow(6)
        assert euler_fm(3, 60, ring) == qc.change_ring(euler_fm(3, 60), ring)


class TestPentagonal:
    def test_small_cases(self):
        assert pentagonal_series(2, 3).coefficients() == [1, 0, -1]
        assert pentagonal_series(1, 1).coefficients() == [1]

    def test_exponent_pattern(self):
        # nonzero exponents are j(3j-1)/2 for integer j, signs (-1)^j
        got = pentagonal_series(1, 16).coefficients()
        expected = [0] * 16
        for j in range(-4, 5):
            e = j * (3 * j - 1) // 2
            if e < 16:
                expected[e] = (-1) ** (j % 2)
        assert got == expected


class TestEtaQuotient:
    def test_empty_quotient(self):
        assert eta_quotient({}, 7) == monomial(EXACT, 7, 0)

    def test_inverse_f1_counts_partitions(self):
        assert eta_quotient({1: -1}, 8).coefficients() == partition_table(7)

    def test_matches_dense_route(self):
        n = 80
        got = eta_quotient({2: 3, 1: -2, 8: 1}, n)
        dense = qc.mul(
            qc.mul(qc.power(euler_fm(2, n), 3), qc.power(euler_fm(1, n), -2)),
            euler_fm(8, n),
        )
        assert got == dense

    def test_bad_index(self):
        with pytest.raises(ValueError):
            eta_quotient({0: 1}, 5)


class TestTwoDissections:
    # classical 2-dissections used throughout the congruence derivations;
    # each is asserted as an exact identity, not a congruence

    def test_inverse_f1_squared(self):
        n = 400
        lhs = eta_quotient({1: -2}, n)
        rhs = eta_quotient({8: 5, 2: -5, 16: -2}, n) + 2 * mul_sparse(
            eta_quotient({4: 2, 16: 2, 2: -5, 8: -1}, n), {1: 1})
        assert lhs == rhs

    def test_f1_squared(self):
        n = 400
        lhs = eta_quotient({1: 2}, n)
        rhs = eta_quotient({2: 1, 8: 5, 4: -2, 16: -2}, n) - 2 * mul_sparse(
            eta_quotient({2: 1, 16: 2, 8: -1}, n), {1: 1})
        assert lhs == rhs

    def test_inverse_f1_fourth(self):
        n = 400
        lhs = eta_quotient({1: -4}, n)
        rhs = eta_quotient({4: 14, 2: -14, 8: -4}, n) + 4 * mul_sparse(
            eta_quotient({4: 2, 8: 4, 2: -10}, n), {1: 1})
        assert lhs == rhs


class TestPowerCongruence:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_frobenius_style_square_congruence(self, k, m):
        # f_k^(2^m) agrees with f_(2k)^(2^(m-1)) mod 2^m
        n = 300
        lhs = qc.power(euler_fm(k, n), 2**m)
        rhs = qc.power(euler_fm(2 * k, n), 2 ** (m - 1))
        assert qc.first_incongruence(lhs, rhs, 2**m, n) is None
