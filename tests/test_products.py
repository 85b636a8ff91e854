from math import isqrt

import pytest

import qcong as qc
from qcong import EXACT
from qcong.mock_theta import (
    euler_fm,
    pentagonal_series,
    pochhammer_fin,
    pochhammer_inf,
)
from qcong.qexpr import evaluate, parse
from qcong.series import monomial, mul_sparse

from reference import inverse, partition_table, schoolbook_mul, sparse_list


def eta_quotient(exponents: dict, order: int, ring=EXACT) -> qc.Series:
    """prod over m of f_m^(e_m), evaluated from its expression source."""
    src = "*".join(f"f[{m}]^{e}" for m, e in sorted(exponents.items()))
    return evaluate(parse(src or "1"), order, ring)


class TestPochhammer:
    def test_f1_first_coefficients(self):
        got = pochhammer_inf(1, 1, 1, 13)
        assert got.coefficients() == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]

    def test_negative_sign_counts_distinct_partitions(self):
        got = pochhammer_inf(-1, 1, 1, 7)
        assert got.coefficients() == partition_table(6, distinct=True)

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


def list_product(exponents: list, n: int, sign: int = 1) -> list:
    """prod of (1 - sign*q^e) over `exponents`, as a plain list of n ints."""
    out = [1] + [0] * (n - 1)
    for e in exponents:
        if e < n:
            out = schoolbook_mul(out, sparse_list({0: 1, e: -sign}, n), n)
    return out


def eta_by_lists(exponents: dict, n: int) -> list:
    num = list_product([m * j for m, e in exponents.items() if e > 0
                        for _ in range(e) for j in range(1, n)], n)
    den = list_product([m * j for m, e in exponents.items() if e < 0
                        for _ in range(-e) for j in range(1, n)], n)
    return schoolbook_mul(num, inverse(den), n)


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



def euler_sum_steps(m: int, order: int):
    """(-q^m; q^m)_inf as Euler's sum of q^(m*n(n+1)/2) / (q^m; q^m)_n, in
    eulerian_sum steps, last term first."""
    return [(m * n * (n + 1) // 2, [], [(-1, m * n)] if n else [])
            for n in range(isqrt(2 * order), -1, -1)]


class TestEulerSums:
    # the leading factor of C, f2*f4/f1^2, is (-q; q)_inf^2 (-q^2; q^2)_inf,
    # and `_c_sum` applies each factor as a later sum of its one call
    @pytest.mark.parametrize("ring", [EXACT, qc.MOD64, qc.mod2pow(8)], ids=str)
    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_eta_quotient(self, ring, m):
        n = 3000
        want = eta_quotient({2 * m: 1, m: -1}, n, ring)  # f2/f1, f4/f2
        assert qc.eulerian_sum(ring, n, euler_sum_steps(m, n)) == want

    @pytest.mark.parametrize("ring", [EXACT, qc.MOD64, qc.mod2pow(8)], ids=str)
    def test_sums_over_a_build_the_leading_factor(self, ring):
        n = 3000
        u0 = qc.eulerian_sum(ring, n, *(euler_sum_steps(m, n) for m in (1, 1, 2)))
        assert u0 == eta_quotient({1: -2, 2: 1, 4: 1}, n, ring)


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
