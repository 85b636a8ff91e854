import pytest

import qcong as qc
from qcong import EXACT, MOD64, mod2pow
from qcong.catalogue import EQ_2_3_ROWS
from qcong.mock_theta import appell_sum, b_eulerian, f3_series, omega_series
from qcong.qexpr import evaluate, parse
from qcong.series import monomial, mul_sparse

from reference import inverse, schoolbook_mul, sparse_list

# the bilateral (Appell-Lerch) forms of B and omega, as eq 2-3's rows write them
B_APPELL, OMEGA_APPELL = (parse(EQ_2_3_ROWS[name][3]) for name in ("B", "omega"))


def omega_by_termwise_expansion(n, arg_sign=1):
    """Each term built from scratch densely; no shared recurrence state."""
    total = [0] * n
    i = 0
    while 2 * i * (i + 1) < n:
        den = [1] + [0] * (n - 1)
        for j in range(i + 1):
            # (1 - (s*q)^(2j+1)) = (1 - s*q^(2j+1)) since s = +-1
            den = schoolbook_mul(den, sparse_list({0: 1, 2 * j + 1: -arg_sign}, n), n)
        term = inverse(schoolbook_mul(den, den, n))
        for e in range(2 * i * (i + 1), n):
            total[e] += term[e - 2 * i * (i + 1)]
        i += 1
    return total


def b_by_termwise_expansion(n):
    total = [0] * n
    i = 0
    while i * (i + 1) < n:
        num = [1] + [0] * (n - 1)
        for j in range(i):
            num = schoolbook_mul(num, sparse_list({0: 1, 2 * j + 2: 1}, n), n)
        den = [1] + [0] * (n - 1)
        for j in range(i + 1):
            den = schoolbook_mul(den, sparse_list({0: 1, 2 * j + 1: -1}, n), n)
        term = schoolbook_mul(num, inverse(schoolbook_mul(den, den, n)), n)
        for e in range(i * (i + 1), n):
            total[e] += term[e - i * (i + 1)]
        i += 1
    return total


def f3_by_termwise_expansion(n):
    total = [0] * n
    i = 0
    while i * i < n:
        den = [1] + [0] * (n - 1)
        for j in range(i):
            den = schoolbook_mul(den, sparse_list({0: 1, j + 1: 1}, n), n)
        term = inverse(schoolbook_mul(den, den, n))
        for e in range(i * i, n):
            total[e] += term[e - i * i]
        i += 1
    return total


class TestOmega:
    def test_constant_term(self):
        assert omega_series(1).coefficients() == [1]

    def test_matches_termwise_oracle(self):
        n = 48
        assert omega_series(n).coefficients() == omega_by_termwise_expansion(n)

    def test_sign_substitution(self):
        n = 40
        flipped = qc.substitute_power(omega_series(n), 1, -1)
        assert flipped.coefficients() == omega_by_termwise_expansion(n, arg_sign=-1)
        assert flipped[1] == -omega_series(n)[1]


class TestB:
    def test_a_b_low_values(self):
        got = b_eulerian(44).coefficients()
        assert got == b_by_termwise_expansion(44)

    def test_representations_agree(self):
        n = 300
        assert b_eulerian(n) == evaluate(B_APPELL, n)

    def test_even_part_is_eta_quotient(self):
        n = 200
        lhs = qc.dissect(b_eulerian(2 * n), 2, 0).truncate(n)
        assert lhs == evaluate(parse("f[2]^5/f[1]^4"), n)

    def test_4n_plus_1_part_is_doubled_eta_quotient(self):
        n = 200
        lhs = qc.dissect(b_eulerian(4 * n), 4, 1).truncate(n)
        assert lhs == 2 * evaluate(parse("f[2]^8/f[1]^7"), n)

    def test_odd_part_is_even(self):
        n = 300
        odd = qc.dissect(b_eulerian(2 * n), 2, 1).truncate(n)
        assert qc.first_incongruence(odd, monomial(EXACT, n, 0, 0), 2, n) is None

    def test_parity_is_lacunary_theta(self):
        # mod 2 the whole of B collapses onto exponents 2n^2+2n
        n = 300
        theta = [0] * n
        k = 0
        while 2 * k * k + 2 * k < n:
            theta[2 * k * k + 2 * k] = 1
            k += 1
        assert qc.first_incongruence(
            b_eulerian(n), qc.Series(EXACT, theta), 2, n) is None


def appell_by_binomials(quadratic, n, ring):
    """The Appell-Lerch sum term by term: (1+q^a)/(1-q^a) as one binomial
    multiply and one binomial divide, shifted and added with its sign."""
    total = monomial(ring, n, 0, 0)
    m = 0
    while quadratic * m * (m + 1) < n:
        term = qc.mul_sparse_binomial(monomial(ring, n, 0), 1, 2 * m + 1)
        term = qc.mul_sparse_binomial(term, -1, 2 * m + 1, "divide")
        term = mul_sparse(term, {quadratic * m * (m + 1): 1})
        total = total + (term if m % 2 == 0 else -term)
        m += 1
    return total


RINGS = [EXACT, MOD64, mod2pow(5)]


class TestAppell:
    @pytest.mark.parametrize("ring", RINGS, ids=str)
    @pytest.mark.parametrize("quadratic", [1, 2, 3, 7])
    def test_kernel_matches_binomial_terms(self, ring, quadratic):
        for n in list(range(1, 60)) + [257]:
            assert (appell_sum(quadratic, n, ring)
                    == appell_by_binomials(quadratic, n, ring)), n

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_omega_forms_agree(self, ring):
        for n in list(range(1, 40)) + [300]:
            assert evaluate(OMEGA_APPELL, n, ring) == omega_series(n, ring), n

    @pytest.mark.parametrize("ring", RINGS, ids=str)
    def test_b_forms_agree(self, ring):
        for n in list(range(1, 40)) + [300]:
            assert evaluate(B_APPELL, n, ring) == b_eulerian(n, ring), n

    def test_forms_agree_past_the_fft_crossover(self):
        n = 4000
        assert evaluate(OMEGA_APPELL, n, MOD64) == omega_series(n, MOD64)
        assert evaluate(B_APPELL, n, MOD64) == b_eulerian(n, MOD64)

    def test_validation(self):
        for quadratic, n in ((0, 10), (2, 0), (-1, 5)):
            with pytest.raises(ValueError):
                appell_sum(quadratic, n)


class TestF3:
    def test_constant_term(self):
        assert f3_series(1).coefficients() == [1]

    def test_matches_termwise_oracle(self):
        n = 40
        assert f3_series(n).coefficients() == f3_by_termwise_expansion(n)

    def test_watson_style_eta_decomposition(self):
        # f3 evaluated at q^8 splits into omega pieces plus an eta quotient
        n = 200
        lhs = (
            qc.substitute_power(f3_series(-(-n // 8) + 1), 8, 1).truncate(n)
            - 2 * mul_sparse(qc.substitute_power(omega_series(n), 1, -1), {1: 1})
            - 2 * mul_sparse(
                qc.substitute_power(omega_series(-(-n // 4) + 1), 4, -1), {3: 1}
            ).truncate(n)
        )
        rhs = evaluate(parse("f[1]^2*f[4]^8/(f[2]^5*f[8]^4)"), n)
        assert lhs == rhs


TERMWISE = [(omega_series, omega_by_termwise_expansion),
            (b_eulerian, b_by_termwise_expansion),
            (f3_series, f3_by_termwise_expansion)]


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("builder, reference", TERMWISE,
                         ids=[b.__name__ for b, _ in TERMWISE])
def test_eulerian_builders_match_termwise_oracle(ring, builder, reference):
    # a coefficient does not depend on the truncation, so one oracle run at
    # order 48 serves every order 1..48: each edge of the per-term windows
    want = reference(48)
    for n in range(1, 49):
        assert builder(n, ring) == qc.Series(ring, want[:n]), n


@pytest.mark.parametrize("builder", [omega_series, b_eulerian, f3_series])
def test_order_validation(builder):
    with pytest.raises(ValueError):
        builder(0)
