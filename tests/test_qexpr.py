"""Parser, printer, and evaluator tests for the expression language."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcong import EXACT, MOD64, NonUnitError, count_ck, euler_fm, mul, omega_series
from qcong import b_eulerian, f3_series, monomial, pentagonal_series
from qcong import pochhammer_fin, pochhammer_inf, series_c, series_ck
from qcong.catalogue import CLAIM_ROWS
from qcong.qexpr import (
    Add,
    BFun,
    CkSeries,
    CSeries,
    Dissect,
    Div,
    EtaF,
    F3,
    Mul,
    Num,
    Omega,
    ParseError,
    PochFin,
    PochInf,
    Pow,
    Q,
    Sub,
    evaluate,
    parse,
    reads,
    to_source,
)

EQ_2_2_RHS = "2*q*f[2]*f[4]/f[1]^2*B(-q) - q*omega(-q)"


class TestParse:
    def test_eta_power(self):
        assert parse("f[1]^2") == Pow(EtaF(1), 2)

    def test_dissection(self):
        assert parse("D[2,1](C)") == Dissect(2, 1, CSeries())

    def test_full_right_side(self):
        chain = Mul(Mul(Mul(Num(2), Q()), EtaF(2)), EtaF(4))
        lhs = Mul(Div(chain, Pow(EtaF(1), 2)), BFun(-1, 1))
        assert parse(EQ_2_2_RHS) == Sub(lhs, Mul(Q(), Omega(-1, 1)))

    def test_named_atoms(self):
        assert parse("omega(-q^4)") == Omega(-1, 4)
        assert parse("f3(q^8)") == F3(1, 8)
        assert parse("B(q)") == BFun(1, 1)
        assert parse("pochinf[-1,2,2]") == PochInf(-1, 2, 2)
        assert parse("pochfin[1,1,2,3]") == PochFin(1, 1, 2, 3)
        assert parse("Ck[3]") == CkSeries(3)

    def test_left_associativity(self):
        assert parse("q - q - q") == Sub(Sub(Q(), Q()), Q())
        assert parse("q/q/q") == Div(Div(Q(), Q()), Q())
        assert parse("q^2^3") == Pow(Pow(Q(), 2), 3)

    def test_precedence(self):
        assert parse("1 + q*f[1]") == Add(Num(1), Mul(Q(), EtaF(1)))
        assert parse("q*f[1]^2") == Mul(Q(), Pow(EtaF(1), 2))

    def test_unary_minus(self):
        assert parse("-3") == Num(-3)
        assert parse("-q") == Sub(Num(0), Q())
        assert parse("-q^2") == Sub(Num(0), Pow(Q(), 2))
        assert parse("2*-3") == Mul(Num(2), Num(-3))

    def test_whitespace_and_parens_do_not_matter(self):
        assert parse(" f [ 1 ] ^ 2 ") == parse("f[1]^2")
        assert parse("((2))*((q))") == parse("2*q")
        spaced = " 2 * q * f[ 2 ]*f[4] / f[1]^2 * B( -q ) - q * omega( - q ) "
        assert parse(spaced) == parse(EQ_2_2_RHS)

    @pytest.mark.parametrize("src,offset", [
        ("f[", 2),
        ("2 + ", 4),
        ("2 2", 2),
        ("1.5", 1),
        ("foo", 0),
        ("D[2,3](C)", 0),
        ("f[0]", 0),
        ("omega(3)", 6),
    ])
    def test_error_offsets(self, src, offset):
        with pytest.raises(ParseError) as err:
            parse(src)
        assert err.value.offset == offset

    def test_errors_name_expectations(self):
        with pytest.raises(ParseError, match="integer"):
            parse("f[")
        with pytest.raises(ParseError, match="end of input"):
            parse("2 2")
        with pytest.raises(ParseError, match="0 <= r < m"):
            parse("D[2,3](C)")

    def test_rationals_rejected(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse("1.5")


class TestPrinter:
    def test_canonical_form_is_stable(self):
        assert to_source(parse(EQ_2_2_RHS)) == EQ_2_2_RHS

    def test_parenthesizes_only_when_needed(self):
        assert to_source(Mul(Add(Q(), Num(1)), Q())) == "(q + 1)*q"
        assert to_source(Pow(Mul(Q(), Q()), 2)) == "(q*q)^2"
        assert to_source(Sub(Q(), Sub(Q(), Q()))) == "q - (q - q)"
        assert to_source(Add(Q(), Mul(Q(), Q()))) == "q + q*q"
        assert to_source(Mul(Q(), Div(Q(), Q()))) == "q*(q/q)"

    def test_negative_literals(self):
        assert to_source(Pow(Num(-2), 2)) == "(-2)^2"
        assert parse(to_source(Pow(Num(-2), 2))) == Pow(Num(-2), 2)
        assert to_source(Pow(Q(), -2)) == "q^-2"
        assert parse("q^-2") == Pow(Q(), -2)


def qexprs():
    base = st.one_of(
        st.integers(-50, 50).map(Num),
        st.just(Q()),
        st.just(CSeries()),
        st.integers(1, 4).map(CkSeries),
        st.integers(1, 6).map(EtaF),
        st.builds(PochInf, st.sampled_from([1, -1]), st.integers(1, 5),
                  st.integers(1, 4)),
        st.builds(PochFin, st.sampled_from([1, -1]), st.integers(1, 5),
                  st.integers(1, 4), st.integers(0, 5)),
        st.builds(Omega, st.sampled_from([1, -1]), st.integers(1, 6)),
        st.builds(BFun, st.sampled_from([1, -1]), st.integers(1, 6)),
        st.builds(F3, st.sampled_from([1, -1]), st.integers(1, 6)),
    )

    def extend(children):
        dissect_mr = st.integers(1, 4).flatmap(
            lambda m: st.tuples(st.just(m), st.integers(0, m - 1)))
        return st.one_of(
            st.builds(Add, children, children),
            st.builds(Sub, children, children),
            st.builds(Mul, children, children),
            st.builds(Div, children, children),
            st.builds(Pow, children, st.integers(-4, 4)),
            st.builds(lambda mr, c: Dissect(mr[0], mr[1], c),
                      dissect_mr, children),
        )

    return st.recursive(base, extend, max_leaves=25)


# One example of every named atom but D:
# {source name: (source, node, its builder at (order, ring))}.
ATOM_EXAMPLES = {
    "q": ("q", Q(), lambda n, ring: monomial(ring, n, 1)),
    "C": ("C", CSeries(), series_c),
    "Ck": ("Ck[2]", CkSeries(2), lambda n, ring: series_ck(2, n, ring)),
    "f": ("f[3]", EtaF(3), lambda n, ring: pentagonal_series(3, n, ring)),
    "f3": ("f3(q)", F3(1, 1), f3_series),
    "omega": ("omega(q)", Omega(1, 1), omega_series),
    "B": ("B(q)", BFun(1, 1), b_eulerian),
    "pochinf": ("pochinf[-1,2,3]", PochInf(-1, 2, 3),
                lambda n, ring: pochhammer_inf(-1, 2, 3, n, ring)),
    "pochfin": ("pochfin[1,1,2,3]", PochFin(1, 1, 2, 3),
                lambda n, ring: pochhammer_fin(1, 1, 2, 3, n, ring)),
}


class TestAtomTable:
    def unknown_name_expects(self) -> tuple:
        with pytest.raises(ParseError, match="unknown name") as err:
            parse("nosuchatom")
        return err.value.expected

    def test_every_named_atom_has_an_example(self):
        named = set(self.unknown_name_expects()) - {"integer", "D", "(", "-"}
        assert named == set(ATOM_EXAMPLES)

    @pytest.mark.parametrize("name", ATOM_EXAMPLES)
    def test_parses_prints_and_evaluates(self, name):
        src, node, build = ATOM_EXAMPLES[name]
        assert parse(src) == node
        assert to_source(node) == src
        for ring in (EXACT, MOD64):
            assert evaluate(node, 40, ring) == build(40, ring)
        assert name in self.unknown_name_expects()

    def test_shared_bases_keep_each_node_distinct(self):
        assert len({Omega(1, 1), BFun(1, 1), F3(1, 1), Omega(1, 1)}) == 3
        assert Add(Q(), Q()) != Sub(Q(), Q())
        assert repr(Omega(-1, 4)) == "Omega(sign=-1, qpow=4)"
        assert repr(Div(Q(), Num(2))) == "Div(left=Q(), right=Num(value=2))"
        with pytest.raises(ValueError, match="argument sign"):
            BFun(2, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            F3(1, 1).qpow = 2


class TestRoundTrip:
    @given(qexprs())
    @settings(max_examples=500, deadline=None)
    def test_parse_inverts_printer(self, e):
        assert parse(to_source(e)) == e


class TestEvaluate:
    def test_plain_q(self):
        assert evaluate(parse("q"), 3).coefficients() == [0, 1, 0]

    def test_counting_series_identity(self):
        assert evaluate(parse(f"C - ({EQ_2_2_RHS})"), 400).is_zero()

    def test_mock_theta_decomposition(self):
        src = ("f3(q^8) - 2*q*omega(-q) - 2*q^3*omega(-q^4)"
               " - f[1]^2*f[4]^8/(f[2]^5*f[8]^4)")
        assert evaluate(parse(src), 400).is_zero()

    def test_whitespace_variants_evaluate_identically(self):
        terse = evaluate(parse(EQ_2_2_RHS), 50)
        spaced = evaluate(parse(" 2 * q * (f[2]) * f[4] / (f[1]^2) * B(-q)"
                                " - (q * omega(-q)) "), 50)
        assert terse == spaced

    def test_deterministic(self):
        e = parse("D[2,1](C) + f[1]^-1")
        assert evaluate(e, 40) == evaluate(e, 40)

    def test_dissection_keeps_full_order(self):
        out = evaluate(parse("D[2,1](C)"), 30)
        assert out.order == 30
        c = series_c(60)
        for n in range(30):
            assert out[n] == c[2 * n + 1]

    def test_argument_substitution(self):
        w = omega_series(12)
        out = evaluate(parse("omega(-q^4)"), 45)
        for j in range(45):
            if j % 4:
                assert out[j] == 0
            else:
                assert out[j] == (-1) ** (j // 4) * w[j // 4]

    def test_pochhammer_atoms(self):
        assert evaluate(parse("pochinf[-1,1,1]"), 15) == pochhammer_inf(-1, 1, 1, 15)
        assert evaluate(parse("pochfin[1,2,3,4]"), 15) == pochhammer_fin(1, 2, 3, 4, 15)

    def test_negative_power_is_division(self):
        inv = evaluate(parse("f[1]^-1"), 11)
        assert inv == evaluate(parse("1/f[1]"), 11)
        assert inv.coefficients() == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    def test_ck_series(self):
        out = evaluate(parse("Ck[2]"), 12)
        for n in range(12):
            assert out[n] == count_ck(2, n)

    def test_division_requires_unit(self):
        with pytest.raises(NonUnitError):
            evaluate(parse("q/q"), 10)
        with pytest.raises(NonUnitError):
            evaluate(parse("1/(3 + q)"), 10)

    def test_unit_depends_on_ring(self):
        # 3 is invertible mod 2^64 but not in the integers
        s = evaluate(parse("1/(3 + q)"), 6, MOD64)
        assert mul(s, evaluate(parse("3 + q"), 6, MOD64)).coefficients() == \
            [1, 0, 0, 0, 0, 0]

    def test_order_validation(self):
        with pytest.raises(ValueError):
            evaluate(parse("q"), 0)

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("ring", [EXACT, MOD64], ids=str)
    def test_eta_matches_product_definition(self, m, ring):
        # f[m] reads the pentagonal series; euler_fm is the product itself
        deep = [3000] if ring == MOD64 else []
        for n in [*range(1, 61), *deep]:
            assert evaluate(parse(f"f[{m}]"), n, ring) == euler_fm(m, n, ring)


class TestMemo:
    @pytest.mark.parametrize("ring", [EXACT, MOD64], ids=str)
    def test_memo_matches_plain_evaluation(self, ring):
        # order 12 fills the memo, 30 finds only shorter results there and
        # rebuilds them, and 12 again reuses the longer ones truncated
        for row in CLAIM_ROWS:
            for src in row[2:4]:
                e, memo = parse(src), {}
                for order in (12, 30, 12):
                    assert evaluate(e, order, ring, memo) == \
                        evaluate(e, order, ring), (row[0], src, order)


class TestReads:
    def test_leaves_pass_the_order_down(self):
        assert reads(parse("2*q*f[2]/f[1]^2 - C"), 10) == {
            Num(2): 10, Q(): 10, EtaF(2): 10, EtaF(1): 10, CSeries(): 10}

    def test_dissection_reads_its_child_deeper(self):
        # D[m,r] at order n reads m*(n-1)+r+1; nested ones compose
        assert reads(parse("D[8,7](C)"), 40) == {CSeries(): 320}
        assert reads(parse("D[2,1](D[4,3](f[1]))"), 5) == {EtaF(1): 40}

    def test_argument_power_reads_the_series_at_q(self):
        # omega, B and f3 at +-q^k read (n+k-2)//k+1 of the series at q
        assert reads(parse("omega(-q)"), 80) == {Omega(1, 1): 80}
        assert reads(parse("f3(q^8)"), 80) == {F3(1, 1): 11}
        assert reads(parse("B(q) + D[2,0](B(-q^4))"), 9) == {BFun(1, 1): 9}

    def test_a_leaf_read_twice_reports_its_deepest_read(self):
        assert reads(parse("C + D[4,1](C) - D[2,1](C)"), 10) == {
            CSeries(): 38}

    def test_ck_and_pochhammer_are_leaves(self):
        e = parse("Ck[2]*pochinf[-1,1,2]/pochfin[1,1,1,3]")
        assert reads(e, 7) == {CkSeries(2): 7, PochInf(-1, 1, 2): 7,
                               PochFin(1, 1, 1, 3): 7}
