"""Parser, printer, and evaluator tests for the expression language."""

import dataclasses
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcong import (EXACT, MOD64, NonUnitError, RingMismatchError, count_ck, euler_fm,
                   mod2pow, mul, omega_series, substitute_power)
from qcong import b_eulerian, f3_series, pentagonal_series
from qcong import pochhammer_fin, pochhammer_inf, series_c, series_ck
from qcong.catalogue import CLAIM_ROWS
from qcong.mock_theta import appell_sum
from qcong.qexpr import (
    Add,
    Atom,
    Dissect,
    Div,
    Mul,
    Num,
    ParseError,
    Pow,
    QExpr,
    Sub,
    _ATOMS,
    _BINARY,
    evaluate,
    parse,
    reads,
    to_source,
)
from qcong.series import dissect, monomial

EQ_2_2_RHS = "2*q*f[2]*f[4]/f[1]^2*B(-q) - q*omega(-q)"
# what a parse error lists where an atom may start
ATOM_EXPECTED = ("integer", "q", "C", "Ck", "f", "appell", "f3", "omega", "B",
                 "pochinf", "pochfin", "D", "(", "-")


class TestParse:
    def test_eta_power(self):
        assert parse("f[1]^2") == Pow(Atom("f", (1,)), 2)

    def test_dissection(self):
        assert parse("D[2,1](C)") == Dissect(2, 1, Atom("C"))

    def test_full_right_side(self):
        chain = Mul(Mul(Mul(Num(2), Atom("q")), Atom("f", (2,))), Atom("f", (4,)))
        lhs = Mul(Div(chain, Pow(Atom("f", (1,)), 2)), Atom("B", (-1, 1)))
        assert parse(EQ_2_2_RHS) == Sub(lhs, Mul(Atom("q"), Atom("omega", (-1, 1))))

    def test_named_atoms(self):
        assert parse("omega(-q^4)") == Atom("omega", (-1, 4))
        assert parse("f3(q^8)") == Atom("f3", (1, 8))
        assert parse("B(q)") == Atom("B", (1, 1))
        assert parse("pochinf[-1,2,2]") == Atom("pochinf", (-1, 2, 2))
        assert parse("pochfin[1,1,2,3]") == Atom("pochfin", (1, 1, 2, 3))
        assert parse("Ck[3]") == Atom("Ck", (3,))

    def test_left_associativity(self):
        assert parse("q - q - q") == Sub(Sub(Atom("q"), Atom("q")), Atom("q"))
        assert parse("q/q/q") == Div(Div(Atom("q"), Atom("q")), Atom("q"))
        assert parse("q^2^3") == Pow(Pow(Atom("q"), 2), 3)

    def test_precedence(self):
        assert parse("1 + q*f[1]") == Add(Num(1), Mul(Atom("q"), Atom("f", (1,))))
        assert parse("q*f[1]^2") == Mul(Atom("q"), Pow(Atom("f", (1,)), 2))

    def test_unary_minus(self):
        assert parse("-3") == Num(-3)
        assert parse("-q") == Sub(Num(0), Atom("q"))
        assert parse("-q^2") == Sub(Num(0), Pow(Atom("q"), 2))
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
        ("D[0,3](C)", 0),
        ("f[0]", 0),
        ("2*appell[0]", 2),
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
        with pytest.raises(ParseError, match="m >= 1"):
            parse("D[0,0](C)")

    # each way a D atom can be cut short or malformed: (source, offset, message)
    @pytest.mark.parametrize("src,offset,message", [
        ("D", 1, "got end of input; expected one of: ["),
        ("D[", 2, "got end of input; expected one of: integer"),
        ("D[2", 3, "got end of input; expected one of: ,"),
        ("D[2,", 4, "got end of input; expected one of: integer"),
        ("D[2,1", 5, "got end of input; expected one of: ]"),
        ("D[2,1]", 6, "got end of input; expected one of: ("),
        ("D[2,1](", 7, "got end of input; expected one of: " + ", ".join(ATOM_EXPECTED)),
        ("D[2,1](C", 8, "got end of input; expected one of: )"),
        ("D[0,0](C)", 0, "dissection needs m >= 1 and r >= 0, got m=0, r=0"),
        ("D[2,-1](C)", 4, "got '-'; expected one of: integer"),
        ("D(C)", 1, "got '('; expected one of: ["),
        ("D[2,1]C", 6, "got 'C'; expected one of: ("),
    ])
    def test_dissection_errors(self, src, offset, message):
        with pytest.raises(ParseError) as err:
            parse(src)
        assert err.value.offset == offset
        assert str(err.value) == f"offset {offset}: {message}"

    # every other place a token is taken or refused, outside D: the exact
    # message and offset, "expected" included
    @pytest.mark.parametrize("src,offset,message", [
        ("omega(", 6, "got end of input; expected one of: q"),
        ("omega(-q^", 9, "got end of input; expected one of: integer"),
        ("omega(3)", 6, "got '3'; expected one of: q"),
        ("B(-3)", 3, "got '3'; expected one of: q"),
        ("f3(q^x)", 5, "got 'x'; expected one of: integer"),
        ("f3(q^2", 6, "got end of input; expected one of: )"),
        ("f[1]^", 5, "got end of input; expected one of: integer"),
        ("f[1]^-x", 6, "got 'x'; expected one of: integer"),
        ("f[1]^^2", 5, "got '^'; expected one of: integer"),
        ("(2", 2, "got end of input; expected one of: )"),
        ("(2 3", 3, "got '3'; expected one of: )"),
        ("Ck[", 3, "got end of input; expected one of: integer"),
        ("Ck[x]", 3, "got 'x'; expected one of: integer"),
        ("f]", 1, "got ']'; expected one of: ["),
        ("f[1,", 3, "got ','; expected one of: ]"),
        ("pochinf[-1,2", 12, "got end of input; expected one of: ,"),
        ("pochfin[1,1,1,-1]", 14, "got '-'; expected one of: integer"),
        ("Ck[0]", 0, "Ck[k] needs k >= 1"),
        ("foo", 0, "unknown name 'foo'; expected one of: " + ", ".join(ATOM_EXPECTED)),
        ("", 0, "got end of input; expected one of: " + ", ".join(ATOM_EXPECTED)),
        ("  ", 2, "got end of input; expected one of: " + ", ".join(ATOM_EXPECTED)),
        ("2+", 2, "got end of input; expected one of: " + ", ".join(ATOM_EXPECTED)),
        ("()", 1, "got ')'; expected one of: " + ", ".join(ATOM_EXPECTED)),
        ("2 2", 2, "trailing input starting at '2'; expected one of: end of input"),
        ("2 $ 3", 2, "unexpected character '$'"),
        ("q\u2003é", 2, "unexpected character 'é'"),  # a Unicode space is skipped
        # an INT is ASCII digits, though \d and int() take any decimal digit
        ("\u0663+q", 0, "unexpected character '\u0663'"),
        ("f[\u0661]", 2, "unexpected character '\u0661'"),
    ])
    def test_reader_errors(self, src, offset, message):
        with pytest.raises(ParseError) as err:
            parse(src)
        assert err.value.offset == offset
        assert str(err.value) == f"offset {offset}: {message}"
        expected = message.partition("; expected one of: ")[2]
        assert err.value.expected == (tuple(expected.split(", ")) if expected else ())

    def test_rationals_rejected(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse("1.5")


class TestPrinter:
    def test_canonical_form_is_stable(self):
        assert to_source(parse(EQ_2_2_RHS)) == EQ_2_2_RHS

    def test_parenthesizes_only_when_needed(self):
        assert to_source(Mul(Add(Atom("q"), Num(1)), Atom("q"))) == "(q + 1)*q"
        assert to_source(Pow(Mul(Atom("q"), Atom("q")), 2)) == "(q*q)^2"
        assert to_source(Sub(Atom("q"), Sub(Atom("q"), Atom("q")))) == "q - (q - q)"
        assert to_source(Add(Atom("q"), Mul(Atom("q"), Atom("q")))) == "q + q*q"
        assert to_source(Mul(Atom("q"), Div(Atom("q"), Atom("q")))) == "q*(q/q)"

    def test_negative_literals(self):
        assert to_source(Pow(Num(-2), 2)) == "(-2)^2"
        assert parse(to_source(Pow(Num(-2), 2))) == Pow(Num(-2), 2)
        assert to_source(Pow(Atom("q"), -2)) == "q^-2"
        assert parse("q^-2") == Pow(Atom("q"), -2)


def atoms(name, *fields):
    """Atom(name, args), args drawn one per field strategy."""
    return st.tuples(*fields).map(lambda args: Atom(name, args))


def qexprs():
    sign = st.sampled_from([1, -1])
    base = st.one_of(
        st.integers(-50, 50).map(Num),
        atoms("q"),
        atoms("C"),
        atoms("Ck", st.integers(1, 4)),
        atoms("f", st.integers(1, 6)),
        atoms("appell", st.integers(1, 4)),
        atoms("pochinf", sign, st.integers(1, 5), st.integers(1, 4)),
        atoms("pochfin", sign, st.integers(1, 5), st.integers(1, 4), st.integers(0, 5)),
        atoms("omega", sign, st.integers(1, 6)),
        atoms("B", sign, st.integers(1, 6)),
        atoms("f3", sign, st.integers(1, 6)),
    )

    def extend(children):
        dissect_mr = st.integers(1, 4).flatmap(
            lambda m: st.tuples(st.just(m), st.integers(0, 2 * m)))
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


# One example of every named atom:
# {source name: (source, node, its builder at (order, ring))}.
ATOM_EXAMPLES = {
    "q": ("q", Atom("q"), lambda n, ring: monomial(ring, n, 1)),
    "C": ("C", Atom("C"), series_c),
    "Ck": ("Ck[2]", Atom("Ck", (2,)), lambda n, ring: series_ck(2, n, ring)),
    "f": ("f[3]", Atom("f", (3,)), lambda n, ring: pentagonal_series(3, n, ring)),
    "appell": ("appell[2]", Atom("appell", (2,)), lambda n, ring: appell_sum(2, n, ring)),
    "f3": ("f3(q)", Atom("f3", (1, 1)), f3_series),
    "omega": ("omega(q)", Atom("omega", (1, 1)), omega_series),
    "B": ("B(q)", Atom("B", (1, 1)), b_eulerian),
    "pochinf": ("pochinf[-1,2,3]", Atom("pochinf", (-1, 2, 3)),
                lambda n, ring: pochhammer_inf(-1, 2, 3, n, ring)),
    "pochfin": ("pochfin[1,1,2,3]", Atom("pochfin", (1, 1, 2, 3)),
                lambda n, ring: pochhammer_fin(1, 1, 2, 3, n, ring)),
    "D": ("D[2,1](C)", Dissect(2, 1, Atom("C")),
          lambda n, ring: dissect(series_c(2 * n, ring), 2, 1)),
}


class TestAtomTable:
    def unknown_name_expects(self) -> tuple:
        with pytest.raises(ParseError, match="unknown name") as err:
            parse("nosuchatom")
        return err.value.expected

    def test_every_named_atom_has_an_example(self):
        named = set(self.unknown_name_expects()) - {"integer", "(", "-"}
        assert named == set(ATOM_EXAMPLES)

    def test_unknown_name_lists_every_atom_in_table_order(self):
        assert self.unknown_name_expects() == ATOM_EXPECTED

    def test_every_node_class_is_in_a_table(self):
        # the parser, printer and evaluator dispatch through _ATOMS and
        # _BINARY: a named atom is an Atom, or a Dissect for D, the one row
        # with a child; only Num and Pow have a grammar rule of their own
        assert all(("expr" in pieces) == (name == "D") and callable(build)
                   for name, (pieces, build) in _ATOMS.items())
        tabled = {Atom, Dissect} | set(_BINARY) | {Num, Pow}
        assert set(typing.get_args(QExpr)) == tabled

    @pytest.mark.parametrize("name", ATOM_EXAMPLES)
    def test_parses_prints_and_evaluates(self, name):
        src, node, build = ATOM_EXAMPLES[name]
        assert parse(src) == node
        assert to_source(node) == src
        for ring in (EXACT, MOD64):
            assert evaluate(node, 40, ring) == build(40, ring)
        assert name in self.unknown_name_expects()

    def test_shared_bases_keep_each_node_distinct(self):
        assert len({parse("omega(q)"), parse("B(q)"), parse("f3(q)"),
                    Atom("omega", (1, 1))}) == 3
        assert Add(Atom("q"), Atom("q")) != Sub(Atom("q"), Atom("q"))
        assert repr(Atom("omega", (-1, 4))) == "Atom(name='omega', args=(-1, 4))"
        assert repr(Div(Atom("q"), Num(2))) == \
            "Div(left=Atom(name='q', args=()), right=Num(value=2))"
        with pytest.raises(ValueError, match="argument sign"):
            Atom("B", (2, 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            Atom("f3", (1, 1)).args = (1, 2)


# the lowest legal value of each integer field of each atom, in the order of
# its shape; an argument +-q^k is two fields, its sign and its power k
FIELD_FLOORS = {"Ck": (1,), "f": (1,), "appell": (1,), "f3": (-1, 1), "omega": (-1, 1),
                "B": (-1, 1), "pochinf": (-1, 1, 1), "pochfin": (-1, 1, 1, 0), "D": (1, 0)}


def field_count(name):
    """How many integer fields the shape of atom `name` has."""
    return sum({"int": 1, "sint": 1, "qarg": 2}.get(piece, 0) for piece in _ATOMS[name][0])


def spell(name, args):
    """The source of atom `name` with fields `args` (D's child is C), or None
    where the grammar has no spelling: a sign not +-1, a negative INT."""
    values, text = iter(args), name
    for piece in _ATOMS[name][0]:
        if piece == "qarg":
            sign, power = next(values), next(values)
            if sign not in (1, -1) or power < 0:
                return None
            text += f"{'-' if sign < 0 else ''}q^{power}"
        elif piece in ("int", "sint"):
            value = next(values)
            if value < 0 and piece == "int":
                return None
            text += str(value)
        else:
            text += "C" if piece == "expr" else piece
    return text


def make(name, args):
    """The node of atom `name` with fields `args`, D's child C."""
    return Dissect(*args, Atom("C")) if name == "D" else Atom(name, args)


def kernel(name, args):
    """The kernel that reads the fields of atom `name`, called on `args`
    directly: `dissect` for D, `substitute_power` for an argument +-q^k,
    else the row's builder."""
    pieces, build = _ATOMS[name]
    one = monomial(EXACT, 4, 0)
    if name == "D":
        return dissect(one, *args)
    if "qarg" in pieces:
        sign, power = args
        return substitute_power(one, power, sign)
    return build(*args, 4, EXACT)


class TestFieldRules:
    def test_every_integer_field_has_a_floor(self):
        # so a new row with integer fields is checked below
        assert {name: n for name in _ATOMS if (n := field_count(name))} == \
            {name: len(floors) for name, floors in FIELD_FLOORS.items()}

    @pytest.mark.parametrize("name", [name for name in _ATOMS if name != "D"])
    def test_wrong_field_count_is_refused_when_made(self, name):
        fields = FIELD_FLOORS.get(name, ())
        for wrong in {fields[:-1], (*fields, 1)} - {fields}:
            with pytest.raises((TypeError, ValueError)):
                Atom(name, wrong)

    @pytest.mark.parametrize("name, i", [(name, i) for name, floors in FIELD_FLOORS.items()
                                         for i in range(len(floors))])
    def test_one_rule_per_field(self, name, i):
        floors = FIELD_FLOORS[name]
        assert parse("1 + " + spell(name, floors)) == Add(Num(1), make(name, floors))
        for ring in (EXACT, MOD64):
            assert evaluate(Add(Num(1), make(name, floors)), 10, ring).order == 10
        below = (*floors[:i], floors[i] - 1, *floors[i + 1:])
        # one below the floor, one message: from the kernel, the node and
        # the parser (where the grammar can spell the value), at the atom
        with pytest.raises(ValueError) as direct:
            kernel(name, below)
        with pytest.raises(ValueError) as made:
            make(name, below)
        assert str(made.value) == str(direct.value)
        if (src := spell(name, below)) is not None:
            with pytest.raises(ParseError) as err:
                parse("1 + " + src)
            assert str(err.value) == f"offset 4: {direct.value}"


class TestRoundTrip:
    @given(qexprs())
    @settings(max_examples=500, deadline=None)
    def test_parse_inverts_printer(self, e):
        assert parse(to_source(e)) == e


class TestEvaluate:
    def test_plain_q(self):
        assert evaluate(parse("q"), 3).coefficients() == [0, 1, 0]

    def test_counting_series_identity(self):
        assert not any(evaluate(parse(f"C - ({EQ_2_2_RHS})"), 400).coefficients())

    def test_mock_theta_decomposition(self):
        src = ("f3(q^8) - 2*q*omega(-q) - 2*q^3*omega(-q^4)"
               " - f[1]^2*f[4]^8/(f[2]^5*f[8]^4)")
        assert not any(evaluate(parse(src), 400).coefficients())

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

    @pytest.mark.parametrize("ring", [EXACT, MOD64], ids=str)
    def test_dissection_offset_past_the_step(self, ring):
        # r >= m starts the class at its (r // m)-th member: D[2,3](C) is
        # the sum of c(2n+3) q^n
        out = evaluate(parse("D[2,3](C)"), 30, ring)
        assert out.order == 30
        c = series_c(63, ring)
        for n in range(30):
            assert out[n] == c[2 * n + 3]

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


    def test_memo_in_another_ring_is_refused(self):
        memo = {parse("C"): series_c(100, mod2pow(8))}
        with pytest.raises(RingMismatchError, match="holds C in mod2pow:8, not exact"):
            evaluate(parse("C"), 50, EXACT, memo)


class TestReads:
    def test_leaves_pass_the_order_down(self):
        assert reads(parse("2*q*f[2]/f[1]^2 - C"), 10) == {
            Num(2): 10, Atom("q"): 10, Atom("f", (2,)): 10, Atom("f", (1,)): 10,
            Atom("C"): 10}

    def test_dissection_reads_its_child_deeper(self):
        # D[m,r] at order n reads m*(n-1)+r+1; nested ones compose
        assert reads(parse("D[8,7](C)"), 40) == {Atom("C"): 320}
        assert reads(parse("D[2,1](D[4,3](f[1]))"), 5) == {Atom("f", (1,)): 40}
        # also past the step: D[2,3] at order 30 reads c(2*29 + 3)
        assert reads(parse("D[2,3](C)"), 30) == {Atom("C"): 62}

    def test_argument_power_reads_the_series_at_q(self):
        # omega, B and f3 at +-q^k read ceil(n/k) of the series at q, all
        # that substitute_power needs to fill n coefficients
        assert reads(parse("omega(-q)"), 80) == {Atom("omega", (1, 1)): 80}
        assert reads(parse("f3(q^8)"), 80) == {Atom("f3", (1, 1)): 10}
        assert reads(parse("f3(q^8)"), 81) == {Atom("f3", (1, 1)): 11}
        assert reads(parse("B(q) + D[2,0](B(-q^4))"), 9) == {Atom("B", (1, 1)): 9}

    def test_a_leaf_read_twice_reports_its_deepest_read(self):
        assert reads(parse("C + D[4,1](C) - D[2,1](C)"), 10) == {
            Atom("C"): 38}

    def test_ck_and_pochhammer_are_leaves(self):
        e = parse("Ck[2]*pochinf[-1,1,2]/pochfin[1,1,1,3]")
        assert reads(e, 7) == {Atom("Ck", (2,)): 7, Atom("pochinf", (-1, 1, 2)): 7,
                               Atom("pochfin", (1, 1, 1, 3)): 7}
