"""Claim-checker and catalogue tests.

The small context used here keeps every series cheap to build; the full-size
run lives in the acceptance tests.  Known-good progressions and the pinned
counterexample witness come from the enumeration oracle, which is checked
against the series route in TestSeriesBuilders.
"""

import dataclasses
import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcong import (
    CATALOGUE,
    EXACT,
    MOD64,
    ClaimReport,
    NonUnitError,
    OrderError,
    Series,
    b_eulerian,
    build_suite_context,
    change_ring,
    check_row,
    count_c_limit,
    count_ck,
    euler_fm,
    f3_series,
    first_incongruence,
    mod2pow,
    mul,
    mul_sparse,
    mul_sparse_binomial,
    omega_series,
    pentagonal_series,
    pochhammer_inf,
    power,
    run_catalogue,
    scan_progressions,
    series_c,
    series_ck,
    verify_congruent,
    verify_identity,
)
from qcong.catalogue import (CLAIM_ROWS, EQ_2_3_ROWS, FAMILY_ROWS,
                             ORACLE_LIMIT, SCAN_ROWS, _family_entry,
                             _scan_order, all_passed, suite_json)
from qcong.cli import main
from qcong import qexpr
import qcong.series
from qcong.mock_theta import _c_sum, appell_sum, c_appell, c_builder
from qcong.series import _FFT_MIN_ORDER, monomial
from qcong.qexpr import (F3, Appell, BFun, CSeries, Dissect, EtaF, Omega,
                         evaluate, parse, reads, to_source)
from test_qexpr import qexprs

SMALL = dict(n_identity=80, n_scan=1200, k_max=1)


@pytest.fixture(scope="module")
def ctx():
    return build_suite_context(**SMALL)


class TestSeriesBuilders:
    def test_c_matches_enumeration(self):
        s = series_c(26)
        for n in range(26):
            assert s[n] == count_c_limit(n)

    def test_c_first_values(self):
        want = [0, 1, 2, 5, 8, 14, 24, 38, 58, 90, 134, 195]
        assert series_c(12).coefficients() == want

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ck_matches_enumeration(self, k):
        s = series_ck(k, 19)
        for n in range(19):
            assert s[n] == count_ck(k, n)

    @pytest.mark.parametrize("k", [2, 4])
    def test_ck_stabilizes_to_c_through_exponent_2k(self, k):
        # the extra even-part factor first contributes at exponent 2k+1,
        # where it adds exactly 1
        order = 2 * k + 6
        ck, c = series_ck(k, order), series_c(order)
        assert first_incongruence(ck, c, None, 2 * k + 1) is None
        assert ck[2 * k + 1] == c[2 * k + 1] + 1

    @pytest.mark.parametrize("ring", [MOD64, mod2pow(5)], ids=str)
    def test_eq_2_2_route_matches_summation(self, ring):
        # mod 2^w series_c follows eq 2-2; the summation is its reference
        assert c_builder(ring) == "eq-2-2-appell" and c_builder(EXACT) == "sum"
        for order in range(1, 65):
            assert series_c(order, ring) == _c_sum(order, ring, None), order

    # c_appell mod 2^8 takes one FFT limb where mod 2^64 takes 4 to 5
    @pytest.mark.parametrize("order", [1, _FFT_MIN_ORDER - 1, _FFT_MIN_ORDER,
                                       8191, 8192, 40000])
    def test_narrow_scan_series_is_mod64_reduced(self, order):
        narrow = c_appell(order, mod2pow(8))
        assert narrow.ring == mod2pow(8)
        assert narrow == change_ring(c_appell(order, MOD64), mod2pow(8))

    def test_mod_route_matches_exact_route(self):
        assert series_c(400, MOD64) == change_ring(series_c(400), MOD64)
        assert series_ck(2, 120, MOD64) == change_ring(series_ck(2, 120), MOD64)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            series_c(0)
        with pytest.raises(ValueError):
            series_ck(0, 10)
        with pytest.raises(ValueError):
            series_ck(1, 0)


def reference_c(order, ring, k=None):
    """c (k None) or c_k term by term from the product definition: term n is
    q^(2n+1) (-q^(2n+2); q^2)_inf (-q^(2n+2k); q^2)_inf / (q^(2n+1); q^2)_inf^2
    at full order, each term got from the last by binomial factors."""
    term = mul_sparse(pochhammer_inf(-1, 2, 2, order, ring), {1: 1})
    if k is not None:
        term = mul(term, pochhammer_inf(-1, 2 * k, 2, order, ring))
    for j in range(1, order, 2):
        term = mul_sparse_binomial(term, -1, j, "divide")
        term = mul_sparse_binomial(term, -1, j, "divide")
    total = monomial(ring, order, 0, 0)
    for j in range(1, order, 2):
        total = total + term
        term = mul_sparse(term, {2: 1})
        term = mul_sparse_binomial(term, -1, j)
        term = mul_sparse_binomial(term, -1, j)
        term = mul_sparse_binomial(term, 1, j + 1, "divide")
        if k is not None:
            term = mul_sparse_binomial(term, 1, j + 2 * k - 1, "divide")
    return total


def three_term_step_c(order, ring, k=None):
    """The summation `_c_sum` with its earlier step u -> u * (1 - q^j)^2 as
    one `mul_sparse` by the three terms 1 - 2q^j + q^(2j)."""
    f1, f4 = ({e: x for e, x in enumerate(pentagonal_series(m, order, ring)
                                           .coefficients()) if x} for m in (1, 4))
    u = mul_sparse(pentagonal_series(2 if k is None else 4, order, ring), f4)
    u = mul_sparse(mul_sparse(u, f1, "divide"), f1, "divide")
    if k is not None:
        for j in range(2, min(2 * k, order), 2):
            u = mul_sparse_binomial(u, 1, j, "divide")
    total = [0] * order
    for j in range(1, order, 2):
        for i, x in enumerate(u.coefficients()[:order - j]):
            total[j + i] += x
        u = mul_sparse(u.truncate(max(0, order - j - 2)), {0: 1, j: -2, 2 * j: 1})
        u = mul_sparse_binomial(u, 1, j + 1, "divide")
        if k is not None:
            u = mul_sparse_binomial(u, 1, j + 2 * k - 1, "divide")
    return Series(ring, total)


def built_c(order, ring, k=None):
    return series_c(order, ring) if k is None else series_ck(k, order, ring)


class TestBuilderAgainstProductDefinition:
    @pytest.mark.parametrize("ring", [EXACT, MOD64, mod2pow(5)], ids=str)
    @pytest.mark.parametrize("k", [None, 1, 2, 3])
    def test_every_small_order(self, ring, k):
        # orders 1..40 cover every edge of the shrinking per-term window
        for order in range(1, 41):
            assert built_c(order, ring, k) == reference_c(order, ring, k), order

    @pytest.mark.parametrize("ring,order", [(EXACT, 600), (MOD64, 3000)], ids=str)
    @pytest.mark.parametrize("k", [None, 1, 2, 3])
    def test_deep_order(self, ring, order, k):
        assert built_c(order, ring, k) == reference_c(order, ring, k)

    @pytest.mark.parametrize("ring", [EXACT, MOD64, mod2pow(5)], ids=str)
    @pytest.mark.parametrize("k", [None, 1, 2, 3])
    def test_summation_step_matches_three_term_step(self, ring, k):
        # the two subtract passes against the mul_sparse step they replaced
        for order in (*range(1, 20), 401, 1200):
            assert _c_sum(order, ring, k) == three_term_step_c(order, ring, k), order

    @pytest.mark.parametrize("ring", [mod2pow(8), MOD64], ids=str)
    @pytest.mark.parametrize("k", [None, 1, 2, 3])
    def test_modular_head_matches_exact_build(self, ring, k):
        # mod 2^w u_0 is f2*f4 (or f4^2) times Newton's invert(f1)^2, where the
        # exact ring divides by f1 twice, term by term
        for order in (1, 2, 64, 65, 600):
            exact = _c_sum(order, EXACT, k)
            assert _c_sum(order, ring, k) == change_ring(exact, ring), order
            if k is not None:
                assert series_ck(k, order, ring) == change_ring(series_ck(k, order), ring)

    @pytest.mark.parametrize("ring", [EXACT, MOD64], ids=str)
    def test_ck_is_c_once_2k_exceeds_order_minus_1(self, ring):
        for order in range(1, 41):
            c = series_c(order, ring)
            for k in ((order + 1) // 2, order + 5):  # smallest k with 2k > order-1
                assert series_ck(k, order, ring) == c, (order, k)


def check(s, lhs, rhs, modulus, n=None):
    """The row checker on two sources over C, with C seeded by s; n None
    checks as many coefficients as s allows, as a catalogue scan row does."""
    return check_row((parse(lhs), parse(rhs)), modulus, {CSeries(): s}, n)


class TestCheckProgression:
    KNOWN = [(8, 4, 4), (8, 6, 8), (16, 13, 4), (32, 23, 8)]

    @pytest.mark.parametrize("a,b,m", KNOWN)
    def test_known_progressions_pass(self, ctx, a, b, m):
        rep = check(ctx.c_scan, f"D[{a},{b}](C)", "0", m)
        assert rep.status == "pass"
        assert rep.witness is None
        assert rep.params["lhs"] == f"D[{a},{b}](C)" and rep.params["rhs"] == "0"
        assert rep.params["n_max"] == (ctx.c_scan.order - 1 - b) // a
        assert rep.params["order"] == rep.params["n_max"] + 1

    @pytest.mark.parametrize("a,b,m", KNOWN)
    def test_known_progressions_pass_exact_ring(self, ctx, a, b, m):
        assert check(ctx.c_exact, f"D[{a},{b}](C)", "0", m).status == "pass"

    def test_counterexample_witness(self, ctx):
        # c(8n+4) is divisible by 4 but not by 8: first failure is
        # c(12) = 284 = 8*35 + 4, read mod 2^8 in the scan ring
        rep = check(ctx.c_scan, "D[8,4](C)", "0", 8)
        assert rep.status == "fail"
        assert rep.witness == {"n": 1, "value": 284 % 256, "residue": 4}
        assert count_c_limit(12) == 284

    def test_witness_identical_in_exact_ring(self, ctx):
        rep = check(ctx.c_exact, "D[8,4](C)", "0", 8)
        assert rep.status == "fail"
        assert rep.witness == {"n": 1, "value": 284, "residue": 4}

    def test_explicit_n_max_beyond_order(self, ctx):
        rep = check(ctx.c_exact, "D[8,4](C)", "0", 4, n=10**6 + 1)
        assert rep.status == "order-too-small"
        assert rep.witness is None
        assert rep.params["too_short"] == ["C"]

    def test_offset_beyond_order(self, ctx):
        rep = check(ctx.c_exact, f"D[8,{ctx.c_exact.order + 5}](C)", "0", 4)
        assert rep.status == "order-too-small"
        assert rep.params["n_max"] == -1

    def test_validation(self, ctx):
        with pytest.raises(ValueError):
            check(ctx.c_exact, "D[0,4](C)", "0", 4)
        with pytest.raises(ValueError):
            Dissect(8, -1, CSeries())
        with pytest.raises(ValueError):
            check(ctx.c_exact, "D[8,4](C)", "0", 1)
        # a mod-2^w scan series cannot resolve a non-power-of-two modulus
        with pytest.raises(ValueError):
            check(ctx.c_scan, "D[8,4](C)", "0", 3)
        assert check(ctx.c_exact, "D[8,4](C)", "0", 3).status in ("pass", "fail")

    @pytest.mark.parametrize("a,b,m", [(8, 4, 4), (8, 4, 8), (4, 1, 2), (2, 1, 4)])
    def test_verdict_is_ring_independent(self, a, b, m):
        s = series_c(300)
        rep_exact = check(s, f"D[{a},{b}](C)", "0", m)
        rep_mod = check(change_ring(s, MOD64), f"D[{a},{b}](C)", "0", m)
        assert rep_exact.status == rep_mod.status
        assert rep_exact.witness == rep_mod.witness


class TestCheckRelation:
    def test_self_relation_passes(self, ctx):
        rep = check(ctx.c_scan, "D[1,0](C)", "D[1,0](C)", 8)
        assert rep.status == "pass"

    def test_known_relations_pass(self, ctx):
        assert check(ctx.c_scan, "D[16,11](C)", "-D[4,3](C)", 8).status == "pass"
        rep = check(ctx.c_scan, "D[8,7](C)", "-D[2,2](C)", 4)
        assert rep.status == "pass"
        # the range is limited by whichever side reads deepest
        assert rep.params["n_max"] == min((1199 - 7) // 8, (1199 - 2) // 2)

    def test_fail_witness(self):
        s = series_c(12)
        rep = check(s, "D[4,1](C)", "D[4,3](C)", 4)
        assert rep.status == "fail"
        # c(9) = 90, c(11) = 195, difference -105 = 3 mod 4
        assert rep.witness == {"n": 2, "value": 90, "residue": 3}

    def test_validation(self, ctx):
        # D[0,r] is refused when its side is parsed; a modulus below 2 when
        # the sides are compared
        with pytest.raises(ValueError):
            check(ctx.c_exact, "D[8,7](C)", "-D[0,2](C)", 4)
        with pytest.raises(ValueError):
            check(ctx.c_exact, "D[8,7](C)", "-D[2,2](C)", 1)

    def test_order_too_small(self, ctx):
        rep = check(ctx.c_exact, "D[8,7](C)", "-D[2,2](C)", 4, n=10**6 + 1)
        assert rep.status == "order-too-small"


def progression_by_loop(s, a, b, modulus, n_max):
    """Reference witness of a progression row: one coefficient per sample."""
    for n in range(n_max + 1):
        value = s[a * n + b]
        if value % modulus:
            return {"n": n, "value": value, "residue": value % modulus}
    return None


def relation_by_loop(s, a1, b1, sign, a2, b2, modulus, n_max):
    """Reference witness of a relation row: one pair of coefficients per sample."""
    for n in range(n_max + 1):
        lhs, rhs = s[a1 * n + b1], s[a2 * n + b2]
        if (lhs - sign * rhs) % modulus:
            return {"n": n, "value": lhs, "residue": (lhs - sign * rhs) % modulus}
    return None


class TestSampledChecksMatchLoop:
    """The row checker reads a progression or relation as two D[A,B](C)
    sides, through a memo seeded with the series. With every coefficient of
    8*C divisible by 8 but one bumped by -4 (negative at q^0 in the exact
    ring), it gives the per-sample loop's verdict, witness and sample
    count, also when B >= A puts coefficients of the residue class before
    the first sample."""

    BUMPS = [0, 3, 7, 12, 100, 299]

    @staticmethod
    def bumped(ring, at):
        coeffs = [8 * x for x in series_c(300).coefficients()]
        coeffs[at] -= 4
        return Series(ring, coeffs)

    @pytest.mark.parametrize("ring", [EXACT, MOD64], ids=str)
    @pytest.mark.parametrize("at", BUMPS)
    @pytest.mark.parametrize("a,b", [(1, 0), (4, 3), (4, 7), (3, 10), (8, 4)])
    def test_progression(self, ring, at, a, b):
        s = self.bumped(ring, at)
        rep = check(s, f"D[{a},{b}](C)", "0", 8)
        want = progression_by_loop(s, a, b, 8, (299 - b) // a)
        assert rep.status == ("pass" if want is None else "fail")
        assert rep.witness == want
        assert rep.params["n_max"] == (299 - b) // a

    @pytest.mark.parametrize("ring", [EXACT, MOD64], ids=str)
    @pytest.mark.parametrize("at", BUMPS)
    @pytest.mark.parametrize("a1,b1,sign,a2,b2", [
        (4, 7, -1, 2, 2), (1, 0, 1, 3, 5), (8, 3, -1, 4, 9), (2, 1, 1, 2, 1)])
    def test_relation(self, ring, at, a1, b1, sign, a2, b2):
        s = self.bumped(ring, at)
        rhs = "-" * (sign < 0) + f"D[{a2},{b2}](C)"
        rep = check(s, f"D[{a1},{b1}](C)", rhs, 8)
        n_max = min((299 - b1) // a1, (299 - b2) // a2)
        want = relation_by_loop(s, a1, b1, sign, a2, b2, 8, n_max)
        assert rep.status == ("pass" if want is None else "fail")
        assert rep.witness == want
        assert rep.params["n_max"] == n_max


class TestCheckFamily:
    """The catalogue's family entries, eq 1-6 to 1-8 and eq 2-1, each run on
    the small context with the k_max a case needs."""

    @staticmethod
    def run(ctx, claim_id, k_max):
        entry = {e.claim_id: e for e in CATALOGUE}[claim_id]
        return entry.run(dataclasses.replace(ctx, k_max=k_max))

    def test_parameter_progressions(self, ctx):
        def lhs(claim_id):
            return [r.params["lhs"] for r in self.run(ctx, claim_id, 3)]
        assert lhs("eq-1-6") == ["D[8,4](C)", "D[32,15](C)", "D[128,59](C)",
                                 "D[512,235](C)"]
        assert lhs("eq-1-7") == ["D[8,6](C)", "D[32,23](C)", "D[128,91](C)",
                                 "D[512,363](C)"]
        assert lhs("eq-1-8") == ["D[16,13](C)", "D[64,51](C)", "D[256,203](C)",
                                 "D[1024,811](C)"]

    def test_bad_multiplier_raises(self):
        # (12*4^k + 1)/3 is never an integer; the entry refuses to be built
        with pytest.raises(ValueError):
            _family_entry("x", "", 4, 3, 12)

    def test_one_report_per_k(self, ctx):
        reports = self.run(ctx, "eq-1-6", 1)
        assert [r.claim_id for r in reports] == ["eq-1-6-k0", "eq-1-6-k1"]
        assert [r.params["k"] for r in reports] == [0, 1]
        assert all(r.status == "pass" for r in reports)

    def test_relation_family_alternates_sign(self, ctx):
        reports = self.run(ctx, "eq-2-1", 1)
        assert [r.params["rhs"] for r in reports] == ["D[4,3](C)",
                                                      "0 - D[4,3](C)"]
        assert all(r.status == "pass" for r in reports)

    def test_depth_beyond_order_reports_order_too_small(self, ctx):
        # at k=5 the offset (8*4^5+1)/3 = 2731 exceeds the scan order, which
        # must surface as order-too-small, never as a failure
        reports = self.run(ctx, "eq-2-1", 5)
        assert all(r.status in ("pass", "order-too-small") for r in reports)
        assert [r.status for r in reports[:3]] == ["pass"] * 3
        assert reports[5].status == "order-too-small"


def family_sides(k_max):
    """(lhs, rhs) of every family member k <= k_max, by the rule that
    `_family_entry` documents."""
    out = []
    for _, _, _, a_exp, b_mult, relation in FAMILY_ROWS:
        for k in range(k_max + 1):
            lhs = f"D[{2 ** (2 * k + a_exp)},{(b_mult * 4**k + 1) // 3}](C)"
            rhs = ("0" if relation is None else
                   "-" * (k % 2) + f"D[{relation[0]},{relation[1]}](C)")
            out.append((lhs, rhs))
    return out


def bisected_scan_order(sides, seeds):
    """The largest n to which no side reads a seed past its end, by
    bisection over `reads`, which grows with n."""
    lo, hi = 0, max(s.order for s in seeds.values())
    while lo < hi:
        mid = (lo + hi + 1) // 2
        fits = all(reads(e, mid).get(leaf, 0) <= s.order
                   for e in sides for leaf, s in seeds.items())
        lo, hi = (mid, hi) if fits else (lo, mid - 1)
    return lo


class TestScanOrder:
    SIDES = [(lhs, rhs) for _, _, lhs, rhs, _, _ in SCAN_ROWS] + family_sides(6)

    @pytest.mark.parametrize("order", [1, 2, 63, 1200, 10000, 40000])
    def test_closed_form_matches_bisection(self, order):
        seeds = {CSeries(): monomial(mod2pow(8), order, 0, 0)}
        for lhs, rhs in self.SIDES:
            sides = (parse(lhs), parse(rhs))
            assert _scan_order(sides, seeds) == bisected_scan_order(sides, seeds), \
                (lhs, rhs, order)

    @pytest.mark.parametrize("lhs, rhs", [
        ("D[2,1](B(q))", "0"),          # not a seed
        ("2*D[8,4](C)", "0"),           # not a bare dissection
        ("D[8,4](C)", "q"),
        ("D[2,0](D[4,1](C))", "0"),     # nested
        ("0", "0"),                     # reads no seed
    ])
    def test_other_shapes_raise(self, lhs, rhs):
        seeds = {CSeries(): monomial(mod2pow(8), 100, 0, 0)}
        with pytest.raises(ValueError):
            check_row((parse(lhs), parse(rhs)), 4, seeds)

    @pytest.mark.parametrize("n", [None, 10])
    def test_no_seeds_raise(self, n):
        # a row evaluates in its seeds' ring, so it needs at least one seed
        with pytest.raises(ValueError, match="at least one seed"):
            check_row((parse("D[2,1](C)"), parse("0")), 4, {}, n)


class TestVerify:
    def test_identity_pass_and_fail(self):
        a = evaluate(parse("1/f[1]"), 50)
        assert verify_identity(a, a, 50).status == "pass"
        rep = verify_identity(a, a + monomial(EXACT, 50, 7), 50)
        assert rep.status == "fail"
        assert rep.witness == {"n": 7, "lhs": 15, "rhs": 16}

    def test_identity_reports_the_first_difference(self):
        a = evaluate(parse("1/f[1]"), 50)
        bumps = monomial(EXACT, 50, 31, 5) + monomial(EXACT, 50, 9, -2)
        rep = verify_identity(a + monomial(EXACT, 50, 40), a + bumps, 50)
        assert rep.status == "fail"
        assert rep.witness == {"n": 9, "lhs": a[9], "rhs": a[9] - 2}

    def test_identity_refuses_unknown_coefficients(self):
        a = evaluate(parse("1/f[1]"), 50)
        with pytest.raises(OrderError):
            verify_identity(a, a, 51)

    def test_congruent_pass_and_fail(self):
        lhs = power(euler_fm(1, 60), 2)
        rhs = euler_fm(2, 60)
        assert verify_congruent(lhs, rhs, 2, 60).status == "pass"
        rep = verify_congruent(lhs, rhs, 4, 60)
        assert rep.status == "fail"
        assert rep.witness["n"] == 1
        assert rep.witness["residue"] == 2

    @pytest.mark.parametrize("ring", [EXACT, MOD64], ids=str)
    def test_congruent_without_modulus_is_identity(self, ring):
        a = evaluate(parse("1/f[1]"), 50, ring)
        for b in (a, a + monomial(ring, 50, 7)):
            want = verify_identity(a, b, 50)
            got = verify_congruent(a, b, None, 50)
            assert ((got.status, got.params, got.witness)
                    == (want.status, want.params, want.witness))
        assert got.status == "fail"
        assert got.witness == {"n": 7, "lhs": 15, "rhs": 16}


class TestCatalogue:
    def test_every_claim_passes(self, ctx):
        reports = run_catalogue(ctx)
        bad = [r for r in reports if r.status != "pass"]
        assert bad == []
        # four family entries contribute k_max+1 reports each
        assert len(reports) == len(CATALOGUE) + 4 * ctx.k_max

    def test_catalogue_ids_unique(self):
        ids = [e.claim_id for e in CATALOGUE]
        assert len(set(ids)) == len(ids)

    def test_catalogue_kinds(self):
        kinds = [e.kind for e in CATALOGUE]
        assert kinds.count("progression") == 7
        assert kinds.count("family") == 4
        assert kinds.count("relation") == 4
        assert kinds.count("oracle") == 4
        for kind in kinds:
            assert kind in ("exact", "progression", "relation", "family",
                            "oracle") or kind.startswith("mod-")

    def test_scan_mutation_is_detected(self, ctx):
        bad = ctx.c_scan + monomial(ctx.c_scan.ring, ctx.c_scan.order, 12)
        reports = run_catalogue(dataclasses.replace(ctx, c_scan=bad))
        fails = {r.claim_id: r for r in reports if r.status == "fail"}
        assert "eq-1-2" in fails and "eq-1-6-k0" in fails
        assert fails["eq-1-2"].witness["n"] == 1  # c(8*1 + 4)
        # claims that never read the scan series stay green
        by_id = {r.claim_id: r for r in reports}
        assert by_id["eq-2-2"].status == "pass"
        assert by_id["oracle-c-limit"].status == "pass"

    def test_exact_mutation_is_detected(self, ctx):
        bad = ctx.c_exact + monomial(EXACT, ctx.c_exact.order, 7)
        reports = run_catalogue(dataclasses.replace(ctx, c_exact=bad))
        by_id = {r.claim_id: r for r in reports}
        assert by_id["eq-2-2"].status == "fail"
        assert by_id["eq-2-2"].witness["n"] == 7
        assert by_id["oracle-c-limit"].status == "fail"
        assert by_id["oracle-c-limit"].witness == {"n": 7, "value": 39,
                                                   "expected": 38}
        assert by_id["eq-1-2"].status == "pass"

    def test_exact_mutation_at_oracle_window_edge(self, ctx):
        # q^ORACLE_LIMIT is the last coefficient the oracle entries compare
        bad = ctx.c_exact + monomial(EXACT, ctx.c_exact.order, ORACLE_LIMIT)
        [rep] = {e.claim_id: e for e in CATALOGUE}["oracle-c-limit"].run(
            dataclasses.replace(ctx, c_exact=bad))
        assert rep.status == "fail"
        want = count_c_limit(ORACLE_LIMIT)
        assert rep.witness == {"n": ORACLE_LIMIT, "value": want + 1,
                               "expected": want}

    @pytest.mark.parametrize("field", ["b_exact", "omega_exact", "f3_exact"])
    def test_mock_theta_mutation_is_detected(self, ctx, field):
        # the rows read B, omega and f3 from the context, not rebuilt copies
        s = getattr(ctx, field)
        bad = dataclasses.replace(ctx, **{field: s + monomial(EXACT, s.order, 3)})
        rows = {row[0] for row in CLAIM_ROWS}
        failed = [r.claim_id for e in CATALOGUE if e.claim_id in rows
                  for r in e.run(bad) if r.status == "fail"]
        assert failed

    def test_short_seeded_series_is_reported_not_rebuilt(self, ctx):
        # eq-a-1 reads D[8,7](C) to 320 coefficients; a context C of only 300
        # must not be swapped for a rebuilt one, whatever its q^7 says
        short = ctx.c_exact.truncate(300) + monomial(EXACT, 300, 7)
        bad = dataclasses.replace(ctx, c_exact=short)
        entries = {e.claim_id: e for e in CATALOGUE}
        [rep] = entries["eq-a-1"].run(bad)
        assert rep.status == "order-too-small"
        assert rep.params["too_short"] == ["C"]
        assert not all_passed([rep])
        # rows that read C no deeper than 300 still check it, and fail
        assert entries["eq-2-2"].run(bad)[0].status == "fail"

    def test_rows_round_trip_and_report_their_sources(self, ctx):
        entries = {e.claim_id: e for e in CATALOGUE}
        for claim_id, _, lhs_src, rhs_src, _, _ in CLAIM_ROWS:
            lhs, rhs = parse(lhs_src), parse(rhs_src)
            assert parse(to_source(lhs)) == lhs
            assert parse(to_source(rhs)) == rhs
            params = entries[claim_id].run(ctx)[0].params
            assert (params["lhs"], params["rhs"]) == (to_source(lhs),
                                                      to_source(rhs))

    def test_suite_json_schema(self, ctx):
        reports = run_catalogue(ctx)
        doc = suite_json(reports, **{k: SMALL[k] for k in
                                     ("n_identity", "n_scan", "k_max")})
        assert set(doc) == {"order_identity", "order_scan", "k_max", "claims"}
        assert len(doc["claims"]) == len(reports)
        for claim in doc["claims"]:
            assert {"id", "paper_eq", "status", "params"} <= set(claim)
            assert claim["status"] in ("pass", "fail", "order-too-small")
            assert ("witness" in claim) == (claim["status"] == "fail")
        json.dumps(doc)

    def test_all_passed_semantics(self):
        ok = ClaimReport("a", "", "pass", {})
        short = ClaimReport("b", "", "order-too-small", {})
        bad = ClaimReport("c", "", "fail", {}, {"n": 0})
        assert not all_passed([ok, short])
        assert not all_passed([ok, bad])

    def test_paper_suite_smoke(self):
        reports = run_catalogue(build_suite_context(30, 330, 0))
        assert all_passed(reports)
        assert all(r.status == "pass" for r in reports)


class TestScan:
    def test_rediscovers_published_progressions(self, ctx):
        triples = set(scan_progressions(ctx.c_scan, 32, [4, 8], 30))
        assert {(8, 4, 4), (8, 6, 8), (16, 13, 4), (32, 23, 8)} <= triples
        assert (8, 4, 8) not in triples
        # anything vanishing mod 8 also vanishes mod 4
        assert {(a, b, 4) for (a, b, m) in triples if m == 8} <= triples

    @staticmethod
    def direct_scan(s, a_max, moduli, n_max):
        """scan_progressions' output, one coefficient at a time."""
        c = s.coefficients()
        return [(a, b, m) for a in range(1, a_max + 1) for b in range(a)
                for m in moduli
                if all(c[a * n + b] % m == 0 for n in range(n_max + 1))]

    def test_matches_a_direct_loop(self, ctx):
        s, n_max = ctx.c_scan, 30
        assert scan_progressions(s, 16, [2, 4, 8], n_max) == \
            self.direct_scan(s, 16, [2, 4, 8], n_max)

    @pytest.mark.parametrize("ring, moduli", [
        (EXACT, [2, 3, 6, 4]),                  # % on Python ints
        (mod2pow(8), [2, 4, 8, 16, 4]),         # a mask; a repeat repeats
        (MOD64, [2 ** 64, 2]),                  # 2^64: no reduction at all
    ])
    @pytest.mark.parametrize("a_max, n_max", [(12, 30), (32, 200), (7, 0)])
    def test_each_ring_matches_a_direct_loop(self, ring, moduli, a_max, n_max):
        order = a_max * (n_max + 1)
        s = series_c(order, ring)
        if ring == MOD64:  # C mod 2^64 has no class that vanishes outright
            s = Series(ring, [x * (1 << 63) if n % 3 == 1 else x * (n % 3)
                              for n, x in enumerate(s.coefficients())])
        got = scan_progressions(s, a_max, moduli, n_max)
        assert got == self.direct_scan(s, a_max, moduli, n_max)
        assert any(m == moduli[0] for _, _, m in got)

    def test_no_moduli_finds_nothing(self, ctx):
        assert scan_progressions(ctx.c_scan, 8, [], 30) == []

    def test_zero_series_matches_everything(self):
        claims = scan_progressions(monomial(EXACT, 100, 0, 0), 4, [2], 20)
        assert len(claims) == 1 + 2 + 3 + 4

    def test_scan_needs_enough_order(self):
        with pytest.raises(ValueError):
            scan_progressions(series_c(50), 8, [4], 10)
        s = series_c(88)  # exactly the 8 * 11 coefficients it reads
        assert scan_progressions(s, 8, [4], 10) == self.direct_scan(s, 8, [4], 10)
        with pytest.raises(ValueError, match="exponent 87, series order is 87"):
            scan_progressions(s.truncate(87), 8, [4], 10)
        with pytest.raises(ValueError, match="a_max must be >= 1"):
            scan_progressions(s, 0, [4], 10)

    @pytest.mark.parametrize("ring, modulus, message", [
        (EXACT, 1, "modulus must be >= 2, got 1"),
        (mod2pow(8), 1, "modulus must be >= 2, got 1"),
        (mod2pow(8), 3, "modulus 3 must be a power of 2 dividing 2^8"),
        (mod2pow(8), 512, "modulus 512 must be a power of 2 dividing 2^8"),
    ])
    def test_bad_modulus_raises_check_modulus_message(self, ring, modulus, message):
        s = series_c(100, ring)
        with pytest.raises(ValueError, match=re.escape(message)):
            scan_progressions(s, 4, [4, modulus], 20)

    def test_claim_str_is_readable(self, capsys):
        # the scan command prints each (A, B, M) triple as one readable line
        assert main(["scan", "--amax", "8", "--mods", "4",
                     "--nmax", "100"]) == 0
        text = capsys.readouterr().out
        assert "8n+4" in text and "mod 4" in text
        assert "c(8n+4) == 0 mod 4 for n <= 100" in text.splitlines()


class TestSuiteContext:
    def test_orders_cover_every_extraction(self, ctx):
        # each seed is as long as the deepest row reads it, eq 2-3's two rows
        # among them; only the oracle sets a floor (C to ORACLE_LIMIT)
        n = {"identity": 80, "congruence": 40}
        want = {CSeries(): ORACLE_LIMIT + 1, BFun(1, 1): 0, Omega(1, 1): 0,
                F3(1, 1): 0}
        for _, _, lhs, rhs, _, order in (*CLAIM_ROWS, *EQ_2_3_ROWS.values()):
            for src in (lhs, rhs):
                for leaf, depth in reads(parse(src), n[order]).items():
                    if leaf in want:
                        want[leaf] = max(want[leaf], depth)
        assert ctx.c_exact.order == want[CSeries()] == 320
        assert ctx.b_exact.order == want[BFun(1, 1)] == 318
        assert ctx.omega_exact.order == want[Omega(1, 1)] == 80
        assert ctx.f3_exact.order == want[F3(1, 1)] == 11
        assert ctx.c_scan.order == 1200
        assert ctx.c_scan.ring == mod2pow(8)
        assert ctx.c_exact.ring == EXACT

    def test_series_equal_their_direct_builders(self, ctx):
        # the context builds each one through qexpr.evaluate of its leaf
        assert ctx.c_exact == series_c(ctx.c_exact.order)
        assert ctx.b_exact == b_eulerian(ctx.b_exact.order)
        assert ctx.omega_exact == omega_series(ctx.omega_exact.order)
        assert ctx.f3_exact == f3_series(ctx.f3_exact.order)
        assert ctx.c_scan == change_ring(series_c(ctx.n_scan, MOD64),
                                         ctx.c_scan.ring)

    def test_timings_reported(self):
        timings = {}
        build_suite_context(20, 100, 0, timings=timings)
        assert set(timings) == {"exact_build", "scan_build"}
        assert all(t >= 0 for t in timings.values())

    def test_init_fields_and_seeded_memo(self, ctx):
        names = [f.name for f in dataclasses.fields(ctx) if f.init]
        assert names == ["n_identity", "n_congruence", "n_scan", "k_max",
                         "c_exact", "b_exact", "omega_exact", "f3_exact",
                         "c_scan"]
        # built from its fields alone, as the benchmark's child does
        fresh = type(ctx)(**{name: getattr(ctx, name) for name in names})
        assert fresh == ctx and fresh.memo is not ctx.memo
        assert fresh.memo == {CSeries(): ctx.c_exact, BFun(1, 1): ctx.b_exact,
                              Omega(1, 1): ctx.omega_exact,
                              F3(1, 1): ctx.f3_exact}
        assert fresh.scan_memo == {CSeries(): ctx.c_scan}
        assert fresh.scan_memo is not ctx.scan_memo


def _b_readers(ctx) -> set:
    """The rows whose sides read B at the depths of ctx."""
    return {row[0] for row in CLAIM_ROWS
            if any(BFun(1, 1) in reads(parse(src), getattr(ctx, f"n_{row[5]}"))
                   for src in row[2:4])}


def assert_reads_is_exact(e, n, ring=EXACT):
    """Each leaf seeded at exactly its `reads` depth serves evaluate(e, n);
    one coefficient fewer, and evaluate rebuilds that leaf alone."""
    depths = reads(e, n)
    seeds = {leaf: evaluate(leaf, d, ring) for leaf, d in depths.items()}
    memo = dict(seeds)
    evaluate(e, n, ring, memo)
    assert all(memo[leaf] is s for leaf, s in seeds.items())
    for leaf, d in depths.items():
        short = seeds[leaf].truncate(d - 1)
        memo = {**seeds, leaf: short}
        evaluate(e, n, ring, memo)
        assert memo[leaf] is not short, to_source(leaf)
        assert memo[leaf].order == d, to_source(leaf)
        assert all(memo[other] is s for other, s in seeds.items()
                   if other != leaf)


class TestSharedMemo:
    @pytest.mark.parametrize("row", CLAIM_ROWS, ids=lambda row: row[0])
    def test_reads_is_exact(self, ctx, row):
        _, _, lhs, rhs, _, order = row
        n = getattr(ctx, f"n_{order}")
        for e in (parse(lhs), parse(rhs)):
            assert_reads_is_exact(e, n)

    @given(qexprs(), st.integers(2, 12))
    @settings(max_examples=200, deadline=None)
    def test_reads_is_exact_for_any_tree(self, e, n):
        # reads and evaluate share one child rule, so the depths hold for
        # every tree, not only the catalogue's; mod 2^64, so that an odd
        # constant is a unit and fewer trees divide by a non-unit
        assume(max(reads(e, n).values()) <= 400)
        try:
            evaluate(e, n, MOD64)
        except NonUnitError:
            assume(False)
        assert_reads_is_exact(e, n, MOD64)

    def test_one_memo_serves_every_row(self):
        ctx = build_suite_context(**SMALL)
        calls = []
        real = qexpr._evaluate
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qexpr, "_evaluate", lambda e, order, ring, memo:
                       calls.append((e, order, ring)) or real(e, order, ring, memo))
            run_catalogue(ctx)
            first = len(calls)
            assert all(r.status == "pass" for r in run_catalogue(ctx))
        # no node is built twice at one order in one ring, though many rows
        # share f[2], f[4], ..., and a second run finds every side in its
        # ring's memo
        assert calls.count((EtaF(4), SMALL["n_identity"], EXACT)) == 1
        assert calls.count((Appell(2), SMALL["n_identity"], EXACT)) == 1
        assert (parse("D[8,4](C)"), 150, mod2pow(8)) in calls
        assert len(set(calls)) == len(calls) == first

    def test_each_denominator_inverts_once(self, monkeypatch):
        # a/b evaluates b^-1 through the memo, so one catalogue run inverts
        # each distinct series once: 18 calls from the rows, 30 with those
        # that invert makes itself on series in q^d (39 when a/b inverted b
        # outside the memo)
        ctx = build_suite_context(200, 10000, 2)
        top, inner, open_calls, real = [], [], [], qcong.series.invert

        def counting(a):
            (inner if open_calls else top).append(a)
            open_calls.append(a)
            try:
                return real(a)
            finally:
                open_calls.pop()
        monkeypatch.setattr(qcong.series, "invert", counting)
        assert all_passed(run_catalogue(ctx))
        assert len(top) == len(set(top)) == 18
        assert len(top) + len(inner) == 30

    def test_replaced_context_gets_a_fresh_memo(self, ctx):
        # with ctx's memo full, a context whose B is bumped at q^0..q^7 must
        # fail every row that reads B (and eq-2-3, which compares B's two
        # forms), never reuse a series cached from ctx
        run_catalogue(ctx)
        bump = sum((monomial(EXACT, ctx.b_exact.order, i) for i in range(8)),
                   monomial(EXACT, ctx.b_exact.order, 0, 0))
        bumped = dataclasses.replace(ctx, b_exact=ctx.b_exact + bump)
        assert len(bumped.memo) == 4 < len(ctx.memo)
        failed = {r.claim_id for r in run_catalogue(bumped)
                  if r.status == "fail"}
        assert failed == _b_readers(ctx) | {"eq-2-3"}


class TestEq23:
    def test_sign_flipped_appell_fails_only_eq_2_3(self, ctx):
        # the rows read appell[a] through qexpr's builder, while c_appell
        # calls appell_sum itself: the flip reaches eq 2-3 alone, whose first
        # pair, B, is the series its witness names
        before = {r.claim_id: r for r in run_catalogue(ctx)}
        flipped = lambda a, order, ring: -appell_sum(a, order, ring)
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(qexpr._BUILDERS, Appell, flipped)
            after = {r.claim_id: r for r in run_catalogue(dataclasses.replace(ctx))}
        assert before["eq-2-3"].status == "pass"
        assert {k: r.status for k, r in after.items()} == {
            k: "fail" if k == "eq-2-3" else r.status for k, r in before.items()}
        assert after["eq-2-3"].witness == {"n": 0, "lhs": 1, "rhs": -1,
                                           "series": "B"}
        assert after["eq-2-3"].params == before["eq-2-3"].params

    def test_short_seed_is_order_too_small(self, ctx):
        # omega cut below the identity order: its row cannot be checked, and
        # the report says which series, never pass
        short = dataclasses.replace(ctx, omega_exact=ctx.omega_exact.truncate(40))
        eq_2_3 = next(r for r in run_catalogue(short) if r.claim_id == "eq-2-3")
        assert eq_2_3.status == "order-too-small"
        assert eq_2_3.witness == {"series": "omega"}


@st.composite
def small_series(draw):
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=4, max_size=40))
    s = monomial(EXACT, len(coeffs), 0, 0)
    for i, c in enumerate(coeffs):
        if c:
            s = s + monomial(EXACT, len(coeffs), i, c)
    return s


class TestCheckerAgainstDirectLoop:
    @given(small_series(), st.integers(1, 4), st.integers(0, 3),
           st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_progression_checker_equals_naive_loop(self, s, a, b, m):
        rep = check(s, f"D[{a},{b}](C)", "0", m)
        n_max = (s.order - 1 - b) // a
        naive = [n for n in range(max(n_max + 1, 0)) if s[a * n + b] % m]
        if rep.status == "order-too-small":
            assert n_max < 0
        elif naive:
            assert rep.status == "fail"
            assert rep.witness["n"] == naive[0]
        else:
            assert rep.status == "pass"
