"""Claim-checker and catalogue tests.

The small context used here keeps every series cheap to build; the full-size
run lives in the acceptance tests.  Known-good progressions and the pinned
counterexample witness come from the enumeration oracle, which is checked
against the series route in TestSeriesBuilders.
"""

import dataclasses
import json
import re
import tracemalloc
from collections import defaultdict
from pathlib import Path

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
    RingMismatchError,
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
                             ORACLE_LIMIT, ORACLE_ROWS, SCAN_ROWS, _family_entry,
                             _row_entry, all_passed, suite_json)
from qcong.cli import main
from qcong import qexpr
import qcong.series
import qcong.mock_theta
from qcong.mock_theta import _c_sum, appell_sum, c_appell
from qcong.series import _FFT_MIN_ORDER, monomial
from qcong.qexpr import Dissect, Sub, evaluate, parse, reach, reads, to_source
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

    @pytest.mark.parametrize("ring, route", [(mod2pow(8), "c_appell"), (MOD64, "c_appell"),
                                             (EXACT, "_c_sum")], ids=str)
    def test_series_c_route(self, monkeypatch, ring, route):
        # eq 2-2 mod 2^w; exactly the sum of the definition, so that claim
        # eq-2-2 does not check itself
        calls = []
        for name in ("c_appell", "_c_sum"):
            real = getattr(qcong.mock_theta, name)
            monkeypatch.setattr(qcong.mock_theta, name,
                                lambda *a, name=name, real=real: calls.append(name) or real(*a))
        series_c(40, ring)
        assert calls == [route]

    @pytest.mark.parametrize("ring", [MOD64, mod2pow(5)], ids=str)
    def test_eq_2_2_route_matches_summation(self, ring):
        # mod 2^w series_c follows eq 2-2; the summation is its reference
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

    @pytest.mark.parametrize("build", [lambda: series_c(10**9), lambda: series_ck(2, 10**9),
                                       lambda: pochhammer_inf(1, 1, 1, 10**6)],
                             ids=["C", "Ck2", "pochinf"])
    def test_kernel_allocates_before_any_step_is_listed(self, build, monkeypatch):
        # a builder hands `eulerian_sum` its steps unlisted, so an order too
        # large to allocate is refused before the steps take any memory
        def refuse(*args):
            raise MemoryError("Unable to allocate")
        monkeypatch.setattr(qcong.mock_theta, "eulerian_sum", refuse)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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
        # u_0 is the same Euler sums in every ring, so mod 2^w the build is
        # the exact one reduced
        for order in (1, 2, 64, 65, 600):
            exact = _c_sum(order, EXACT, k)
            assert _c_sum(order, ring, k) == change_ring(exact, ring), order
            if k is not None:
                assert series_ck(k, order, ring) == change_ring(series_ck(k, order), ring)

    def test_exact_c_across_the_int64_switch(self):
        # the exact sum outgrows one int64 limb partway and carries into
        # more; c_appell builds C by eq 2-2 from FFT, Newton and Appell kernels
        assert series_c(2800) == c_appell(2800)

    def test_exact_c_deep(self):
        # twice as deep: C's coefficients reach 298 bits, ten 32-bit limbs
        assert series_c(5600) == c_appell(5600)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exact_ck_across_the_int64_switch(self, k):
        # the exact sum of C_k outgrows one int64 limb partway, and the
        # reference builds it term by term at full order
        assert series_ck(k, 1400) == reference_c(1400, EXACT, k)

    @pytest.mark.parametrize("build", [lambda: series_c(2800), lambda: series_ck(2, 1400)],
                             ids=["C-2800", "C2-1400"])
    def test_exact_sum_joins_its_limbs_once(self, monkeypatch, build):
        # the sum and u_0's Euler sums share one limb array, which becomes
        # Python ints once, at the end of the one eulerian_sum call
        joins = []
        join = qcong.series._join_limbs
        monkeypatch.setattr(qcong.series, "_join_limbs",
                            lambda *args: joins.append(args) or join(*args))
        build()
        assert len(joins) == 1

    @pytest.mark.parametrize("ring", [EXACT, MOD64], ids=str)
    def test_ck_is_c_once_2k_exceeds_order_minus_1(self, ring):
        for order in range(1, 41):
            c = series_c(order, ring)
            for k in ((order + 1) // 2, order + 5):  # smallest k with 2k > order-1
                assert series_ck(k, order, ring) == c, (order, k)


def check(s, lhs, rhs, modulus, n=None):
    """The row checker on two sources over C, with C seeded by s; n None
    checks as many coefficients as s allows, as a catalogue scan row does."""
    return check_row((parse(lhs), parse(rhs)), modulus, {parse("C"): s}, n)


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
            Dissect(8, -1, parse("C"))
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


def family_rows(k_max):
    """(id, lhs, rhs, modulus) of every family member k <= k_max, by the
    rule that `_family_entry` documents."""
    out = []
    for claim_id, _, modulus, a_exp, b_mult, relation in FAMILY_ROWS:
        for k in range(k_max + 1):
            lhs = f"D[{2 ** (2 * k + a_exp)},{(b_mult * 4**k + 1) // 3}](C)"
            rhs = ("0" if relation is None else
                   "-" * (k % 2) + f"D[{relation[0]},{relation[1]}](C)")
            out.append((f"{claim_id}-k{k}", lhs, rhs, modulus))
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
    """check_row(n=None) checks as deep as `qexpr.reach` allows: the read
    rule of `_children` inverted, for any pair of sides."""

    SIDES = ([(lhs, rhs) for _, _, lhs, rhs, _, _ in SCAN_ROWS]
             + [row[1:3] for row in family_rows(6)]
             + [("2*D[8,4](C)", "0"),          # not a bare dissection
                ("D[8,4](C)", "q"),            # a side that reads no seed
                ("D[2,0](D[4,1](C))", "0")])   # nested

    @pytest.mark.parametrize("order", [1, 2, 63, 1200, 10000, 40000])
    def test_closed_form_matches_bisection(self, order):
        seeds = {parse("C"): monomial(mod2pow(8), order, 0, 0)}
        for lhs, rhs in self.SIDES:
            sides = (parse(lhs), parse(rhs))
            want = bisected_scan_order(sides, seeds)
            ends = [reach(e, seeds) for e in sides]
            assert min(n for n in ends if n is not None) == want, (lhs, rhs, order)
            rep = check_row(sides, 4, seeds)
            assert rep.params["order"] == want
            assert (rep.status == "order-too-small") == (want == 0)

    @pytest.mark.parametrize("lhs, rhs", [
        ("D[2,1](B(q))", "0"),          # not a seed
        ("0", "0"),                     # reads no seed
    ])
    def test_other_shapes_raise(self, lhs, rhs):
        seeds = {parse("C"): monomial(mod2pow(8), 100, 0, 0)}
        with pytest.raises(ValueError, match="no side of a scan row reads a seed"):
            check_row((parse(lhs), parse(rhs)), 4, seeds)

    def test_seeds_in_two_rings_are_refused(self):
        # an exact verdict on mod-2^8 data would say more than its evidence
        seeds = {parse("B(q)"): b_eulerian(100), parse("C"): series_c(100, mod2pow(8))}
        for n in (50, None):
            with pytest.raises(RingMismatchError, match="share one ring, got exact, mod2pow:8"):
                check_row((parse("C"), parse("C")), None, seeds, n)

    def test_substituted_seed_long_enough_is_checked(self):
        # omega(-q^2) and f3(q^8) to n read ceil(n/2) and ceil(n/8) of the
        # series at q, so seeds of 50 and 10 serve order 100 and 80
        omega = {parse("omega(q)"): omega_series(50)}
        sides = (parse("q*omega(-q^2)"), parse("q*D[2,0](omega(-q^4))"))
        assert check_row(sides, None, omega, 100).status == "pass"
        f3 = {parse("f3(q)"): f3_series(10)}
        sides = (parse("f3(q^8)"), parse("D[2,0](f3(q^16))"))
        assert check_row(sides, None, f3, 80).status == "pass"
        assert check_row(sides, None, f3).params["order"] == 80

    @pytest.mark.parametrize("src, leaf, n, depth", [
        ("D[8,4](C)", parse("C"), 10, 77),                  # 8*9 + 4 + 1
        ("q*omega(-q^2)", parse("omega(q)"), 100, 50),      # ceil(100/2)
        ("2*f3(q^8)", parse("f3(q)"), 81, 11),              # ceil(81/8)
        ("D[2,1](B(-q^3))", parse("B(q)"), 30, 20),         # ceil((2*29+2)/3)
        ("D[3,2](D[2,1](C))", parse("C"), 7, 42),           # 2*(3*6+2) + 1 + 1
    ])
    def test_seed_one_coefficient_short_is_order_too_small(self, src, leaf, n, depth):
        e = parse(src)
        assert reads(e, n)[leaf] == depth
        full = evaluate(leaf, depth)
        for seed, status in ((full, "pass"), (full.truncate(depth - 1), "order-too-small")):
            rep = check_row((e, e), None, {leaf: seed}, n)
            assert rep.status == status, (src, seed.order)
            assert rep.params.get("too_short", []) == (
                [to_source(leaf)] if status != "pass" else [])
        # reach inverts the same rule: the full seed serves n, the short one not
        assert reach(e, {leaf: full}) >= n
        assert reach(e, {leaf: full.truncate(depth - 1)}) < n

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

    def test_every_checked_report_has_order_and_ring(self, ctx):
        # the acceptance checks and the benchmark's sample count read them
        for entry in CATALOGUE:
            for rep in entry.run(ctx):
                assert isinstance(rep.params["order"], int), rep.claim_id
                assert rep.params["ring"] in ("exact", str(ctx.c_scan.ring)), rep.claim_id

    def test_repeated_and_vacuous_rows(self):
        # the golden suite's 63 reports hold 54 distinct non-trivial checks:
        # eq-2-1-k0 compares D[4,3](C) with itself, and eight ids repeat a
        # row that another id checks with the same lhs, rhs, modulus, ring
        # and order. A new repeat or self-comparison fails here
        path = Path(__file__).resolve().parent / "data" / "suite-200-10000-2.json"
        claims = json.loads(path.read_text(encoding="utf-8"))["claims"]
        groups = defaultdict(list)
        for claim in claims:
            p = claim["params"]
            if "lhs" in p:  # eq 2-3's named rows keep theirs under "rows"
                key = (p["lhs"], p["rhs"], p.get("modulus"), p["ring"], p["order"])
                groups[key].append(claim["id"])
        vacuous = {i for (lhs, rhs, *_), ids in groups.items() if lhs == rhs for i in ids}
        repeated = {frozenset(ids) for ids in groups.values() if len(ids) > 1}
        assert vacuous == {"eq-2-1-k0"}
        assert repeated == {frozenset(ids) for ids in (
            ("eq-1-2", "eq-1-6-k0"), ("eq-1-3", "eq-1-7-k0"), ("eq-1-4", "eq-1-8-k0"),
            ("eq-1-5", "eq-1-7-k1", "eq-2-22"), ("eq-2-21", "eq-1-6-k1"),
            ("eq-2-23", "eq-1-8-k1"), ("eq-2-19", "eq-2-1-k1"))}
        distinct = len(claims) - sum(len(ids) - 1 for ids in repeated) - len(vacuous)
        assert (len(claims), distinct) == (63, 54)

    def test_catalogue_ids_unique(self):
        ids = [e.claim_id for e in CATALOGUE]
        assert len(set(ids)) == len(ids)

    def test_catalogue_kinds(self):
        kinds = [e.kind for e in CATALOGUE]
        assert kinds.count("progression") == 7
        assert kinds.count("family") == 4
        assert kinds.count("relation") == 4
        # 11 identity rows, eq 2-3 and the four oracle rows
        assert kinds.count("exact") == 16
        for kind in kinds:
            assert kind in ("exact", "progression", "relation", "family") or kind.startswith("mod-")

    def test_a_misspelt_tier_fails_when_the_entry_is_built(self):
        # at import, not when the row runs, where the CLI would not catch it
        with pytest.raises(ValueError, match="^x: unknown tier identiy; expected one of "
                                             "identity, identity-half, "):
            _row_entry("x", "x", "C", "C", None, "identiy")
        with pytest.raises(ValueError, match="^eq-2-3: unknown tier crosss;"):
            _row_entry("eq-2-3", "2-3", B=("C", "C", None, "identity"),
                       c_scan=("C", "C", None, "crosss"))
        assert _row_entry("x", "x", "C", "C", None, "identity-half").kind == "exact"

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
        assert by_id["oracle-c-limit"].witness == {"n": 7, "lhs": 39, "rhs": 38}
        assert by_id["eq-1-2"].status == "pass"

    def test_exact_mutation_at_oracle_window_edge(self, ctx):
        # q^ORACLE_LIMIT is the last coefficient the oracle rows compare
        entry = {e.claim_id: e for e in CATALOGUE}["oracle-c-limit"]
        bump = [entry.run(dataclasses.replace(
            ctx, c_exact=ctx.c_exact + monomial(EXACT, ctx.c_exact.order, n)))[0]
            for n in (ORACLE_LIMIT, ORACLE_LIMIT + 1)]
        assert [rep.status for rep in bump] == ["fail", "pass"]
        want = count_c_limit(ORACLE_LIMIT)
        assert bump[0].witness == {"n": ORACLE_LIMIT, "lhs": want + 1, "rhs": want}
        assert bump[1].params == {"order": ORACLE_LIMIT + 1, "ring": "exact",
                                  "lhs": "C", "rhs": "oracle"}

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
        # eq-a-1 reads D[8,7](C) to 320 coefficients; a scan C of only 300
        # must not be swapped for a rebuilt one, whatever its q^7 says
        ring = ctx.c_scan.ring
        short = ctx.c_scan.truncate(300) + monomial(ring, 300, 7)
        bad = dataclasses.replace(ctx, c_scan=short)
        entries = {e.claim_id: e for e in CATALOGUE}
        [rep] = entries["eq-a-1"].run(bad)
        assert rep.status == "order-too-small"
        assert rep.params["too_short"] == ["C"]
        assert not all_passed([rep])
        # rows that read C no deeper than 300 still check it, and fail
        assert entries["eq-2-12"].run(bad)[0].status == "fail"

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
        doc = suite_json(reports, ctx)
        assert list(doc) == ["order_identity", "order_scan", "k_max", "claims"]
        assert (doc["order_identity"], doc["order_scan"], doc["k_max"]) == (
            SMALL["n_identity"], SMALL["n_scan"], SMALL["k_max"])
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
                for m in dict.fromkeys(moduli)
                if all(c[a * n + b] % m == 0 for n in range(n_max + 1))]

    def test_matches_a_direct_loop(self, ctx):
        s, n_max = ctx.c_scan, 30
        assert scan_progressions(s, 16, [2, 4, 8], n_max) == \
            self.direct_scan(s, 16, [2, 4, 8], n_max)

    @pytest.mark.parametrize("ring, moduli", [
        (EXACT, [2, 3, 6, 4]),                  # % on Python ints
        (mod2pow(8), [2, 4, 8, 16, 4]),         # a mask; a repeat is read once
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

    def test_repeated_modulus_lists_each_class_once(self):
        s = series_c(40, mod2pow(8))
        assert scan_progressions(s, 2, [2, 2], 3) == [(2, 0, 2)]

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
        # each exact seed is as long as the deepest row placed in the exact
        # ring reads it, eq 2-3's B and omega rows and the oracle rows (C to
        # ORACLE_LIMIT) among them. The congruence rows and eq 2-3's c_scan
        # row read C in c_scan's ring
        want = {parse("C"): 0, parse("B(q)"): 0, parse("omega(q)"): 0, parse("f3(q)"): 0}
        for _, _, lhs, rhs, _, tier in (*CLAIM_ROWS, *EQ_2_3_ROWS.values(), *ORACLE_ROWS):
            seeds, n, _ = ctx.placement(tier)
            for src in (lhs, rhs):
                for leaf, depth in reads(parse(src), n).items():
                    if leaf in seeds and seeds[leaf].ring == EXACT:
                        want[leaf] = max(want[leaf], depth)
        assert ctx.c_exact.order == want[parse("C")] == 80
        assert ctx.b_exact.order == want[parse("B(q)")] == 318
        assert ctx.omega_exact.order == want[parse("omega(q)")] == 80
        assert ctx.f3_exact.order == want[parse("f3(q)")] == 10
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
        assert fresh.memo == {parse("C"): ctx.c_exact, parse("B(q)"): ctx.b_exact,
                              parse("omega(q)"): ctx.omega_exact,
                              parse("f3(q)"): ctx.f3_exact}
        assert fresh.scan_memo == {parse("C"): ctx.c_scan}
        assert fresh.scan_memo is not ctx.scan_memo


def _b_readers(ctx) -> set:
    """The rows whose sides read the exact B where ctx places them."""
    b = parse("B(q)")
    out = set()
    for claim_id, _, lhs, rhs, _, tier in CLAIM_ROWS:
        seeds, n, _ = ctx.placement(tier)
        if seeds.get(b) is ctx.b_exact and any(b in reads(parse(src), n)
                                               for src in (lhs, rhs)):
            out.add(claim_id)
    return out


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
        _, _, lhs, rhs, _, tier = row
        _, n, _ = ctx.placement(tier)
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
        assert calls.count((parse("f[4]"), SMALL["n_identity"], EXACT)) == 1
        assert calls.count((parse("appell[2]"), SMALL["n_identity"], EXACT)) == 1
        assert (parse("D[8,4](C)"), 150, mod2pow(8)) in calls
        assert len(set(calls)) == len(calls) == first

    def test_each_denominator_inverts_once(self, monkeypatch):
        # a/b evaluates b^-1 through the memo, so one catalogue run inverts
        # each distinct series once per memo: 24 calls from the rows (14 in
        # the exact memo, 10 in the scan memo), 40 with those that invert
        # makes itself on series in q^d
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
        distinct = {(a.ring, tuple(a.coefficients())) for a in top}
        assert len(top) == len(distinct) == 24
        assert sum(a.ring == EXACT for a in top) == 14
        assert len(top) + len(inner) == 40

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
            mp.setitem(qexpr._ATOMS, "appell", (qexpr._ATOMS["appell"][0], flipped))
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

    def test_short_c_scan_is_order_too_small(self, ctx):
        # the cross row reads C to 8 * n_congruence in c_scan's ring: a
        # c_scan one coefficient short of it cannot be checked there
        short = dataclasses.replace(ctx, c_scan=ctx.c_scan.truncate(8 * ctx.n_congruence - 1))
        eq_2_3 = next(r for r in run_catalogue(short) if r.claim_id == "eq-2-3")
        assert eq_2_3.status == "order-too-small"
        assert eq_2_3.witness == {"series": "c_scan"}
        assert eq_2_3.params["rows"]["c_scan"]["too_short"] == ["C"]

    def test_params_name_every_row(self, ctx):
        # the report's order and ring are its first row's; each row keeps
        # check_row's params, the cross row's in c_scan's ring
        eq_2_3 = next(r for r in run_catalogue(ctx) if r.claim_id == "eq-2-3")
        rows = eq_2_3.params["rows"]
        assert list(rows) == ["B", "omega", "c_scan"]
        assert (eq_2_3.params["order"], eq_2_3.params["ring"]) == (ctx.n_identity, "exact")
        assert rows["B"]["rhs"] == to_source(parse(EQ_2_3_ROWS["B"][3]))
        # the c_scan row is eq 2-2's, read in c_scan's ring at the cross tier
        eq_2_2 = next(row[2:] for row in CLAIM_ROWS if row[0] == "eq-2-2")
        assert EQ_2_3_ROWS["c_scan"][2:] == (*eq_2_2[:3], "cross")
        assert rows["c_scan"] == {
            "order": 8 * ctx.n_congruence, "ring": str(ctx.c_scan.ring), "lhs": "C",
            "rhs": to_source(parse(eq_2_2[1]))}


class TestRingRule:
    """`SuiteContext.placement` at the published orders: every row with a
    modulus reads C in c_scan's ring, and eq 2-3 judges c_scan as deep as
    any of them reads it."""

    @staticmethod
    def failing(ctx, exponent, c):
        bumped = ctx.c_scan + monomial(ctx.c_scan.ring, ctx.c_scan.order, exponent, c)
        return {r.claim_id: r for r in run_catalogue(dataclasses.replace(ctx, c_scan=bumped))
                if r.status != "pass"}

    def test_congruence_rows_read_c_scan(self, flagship):
        # 1591 = 8*198 + 7, the last coefficient of C that eq-a-1 and eq-2-24
        # use: their side q*D[8,7](C) moves D[8,7](C)'s q^199 (1599) past
        # the order 200. Both read C from c_scan, so they must see it
        fails = self.failing(flagship[0], 1591, 1)
        assert fails["eq-a-1"].witness == {"n": 199, "value": 177, "residue": 1}
        assert fails["eq-2-24"].witness == {"n": 199, "value": 177, "residue": 1}
        assert fails["eq-2-3"].witness == {"n": 1591, "lhs": 177, "rhs": 176,
                                           "series": "c_scan"}

    def test_eq_2_3_checks_c_scan_to_1600(self, flagship):
        # 128 is 0 mod every row's modulus: only eq 2-3, which compares eq
        # 2-2's two sides in c_scan's ring to 8 * n_congruence, sees it
        ctx = flagship[0]
        fails = self.failing(ctx, 1599, 128)
        assert list(fails) == ["eq-2-3"]
        assert fails["eq-2-3"].witness == {"n": 1599, "lhs": 140, "rhs": 12,
                                           "series": "c_scan"}
        assert fails["eq-2-3"].params["rows"]["c_scan"]["order"] == 8 * ctx.n_congruence == 1600
        assert self.failing(ctx, 1600, 128) == {}

    def test_no_congruence_row_reads_past_the_cross_check(self, flagship):
        ctx = flagship[0]
        assert (ctx.c_exact.order, ctx.c_scan.order) == (400, 40000)
        moduli = [row[4] for row in (*CLAIM_ROWS, *SCAN_ROWS) if row[4] is not None]
        assert all(ctx.c_scan.ring.resolves(m) for m in moduli + [row[2] for row in FAMILY_ROWS])
        for claim_id, _, lhs, rhs, modulus, tier in CLAIM_ROWS:
            seeds, n, memo = ctx.placement(tier)
            if modulus is None:
                assert memo is ctx.memo and seeds[parse("C")] is ctx.c_exact
                continue
            assert (seeds, memo) == ({parse("C"): ctx.c_scan}, ctx.scan_memo)
            read = reads(Sub(parse(lhs), parse(rhs)), n).get(parse("C"), 0)
            assert read <= 8 * ctx.n_congruence, claim_id

    def test_no_row_with_a_modulus_is_exact(self, flagship_reports, flagship):
        ring = str(flagship[0].c_scan.ring)
        for reports, _ in flagship_reports.values():
            for rep in reports:
                if "modulus" in rep.params:
                    assert rep.params["ring"] == ring, rep.claim_id

    def test_every_row_without_a_modulus_is_exact(self, flagship_reports):
        # the tier picks the ring: an identity placed in c_scan's ring would
        # become a check mod 2^8. Eq 2-3's c_scan row is the one that is
        checked = []
        for reports, _ in flagship_reports.values():
            for rep in reports:
                for name, params in rep.params.get("rows", {None: rep.params}).items():
                    if "modulus" not in params:
                        checked.append((rep.claim_id, name, params["ring"]))
        assert {(claim_id, name) for claim_id, name, ring in checked
                if ring != "exact"} == {("eq-2-3", "c_scan")}
        assert len(checked) == sum(row[4] is None for row in
                                   (*CLAIM_ROWS, *EQ_2_3_ROWS.values(), *ORACLE_ROWS))


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
