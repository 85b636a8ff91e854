"""Claim-checker and catalogue tests.

The small context used here keeps every series cheap to build; the full-size
run lives in the acceptance tests.  Known-good progressions and the pinned
counterexample witness come from the enumeration oracle, which is checked
against the series route in TestSeriesBuilders.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcong import (
    CATALOGUE,
    EXACT,
    MOD64,
    ClaimReport,
    FamilyClaim,
    OrderError,
    ProgressionClaim,
    Series,
    all_passed,
    b_eulerian,
    build_suite_context,
    change_ring,
    check_family,
    check_progression,
    check_relation,
    count_c_limit,
    count_ck,
    equal_to_order,
    euler_fm,
    f3_series,
    mod2pow,
    monomial,
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
    shift,
    suite_json,
    truncate,
    verify_congruent,
    verify_identity,
    zero_series,
)
from qcong.catalogue import CLAIM_ROWS, ORACLE_LIMIT
from qcong import qexpr
from qcong.engine import _c_sum, c_builder
from qcong.qexpr import (F3, BFun, CSeries, EtaF, Omega, evaluate, parse,
                         reads, to_source)

SMALL = dict(n_identity=80, n_scan=1200, k_max=1, n_congruence=40)


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
        assert equal_to_order(ck, c, 2 * k + 1)
        assert ck[2 * k + 1] == c[2 * k + 1] + 1

    @pytest.mark.parametrize("ring", [MOD64, mod2pow(5)], ids=str)
    def test_eq_2_2_route_matches_summation(self, ring):
        # mod 2^w series_c follows eq 2-2; the summation is its reference
        assert c_builder(ring) == "eq-2-2-appell" and c_builder(EXACT) == "sum"
        for order in range(1, 65):
            assert series_c(order, ring) == _c_sum(order, ring, None), order

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
    term = shift(pochhammer_inf(-1, 2, 2, order, ring), 1)
    if k is not None:
        term = mul(term, pochhammer_inf(-1, 2 * k, 2, order, ring))
    for j in range(1, order, 2):
        term = mul_sparse_binomial(term, -1, j, "divide")
        term = mul_sparse_binomial(term, -1, j, "divide")
    total = zero_series(ring, order)
    for j in range(1, order, 2):
        total = total + term
        term = shift(term, 2)
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

    @pytest.mark.parametrize("ring", [EXACT, MOD64], ids=str)
    def test_ck_is_c_once_2k_exceeds_order_minus_1(self, ring):
        for order in range(1, 41):
            c = series_c(order, ring)
            for k in ((order + 1) // 2, order + 5):  # smallest k with 2k > order-1
                assert series_ck(k, order, ring) == c, (order, k)


class TestCheckProgression:
    KNOWN = [(8, 4, 4), (8, 6, 8), (16, 13, 4), (32, 23, 8)]

    @pytest.mark.parametrize("a,b,m", KNOWN)
    def test_known_progressions_pass(self, ctx, a, b, m):
        rep = check_progression(ctx.c_scan, a, b, m)
        assert rep.status == "pass"
        assert rep.witness is None
        assert rep.params["A"] == a and rep.params["B"] == b
        assert rep.params["n_max"] == (ctx.c_scan.order - 1 - b) // a

    @pytest.mark.parametrize("a,b,m", KNOWN)
    def test_known_progressions_pass_exact_ring(self, ctx, a, b, m):
        assert check_progression(ctx.c_exact, a, b, m).status == "pass"

    def test_counterexample_witness(self, ctx):
        # c(8n+4) is divisible by 4 but not by 8: first failure is
        # c(12) = 284 = 8*35 + 4
        rep = check_progression(ctx.c_scan, 8, 4, 8)
        assert rep.status == "fail"
        assert rep.witness == {"n": 1, "argument": 12, "value": 284, "residue": 4}
        assert count_c_limit(12) == 284

    def test_witness_identical_in_exact_ring(self, ctx):
        rep = check_progression(ctx.c_exact, 8, 4, 8)
        assert rep.status == "fail"
        assert rep.witness == {"n": 1, "argument": 12, "value": 284, "residue": 4}

    def test_explicit_n_max_beyond_order(self, ctx):
        rep = check_progression(ctx.c_exact, 8, 4, 4, n_max=10**6)
        assert rep.status == "order-too-small"
        assert rep.witness is None

    def test_offset_beyond_order(self, ctx):
        rep = check_progression(ctx.c_exact, 8, ctx.c_exact.order + 5, 4)
        assert rep.status == "order-too-small"

    def test_validation(self, ctx):
        with pytest.raises(ValueError):
            check_progression(ctx.c_exact, 0, 4, 4)
        with pytest.raises(ValueError):
            check_progression(ctx.c_exact, 8, -1, 4)
        with pytest.raises(ValueError):
            check_progression(ctx.c_exact, 8, 4, 1)
        # a mod-2^64 series cannot resolve a non-power-of-two modulus
        with pytest.raises(ValueError):
            check_progression(ctx.c_scan, 8, 4, 3)
        assert check_progression(ctx.c_exact, 8, 4, 3).status in ("pass", "fail")

    @pytest.mark.parametrize("a,b,m", [(8, 4, 4), (8, 4, 8), (4, 1, 2), (2, 1, 4)])
    def test_verdict_is_ring_independent(self, a, b, m):
        s = series_c(300)
        rep_exact = check_progression(s, a, b, m)
        rep_mod = check_progression(change_ring(s, MOD64), a, b, m)
        assert rep_exact.status == rep_mod.status
        assert rep_exact.witness == rep_mod.witness


class TestCheckRelation:
    def test_self_relation_passes(self, ctx):
        rep = check_relation(ctx.c_scan, 1, 0, 1, 1, 0, 8)
        assert rep.status == "pass"

    def test_known_relations_pass(self, ctx):
        assert check_relation(ctx.c_scan, 16, 11, -1, 4, 3, 8).status == "pass"
        rep = check_relation(ctx.c_scan, 8, 7, -1, 2, 2, 4)
        assert rep.status == "pass"
        # the range is limited by whichever arm reads deepest
        assert rep.params["n_max"] == min((1199 - 7) // 8, (1199 - 2) // 2)

    def test_fail_witness(self):
        s = series_c(12)
        rep = check_relation(s, 4, 1, 1, 4, 3, 4)
        assert rep.status == "fail"
        # c(9) = 90, c(11) = 195, difference -105 = 3 mod 4
        assert rep.witness == {"n": 2, "argument": 9, "value": 90,
                               "other": 195, "residue": 3}

    def test_validation(self, ctx):
        with pytest.raises(ValueError):
            check_relation(ctx.c_exact, 8, 7, 2, 2, 2, 4)
        with pytest.raises(ValueError):
            check_relation(ctx.c_exact, 8, 7, -1, 0, 2, 4)

    def test_order_too_small(self, ctx):
        rep = check_relation(ctx.c_exact, 8, 7, -1, 2, 2, 4, n_max=10**6)
        assert rep.status == "order-too-small"


def progression_by_loop(s, a, b, modulus, n_max):
    """Reference witness of check_progression: one coefficient per sample."""
    for n in range(n_max + 1):
        value = s[a * n + b]
        if value % modulus:
            return {"n": n, "argument": a * n + b, "value": value,
                    "residue": value % modulus}
    return None


def relation_by_loop(s, a1, b1, sign, a2, b2, modulus, n_max):
    """Reference witness of check_relation: one pair of coefficients per sample."""
    for n in range(n_max + 1):
        lhs, rhs = s[a1 * n + b1], s[a2 * n + b2]
        if (lhs - sign * rhs) % modulus:
            return {"n": n, "argument": a1 * n + b1, "value": lhs,
                    "other": rhs, "residue": (lhs - sign * rhs) % modulus}
    return None


class TestSampledChecksMatchLoop:
    """The progression and relation checks read their samples as one strided
    slice and compare them through first_incongruence. With every
    coefficient of 8*C divisible by 8 but one bumped by -4 (negative at q^0
    in the exact ring), they give the per-sample loop's verdict and witness,
    also when B >= A puts coefficients of the residue class before the
    first sample."""

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
        rep = check_progression(s, a, b, 8)
        want = progression_by_loop(s, a, b, 8, (299 - b) // a)
        assert rep.status == ("pass" if want is None else "fail")
        assert rep.witness == want

    @pytest.mark.parametrize("ring", [EXACT, MOD64], ids=str)
    @pytest.mark.parametrize("at", BUMPS)
    @pytest.mark.parametrize("a1,b1,sign,a2,b2", [
        (4, 7, -1, 2, 2), (1, 0, 1, 3, 5), (8, 3, -1, 4, 9), (2, 1, 1, 2, 1)])
    def test_relation(self, ring, at, a1, b1, sign, a2, b2):
        s = self.bumped(ring, at)
        rep = check_relation(s, a1, b1, sign, a2, b2, 8)
        n_max = min((299 - b1) // a1, (299 - b2) // a2)
        want = relation_by_loop(s, a1, b1, sign, a2, b2, 8, n_max)
        assert rep.status == ("pass" if want is None else "fail")
        assert rep.witness == want


class TestCheckFamily:
    def test_parameter_progressions(self):
        fam = FamilyClaim("x", "", 3, 4, 3, 11)
        assert [fam.a_of(k) for k in range(4)] == [8, 32, 128, 512]
        assert [fam.b_of(k) for k in range(4)] == [4, 15, 59, 235]
        fam2 = FamilyClaim("y", "", 1, 8, 3, 17)
        assert (fam2.a_of(0), fam2.b_of(0)) == (8, 6)
        assert (fam2.a_of(1), fam2.b_of(1)) == (32, 23)
        fam3 = FamilyClaim("z", "", 1, 4, 4, 38)
        assert (fam3.a_of(0), fam3.b_of(0)) == (16, 13)
        assert (fam3.a_of(1), fam3.b_of(1)) == (64, 51)

    def test_bad_multiplier_raises(self):
        with pytest.raises(ValueError):
            FamilyClaim("x", "", 1, 4, 3, 12).b_of(0)

    def test_one_report_per_k(self, ctx):
        fam = FamilyClaim("fam", "", 1, 4, 3, 11)
        reports = check_family(ctx.c_scan, fam)
        assert [r.claim_id for r in reports] == ["fam-k0", "fam-k1"]
        assert [r.params["k"] for r in reports] == [0, 1]
        assert all(r.status == "pass" for r in reports)

    def test_relation_family_alternates_sign(self, ctx):
        fam = FamilyClaim("rel", "", 1, 8, 2, 8, relation=(4, 3))
        reports = check_family(ctx.c_scan, fam)
        assert [r.params["sign"] for r in reports] == [1, -1]
        assert all(r.status == "pass" for r in reports)

    def test_depth_beyond_order_reports_order_too_small(self, ctx):
        # at k=5 the offset (8*4^5+1)/3 = 2731 exceeds the scan order, which
        # must surface as order-too-small, never as a failure
        fam = FamilyClaim("deep", "", 5, 8, 2, 8, relation=(4, 3))
        reports = check_family(ctx.c_scan, fam)
        assert all(r.status in ("pass", "order-too-small") for r in reports)
        assert [r.status for r in reports[:3]] == ["pass"] * 3
        assert reports[5].status == "order-too-small"


class TestVerify:
    def test_identity_pass_and_fail(self):
        a = evaluate(parse("1/f[1]"), 50)
        assert verify_identity(a, a, 50).status == "pass"
        rep = verify_identity(a, a + monomial(EXACT, 50, 7), 50)
        assert rep.status == "fail"
        assert rep.witness == {"n": 7, "lhs": 15, "rhs": 16}

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
        bad = ctx.c_scan + monomial(MOD64, ctx.c_scan.order, 12)
        reports = run_catalogue(dataclasses.replace(ctx, c_scan=bad))
        fails = {r.claim_id: r for r in reports if r.status == "fail"}
        assert "eq-1-2" in fails and "eq-1-6-k0" in fails
        assert fails["eq-1-2"].witness["argument"] == 12
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
        short = truncate(ctx.c_exact, 300) + monomial(EXACT, 300, 7)
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
        reports = run_catalogue(build_suite_context(30, 330, 0, 15))
        assert all_passed(reports)
        assert all(r.status == "pass" for r in reports)


class TestScan:
    def test_rediscovers_published_progressions(self, ctx):
        claims = scan_progressions(ctx.c_scan, 32, [4, 8], 30)
        triples = {(c.a, c.b, c.modulus) for c in claims}
        assert {(8, 4, 4), (8, 6, 8), (16, 13, 4), (32, 23, 8)} <= triples
        assert (8, 4, 8) not in triples
        # anything vanishing mod 8 also vanishes mod 4
        assert {(a, b, 4) for (a, b, m) in triples if m == 8} <= triples
        assert all(c.n_max == 30 for c in claims)

    def test_matches_a_direct_loop(self, ctx):
        s, n_max = ctx.c_scan, 30
        want = [(a, b, m) for a in range(1, 17) for b in range(a)
                for m in (2, 4, 8)
                if all(s[a * n + b] % m == 0 for n in range(n_max + 1))]
        got = scan_progressions(s, 16, [2, 4, 8], n_max)
        assert [(c.a, c.b, c.modulus) for c in got] == want

    def test_zero_series_matches_everything(self):
        claims = scan_progressions(zero_series(EXACT, 100), 4, [2], 20)
        assert len(claims) == 1 + 2 + 3 + 4

    def test_scan_needs_enough_order(self):
        with pytest.raises(ValueError):
            scan_progressions(series_c(50), 8, [4], 10)

    def test_claim_str_is_readable(self):
        text = str(ProgressionClaim(8, 4, 4, 100))
        assert "8n+4" in text and "mod 4" in text


class TestSuiteContext:
    def test_orders_cover_every_extraction(self, ctx):
        # each seed is as long as the deepest row reads it, or as eq 2-3
        # (C, B, omega to n_identity) and the oracle (C to ORACLE_LIMIT)
        n = {"identity": 80, "congruence": 40}
        want = {CSeries(): max(80, ORACLE_LIMIT + 1), BFun(1, 1): 80,
                Omega(1, 1): 80, F3(1, 1): 0}
        for _, _, lhs, rhs, _, order in CLAIM_ROWS:
            for src in (lhs, rhs):
                for leaf, depth in reads(parse(src), n[order]).items():
                    if leaf in want:
                        want[leaf] = max(want[leaf], depth)
        assert ctx.c_exact.order == want[CSeries()] == 320
        assert ctx.b_exact.order == want[BFun(1, 1)] == 318
        assert ctx.omega_exact.order == want[Omega(1, 1)] == 80
        assert ctx.f3_exact.order == want[F3(1, 1)] == 11
        assert ctx.c_scan.order == 1200
        assert ctx.c_scan.ring == MOD64
        assert ctx.c_exact.ring == EXACT

    def test_series_equal_their_direct_builders(self, ctx):
        # the context builds each one through qexpr.evaluate of its leaf
        assert ctx.c_exact == series_c(ctx.c_exact.order)
        assert ctx.b_exact == b_eulerian(ctx.b_exact.order)
        assert ctx.omega_exact == omega_series(ctx.omega_exact.order)
        assert ctx.f3_exact == f3_series(ctx.f3_exact.order)
        assert ctx.c_scan == series_c(ctx.n_scan, MOD64)

    def test_timings_reported(self):
        timings = {}
        build_suite_context(20, 100, 0, 10, timings=timings)
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


def _b_readers() -> set:
    """The rows whose sides read B at the SMALL depths."""
    return {row[0] for row in CLAIM_ROWS
            if any(BFun(1, 1) in reads(parse(src), SMALL[f"n_{row[5]}"])
                   for src in row[2:4])}


class TestSharedMemo:
    @pytest.mark.parametrize("row", CLAIM_ROWS, ids=lambda row: row[0])
    def test_reads_is_exact(self, row):
        # each leaf seeded at exactly its reads depth serves the evaluation;
        # one coefficient fewer, and evaluate rebuilds that leaf
        _, _, lhs, rhs, _, order = row
        n = SMALL[f"n_{order}"]
        for e in (parse(lhs), parse(rhs)):
            depths = reads(e, n)
            seeds = {leaf: evaluate(leaf, d) for leaf, d in depths.items()}
            memo = dict(seeds)
            evaluate(e, n, EXACT, memo)
            assert all(memo[leaf] is s for leaf, s in seeds.items())
            for leaf, d in depths.items():
                short = truncate(seeds[leaf], d - 1)
                memo = {**seeds, leaf: short}
                evaluate(e, n, EXACT, memo)
                assert memo[leaf] is not short, to_source(leaf)
                assert memo[leaf].order == d, to_source(leaf)
                assert all(memo[other] is s for other, s in seeds.items()
                           if other != leaf)

    def test_one_memo_serves_every_row(self):
        ctx = build_suite_context(**SMALL)
        calls = []
        real = qexpr._evaluate
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qexpr, "_evaluate", lambda e, order, *args:
                       calls.append((e, order)) or real(e, order, *args))
            run_catalogue(ctx)
            first = len(calls)
            assert all(r.status == "pass" for r in run_catalogue(ctx))
        # no node is built twice at one order, though many rows share
        # f[2], f[4], ..., and a second run finds every side in the memo
        assert calls.count((EtaF(4), SMALL["n_identity"])) == 1
        assert len(set(calls)) == len(calls) == first

    def test_replaced_context_gets_a_fresh_memo(self, ctx):
        # with ctx's memo full, a context whose B is bumped at q^0..q^7 must
        # fail every row that reads B (and eq-2-3, which compares B's two
        # forms), never reuse a series cached from ctx
        run_catalogue(ctx)
        bump = sum((monomial(EXACT, ctx.b_exact.order, i) for i in range(8)),
                   zero_series(EXACT, ctx.b_exact.order))
        bumped = dataclasses.replace(ctx, b_exact=ctx.b_exact + bump)
        assert len(bumped.memo) == 4 < len(ctx.memo)
        failed = {r.claim_id for r in run_catalogue(bumped)
                  if r.status == "fail"}
        assert failed == _b_readers() | {"eq-2-3"}


@st.composite
def small_series(draw):
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=4, max_size=40))
    s = zero_series(EXACT, len(coeffs))
    for i, c in enumerate(coeffs):
        if c:
            s = s + monomial(EXACT, len(coeffs), i, c)
    return s


class TestCheckerAgainstDirectLoop:
    @given(small_series(), st.integers(1, 4), st.integers(0, 3),
           st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_progression_checker_equals_naive_loop(self, s, a, b, m):
        rep = check_progression(s, a, b, m)
        n_max = (s.order - 1 - b) // a
        naive = [n for n in range(max(n_max + 1, 0)) if s[a * n + b] % m]
        if rep.status == "order-too-small":
            assert n_max < 0
        elif naive:
            assert rep.status == "fail"
            assert rep.witness["n"] == naive[0]
        else:
            assert rep.status == "pass"
