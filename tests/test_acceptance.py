"""Acceptance criteria, one test per criterion, at full published-run size.

Each test records a single PASS/FAIL line with its measured runtime; the
lines are printed in the terminal summary (see conftest.py).  Budgets are
wall-clock seconds and include the construction time of the series a
criterion depends on: the shared exact-ring builds are charged to criterion
2 and the order-40000 modular scan build to criterion 4.
"""

import dataclasses
import random
import time

from qcong import (
    EXACT,
    MOD64,
    change_ring,
    check_row,
    count_c_limit,
    count_ck,
    dissect,
    euler_fm,
    mod2pow,
    mul,
    pentagonal_series,
    power,
    run_catalogue,
    series_c,
    series_ck,
    substitute_power,
)
from qcong.catalogue import all_passed
from qcong.mock_theta import _c_sum
from qcong.qexpr import (
    Add,
    Atom,
    Dissect,
    Div,
    Mul,
    Num,
    Pow,
    Sub,
    parse,
    to_source,
)
from qcong.series import monomial, mul_sparse

IDENTITY_IDS = ("eq-2-2", "eq-2-3", "eq-2-4", "eq-2-5", "eq-2-6", "eq-2-7",
                "eq-2-10", "eq-2-14", "eq-a-2")
CONGRUENCE_IDS = ("eq-wang-parity", "eq-2-11", "eq-2-9", "eq-2-12", "eq-2-15",
                  "eq-2-16", "eq-2-18", "eq-2-18-1", "eq-a-1") + tuple(
    f"eq-2-13-k{k}-m{m}" for k in (1, 2, 4) for m in (1, 2, 3, 4, 5))
PROGRESSION_IDS = ("eq-1-2", "eq-1-3", "eq-1-4", "eq-1-5", "eq-2-21",
                   "eq-2-22", "eq-2-23")
FAMILY_IDS = ("eq-1-6", "eq-1-7", "eq-1-8", "eq-2-1")
RELATION_IDS = ("eq-2-19", "eq-2-25", "eq-2-26", "eq-2-27")


def _verdict(number: int, label: str, ok: bool, seconds: float,
             budget: float = None) -> str:
    line = f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} in {seconds:.1f}s"
    if budget is not None:
        line += f" (budget {budget:.0f}s)"
    return line


def test_criterion_1_oracle_equivalence(record_criterion):
    budget = 5.0
    start = time.perf_counter()
    mismatches = []
    c = series_c(26)
    for n in range(26):
        if c[n] != count_c_limit(n):
            mismatches.append(("limit", n))
    for k in (1, 2, 3):
        ck = series_ck(k, 26)
        for n in range(26):
            if ck[n] != count_ck(k, n):
                mismatches.append((k, n))
    seconds = time.perf_counter() - start
    ok = not mismatches and seconds < budget
    record_criterion(_verdict(1, "oracle equivalence", ok, seconds, budget))
    assert mismatches == []
    assert seconds < budget


def test_criterion_2_identity_suite(flagship, flagship_reports, record_criterion):
    _, timings = flagship
    budget = 30.0
    seconds = timings["exact_build"]
    bad = []
    for claim_id in IDENTITY_IDS:
        reports, entry_seconds = flagship_reports[claim_id]
        seconds += entry_seconds
        bad.extend(r for r in reports if r.status != "pass")
        orders = [r.params["order"] for r in reports]
        assert all(o == (200 if claim_id == "eq-2-9" else 400) for o in orders)
    ok = not bad and seconds < budget
    record_criterion(_verdict(2, "identity suite at order 400", ok, seconds,
                              budget))
    assert bad == []
    assert seconds < budget


def test_criterion_3_congruence_suite(flagship_reports, record_criterion):
    budget = 30.0
    seconds = 0.0
    bad = []
    for claim_id in CONGRUENCE_IDS:
        reports, entry_seconds = flagship_reports[claim_id]
        seconds += entry_seconds
        bad.extend(r for r in reports if r.status != "pass")
        assert all(r.params["order"] == 200 for r in reports)
    ok = not bad and seconds < budget
    record_criterion(_verdict(3, "congruence suite at order 200", ok, seconds,
                              budget))
    assert bad == []
    assert seconds < budget


def test_criterion_4_progressions_at_scan_order(flagship, flagship_reports,
                                                record_criterion):
    ctx, timings = flagship
    budget = 300.0
    seconds = timings["scan_build"]
    bad, thin = [], []
    for claim_id in PROGRESSION_IDS:
        reports, entry_seconds = flagship_reports[claim_id]
        seconds += entry_seconds
        bad.extend(r for r in reports if r.status != "pass")
        thin.extend(r for r in reports if r.params["n_max"] < 600)
    # the scan series comes from eq 2-2 mod 2^8; the summation of the
    # definition mod 2^64, its reference, must give the same coefficients in
    # the scan ring at full depth, and eq 2-2's own build mod 2^64 (which
    # `qcong verify --ring mod64` and `check --mod 2^64` take) all 64 bits
    # of them (not timed)
    ref = _c_sum(ctx.n_scan, MOD64, None)
    same_as_sum = (ctx.c_scan == change_ring(ref, ctx.c_scan.ring)
                   and series_c(ctx.n_scan, MOD64) == ref)
    ok = not bad and not thin and same_as_sum and seconds < budget
    record_criterion(_verdict(4, "progressions at scan order 40000", ok,
                              seconds, budget))
    assert bad == []
    assert thin == []
    assert same_as_sum
    assert seconds < budget


def test_criterion_5_families_and_relations(flagship_reports, record_criterion):
    start = time.perf_counter()
    seconds = 0.0
    bad = []
    for claim_id in FAMILY_IDS:
        reports, entry_seconds = flagship_reports[claim_id]
        seconds += entry_seconds
        assert [r.params["k"] for r in reports] == [0, 1, 2]
        bad.extend(r for r in reports if r.status != "pass")
    for claim_id in RELATION_IDS:
        reports, entry_seconds = flagship_reports[claim_id]
        seconds += entry_seconds
        bad.extend(r for r in reports if r.status != "pass")
    seconds += time.perf_counter() - start
    ok = not bad
    record_criterion(_verdict(5, "families k<=2 and relations", ok, seconds))
    assert bad == []


def test_criterion_6_negative_controls(flagship, record_criterion):
    ctx, _ = flagship
    start = time.perf_counter()

    # pinned counterexample: c(8n+4) vanishes mod 4 but not mod 8; the
    # witness value is c(12) in the scan ring, mod 2^8
    witness_report = check_row((parse("D[8,4](C)"), parse("0")), 8,
                               {parse("C"): ctx.c_scan})
    witness_ok = (witness_report.status == "fail"
                  and witness_report.witness == {"n": 1, "value": 284 % 256,
                                                 "residue": 4}
                  and count_c_limit(12) == 284)

    # one bumped coefficient in the scan series must surface as a failing
    # claim with a witness, never as a silent all-pass
    bumped_scan = ctx.c_scan + monomial(ctx.c_scan.ring, ctx.c_scan.order, 36)
    scan_reports = run_catalogue(dataclasses.replace(ctx, c_scan=bumped_scan))
    by_id = {r.claim_id: r for r in scan_reports}
    scan_ok = (not all_passed(scan_reports)
               and by_id["eq-1-2"].status == "fail"
               and by_id["eq-1-2"].witness["n"] == 4  # c(8*4 + 4)
               and by_id["eq-2-3"].witness == {"n": 36, "lhs": 199989 % 256,
                                               "rhs": 199988 % 256,
                                               "series": "c_scan"})

    # same for the exact series, which the identity claims and oracle read;
    # eq-2-3 judges c_scan, not the exact C, so it stays green
    bumped_exact = ctx.c_exact + monomial(EXACT, ctx.c_exact.order, 7)
    exact_reports = run_catalogue(dataclasses.replace(ctx, c_exact=bumped_exact))
    by_id = {r.claim_id: r for r in exact_reports}
    exact_ok = (not all_passed(exact_reports)
                and by_id["eq-2-2"].status == "fail"
                and by_id["eq-2-2"].witness["n"] == 7
                and by_id["oracle-c-limit"].witness == {"n": 7, "lhs": 39, "rhs": 38}
                and by_id["eq-2-3"].status == "pass")

    # omega's two forms are compared to the identity order, so a bump below
    # it fails eq-2-3 at the bumped index
    bumped_omega = ctx.omega_exact + monomial(EXACT, ctx.omega_exact.order, 123)
    omega_reports = run_catalogue(dataclasses.replace(ctx,
                                                      omega_exact=bumped_omega))
    by_id = {r.claim_id: r for r in omega_reports}
    omega_ok = (not all_passed(omega_reports)
                and by_id["eq-2-3"].status == "fail"
                and by_id["eq-2-3"].witness["n"] == 123
                and by_id["eq-2-3"].witness["series"] == "omega")

    seconds = time.perf_counter() - start
    ok = witness_ok and scan_ok and exact_ok and omega_ok
    record_criterion(_verdict(6, "negative controls", ok, seconds))
    assert witness_ok
    assert scan_ok
    assert exact_ok
    assert omega_ok


def _random_series(rng, ring, order):
    s = monomial(ring, order, 0, 0)
    for i in range(order):
        c = rng.randint(-9, 9)
        if c:
            s = s + monomial(ring, order, i, c)
    return s


def _random_expr(rng, depth):
    sign = rng.choice([1, -1])
    leaves = (
        lambda: Num(rng.randint(-50, 50)),
        lambda: Atom("q"),
        lambda: Atom("C"),
        lambda: Atom("Ck", (rng.randint(1, 4),)),
        lambda: Atom("f", (rng.randint(1, 6),)),
        lambda: Atom("pochinf", (sign, rng.randint(1, 5), rng.randint(1, 4))),
        lambda: Atom("pochfin", (sign, rng.randint(1, 5), rng.randint(1, 4),
                                 rng.randint(0, 5))),
        lambda: Atom("omega", (sign, rng.randint(1, 6))),
        lambda: Atom("B", (sign, rng.randint(1, 6))),
        lambda: Atom("f3", (sign, rng.randint(1, 6))),
    )
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)()
    kind = rng.randrange(6)
    if kind < 4:
        ctor = (Add, Sub, Mul, Div)[kind]
        return ctor(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == 4:
        return Pow(_random_expr(rng, depth - 1), rng.randint(-4, 4))
    m = rng.randint(1, 4)
    return Dissect(m, rng.randrange(m), _random_expr(rng, depth - 1))


def _ring_axioms_hold(rng, ring):
    order = 24
    for _ in range(30):
        a = _random_series(rng, ring, order)
        b = _random_series(rng, ring, order)
        c = _random_series(rng, ring, order)
        one = monomial(ring, order, 0)
        if (a + b) + c != a + (b + c):
            return False
        if mul(a, b) != mul(b, a):
            return False
        if mul(a, b + c) != mul(a, b) + mul(a, c):
            return False
        if mul(a, one) != a or any((a - a).coefficients()):
            return False
    return True


def _dissection_reconstructs(rng):
    for m in range(1, 6):
        a = _random_series(rng, EXACT, 30)
        pieces = [mul_sparse(substitute_power(dissect(a, m, r), m, 1), {r: 1})
                  for r in range(m)]
        n = min([p.order for p in pieces] + [a.order])
        total = monomial(EXACT, n, 0, 0)
        for p in pieces:
            total = total + p.truncate(n)
        if total != a.truncate(n):
            return False
    return True


def _reduction_commutes(rng):
    for width in (8, 64):
        ring = mod2pow(width)
        a = _random_series(rng, EXACT, 20)
        b = _random_series(rng, EXACT, 20)
        am, bm = change_ring(a, ring), change_ring(b, ring)
        if change_ring(a + b, ring) != am + bm:
            return False
        if change_ring(mul(a, b), ring) != mul(am, bm):
            return False
        if change_ring(power(a + monomial(EXACT, 20, 0), 3), ring) != \
                power(am + monomial(ring, 20, 0), 3):
            return False
    return True


def test_criterion_7_property_suites(record_criterion):
    start = time.perf_counter()
    rng = random.Random(20260822)
    axioms = all(_ring_axioms_hold(rng, ring)
                 for ring in (EXACT, mod2pow(16), MOD64))
    reconstruction = _dissection_reconstructs(rng)
    homomorphism = _reduction_commutes(rng)
    pentagonal = all(pentagonal_series(m, 500) == euler_fm(m, 500)
                     for m in (1, 3))
    round_trip = all(parse(to_source(e)) == e
                     for e in (_random_expr(rng, 4) for _ in range(500)))
    seconds = time.perf_counter() - start
    ok = axioms and reconstruction and homomorphism and pentagonal and round_trip
    record_criterion(_verdict(7, "property suites", ok, seconds))
    assert axioms
    assert reconstruction
    assert homomorphism
    assert pentagonal
    assert round_trip


def test_flagship_catalogue_has_no_non_pass(flagship_reports):
    reports = [r for reports, _ in flagship_reports.values() for r in reports]
    assert len(reports) == 63
    assert all(r.status == "pass" for r in reports)
