"""The static claim catalogue: one entry per checked statement of the paper,
the shared series it reads, and the suite runner.

Each entry names its check type (exact | mod-M | progression | relation |
family | oracle) so coverage can be audited by reading the table top to
bottom. The supporting identities and congruences are data: rows of two
`qcong.qexpr` sources, so any row can be re-checked with `qcong verify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Optional

from .engine import (
    ClaimReport,
    c_builder,
    check_progression,
    check_relation,
    series_ck,
    verify_congruent,
    verify_identity,
)
from .mock_theta import b_appell, omega_appell
from .oracle import count_c_limit, count_ck
from .qexpr import F3, BFun, CSeries, Omega, evaluate, parse, reads, to_source
from .series import EXACT, MOD64, Series, change_ring

# the oracle entries compare coefficients 0..ORACLE_LIMIT with enumeration
ORACLE_LIMIT = 25


# ---------------------------------------------------------------- context


# the leaves of the catalogue rows that read a shared series, and its field
_SEEDS = {CSeries(): "c_exact", BFun(1, 1): "b_exact",
          Omega(1, 1): "omega_exact", F3(1, 1): "f3_exact"}


@dataclass(frozen=True)
class SuiteContext:
    """Shared series for one catalogue run, and the rows' one evaluation
    memo, seeded with them; `dataclasses.replace` gives a fresh memo."""

    n_identity: int
    n_congruence: int
    n_scan: int
    k_max: int
    c_exact: Series
    b_exact: Series
    omega_exact: Series
    f3_exact: Series
    c_scan: Series
    memo: dict = field(init=False, repr=False, compare=False,
                       default_factory=dict)

    def __post_init__(self):
        self.memo.update((leaf, getattr(self, name))
                         for leaf, name in _SEEDS.items())


def _seed_reads(sides, order: int) -> dict:
    """{seeded leaf: the most coefficients either side reads of it}."""
    depths = [reads(e, order) for e in sides]
    return {leaf: max(d.get(leaf, 0) for d in depths) for leaf in _SEEDS}


def build_suite_context(n_identity: int = 400, n_scan: int = 40000,
                        k_max: int = 2, n_congruence: Optional[int] = None,
                        timings: Optional[dict] = None) -> SuiteContext:
    """Build every shared series as `evaluate` of its leaf, each as long as
    the deepest row reads it (`qexpr.reads`); pass a dict as `timings` to get
    the wall seconds spent on the exact-ring series vs the large modular scan."""
    if k_max < 0:
        raise ValueError(f"kmax must be >= 0, got {k_max}")
    if n_congruence is None:
        n_congruence = max(2, n_identity // 2)
    # eq 2-3 reads C, B and omega to n_identity; the oracle C to ORACLE_LIMIT
    orders = {"c_exact": max(n_identity, ORACLE_LIMIT + 1),
              "b_exact": n_identity, "omega_exact": n_identity, "f3_exact": 1}
    depth = {"identity": n_identity, "congruence": n_congruence}
    for _, _, lhs, rhs, _, order in CLAIM_ROWS:
        sides = (parse(lhs), parse(rhs))
        for leaf, n in _seed_reads(sides, depth[order]).items():
            orders[_SEEDS[leaf]] = max(orders[_SEEDS[leaf]], n)
    t0 = perf_counter()
    built = {name: evaluate(leaf, orders[name]) for leaf, name in _SEEDS.items()}
    t1 = perf_counter()
    c_scan = evaluate(CSeries(), n_scan, MOD64)
    t2 = perf_counter()
    if timings is not None:
        timings["exact_build"] = t1 - t0
        timings["scan_build"] = t2 - t1
    return SuiteContext(n_identity=n_identity, n_congruence=n_congruence,
                        n_scan=n_scan, k_max=k_max, c_scan=c_scan, **built)


# ---------------------------------------------------------------- entries


@dataclass(frozen=True)
class CatalogueEntry:
    claim_id: str
    paper_eq: str
    kind: str
    run: Callable[[SuiteContext], list[ClaimReport]]


def _progression_entry(claim_id: str, paper_eq: str, a: int, b: int,
                       modulus: int) -> CatalogueEntry:
    def run(ctx: SuiteContext) -> list[ClaimReport]:
        return [check_progression(ctx.c_scan, a, b, modulus,
                                  claim_id=claim_id, paper_eq=paper_eq)]
    return CatalogueEntry(claim_id, paper_eq, "progression", run)


def _relation_entry(claim_id: str, paper_eq: str, a1: int, b1: int, sign: int,
                    a2: int, b2: int, modulus: int) -> CatalogueEntry:
    def run(ctx: SuiteContext) -> list[ClaimReport]:
        return [check_relation(ctx.c_scan, a1, b1, sign, a2, b2, modulus,
                               claim_id=claim_id, paper_eq=paper_eq)]
    return CatalogueEntry(claim_id, paper_eq, "relation", run)


def _family_entry(claim_id: str, paper_eq: str, modulus: int, a_exp: int,
                  b_mult: int,
                  relation: Optional[tuple[int, int]] = None) -> CatalogueEntry:
    """The progressions A(k)*n + B(k) for k <= the context's k_max, with
    A(k) = 2^(2k + a_exp) and B(k) = (b_mult*4^k + 1)/3: c(A(k)n + B(k)) == 0
    mod `modulus`, or == (-1)^k * c(A2*n + B2) when `relation` is (A2, B2).
    One report per k, its id suffixed -k<k> and its params carrying k."""
    # 4^k == 1 mod 3, so 3 divides every b_mult*4^k + 1 iff it divides b_mult + 1
    if (b_mult + 1) % 3:
        raise ValueError(f"({b_mult}*4^k + 1)/3 is not an integer")

    def run(ctx: SuiteContext) -> list[ClaimReport]:
        reports = []
        for k in range(ctx.k_max + 1):
            a, b = 2 ** (2 * k + a_exp), (b_mult * 4**k + 1) // 3
            cid = f"{claim_id}-k{k}"
            if relation is None:
                rep = check_progression(ctx.c_scan, a, b, modulus,
                                        claim_id=cid, paper_eq=paper_eq)
            else:
                rep = check_relation(ctx.c_scan, a, b, (-1) ** k, *relation,
                                     modulus, claim_id=cid, paper_eq=paper_eq)
            reports.append(replace(rep, params=dict(rep.params, k=k)))
        return reports
    return CatalogueEntry(claim_id, paper_eq, "family", run)


def _oracle_entry(claim_id: str, k: Optional[int]) -> CatalogueEntry:
    limit = ORACLE_LIMIT

    def run(ctx: SuiteContext) -> list[ClaimReport]:
        if k is None:
            got = [ctx.c_exact[n] for n in range(limit + 1)]
            want = [count_c_limit(n) for n in range(limit + 1)]
        else:
            s = series_ck(k, limit + 1)
            got = [s[n] for n in range(limit + 1)]
            want = [count_ck(k, n) for n in range(limit + 1)]
        params = {"k": "limit" if k is None else k, "n_max": limit}
        for n in range(limit + 1):
            if got[n] != want[n]:
                witness = {"n": n, "value": got[n], "expected": want[n]}
                return [ClaimReport(claim_id, "definition-1.1", "fail",
                                    params, witness)]
        return [ClaimReport(claim_id, "definition-1.1", "pass", params)]
    return CatalogueEntry(claim_id, "definition-1.1", "oracle", run)


def _b_bilateral_entry() -> CatalogueEntry:
    # eq 2-3 compares B's Eulerian sum with its bilateral form, which the
    # expression language cannot write. The entry compares omega's two forms
    # too, and the scan C (eq 2-2 builds it mod 2^w) with the summed exact C.
    def run(ctx: SuiteContext) -> list[ClaimReport]:
        n, ring = ctx.n_identity, ctx.c_scan.ring
        m = min(ctx.c_exact.order, ctx.c_scan.order)
        pairs = {"B": (ctx.b_exact, b_appell(n), n),
                 "omega": (ctx.omega_exact, omega_appell(n), n),
                 "c_scan": (ctx.c_scan, change_ring(ctx.c_exact, ring), m)}
        params = {"order": n, "ring": "exact", "c_scan_ring": str(ring),
                  "compared": {name: p[2] for name, p in pairs.items()},
                  "c_scan_builder": c_builder(ring)}
        for name, (lhs, rhs, order) in pairs.items():
            rep = verify_identity(lhs, rhs, order, "eq-2-3", "2-3")
            if not rep.passed():
                return [replace(rep, params=params,
                                witness=dict(rep.witness, series=name))]
        return [ClaimReport("eq-2-3", "2-3", "pass", params)]
    return CatalogueEntry("eq-2-3", "2-3", "exact", run)


def _row_entry(claim_id: str, paper_eq: str, lhs_src: str, rhs_src: str,
               modulus: Optional[int], order: str) -> CatalogueEntry:
    """lhs == rhs exactly (modulus None) or mod `modulus`, both sides
    evaluated in the exact ring at the context's n_identity or n_congruence
    (`order` is "identity" or "congruence") through the context's memo."""
    sides = (parse(lhs_src), parse(rhs_src))
    sources = {"lhs": to_source(sides[0]), "rhs": to_source(sides[1])}

    def run(ctx: SuiteContext) -> list[ClaimReport]:
        n = getattr(ctx, f"n_{order}")
        # a seeded series shorter than the row reads it would be rebuilt by
        # evaluate, and the row would check the rebuilt series instead
        too_short = [to_source(leaf)
                     for leaf, depth in _seed_reads(sides, n).items()
                     if getattr(ctx, _SEEDS[leaf]).order < depth]
        if too_short:
            params = {"order": n, **({} if modulus is None else
                                     {"modulus": modulus}), "ring": str(EXACT)}
            return [ClaimReport(claim_id, paper_eq, "order-too-small",
                                dict(params, **sources, too_short=too_short))]
        lhs, rhs = (evaluate(e, n, EXACT, ctx.memo) for e in sides)
        if modulus is None:
            rep = verify_identity(lhs, rhs, n, claim_id, paper_eq)
        else:
            rep = verify_congruent(lhs, rhs, modulus, n, claim_id, paper_eq)
        return [replace(rep, params=dict(rep.params, **sources))]
    kind = "exact" if modulus is None else f"mod-{modulus}"
    return CatalogueEntry(claim_id, paper_eq, kind, run)


# Shared right-hand sides: the 2-dissections of 1/f1^2 (eq 2-6) and f1^2
# (eq 2-7), and the 2-dissection of 1/f1^4 (eq 2-14).
_INV_F1_SQ = "f[8]^5/(f[2]^5*f[16]^2) + 2*q*f[4]^2*f[16]^2/(f[2]^5*f[8])"
_F1_SQ = "f[2]*f[8]^5/(f[4]^2*f[16]^2) - 2*q*f[2]*f[16]^2/f[8]"
_INV_F1_4 = "f[4]^14/(f[2]^14*f[8]^4) + 4*q*f[4]^2*f[8]^4/f[2]^10"

# (id, paper eq, lhs, rhs, modulus or None for exact equality, order).
# Displays with 1/2 coefficients (2-5, 2-8) are doubled on both sides.
CLAIM_ROWS: tuple[tuple[str, str, str, str, Optional[int], str], ...] = (
    ("eq-2-2", "2-2", "C",
     "2*q*f[2]*f[4]/f[1]^2*B(-q) - q*omega(-q)", None, "identity"),
    ("eq-2-4", "2-4", "f3(q^8) - 2*q*omega(-q) - 2*q^3*omega(-q^4)",
     "f[1]^2*f[4]^8/(f[2]^5*f[8]^4)", None, "identity"),
    ("eq-2-5", "2-5", "2*C",
     "4*q*f[2]*f[4]/f[1]^2*B(-q) + 2*q^3*omega(-q^4)"
     " + f[1]^2*f[4]^8/(f[2]^5*f[8]^4) - f3(q^8)", None, "identity"),
    ("eq-2-6", "2-6", "1/f[1]^2", _INV_F1_SQ, None, "identity"),
    ("eq-2-7", "2-7", "f[1]^2", _F1_SQ, None, "identity"),
    ("eq-2-8", "2-8", "2*C",
     f"4*q*f[2]*f[4]*({_INV_F1_SQ})*B(-q) + 2*q^3*omega(-q^4) - f3(q^8)"
     f" + f[4]^8/(f[2]^5*f[8]^4)*({_F1_SQ})", None, "identity"),
    ("eq-2-9", "2-9", "D[2,1](C)",
     "2*f[2]*f[4]^5/(f[1]^4*f[8]^2)*D[2,0](B(q))"
     " - 4*q*f[2]^3*f[8]^2/(f[1]^4*f[4])*D[2,1](B(q)) + q*omega(-q^2)"
     " - f[2]^8*f[8]^2/(f[1]^4*f[4]^5)", None, "congruence"),
    ("eq-2-10", "2-10", "D[2,0](B(q))", "f[2]^5/f[1]^4", None, "identity"),
    ("eq-wang-parity", "wang", "B(q)", "f[8]^2/f[4]", 2, "congruence"),
    ("eq-2-11", "2-11", "D[2,1](B(q))", "0", 2, "congruence"),
    ("eq-2-12", "2-12", "D[2,1](C)",
     "2*f[2]^2*f[4]^5/f[8]^2 + q*omega(-q^2) - f[2]^8*f[8]^2/(f[1]^4*f[4]^5)",
     8, "congruence"),
    *((f"eq-2-13-k{k}-m{m}", "2-13", f"f[{k}]^{2**m}",
       f"f[{2 * k}]^{2 ** (m - 1)}", 2**m, "congruence")
      for k in (1, 2, 4) for m in (1, 2, 3, 4, 5)),
    ("eq-2-14", "2-14", "1/f[1]^4", _INV_F1_4, None, "identity"),
    ("eq-2-15", "2-15", "q*D[2,1](C)",
     f"2*q*f[2]^2*f[4]^5/f[8]^2 + q^2*omega(-q^2)"
     f" - q*f[2]^8*f[8]^2/f[4]^5*({_INV_F1_4})", 8, "congruence"),
    ("eq-2-16", "2-16", "q*D[4,3](C)", "q*omega(-q) - 4*q*f[4]^4",
     8, "congruence"),
    ("eq-2-17", "2-17", "q*omega(-q)",
     "2*q*f[2]*f[4]/f[1]^2*B(-q) - C", None, "identity"),
    ("eq-2-18", "2-18", "q*D[4,3](C)",
     f"2*q*f[2]*f[4]*({_INV_F1_SQ})*B(-q) - C - 4*q*f[4]^4",
     8, "congruence"),
    ("eq-2-18-1", "2-18-1", "D[8,3](C)",
     "6*f[2]^2*f[4]^5/f[8]^2 - D[2,1](C)", 8, "congruence"),
    ("eq-a-1", "a-1", "q*D[8,7](C)",
     "4*q*f[4]*f[8]^2 - 2*q*f[4]/f[2]*D[2,1](B(q)) - D[2,0](C)",
     8, "congruence"),
    ("eq-2-24", "2-24", "q*D[8,7](C)", "-D[2,0](C)", 4, "congruence"),
    ("eq-a-2", "a-2", "D[4,1](B(q))", "2*f[2]^8/f[1]^7", None, "identity"),
)


CATALOGUE: tuple[CatalogueEntry, ...] = (
    # the proved progressions, the conjectured families and the relations,
    # all read from the mod-2^64 scan series
    _progression_entry("eq-1-2", "1-2", 8, 4, 4),
    _progression_entry("eq-1-3", "1-3", 8, 6, 8),
    _progression_entry("eq-1-4", "1-4", 16, 13, 4),
    _progression_entry("eq-1-5", "1-5", 32, 23, 8),
    _family_entry("eq-1-6", "1-6", 4, 3, 11),
    _family_entry("eq-1-7", "1-7", 8, 3, 17),
    _family_entry("eq-1-8", "1-8", 4, 4, 38),
    _family_entry("eq-2-1", "2-1", 8, 2, 8, relation=(4, 3)),
    _relation_entry("eq-2-19", "2-19", 16, 11, -1, 4, 3, 8),
    _progression_entry("eq-2-21", "2-21", 32, 15, 4),
    _progression_entry("eq-2-22", "2-22", 32, 23, 8),
    _progression_entry("eq-2-23", "2-23", 64, 51, 4),
    _relation_entry("eq-2-25", "2-25", 8, 7, -1, 2, 2, 4),
    _relation_entry("eq-2-26", "2-26", 16, 7, -1, 4, 2, 8),
    _relation_entry("eq-2-27", "2-27", 32, 19, -1, 8, 5, 4),
    # supporting identities and derivation steps, in the exact ring
    *(_row_entry(*row) for row in CLAIM_ROWS),
    _b_bilateral_entry(),
    # ground truth: series coefficients against direct enumeration
    _oracle_entry("oracle-c-limit", None),
    _oracle_entry("oracle-ck-1", 1),
    _oracle_entry("oracle-ck-2", 2),
    _oracle_entry("oracle-ck-3", 3),
)


def run_catalogue(ctx: SuiteContext) -> list[ClaimReport]:
    return [report for entry in CATALOGUE for report in entry.run(ctx)]


def suite_json(reports: list[ClaimReport], n_identity: int, n_scan: int,
               k_max: int) -> dict:
    return {
        "order_identity": n_identity,
        "order_scan": n_scan,
        "k_max": k_max,
        "claims": [r.to_json_dict() for r in reports],
    }


def all_passed(reports: list[ClaimReport]) -> bool:
    """True only when every claim passed: a claim that could not be checked
    (order-too-small) is no evidence for it."""
    return all(r.passed() for r in reports)
