"""The static claim catalogue: one entry per checked statement of the paper,
the shared series it reads, the claim reports and the checkers that give
them, and the suite runner.

Each entry names its check type (exact | mod-M | progression | relation |
family | oracle) so coverage can be audited by reading the table top to
bottom. Every claim but the oracles is a row of two `qcong.qexpr` sources
(eq 2-3 is two), checked by `check_row` in the exact ring to the suite's
"identity" or "congruence" order, or at depth "scan" (`D[A,B](C)` sides) in
the scan series' ring, as deep as that series allows. That series is built
mod 2^8, the narrowest ring that resolves every scan modulus
(`series.narrowest_ring`), so a scan witness's value is c(n) mod 2^8.
`check_row` reads its verdict from `verify_congruent`, the one rule that
turns two series into a verdict and a witness, which `qcong verify` calls
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Optional

from .mock_theta import c_builder, series_ck
from .oracle import oracle_table
from .qexpr import (F3, BFun, CSeries, Dissect, Num, Omega, QExpr, Sub,
                    evaluate, parse, reads, to_source)
from .series import EXACT, Series, change_ring, first_incongruence, narrowest_ring

# the oracle entries compare coefficients 0..ORACLE_LIMIT with enumeration
ORACLE_LIMIT = 25


# ---------------------------------------------------------------- reports


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    paper_eq: str
    status: str  # "pass" | "fail" | "order-too-small"
    params: dict
    witness: Optional[dict] = None

    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        out = {
            "id": self.claim_id,
            "paper_eq": self.paper_eq,
            "status": self.status,
            "params": self.params,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


# ---------------------------------------------------------------- context


# the leaves of the catalogue rows that read a shared series, and its field
_SEEDS = {CSeries(): "c_exact", BFun(1, 1): "b_exact",
          Omega(1, 1): "omega_exact", F3(1, 1): "f3_exact"}


@dataclass(frozen=True)
class SuiteContext:
    """Shared series for one catalogue run, and the rows' evaluation memos
    seeded with them, one per ring; `dataclasses.replace` gives fresh ones."""

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
    scan_memo: dict = field(init=False, repr=False, compare=False,
                            default_factory=dict)

    def __post_init__(self):
        self.memo.update(self.seeds("identity"))
        self.scan_memo.update(self.seeds("scan"))

    def seeds(self, depth: str) -> dict:
        """{leaf: shared series} for the rows of `depth`."""
        if depth == "scan":
            return {CSeries(): self.c_scan}
        return {leaf: getattr(self, name) for leaf, name in _SEEDS.items()}


def build_suite_context(n_identity: int = 400, n_scan: int = 40000,
                        k_max: int = 2, timings: Optional[dict] = None) -> SuiteContext:
    """Build every shared series as `evaluate` of its leaf, each as long as
    the deepest row reads it (`qexpr.reads`) at the identity order or half of
    it, and the scan series C to n_scan in the narrowest ring that resolves
    every scan modulus (`series.narrowest_ring`: mod 2^8 for the catalogue's
    4 and 8); a dict as `timings` gets the seconds of the exact vs the scan
    series."""
    if k_max < 0:
        raise ValueError(f"kmax must be >= 0, got {k_max}")
    n_congruence = max(2, n_identity // 2)
    # the oracle reads C to ORACLE_LIMIT
    orders = dict.fromkeys(_SEEDS.values(), 1) | {"c_exact": ORACLE_LIMIT + 1}
    depth = {"identity": n_identity, "congruence": n_congruence}
    for _, _, lhs, rhs, _, order in (*CLAIM_ROWS, *EQ_2_3_ROWS.values()):
        for e in (parse(lhs), parse(rhs)):
            for leaf, n in reads(e, depth[order]).items():
                if leaf in _SEEDS:
                    orders[_SEEDS[leaf]] = max(orders[_SEEDS[leaf]], n)
    t0 = perf_counter()
    built = {name: evaluate(leaf, orders[name]) for leaf, name in _SEEDS.items()}
    t1 = perf_counter()
    moduli = [row[4] for row in SCAN_ROWS] + [row[2] for row in FAMILY_ROWS]
    c_scan = evaluate(CSeries(), n_scan, narrowest_ring(moduli))
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


def _family_entry(claim_id: str, paper_eq: str, modulus: int, a_exp: int,
                  b_mult: int,
                  relation: Optional[tuple[int, int]] = None) -> CatalogueEntry:
    """One scan row per k <= the context's k_max, with A(k) = 2^(2k + a_exp)
    and B(k) = (b_mult*4^k + 1)/3: D[A(k),B(k)](C) == 0 mod `modulus`, or
    == (-1)^k * D[A2,B2](C) when `relation` is (A2, B2). One report per k,
    its id suffixed -k<k> and its params carrying k."""
    # 4^k == 1 mod 3, so 3 divides every b_mult*4^k + 1 iff it divides b_mult + 1
    if (b_mult + 1) % 3:
        raise ValueError(f"({b_mult}*4^k + 1)/3 is not an integer")

    def row(k: int) -> CatalogueEntry:
        lhs = f"D[{2 ** (2 * k + a_exp)},{(b_mult * 4**k + 1) // 3}](C)"
        rhs = ("0" if relation is None else
               "-" * (k % 2) + f"D[{relation[0]},{relation[1]}](C)")
        return _row_entry(f"{claim_id}-k{k}", paper_eq, lhs, rhs, modulus, "scan")

    def run(ctx: SuiteContext) -> list[ClaimReport]:
        return [replace(rep, params=dict(rep.params, k=k))
                for k in range(ctx.k_max + 1) for rep in row(k).run(ctx)]
    return CatalogueEntry(claim_id, paper_eq, "family", run)


def _oracle_entry(claim_id: str, k: int | str) -> CatalogueEntry:
    def run(ctx: SuiteContext) -> list[ClaimReport]:
        got = ctx.c_exact if k == "limit" else series_ck(k, ORACLE_LIMIT + 1)
        want = Series(EXACT, oracle_table(k, ORACLE_LIMIT))
        n = first_incongruence(got, want, None, ORACLE_LIMIT + 1)
        witness = (None if n is None
                   else {"n": n, "value": got[n], "expected": want[n]})
        return [ClaimReport(claim_id, "definition-1.1",
                            "pass" if n is None else "fail",
                            {"k": k, "n_max": ORACLE_LIMIT}, witness)]
    return CatalogueEntry(claim_id, "definition-1.1", "oracle", run)


def _b_bilateral_entry() -> CatalogueEntry:
    # the rows, then the scan C (eq 2-2, mod 2^w) against the summed exact C
    rows = {name: _row_entry(*row) for name, row in EQ_2_3_ROWS.items()}

    def run(ctx: SuiteContext) -> list[ClaimReport]:
        ring, m = ctx.c_scan.ring, min(ctx.c_exact.order, ctx.c_scan.order)
        reports = {name: row.run(ctx)[0] for name, row in rows.items()}
        reports["c_scan"] = verify_congruent(
            ctx.c_scan, change_ring(ctx.c_exact, ring), None, m)
        params = {"order": ctx.n_identity, "ring": "exact", "c_scan_ring": str(ring),
                  "compared": {name: r.params["order"] for name, r in reports.items()},
                  "c_scan_builder": c_builder(ring)}
        for name, rep in reports.items():
            if not rep.passed():  # order-too-small, too, names its series
                witness = dict(rep.witness or {}, series=name)
                return [ClaimReport("eq-2-3", "2-3", rep.status, params, witness)]
        return [ClaimReport("eq-2-3", "2-3", "pass", params)]
    return CatalogueEntry("eq-2-3", "2-3", "exact", run)


def _params(n: int, modulus: Optional[int], ring) -> dict:
    """A report's order, its modulus unless exact equality, and its ring."""
    return {"order": n, **({} if modulus is None else {"modulus": modulus}),
            "ring": str(ring)}


def verify_congruent(lhs: Series, rhs: Series, modulus: Optional[int], n: int,
                     claim_id: str = "congruence", paper_eq: str = "") -> ClaimReport:
    """Pass iff lhs == rhs coefficientwise for exponents < n, exactly if
    `modulus` is None, else mod `modulus`; fail with the first such n."""
    params = _params(n, modulus, lhs.ring)
    i = first_incongruence(lhs, rhs, modulus, n)
    if i is None:
        return ClaimReport(claim_id, paper_eq, "pass", params)
    witness = ({"n": i, "lhs": lhs[i], "rhs": rhs[i]} if modulus is None else
               {"n": i, "value": lhs[i], "residue": (lhs[i] - rhs[i]) % modulus})
    return ClaimReport(claim_id, paper_eq, "fail", params, witness)


def verify_identity(lhs: Series, rhs: Series, n: int,
                    claim_id: str = "identity", paper_eq: str = "") -> ClaimReport:
    """Pass iff lhs and rhs agree coefficientwise for exponents < n."""
    return verify_congruent(lhs, rhs, None, n, claim_id, paper_eq)


def _too_short(sides, seeds: dict, n: int) -> list[QExpr]:
    """The seeded leaves that a side, evaluated to n, reads past their end."""
    depths = [reads(e, n) for e in sides]
    return [leaf for leaf, s in seeds.items()
            if any(d.get(leaf, 0) > s.order for d in depths)]


def _scan_order(sides, seeds: dict) -> int:
    """The largest n (0 if none) to which no side reads a seed past its end.
    A scan side is 0, D[m,r](seed) or its negation, and D[m,r] reads a seed
    of order N to n as long as m*(n-1) + r < N; any other side, or none
    that reads a seed, raises ValueError."""
    depths = []
    for e in sides:
        d = e.right if isinstance(e, Sub) and e.left == Num(0) else e
        if isinstance(d, Dissect) and d.child in seeds:
            depths.append((seeds[d.child].order - d.r - 1) // d.m + 1)
        elif e != Num(0):
            raise ValueError(f"a scan side must be 0, D[m,r](seed) or its "
                             f"negation, got {to_source(e)}")
    if not depths:
        raise ValueError("no side of a scan row reads a seed")
    return max(0, min(depths))


def check_row(sides: tuple[QExpr, QExpr], modulus: Optional[int], seeds: dict,
              n: Optional[int] = None, memo: Optional[dict] = None,
              claim_id: str = "row", paper_eq: str = "") -> ClaimReport:
    """lhs == rhs to n coefficients, exactly (modulus None) or mod `modulus`,
    evaluated in the ring of `seeds` ({leaf: series}) through `memo` (a
    fresh one if None), which they seed. n None checks as many coefficients
    as the seeds allow and adds n_max = n - 1 to the params; it takes only
    the scan shape, each side 0, D[m,r](seed) or its negation, and raises
    ValueError for any other side (pass n for those). A seed too short for
    n, which evaluate would silently rebuild, gives order-too-small."""
    if not seeds:
        raise ValueError("check_row evaluates in its seeds' ring, so it needs at least one seed")
    ring = next(iter(seeds.values())).ring
    scan = n is None
    if scan:
        n = _scan_order(sides, seeds)
    params = {**_params(n, modulus, ring), "lhs": to_source(sides[0]),
              "rhs": to_source(sides[1])}
    samples = {"n_max": n - 1} if scan else {}
    too_short = _too_short(sides, seeds, max(n, 1))
    if too_short:
        params["too_short"] = list(map(to_source, too_short))
        return ClaimReport(claim_id, paper_eq, "order-too-small", {**params, **samples})
    memo = dict(seeds) if memo is None else memo
    lhs, rhs = (evaluate(e, n, ring, memo) for e in sides)
    rep = verify_congruent(lhs, rhs, modulus, n, claim_id, paper_eq)
    return replace(rep, params={**params, **samples})


def _row_entry(claim_id: str, paper_eq: str, lhs_src: str, rhs_src: str,
               modulus: Optional[int], depth: str) -> CatalogueEntry:
    """`check_row` of the two sources at `depth`: the context's n_identity
    or n_congruence in the exact ring, or "scan", as deep as c_scan allows
    in its ring. A scan row is a progression when its right side is 0."""
    sides = (parse(lhs_src), parse(rhs_src))

    def run(ctx: SuiteContext) -> list[ClaimReport]:
        n, memo = ((None, ctx.scan_memo) if depth == "scan"
                   else (getattr(ctx, f"n_{depth}"), ctx.memo))
        return [check_row(sides, modulus, ctx.seeds(depth), n, memo,
                          claim_id, paper_eq)]
    if depth == "scan":
        kind = "progression" if rhs_src == "0" else "relation"
    else:
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

# eq 2-3 by series: B and omega in Appell-Lerch form, sharing f[2]^-1 (memo)
EQ_2_3_ROWS = {
    "B": ("eq-2-3", "2-3", "B(q)", "f[4]*(f[2]^-1)^2*appell[2]", None, "identity"),
    "omega": ("eq-2-3", "2-3", "omega(q)", "appell[3]*f[2]^-1", None, "identity"),
}


# The progressions (right side 0) and relations, read from the scan series,
# mod 2^8 (`build_suite_context`); the families between eq 1-5 and eq 2-19
# are rows made per k.
SCAN_ROWS: tuple[tuple[str, str, str, str, int, str], ...] = (
    ("eq-1-2", "1-2", "D[8,4](C)", "0", 4, "scan"),
    ("eq-1-3", "1-3", "D[8,6](C)", "0", 8, "scan"),
    ("eq-1-4", "1-4", "D[16,13](C)", "0", 4, "scan"),
    ("eq-1-5", "1-5", "D[32,23](C)", "0", 8, "scan"),
    ("eq-2-19", "2-19", "D[16,11](C)", "-D[4,3](C)", 8, "scan"),
    ("eq-2-21", "2-21", "D[32,15](C)", "0", 4, "scan"),
    ("eq-2-22", "2-22", "D[32,23](C)", "0", 8, "scan"),
    ("eq-2-23", "2-23", "D[64,51](C)", "0", 4, "scan"),
    ("eq-2-25", "2-25", "D[8,7](C)", "-D[2,2](C)", 4, "scan"),
    ("eq-2-26", "2-26", "D[16,7](C)", "-D[4,2](C)", 8, "scan"),
    ("eq-2-27", "2-27", "D[32,19](C)", "-D[8,5](C)", 4, "scan"),
)

# (id, paper eq, modulus, a_exp, b_mult, relation): the families of
# `_family_entry`, one scan row per k
FAMILY_ROWS: tuple[tuple[str, str, int, int, int, Optional[tuple[int, int]]], ...] = (
    ("eq-1-6", "1-6", 4, 3, 11, None),
    ("eq-1-7", "1-7", 8, 3, 17, None),
    ("eq-1-8", "1-8", 4, 4, 38, None),
    ("eq-2-1", "2-1", 8, 2, 8, (4, 3)),
)


CATALOGUE: tuple[CatalogueEntry, ...] = (
    # the proved progressions, the conjectured families and the relations
    *(_row_entry(*row) for row in SCAN_ROWS[:4]),
    *(_family_entry(*row) for row in FAMILY_ROWS),
    *(_row_entry(*row) for row in SCAN_ROWS[4:]),
    # supporting identities and derivation steps, in the exact ring
    *(_row_entry(*row) for row in CLAIM_ROWS),
    _b_bilateral_entry(),
    # ground truth: series coefficients against direct enumeration
    _oracle_entry("oracle-c-limit", "limit"),
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
