"""The static claim catalogue: one entry per checked statement of the paper,
the shared series it reads, the claim reports and the checkers that give
them, and the suite runner.

Each entry names its check type (exact | mod-M | progression | relation |
family) so coverage can be audited by reading the table top to bottom.
Every claim is a row of two `qcong.qexpr` sources (eq 2-3 is three, named)
and a tier, checked by `check_row` where `SuiteContext.placement` looks its
tier up in `_TIERS`: the tier, not the row's modulus, picks the ring (exact,
or the scan series' mod 2^8, `series.narrowest_ring` of every modulus), the
memo and the order. `check_row` reads its verdict from `verify_congruent`,
the one rule that turns two series into a verdict and a witness, which
`qcong verify` calls directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Optional

from .qexpr import QExpr, Sub, evaluate, parse, reach, reads, to_source
from .series import RingMismatchError, Series, first_incongruence, narrowest_ring

# the oracle rows compare coefficients 0..ORACLE_LIMIT with enumeration
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
        out = {"id": self.claim_id, "paper_eq": self.paper_eq,
               "status": self.status, "params": self.params}
        return out if self.witness is None else out | {"witness": self.witness}


# ---------------------------------------------------------------- context


# the leaves of the catalogue rows that read a shared exact series, and its field
_C = parse("C")
_SEEDS = {_C: "c_exact", parse("B(q)"): "b_exact",
          parse("omega(q)"): "omega_exact", parse("f3(q)"): "f3_exact"}

# tier: (seeds {leaf: context field}, whose ring it checks in; memo field;
# order from the context's (n_identity, n_congruence), None: as deep as seeds allow)
_TIERS = {
    "identity": (_SEEDS, "memo", lambda i, c: i),
    "identity-half": (_SEEDS, "memo", lambda i, c: c),
    "oracle": (_SEEDS, "memo", lambda i, c: ORACLE_LIMIT + 1),
    "congruence": ({_C: "c_scan"}, "scan_memo", lambda i, c: c),
    "cross": ({_C: "c_scan"}, "scan_memo", lambda i, c: 8 * c),  # as deep as D[8,r] reads C
    "scan": ({_C: "c_scan"}, "scan_memo", lambda i, c: None),
}


@dataclass(frozen=True)
class SuiteContext:
    """Shared series for one catalogue run, and the rows' evaluation memos
    seeded with them, one per ring; `dataclasses.replace` gives fresh ones.
    `placement` states where and how deep every row is checked."""

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
        self.memo.update(self.placement("identity")[0])
        self.scan_memo.update(self.placement("scan")[0])

    def placement(self, tier: str) -> tuple[dict, Optional[int], dict]:
        """`check_row`'s (seeds, n, memo) for a row of `tier` (`_TIERS`)."""
        seeds, memo, order = _TIERS[tier]
        return ({leaf: getattr(self, name) for leaf, name in seeds.items()},
                order(self.n_identity, self.n_congruence), getattr(self, memo))


def build_suite_context(n_identity: int = 400, n_scan: int = 40000,
                        k_max: int = 2, timings: Optional[dict] = None) -> SuiteContext:
    """Build every shared series as `evaluate` of its leaf: each exact one as
    long as the deepest row of an exact tier reads it (`qexpr.reads`) at the
    tier's order, and the scan series C to n_scan in the narrowest ring that
    resolves every row's modulus (`series.narrowest_ring`: mod 2^8 for the
    catalogue's 2 to 32); a dict as `timings` gets the seconds of the exact
    vs the scan series."""
    if k_max < 0:
        raise ValueError(f"kmax must be >= 0, got {k_max}")
    n_congruence = max(2, n_identity // 2)
    orders = dict.fromkeys(_SEEDS.values(), 1)
    rows = (*CLAIM_ROWS, *EQ_2_3_ROWS.values(), *SCAN_ROWS, *ORACLE_ROWS)
    for _, _, lhs, rhs, _, tier in rows:
        seeds, _, order = _TIERS[tier]
        n = order(n_identity, n_congruence)
        for leaf, k in reads(Sub(parse(lhs), parse(rhs)), n).items() if seeds is _SEEDS else ():
            if leaf in seeds:
                orders[seeds[leaf]] = max(orders[seeds[leaf]], k)
    t0 = perf_counter()
    built = {name: evaluate(leaf, orders[name]) for leaf, name in _SEEDS.items()}
    t1 = perf_counter()
    moduli = [row[4] for row in rows if row[4]] + [row[2] for row in FAMILY_ROWS]
    c_scan = evaluate(_C, n_scan, narrowest_ring(moduli))
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
    return CatalogueEntry(claim_id, "family", run)


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


def check_row(sides: tuple[QExpr, QExpr], modulus: Optional[int], seeds: dict,
              n: Optional[int] = None, memo: Optional[dict] = None,
              claim_id: str = "row", paper_eq: str = "") -> ClaimReport:
    """lhs == rhs to n coefficients, exactly (modulus None) or mod `modulus`,
    evaluated in the ring of `seeds` ({leaf: series}) through `memo` (a
    fresh one if None), which they seed. n None checks as many coefficients
    as the seeds allow, the least `qexpr.reach` of a side, and adds
    n_max = n - 1 to the params; it raises ValueError when no side reads a
    seed, and RingMismatchError when the seeds are in more than one ring. A
    seed too short for n, which evaluate would silently rebuild, gives
    order-too-small."""
    if not seeds:
        raise ValueError("check_row evaluates in its seeds' ring, so it needs at least one seed")
    ring = next(iter(seeds.values())).ring
    if any(s.ring != ring for s in seeds.values()):
        raise RingMismatchError("check_row's seeds must share one ring, got "
                                + ", ".join(str(s.ring) for s in seeds.values()))
    scan = n is None
    if scan:
        n = reach(Sub(*sides), seeds)  # both sides read at n, as lhs - rhs does
        if n is None:
            raise ValueError("no side of a scan row reads a seed")
    params = {**_params(n, modulus, ring), "lhs": to_source(sides[0]),
              "rhs": to_source(sides[1])}
    samples = {"n_max": n - 1} if scan else {}
    depths = reads(Sub(*sides), max(n, 1))
    too_short = [leaf for leaf, s in seeds.items() if depths.get(leaf, 0) > s.order]
    if too_short:
        params["too_short"] = list(map(to_source, too_short))
        return ClaimReport(claim_id, paper_eq, "order-too-small", {**params, **samples})
    memo = dict(seeds) if memo is None else memo
    lhs, rhs = (evaluate(e, n, ring, memo) for e in sides)
    rep = verify_congruent(lhs, rhs, modulus, n, claim_id, paper_eq)
    return replace(rep, params={**params, **samples})


def _row_entry(claim_id: str, paper_eq: str, *row, **rows) -> CatalogueEntry:
    """`check_row` of one row (lhs, rhs, modulus, tier), or of several named
    rows, each where the context's `placement` puts its tier, in one report:
    the first row that does not pass, its witness naming it (`series`), else
    a pass, with the first row's order and ring and every row's params under
    `rows`. A scan row is a progression when its right side is 0. A tier not
    in `_TIERS` raises ValueError here, when the entry is built."""
    rows = rows or {None: row}
    if unknown := {row[-1] for row in rows.values()} - _TIERS.keys():
        raise ValueError(f"{claim_id}: unknown tier {', '.join(sorted(unknown))}; "
                         f"expected one of {', '.join(_TIERS)}")
    parsed = {name: ((parse(lhs), parse(rhs)), modulus, tier)
              for name, (lhs, rhs, modulus, tier) in rows.items()}

    def run(ctx: SuiteContext) -> list[ClaimReport]:
        reports = {name: check_row(sides, modulus, *ctx.placement(tier), claim_id, paper_eq)
                   for name, (sides, modulus, tier) in parsed.items()}
        if None in reports:
            return [reports[None]]
        first = next(iter(reports.values())).params
        params = {"order": first["order"], "ring": first["ring"],
                  "rows": {name: rep.params for name, rep in reports.items()}}
        for name, rep in reports.items():
            if not rep.passed():  # order-too-small, too, names its row
                witness = dict(rep.witness or {}, series=name)
                return [ClaimReport(claim_id, paper_eq, rep.status, params, witness)]
        return [ClaimReport(claim_id, paper_eq, "pass", params)]
    _, rhs_src, modulus, tier = next(iter(rows.values()))
    if tier == "scan":
        kind = "progression" if rhs_src == "0" else "relation"
    else:
        kind = "exact" if modulus is None else f"mod-{modulus}"
    return CatalogueEntry(claim_id, kind, run)


# Shared right-hand sides: eq 2-2's C from the Eulerian B and omega (eq 2-3's
# c_scan row), the 2-dissections of 1/f1^2 (eq 2-6) and f1^2 (eq 2-7), and the
# 2-dissection of 1/f1^4 (eq 2-14).
_EQ_2_2 = "2*q*f[2]*f[4]/f[1]^2*B(-q) - q*omega(-q)"
_INV_F1_SQ = "f[8]^5/(f[2]^5*f[16]^2) + 2*q*f[4]^2*f[16]^2/(f[2]^5*f[8])"
_F1_SQ = "f[2]*f[8]^5/(f[4]^2*f[16]^2) - 2*q*f[2]*f[16]^2/f[8]"
_INV_F1_4 = "f[4]^14/(f[2]^14*f[8]^4) + 4*q*f[4]^2*f[8]^4/f[2]^10"

# (id, paper eq, lhs, rhs, modulus or None for exact equality, tier).
# Displays with 1/2 coefficients (2-5, 2-8) are doubled on both sides.
CLAIM_ROWS: tuple[tuple[str, str, str, str, Optional[int], str], ...] = (
    ("eq-2-2", "2-2", "C", _EQ_2_2, None, "identity"),
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
     " - f[2]^8*f[8]^2/(f[1]^4*f[4]^5)", None, "identity-half"),
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

# eq 2-3 by series: B and omega in Appell-Lerch form, sharing f[2]^-1 (memo),
# and c_scan against eq 2-2's sides in its own ring
EQ_2_3_ROWS = {
    "B": ("eq-2-3", "2-3", "B(q)", "f[4]*(f[2]^-1)^2*appell[2]", None, "identity"),
    "omega": ("eq-2-3", "2-3", "omega(q)", "appell[3]*f[2]^-1", None, "identity"),
    "c_scan": ("eq-2-3", "2-3", "C", _EQ_2_2, None, "cross"),
}


# The progressions (right side 0) and relations, checked as deep as the scan
# series allows; the families between eq 1-5 and eq 2-19 are rows made per k.
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

# C and C_k (k = 1, 2, 3) against the counts enumerated from definition 1.1
ORACLE_ROWS: tuple[tuple[str, str, str, str, None, str], ...] = (
    ("oracle-c-limit", "definition-1.1", "C", "oracle", None, "oracle"),
    *((f"oracle-ck-{k}", "definition-1.1", f"Ck[{k}]", f"oraclek[{k}]", None, "oracle")
      for k in (1, 2, 3)),
)


CATALOGUE: tuple[CatalogueEntry, ...] = (
    # the proved progressions, the conjectured families and the relations
    *(_row_entry(*row) for row in SCAN_ROWS[:4]),
    *(_family_entry(*row) for row in FAMILY_ROWS),
    *(_row_entry(*row) for row in SCAN_ROWS[4:]),
    # supporting identities (exact ring) and congruences (scan ring)
    *(_row_entry(*row) for row in CLAIM_ROWS),
    # eq 2-3's three rows
    _row_entry("eq-2-3", "2-3", **{name: row[2:] for name, row in EQ_2_3_ROWS.items()}),
    # ground truth: series coefficients against direct enumeration
    *(_row_entry(*row) for row in ORACLE_ROWS),
)


def run_catalogue(ctx: SuiteContext) -> list[ClaimReport]:
    return [report for entry in CATALOGUE for report in entry.run(ctx)]


def suite_json(reports: list[ClaimReport], ctx: SuiteContext) -> dict:
    return {"order_identity": ctx.n_identity, "order_scan": ctx.n_scan,
            "k_max": ctx.k_max, "claims": [r.to_json_dict() for r in reports]}


def all_passed(reports: list[ClaimReport]) -> bool:
    """True only when every claim passed: a claim that could not be checked
    (order-too-small) is no evidence for it."""
    return all(r.passed() for r in reports)
