"""Series builders for the two-color counting functions, claim checkers, the
static claim catalogue, and the large-order congruence scan.

The catalogue is one entry per checked statement; each entry names its check
type (exact | mod-M | progression | relation | family | oracle) so coverage
can be audited by reading the table top to bottom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .mock_theta import b_appell, b_eulerian, f3_series, omega_series
from .oracle import count_c_limit, count_ck
from .products import eta_quotient, pentagonal_series
from .series import (
    EXACT,
    MOD64,
    CoefficientRing,
    OrderError,
    Series,
    dissect,
    equal_to_order,
    first_incongruence,
    mul,
    mul_sparse,
    mul_sparse_binomial,
    power,
    scalar_mul,
    shift,
    substitute_power,
    sum_shifted,
    truncate,
    zero_series,
)


# ---------------------------------------------------------------- series


def series_c(order: int, ring: CoefficientRing = EXACT) -> Series:
    """Generating series of the counts c(n): sum over n >= 0 of
    q^(2n+1) * (-q^(2n+2); q^2)_inf / (q^(2n+1); q^2)_inf^2."""
    return _c_sum(order, ring, None)


def series_ck(k: int, order: int, ring: CoefficientRing = EXACT) -> Series:
    """Generating series of the counts c(k, n): sum over n >= 0 of
    q^(2n+1) * (-q^(2n+2k), -q^(2n+2); q^2)_inf / (q^(2n+1); q^2)_inf^2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _c_sum(order, ring, k)


def _c_sum(order: int, ring: CoefficientRing, k: Optional[int]) -> Series:
    if order < 1:
        raise ValueError("order must be >= 1")
    return sum_shifted(_c_terms(order, ring, k), ring, order)


def _c_terms(order: int, ring: CoefficientRing, k: Optional[int]):
    # Term n is q^j * u_n with j = 2n+1, so u_n is only read to order - j
    # coefficients. (-q^2; q^2)_inf = f4/f2 and (q; q^2)_inf = f1/f2 give
    # u_0 = f2*f4/f1^2 for c and f4^2/f1^2/(-q^2; q^2)_(k-1) for c_k, built
    # from the sparse pentagonal series of f1, f2, f4.
    f1, f4 = ({e: x for e, x in enumerate(pentagonal_series(m, order, ring)
                                           .coefficients()) if x} for m in (1, 4))
    u = mul_sparse(pentagonal_series(2 if k is None else 4, order, ring), f4)
    u = mul_sparse(mul_sparse(u, f1, "divide"), f1, "divide")
    if k is not None:
        for j in range(2, min(2 * k, order), 2):
            u = mul_sparse_binomial(u, 1, j, "divide")
    for j in range(1, order, 2):
        yield j, u
        # u_(n+1) = u_n * (1 - q^j)^2 / (1 + q^(j+1)) [/ (1 + q^(j+2k-1))]
        u = mul_sparse(u.truncate(max(0, order - j - 2)), {0: 1, j: -2, 2 * j: 1})
        u = mul_sparse_binomial(u, 1, j + 1, "divide")
        if k is not None:
            u = mul_sparse_binomial(u, 1, j + 2 * k - 1, "divide")


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


@dataclass(frozen=True)
class ProgressionClaim:
    a: int
    b: int
    modulus: int
    n_max: int

    def __str__(self) -> str:
        return f"c({self.a}n+{self.b}) == 0 mod {self.modulus} for n <= {self.n_max}"


@dataclass(frozen=True)
class FamilyClaim:
    """Progressions A(k)*n + B(k) with A(k) = 2^(2k + a_exp_base) and
    B(k) = (b_mult*4^k + 1)/3; `relation` switches to the comparison form
    c(A(k)n + B(k)) == (-1)^k * c(A2*n + B2) instead of == 0."""

    claim_id: str
    paper_eq: str
    k_max: int
    modulus: int
    a_exp_base: int
    b_mult: int
    relation: Optional[tuple[int, int]] = None

    def a_of(self, k: int) -> int:
        return 2 ** (2 * k + self.a_exp_base)

    def b_of(self, k: int) -> int:
        num = self.b_mult * 4**k + 1
        if num % 3:
            raise ValueError(f"(({self.b_mult})*4^{k}+1) is not divisible by 3")
        return num // 3


# ---------------------------------------------------------------- checks


def _check_ring_modulus(s: Series, modulus: int) -> None:
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if s.ring.kind == "mod2pow":
        if modulus & (modulus - 1) or modulus > (1 << s.ring.width):
            raise ValueError(
                f"modulus {modulus} is not resolvable in {s.ring}")


def check_progression(s: Series, a: int, b: int, modulus: int,
                      n_max: Optional[int] = None, claim_id: str = "progression",
                      paper_eq: str = "") -> ClaimReport:
    """Pass iff coefficient(s, a*n + b) == 0 mod `modulus` for 0 <= n <= n_max
    (default: every in-range n)."""
    if a < 1 or b < 0:
        raise ValueError("progression needs a >= 1, b >= 0")
    _check_ring_modulus(s, modulus)
    in_range = (s.order - 1 - b) // a
    if n_max is None:
        n_max = in_range
    params = {"A": a, "B": b, "modulus": modulus, "n_max": n_max,
              "order": s.order, "ring": str(s.ring)}
    if n_max < 0 or n_max > in_range:
        return ClaimReport(claim_id, paper_eq, "order-too-small", params)
    for n in range(n_max + 1):
        value = s[a * n + b]
        if value % modulus:
            witness = {"n": n, "argument": a * n + b, "value": value,
                       "residue": value % modulus}
            return ClaimReport(claim_id, paper_eq, "fail", params, witness)
    return ClaimReport(claim_id, paper_eq, "pass", params)


def check_relation(s: Series, a1: int, b1: int, sign: int, a2: int, b2: int,
                   modulus: int, n_max: Optional[int] = None,
                   claim_id: str = "relation", paper_eq: str = "") -> ClaimReport:
    """Pass iff coefficient(s, a1*n+b1) == sign * coefficient(s, a2*n+b2)
    mod `modulus` for 0 <= n <= n_max."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if a1 < 1 or a2 < 1 or b1 < 0 or b2 < 0:
        raise ValueError("relation needs a1, a2 >= 1 and b1, b2 >= 0")
    _check_ring_modulus(s, modulus)
    in_range = min((s.order - 1 - b1) // a1, (s.order - 1 - b2) // a2)
    if n_max is None:
        n_max = in_range
    params = {"A1": a1, "B1": b1, "sign": sign, "A2": a2, "B2": b2,
              "modulus": modulus, "n_max": n_max, "order": s.order,
              "ring": str(s.ring)}
    if n_max < 0 or n_max > in_range:
        return ClaimReport(claim_id, paper_eq, "order-too-small", params)
    for n in range(n_max + 1):
        lhs, rhs = s[a1 * n + b1], s[a2 * n + b2]
        if (lhs - sign * rhs) % modulus:
            witness = {"n": n, "argument": a1 * n + b1, "value": lhs,
                       "other": rhs, "residue": (lhs - sign * rhs) % modulus}
            return ClaimReport(claim_id, paper_eq, "fail", params, witness)
    return ClaimReport(claim_id, paper_eq, "pass", params)


def check_family(s: Series, fam: FamilyClaim) -> list[ClaimReport]:
    """One report per 0 <= k <= fam.k_max."""
    reports = []
    for k in range(fam.k_max + 1):
        a, b = fam.a_of(k), fam.b_of(k)
        cid = f"{fam.claim_id}-k{k}"
        if fam.relation is None:
            rep = check_progression(s, a, b, fam.modulus,
                                    claim_id=cid, paper_eq=fam.paper_eq)
        else:
            a2, b2 = fam.relation
            rep = check_relation(s, a, b, (-1) ** k, a2, b2, fam.modulus,
                                 claim_id=cid, paper_eq=fam.paper_eq)
        reports.append(ClaimReport(rep.claim_id, rep.paper_eq, rep.status,
                                   dict(rep.params, k=k), rep.witness))
    return reports


def verify_identity(lhs: Series, rhs: Series, n: int,
                    claim_id: str = "identity", paper_eq: str = "") -> ClaimReport:
    """Pass iff lhs and rhs agree coefficientwise for exponents < n."""
    if n > lhs.order or n > rhs.order:
        raise OrderError(
            f"identity check to {n} exceeds orders {lhs.order}, {rhs.order}")
    params = {"order": n, "ring": str(lhs.ring)}
    if equal_to_order(lhs, rhs, n):
        return ClaimReport(claim_id, paper_eq, "pass", params)
    i = next(i for i in range(n) if lhs[i] != rhs[i])
    witness = {"n": i, "lhs": lhs[i], "rhs": rhs[i]}
    return ClaimReport(claim_id, paper_eq, "fail", params, witness)


def verify_congruent(lhs: Series, rhs: Series, modulus: int, n: int,
                     claim_id: str = "congruence", paper_eq: str = "") -> ClaimReport:
    """Pass iff lhs == rhs mod `modulus` coefficientwise for exponents < n."""
    params = {"order": n, "modulus": modulus, "ring": str(lhs.ring)}
    idx = first_incongruence(lhs, rhs, modulus, n)
    if idx is None:
        return ClaimReport(claim_id, paper_eq, "pass", params)
    witness = {"n": idx, "value": lhs[idx],
               "residue": (lhs[idx] - rhs[idx]) % modulus}
    return ClaimReport(claim_id, paper_eq, "fail", params, witness)


# ---------------------------------------------------------------- context


@dataclass(frozen=True)
class SuiteContext:
    """Shared series for one catalogue run. Orders are chosen so every
    catalogued dissection stays inside its operand's window."""

    n_identity: int
    n_congruence: int
    n_scan: int
    k_max: int
    c_exact: Series
    b_exact: Series
    omega_exact: Series
    f3_exact: Series
    c_scan: Series


def build_suite_context(n_identity: int = 400, n_scan: int = 40000,
                        k_max: int = 2, n_congruence: Optional[int] = None,
                        timings: Optional[dict] = None) -> SuiteContext:
    """Build every shared series; pass a dict as `timings` to get the wall
    seconds spent on the exact-ring series vs the large modular scan."""
    from time import perf_counter

    if k_max < 0:
        raise ValueError(f"kmax must be >= 0, got {k_max}")
    if n_congruence is None:
        n_congruence = max(2, n_identity // 2)
    n_big = max(n_identity, n_congruence)
    # deepest extractions: residues mod 8 of C, residues mod 4 of B
    c_order = max(n_identity, 8 * n_congruence)
    b_order = 4 * n_big + 2
    omega_order = max(n_identity, 2 * n_congruence + 2)
    f3_order = -(-(n_big - 1) // 8) + 1
    t0 = perf_counter()
    c_exact = series_c(c_order)
    b_exact = b_eulerian(b_order)
    omega_exact = omega_series(omega_order)
    f3_exact = f3_series(f3_order)
    t1 = perf_counter()
    c_scan = series_c(n_scan, MOD64)
    t2 = perf_counter()
    if timings is not None:
        timings["exact_build"] = t1 - t0
        timings["scan_build"] = t2 - t1
    return SuiteContext(
        n_identity=n_identity,
        n_congruence=n_congruence,
        n_scan=n_scan,
        k_max=k_max,
        c_exact=c_exact,
        b_exact=b_exact,
        omega_exact=omega_exact,
        f3_exact=f3_exact,
        c_scan=c_scan,
    )


# ------------------------------------------------------- catalogue helpers


def _eq(d: dict, n: int) -> Series:
    return eta_quotient(d, n)


def _c(ctx: SuiteContext, n: int) -> Series:
    return truncate(ctx.c_exact, n)


def _b_neg(ctx: SuiteContext, n: int) -> Series:
    return substitute_power(truncate(ctx.b_exact, n), 1, -1)


def _omega_neg(ctx: SuiteContext, n: int) -> Series:
    return substitute_power(truncate(ctx.omega_exact, n), 1, -1)


def _omega_neg_sq(ctx: SuiteContext, n: int) -> Series:
    # omega at argument -q^2, truncated to n
    return truncate(substitute_power(ctx.omega_exact, 2, -1), n)


def _omega_neg_q4(ctx: SuiteContext, n: int) -> Series:
    return truncate(substitute_power(ctx.omega_exact, 4, -1), n)


def _f3_q8(ctx: SuiteContext, n: int) -> Series:
    return truncate(substitute_power(ctx.f3_exact, 8, 1), n)


def _b_even(ctx: SuiteContext, n: int) -> Series:
    return truncate(dissect(ctx.b_exact, 2, 0), n)


def _b_odd(ctx: SuiteContext, n: int) -> Series:
    return truncate(dissect(ctx.b_exact, 2, 1), n)


def _b_alternating_split(ctx: SuiteContext, n: int) -> Series:
    # sum of a_B(2n) q^(2n) minus sum of a_B(2n+1) q^(2n+1), i.e. B(-q)
    # written the way the dissection steps use it
    even = substitute_power(dissect(ctx.b_exact, 2, 0), 2, 1)
    odd = shift(substitute_power(dissect(ctx.b_exact, 2, 1), 2, 1), 1)
    return truncate(even, n) - truncate(odd, n)


def _even_dissection_of_inverse_f1sq(n: int) -> Series:
    # the two halves of 1/f_1^2 split by exponent parity (even half first)
    return _eq({8: 5, 2: -5, 16: -2}, n) + 2 * shift(
        _eq({4: 2, 16: 2, 2: -5, 8: -1}, n), 1)


def _even_dissection_of_f1sq(n: int) -> Series:
    return _eq({2: 1, 8: 5, 4: -2, 16: -2}, n) - 2 * shift(
        _eq({2: 1, 16: 2, 8: -1}, n), 1)


@dataclass(frozen=True)
class CatalogueEntry:
    claim_id: str
    paper_eq: str
    kind: str
    run: Callable[[SuiteContext], list[ClaimReport]]


def _exact_entry(claim_id: str, paper_eq: str,
                 build: Callable[[SuiteContext, int], tuple[Series, Series]],
                 order_attr: str = "n_identity") -> CatalogueEntry:
    def run(ctx: SuiteContext) -> list[ClaimReport]:
        n = getattr(ctx, order_attr)
        lhs, rhs = build(ctx, n)
        return [verify_identity(lhs, rhs, n, claim_id, paper_eq)]
    return CatalogueEntry(claim_id, paper_eq, "exact", run)


def _mod_entry(claim_id: str, paper_eq: str, modulus: int,
               build: Callable[[SuiteContext, int], tuple[Series, Series]]
               ) -> CatalogueEntry:
    def run(ctx: SuiteContext) -> list[ClaimReport]:
        n = ctx.n_congruence
        lhs, rhs = build(ctx, n)
        return [verify_congruent(lhs, rhs, modulus, n, claim_id, paper_eq)]
    return CatalogueEntry(claim_id, paper_eq, f"mod-{modulus}", run)


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


def _family_entry(claim_id: str, paper_eq: str, modulus: int, a_exp_base: int,
                  b_mult: int,
                  relation: Optional[tuple[int, int]] = None) -> CatalogueEntry:
    def run(ctx: SuiteContext) -> list[ClaimReport]:
        fam = FamilyClaim(claim_id, paper_eq, ctx.k_max, modulus,
                          a_exp_base, b_mult, relation)
        return [rep for rep in check_family(ctx.c_scan, fam)]
    return CatalogueEntry(claim_id, paper_eq, "family", run)


def _oracle_entry(claim_id: str, k: Optional[int]) -> CatalogueEntry:
    limit = 25

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


# --------------------------------------------------------- claim builders


def _build_2_2(ctx, n):
    lhs = _c(ctx, n)
    rhs = 2 * shift(mul(_eq({2: 1, 4: 1, 1: -2}, n), _b_neg(ctx, n)), 1) \
        - shift(_omega_neg(ctx, n), 1)
    return lhs, rhs


def _build_2_3(ctx, n):
    return truncate(ctx.b_exact, n), b_appell(n)


def _build_2_4(ctx, n):
    lhs = _f3_q8(ctx, n) - 2 * shift(_omega_neg(ctx, n), 1) \
        - 2 * shift(_omega_neg_q4(ctx, n), 3)
    rhs = _eq({1: 2, 4: 8, 2: -5, 8: -4}, n)
    return lhs, rhs


def _build_2_5(ctx, n):
    # both sides doubled: the display carries 1/2 coefficients
    lhs = 2 * _c(ctx, n)
    rhs = 4 * shift(mul(_eq({2: 1, 4: 1, 1: -2}, n), _b_neg(ctx, n)), 1) \
        + 2 * shift(_omega_neg_q4(ctx, n), 3) \
        + _eq({1: 2, 4: 8, 2: -5, 8: -4}, n) \
        - _f3_q8(ctx, n)
    return lhs, rhs


def _build_2_6(ctx, n):
    return _eq({1: -2}, n), _even_dissection_of_inverse_f1sq(n)


def _build_2_7(ctx, n):
    return _eq({1: 2}, n), _even_dissection_of_f1sq(n)


def _build_2_8(ctx, n):
    # doubled, like 2-5
    lhs = 2 * _c(ctx, n)
    rhs = 4 * shift(mul(mul(_eq({2: 1, 4: 1}, n),
                            _even_dissection_of_inverse_f1sq(n)),
                        _b_alternating_split(ctx, n)), 1) \
        + 2 * shift(_omega_neg_q4(ctx, n), 3) \
        - _f3_q8(ctx, n) \
        + mul(_eq({4: 8, 2: -5, 8: -4}, n), _even_dissection_of_f1sq(n))
    return lhs, rhs


def _build_2_9(ctx, n):
    lhs = truncate(dissect(ctx.c_exact, 2, 1), n)
    rhs = 2 * mul(_eq({2: 1, 4: 5, 1: -4, 8: -2}, n), _b_even(ctx, n)) \
        - 4 * shift(mul(_eq({2: 3, 8: 2, 1: -4, 4: -1}, n), _b_odd(ctx, n)), 1) \
        + shift(_omega_neg_sq(ctx, n), 1) \
        - _eq({2: 8, 8: 2, 1: -4, 4: -5}, n)
    return lhs, rhs


def _build_2_10(ctx, n):
    return _b_even(ctx, n), _eq({2: 5, 1: -4}, n)


def _build_2_11(ctx, n):
    return _b_odd(ctx, n), zero_series(EXACT, n)


def _build_wang(ctx, n):
    coeffs = [0] * n
    j = 0
    while 2 * j * j + 2 * j < n:
        coeffs[2 * j * j + 2 * j] = 1
        j += 1
    return truncate(ctx.b_exact, n), Series(EXACT, coeffs)


def _build_2_12(ctx, n):
    lhs = truncate(dissect(ctx.c_exact, 2, 1), n)
    rhs = 2 * _eq({2: 2, 4: 5, 8: -2}, n) \
        + shift(_omega_neg_sq(ctx, n), 1) \
        - _eq({2: 8, 8: 2, 1: -4, 4: -5}, n)
    return lhs, rhs


def _build_2_14(ctx, n):
    rhs = _eq({4: 14, 2: -14, 8: -4}, n) + 4 * shift(_eq({4: 2, 8: 4, 2: -10}, n), 1)
    return _eq({1: -4}, n), rhs


def _build_2_15(ctx, n):
    lhs = shift(truncate(dissect(ctx.c_exact, 2, 1), n), 1)
    inner = _eq({4: 14, 2: -14, 8: -4}, n) + 4 * shift(_eq({4: 2, 8: 4, 2: -10}, n), 1)
    rhs = 2 * shift(_eq({2: 2, 4: 5, 8: -2}, n), 1) \
        + shift(_omega_neg_sq(ctx, n), 2) \
        - shift(mul(_eq({2: 8, 8: 2, 4: -5}, n), inner), 1)
    return lhs, rhs


def _build_2_16(ctx, n):
    lhs = shift(truncate(dissect(ctx.c_exact, 4, 3), n), 1)
    rhs = shift(_omega_neg(ctx, n), 1) - 4 * shift(_eq({4: 4}, n), 1)
    return lhs, rhs


def _build_2_17(ctx, n):
    lhs = shift(_omega_neg(ctx, n), 1)
    rhs = 2 * shift(mul(_eq({2: 1, 4: 1, 1: -2}, n), _b_neg(ctx, n)), 1) - _c(ctx, n)
    return lhs, rhs


def _build_2_18(ctx, n):
    lhs = shift(truncate(dissect(ctx.c_exact, 4, 3), n), 1)
    rhs = 2 * shift(mul(mul(_eq({2: 1, 4: 1}, n),
                            _even_dissection_of_inverse_f1sq(n)),
                        _b_alternating_split(ctx, n)), 1) \
        - _c(ctx, n) - 4 * shift(_eq({4: 4}, n), 1)
    return lhs, rhs


def _build_2_18_1(ctx, n):
    lhs = truncate(dissect(ctx.c_exact, 8, 3), n)
    rhs = 6 * _eq({2: 2, 4: 5, 8: -2}, n) - truncate(dissect(ctx.c_exact, 2, 1), n)
    return lhs, rhs


def _build_a_1(ctx, n):
    lhs = shift(truncate(dissect(ctx.c_exact, 8, 7), n), 1)
    rhs = 4 * shift(_eq({4: 1, 8: 2}, n), 1) \
        - 2 * shift(mul(_eq({4: 1, 2: -1}, n), _b_odd(ctx, n)), 1) \
        - truncate(dissect(ctx.c_exact, 2, 0), n)
    return lhs, rhs


def _build_2_24(ctx, n):
    lhs = shift(truncate(dissect(ctx.c_exact, 8, 7), n), 1)
    rhs = -truncate(dissect(ctx.c_exact, 2, 0), n)
    return lhs, rhs


def _build_a_2(ctx, n):
    return truncate(dissect(ctx.b_exact, 4, 1), n), 2 * _eq({2: 8, 1: -7}, n)


def _power_congruence_entry(k: int, m: int) -> CatalogueEntry:
    claim_id = f"eq-2-13-k{k}-m{m}"

    def run(ctx: SuiteContext) -> list[ClaimReport]:
        n = ctx.n_congruence
        lhs = power(eta_quotient({k: 1}, n), 2**m)
        rhs = power(eta_quotient({2 * k: 1}, n), 2 ** (m - 1))
        return [verify_congruent(lhs, rhs, 2**m, n, claim_id, "2-13")]
    return CatalogueEntry(claim_id, "2-13", f"mod-{2**m}", run)


CATALOGUE: tuple[CatalogueEntry, ...] = (
    # the proved progressions and the conjectured families (id group 1-x)
    _progression_entry("eq-1-2", "1-2", 8, 4, 4),
    _progression_entry("eq-1-3", "1-3", 8, 6, 8),
    _progression_entry("eq-1-4", "1-4", 16, 13, 4),
    _progression_entry("eq-1-5", "1-5", 32, 23, 8),
    _family_entry("eq-1-6", "1-6", 4, 3, 11),
    _family_entry("eq-1-7", "1-7", 8, 3, 17),
    _family_entry("eq-1-8", "1-8", 4, 4, 38),
    # supporting identities and derivation steps (id group 2-x and a-x)
    _family_entry("eq-2-1", "2-1", 8, 2, 8, relation=(4, 3)),
    _exact_entry("eq-2-2", "2-2", _build_2_2),
    _exact_entry("eq-2-3", "2-3", _build_2_3),
    _exact_entry("eq-2-4", "2-4", _build_2_4),
    _exact_entry("eq-2-5", "2-5", _build_2_5),
    _exact_entry("eq-2-6", "2-6", _build_2_6),
    _exact_entry("eq-2-7", "2-7", _build_2_7),
    _exact_entry("eq-2-8", "2-8", _build_2_8),
    _exact_entry("eq-2-9", "2-9", _build_2_9, order_attr="n_congruence"),
    _exact_entry("eq-2-10", "2-10", _build_2_10),
    _mod_entry("eq-wang-parity", "wang", 2, _build_wang),
    _mod_entry("eq-2-11", "2-11", 2, _build_2_11),
    _mod_entry("eq-2-12", "2-12", 8, _build_2_12),
    *(_power_congruence_entry(k, m) for k in (1, 2, 4) for m in (1, 2, 3, 4, 5)),
    _exact_entry("eq-2-14", "2-14", _build_2_14),
    _mod_entry("eq-2-15", "2-15", 8, _build_2_15),
    _mod_entry("eq-2-16", "2-16", 8, _build_2_16),
    _exact_entry("eq-2-17", "2-17", _build_2_17),
    _mod_entry("eq-2-18", "2-18", 8, _build_2_18),
    _mod_entry("eq-2-18-1", "2-18-1", 8, _build_2_18_1),
    _relation_entry("eq-2-19", "2-19", 16, 11, -1, 4, 3, 8),
    _progression_entry("eq-2-21", "2-21", 32, 15, 4),
    _progression_entry("eq-2-22", "2-22", 32, 23, 8),
    _progression_entry("eq-2-23", "2-23", 64, 51, 4),
    _mod_entry("eq-a-1", "a-1", 8, _build_a_1),
    _mod_entry("eq-2-24", "2-24", 4, _build_2_24),
    _relation_entry("eq-2-25", "2-25", 8, 7, -1, 2, 2, 4),
    _exact_entry("eq-a-2", "a-2", _build_a_2),
    _relation_entry("eq-2-26", "2-26", 16, 7, -1, 4, 2, 8),
    _relation_entry("eq-2-27", "2-27", 32, 19, -1, 8, 5, 4),
    # ground truth: series coefficients against direct enumeration
    _oracle_entry("oracle-c-limit", None),
    _oracle_entry("oracle-ck-1", 1),
    _oracle_entry("oracle-ck-2", 2),
    _oracle_entry("oracle-ck-3", 3),
)


def run_catalogue(ctx: SuiteContext) -> list[ClaimReport]:
    reports: list[ClaimReport] = []
    for entry in CATALOGUE:
        reports.extend(entry.run(ctx))
    return reports


def paper_suite(n_identity: int = 400, n_scan: int = 40000, k_max: int = 2,
                n_congruence: Optional[int] = None) -> list[ClaimReport]:
    ctx = build_suite_context(n_identity, n_scan, k_max, n_congruence)
    return run_catalogue(ctx)


def suite_json(reports: list[ClaimReport], n_identity: int, n_scan: int,
               k_max: int) -> dict:
    return {
        "order_identity": n_identity,
        "order_scan": n_scan,
        "k_max": k_max,
        "claims": [r.to_json_dict() for r in reports],
    }


def all_passed(reports: list[ClaimReport]) -> bool:
    return all(r.status != "fail" for r in reports)


# ------------------------------------------------------------------ scan


def scan_progressions(s: Series, a_max: int, moduli: list[int],
                      n_max: int) -> list[ProgressionClaim]:
    """Every (A <= a_max, B < A, M in moduli) whose residues vanish for all
    sampled n <= n_max. Empirical only: holding on a sample proves nothing."""
    if a_max < 1 or n_max < 0:
        raise ValueError("a_max must be >= 1 and n_max >= 0")
    # deepest read: exponent a*n_max + b with b < a <= a_max
    if a_max * (n_max + 1) > s.order:
        raise ValueError(
            f"scan reads up to exponent {a_max * (n_max + 1) - 1}, "
            f"series order is {s.order}")
    found = []
    zero = zero_series(s.ring, n_max + 1)
    for a in range(1, a_max + 1):
        for b in range(a):
            piece = truncate(dissect(s, a, b), n_max + 1)
            for m in moduli:
                if first_incongruence(piece, zero, m, n_max + 1) is None:
                    found.append(ProgressionClaim(a, b, m, n_max))
    return found
