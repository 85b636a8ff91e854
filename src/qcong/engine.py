"""Series builders for the two-color counting functions, claim checkers,
and the large-order congruence scan. The claim catalogue that drives the
checkers lives in `qcong.catalogue`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .mock_theta import c_appell
from .products import pentagonal_series
from .series import (
    EXACT,
    CoefficientRing,
    Series,
    check_modulus,
    eulerian_sum,
    first_incongruence,
    mul_sparse,
    scalar_mul,
    zero_series,
)


# ---------------------------------------------------------------- series


def series_c(order: int, ring: CoefficientRing = EXACT) -> Series:
    """Generating series of the counts c(n): sum over n >= 0 of
    q^(2n+1) * (-q^(2n+2); q^2)_inf / (q^(2n+1); q^2)_inf^2, built by the
    route `c_builder` names for the ring."""
    if c_builder(ring) == "sum":
        return _c_sum(order, ring, None)
    return c_appell(order, ring)


def c_builder(ring: CoefficientRing) -> str:
    """The route `series_c` takes in `ring`: eq 2-2 mod 2^w; the sum of the
    definition in the exact ring, where it is the reference that claim eq-2-2
    is checked against (built by eq 2-2, C would check itself). Exact eq 2-2
    is about as fast: 16/70/272 ms against 24/78/232 ms at order 800/1600/2800."""
    return "sum" if ring.kind == "exact" else "eq-2-2-appell"


def series_ck(k: int, order: int, ring: CoefficientRing = EXACT) -> Series:
    """Generating series of the counts c(k, n): sum over n >= 0 of
    q^(2n+1) * (-q^(2n+2k), -q^(2n+2); q^2)_inf / (q^(2n+1); q^2)_inf^2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _c_sum(order, ring, k)


def _c_sum(order: int, ring: CoefficientRing, k: Optional[int]) -> Series:
    if order < 1:
        raise ValueError("order must be >= 1")
    # Term n is q^(2n+1) * u_n. (-q^2; q^2)_inf = f4/f2 and (q; q^2)_inf = f1/f2
    # give u_0 = f2*f4/f1^2 for c and f4^2/f1^2/(-q^2; q^2)_(k-1) for c_k, built
    # from the sparse pentagonal series of f1, f2, f4.
    f1, f4 = ({e: x for e, x in enumerate(pentagonal_series(m, order, ring)
                                           .coefficients()) if x} for m in (1, 4))
    u = mul_sparse(pentagonal_series(2 if k is None else 4, order, ring), f4)
    u = mul_sparse(mul_sparse(u, f1, "divide"), f1, "divide")
    first = (1, [], [] if k is None else [(1, j) for j in range(2, min(2 * k, order), 2)])
    # u_(n+1) = u_n * (1 - q^j)^2 / (1 + q^(j+1)) [/ (1 + q^(j+2k-1))], j = 2n+1
    rest = ((j + 2, [(-1, j)] * 2, [(1, j + 1)] + ([] if k is None else [(1, j + 2 * k - 1)]))
            for j in range(1, order, 2))
    return eulerian_sum(u, chain([first], rest))


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


# ---------------------------------------------------------------- checks


def _samples(s: Series, a: int, b: int, count: int) -> Series:
    """s[a*n + b] at q^n for 0 <= n < count."""
    return Series._wrap(s.ring, s._c[b::a][:count])


def check_progression(s: Series, a: int, b: int, modulus: int,
                      n_max: Optional[int] = None, claim_id: str = "progression",
                      paper_eq: str = "") -> ClaimReport:
    """Pass iff coefficient(s, a*n + b) == 0 mod `modulus` for 0 <= n <= n_max
    (default: every in-range n)."""
    if a < 1 or b < 0:
        raise ValueError("progression needs a >= 1, b >= 0")
    return _check_sampled(s, (a, b), 0, (a, b), modulus, n_max, claim_id,
                          paper_eq, {"A": a, "B": b})


def check_relation(s: Series, a1: int, b1: int, sign: int, a2: int, b2: int,
                   modulus: int, n_max: Optional[int] = None,
                   claim_id: str = "relation", paper_eq: str = "") -> ClaimReport:
    """Pass iff coefficient(s, a1*n+b1) == sign * coefficient(s, a2*n+b2)
    mod `modulus` for 0 <= n <= n_max (default: every in-range n)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if a1 < 1 or a2 < 1 or b1 < 0 or b2 < 0:
        raise ValueError("relation needs a1, a2 >= 1 and b1, b2 >= 0")
    return _check_sampled(s, (a1, b1), sign, (a2, b2), modulus, n_max, claim_id,
                          paper_eq, {"A1": a1, "B1": b1, "sign": sign, "A2": a2,
                                     "B2": b2})


def _check_sampled(s: Series, lhs: tuple[int, int], sign: int,
                   rhs: tuple[int, int], modulus: int, n_max: Optional[int],
                   claim_id: str, paper_eq: str, params: dict) -> ClaimReport:
    """The body of both sampled checks: s[a1*n + b1] == sign * s[a2*n + b2]
    mod `modulus` for 0 <= n <= n_max, with (a1, b1) = lhs and (a2, b2) =
    rhs. Sign 0 makes the right side zero: a progression, whose witness
    has no `other`. `params` gets the range and ring."""
    check_modulus(s.ring, modulus)
    (a1, b1), (a2, b2) = lhs, rhs
    in_range = min((s.order - 1 - b1) // a1, (s.order - 1 - b2) // a2)
    if n_max is None:
        n_max = in_range
    params = dict(params, modulus=modulus, n_max=n_max, order=s.order,
                  ring=str(s.ring))
    if n_max < 0 or n_max > in_range:
        return ClaimReport(claim_id, paper_eq, "order-too-small", params)
    count = n_max + 1
    rhs_samples = scalar_mul(sign, _samples(s, a2, b2, count))
    n = first_incongruence(_samples(s, a1, b1, count), rhs_samples, modulus, count)
    if n is None:
        return ClaimReport(claim_id, paper_eq, "pass", params)
    value, other = s[a1 * n + b1], s[a2 * n + b2]
    witness = {"n": n, "argument": a1 * n + b1, "value": value,
               **({"other": other} if sign else {}),
               "residue": (value - sign * other) % modulus}
    return ClaimReport(claim_id, paper_eq, "fail", params, witness)


def verify_identity(lhs: Series, rhs: Series, n: int,
                    claim_id: str = "identity", paper_eq: str = "") -> ClaimReport:
    """Pass iff lhs and rhs agree coefficientwise for exponents < n."""
    params = {"order": n, "ring": str(lhs.ring)}
    i = first_incongruence(lhs, rhs, None, n)
    if i is None:
        return ClaimReport(claim_id, paper_eq, "pass", params)
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
            piece = _samples(s, a, b, n_max + 1)
            for m in moduli:
                if first_incongruence(piece, zero, m, n_max + 1) is None:
                    found.append(ProgressionClaim(a, b, m, n_max))
    return found
