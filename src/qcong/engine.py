"""Series builders for the two-color counting functions, the identity and
congruence checkers, and the large-order congruence scan. The claim
catalogue, which reads every claim as two expression sides and checks them
with these, lives in `qcong.catalogue`.
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
    dissect,
    eulerian_sum,
    first_incongruence,
    mul_sparse,
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
            piece = dissect(s, a, b).truncate(n_max + 1)
            for m in moduli:
                if first_incongruence(piece, zero, m, n_max + 1) is None:
                    found.append(ProgressionClaim(a, b, m, n_max))
    return found
