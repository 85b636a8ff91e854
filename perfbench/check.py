"""Correctness gate: compares what a run produced with reference.json.

Every comparison is one attempted check; a mismatch is one failed check.
This module imports nothing from qcong (a series is read through its public
`ring`, `order` and `coefficients()`), so the gate's own test can feed it
hand-made inputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def series_sha256(series) -> str:
    """sha256 of the ring, order and every coefficient in decimal."""
    text = f"{series.ring}|{series.order}|" + ",".join(
        str(c) for c in series.coefficients())
    return hashlib.sha256(text.encode()).hexdigest()


class Tally:
    """Attempted checks and a description of each failed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def expect(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(problem)


def check_claims(tally: Tally, observed: list[dict], reference: list[dict]) -> None:
    """One check per reference claim: same status and witness. A claim that is
    missing, or reports order-too-small, fails even if the reference agrees,
    since such a claim was not checked at all."""
    seen = {c["id"]: c for c in observed}
    for ref in reference:
        got = seen.pop(ref["id"], None)
        if got is None:
            tally.expect(False, f"claim {ref['id']}: missing")
            continue
        status = got["status"]
        tally.expect(
            status != "order-too-small" and status == ref["status"]
            and got.get("witness") == ref.get("witness"),
            f"claim {ref['id']}: {status} {got.get('witness')}, "
            f"reference {ref['status']} {ref.get('witness')}")
    for cid in seen:
        tally.expect(False, f"claim {cid}: not in the reference")


def check_verdict(tally: Tally, item_id: str, status: str, witness,
                  ref: dict) -> None:
    tally.expect(status == ref["status"] and witness == ref.get("witness"),
                 f"{item_id}: {status} {witness}, "
                 f"reference {ref['status']} {ref.get('witness')}")


def check_exit(tally: Tally, what: str, code: int, expected: int) -> None:
    tally.expect(code == expected, f"{what}: exit code {code}, expected {expected}")


def check_series(tally: Tally, name: str, series, ref_sha256: str) -> None:
    got = series_sha256(series)
    tally.expect(got == ref_sha256, f"series {name}: sha256 {got[:12]}..., "
                                    f"reference {ref_sha256[:12]}...")
