"""The benchmark's correctness gate trips on each kind of wrong output.

    python3 -m pytest -q perfbench/test_gate.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from qcong import EXACT, Series  # noqa: E402

from check import (Tally, check_claims, check_series,  # noqa: E402
                   check_verdict, series_sha256)


def test_one_bumped_coefficient_one_flipped_verdict_one_shallow_claim():
    reference_claims = [{"id": cid, "status": "pass", "witness": None}
                        for cid in ("eq-1-2", "eq-1-3", "eq-2-2")]
    coeffs = [0, 1, 2, 5, 8, 14, 24]
    reference_sha = series_sha256(Series(EXACT, coeffs))

    tally = Tally()
    check_claims(tally, [
        {"id": "eq-1-2", "status": "pass", "witness": None},
        {"id": "eq-1-3", "status": "order-too-small", "witness": None},
        {"id": "eq-2-2", "status": "pass", "witness": None},
    ], reference_claims)
    check_verdict(tally, "eq-2-6", "fail", {"n": 3, "lhs": 1, "rhs": 2},
                  {"status": "pass", "witness": None})
    bumped = list(coeffs)
    bumped[4] += 1
    check_series(tally, "c_exact", Series(EXACT, bumped), reference_sha)

    assert tally.attempted == 5
    assert tally.failed == 3, tally.problems


def test_matching_output_passes():
    claims = [{"id": "eq-1-2", "status": "pass", "witness": None}]
    series = Series(EXACT, [0, 1, 2, 5])
    tally = Tally()
    check_claims(tally, claims, claims)
    check_verdict(tally, "eq-2-6", "pass", None, {"status": "pass", "witness": None})
    check_series(tally, "c_exact", series, series_sha256(series))
    assert (tally.attempted, tally.failed) == (3, 0)


def test_order_too_small_fails_even_when_the_reference_says_so():
    claims = [{"id": "eq-1-2", "status": "order-too-small", "witness": None}]
    tally = Tally()
    check_claims(tally, claims, claims)
    assert tally.failed == 1
