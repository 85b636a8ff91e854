"""Golden reports, compared byte for byte with files under tests/data.

The files hold the full reports, params and witnesses included, so a change
to a checker that keeps every status but moves a witness or a parameter
shows here:

- `suite-200-10000-2.txt` and `.json`: the stdout and the `--json` document
  of `qcong suite --order-identity 200 --order-scan 10000 --kmax 2`;
- one catalogue run per negative control at the engine tests' small
  context, each a context series plus one monomial: `c_scan + 4*q^12`
  (eq-2-18 and eq-a-1, mod 8, and eq-2-3 see it), `c_scan + q^12` (a
  progression, a family member, a relation, three congruence rows and
  eq-2-3 fail) and `c_exact + q^7` (the identity rows that read C, and
  the oracle);
- `oracle-limit-40.txt`, `oracle-k1-36.txt` and `oracle-k3-36.txt`: the
  stdout of `qcong oracle --k limit --nmax 40`, `--k 1 --nmax 36` and
  `--k 3 --nmax 36`, recorded with the leaf-by-leaf count, which walked
  every counted partition; they reach past n = 25, where the tests compare
  the counts with `enumerate_ck`.

Regenerate a file only for a change that is meant to alter the reports.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from qcong import EXACT, build_suite_context, mod2pow, run_catalogue
from qcong.cli import main
from qcong.series import monomial

DATA = Path(__file__).resolve().parent / "data"
SMALL = dict(n_identity=80, n_scan=1200, k_max=1)


def test_suite_text_and_json(tmp_path, capsys):
    path = tmp_path / "suite.json"
    assert main(["suite", "--order-identity", "200", "--order-scan", "10000",
                 "--kmax", "2", "--json", str(path)]) == 0
    assert capsys.readouterr().out == (DATA / "suite-200-10000-2.txt").read_text()
    assert path.read_bytes() == (DATA / "suite-200-10000-2.json").read_bytes()


@pytest.fixture(scope="module")
def ctx():
    return build_suite_context(**SMALL)


@pytest.mark.parametrize("name, field, ring, exponent, c", [
    ("c_scan-plus-4q12", "c_scan", mod2pow(8), 12, 4),
    ("c_scan-plus-q12", "c_scan", mod2pow(8), 12, 1),
    ("c_exact-plus-q7", "c_exact", EXACT, 7, 1),
])
def test_negative_control_reports(ctx, name, field, ring, exponent, c):
    s = getattr(ctx, field)
    assert s.ring == ring  # the files hold witness values in this ring
    bad = dataclasses.replace(
        ctx, **{field: s + monomial(s.ring, s.order, exponent, c)})
    got = json.dumps([r.to_json_dict() for r in run_catalogue(bad)],
                     indent=2) + "\n"
    assert got == (DATA / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, k, nmax", [
    ("oracle-limit-40", "limit", 40),
    ("oracle-k1-36", "1", 36),
    ("oracle-k3-36", "3", 36),
])
def test_oracle_tables(capsys, name, k, nmax):
    assert main(["oracle", "--k", k, "--nmax", str(nmax)]) == 0
    assert capsys.readouterr().out == (DATA / f"{name}.txt").read_text()
