"""What the benchmark (`perfbench/child.py` and `perfbench/record.py`) needs
of qcong.

The benchmark is run against every revision of the package, so a refactor
that drops a name it imports, changes how it builds a SuiteContext, or
changes the report fields its metrics read must fail here first. The
package exports README's public names, which include every name the
benchmark imports from it, and nothing else.
"""

import ast
import json
import re
import sys
from pathlib import Path

import pytest

import qcong
from qcong import (CATALOGUE, EXACT, MOD64, SuiteContext, b_eulerian,
                   f3_series, omega_series, series_c)
from qcong.catalogue import all_passed

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
README = PERFBENCH.parent / "README.md"
sys.path.insert(0, str(PERFBENCH))

from check import series_sha256  # noqa: E402

SAMPLED_KINDS = ("progression", "relation", "family")

# the child's (SuiteContext field, build function), as its SUITE_SERIES has
SUITE_SERIES = {
    "c_exact": lambda n: series_c(n, EXACT),
    "b_exact": b_eulerian,
    "omega_exact": omega_series,
    "f3_exact": f3_series,
    "c_scan": lambda n: series_c(n, MOD64),
}


def qcong_imports() -> list[tuple[str, str]]:
    """(module, name) for every name child.py and record.py import from
    qcong."""
    return [(node.module, alias.name)
            for script in ("child.py", "record.py")
            for node in ast.walk(ast.parse((PERFBENCH / script).read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "qcong"
            for alias in node.names]


def readme_public_names() -> set[str]:
    """The names in README's public-names list: the bullets that follow the
    line naming `qcong.__all__`."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if "`qcong.__all__`" in line)
    listed = []
    for line in lines[start + 2:]:  # past the blank line before the list
        if not line.startswith(("- ", "  ")):
            break
        listed += re.findall(r"`([A-Za-z_]\w*)`", line)
    return set(listed)


def test_every_imported_name_exists():
    imports = qcong_imports()
    names = {name for _, name in imports}
    assert {"verify_identity", "verify_congruent", "mul_sparse_binomial",
            "SuiteContext", "CATALOGUE", "build_suite_context",
            "run_catalogue"} <= names
    for module, name in imports:
        mod = __import__(module, fromlist=[name])
        assert hasattr(mod, name), f"{module}.{name}"


def test_namespace_is_the_documented_api_and_the_benchmark_imports():
    # the package namespace cannot regrow unnoticed, and a trim cannot drop a
    # name the benchmark imports from the package
    exported = set(qcong.__all__)
    assert len(exported) == len(qcong.__all__)
    for name in exported:
        assert hasattr(qcong, name), name
    documented = readme_public_names()
    benchmark = {name for module, name in qcong_imports() if module == "qcong"}
    assert len(documented) > 30 and benchmark
    assert exported == documented
    assert benchmark <= exported


@pytest.fixture(scope="module")
def suite():
    """The traced child's suite series, its suite context and its catalogue
    reports."""
    with open(PERFBENCH / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    context = ref["suite"]
    built = {field: build(context["series"][field]["order"])
             for field, build in SUITE_SERIES.items()}
    ctx = SuiteContext(**context["orders"], **built)
    reports = {entry.claim_id: entry.run(ctx) for entry in CATALOGUE}
    return ref, built, reports


def test_catalogue_kinds_are_the_child_spans():
    for entry in CATALOGUE:
        assert (entry.kind in ("progression", "relation", "family", "exact",
                               "oracle") or entry.kind.startswith("mod-")), entry


def test_sampled_reports_carry_n_max(suite):
    _, _, reports = suite
    kinds = {entry.claim_id: entry.kind for entry in CATALOGUE}
    sampled = [r for cid, got in reports.items() if kinds[cid] in SAMPLED_KINDS
               for r in got]
    assert len(sampled) == 23
    for r in sampled:
        assert isinstance(r.params["n_max"], int) and r.params["n_max"] >= 0


def test_verdicts_match_the_reference(suite):
    ref, _, reports = suite
    got = {r.claim_id: (r.status, r.witness)
           for rs in reports.values() for r in rs}
    want = {c["id"]: (c["status"], c["witness"])
            for c in ref["published"]["claims"]}
    assert got == want
    assert all_passed([r for rs in reports.values() for r in rs])


def test_series_match_the_reference_hashes(suite):
    # the benchmark gate hashes these five series; a change to str(ring), to
    # the storage or to a builder must fail here too
    ref, built, _ = suite
    for field, series in built.items():
        assert series_sha256(series) == ref["suite"]["series"][field]["sha256"], field
