"""Record reference.json from the program in the checkout's `src/`.

    python3 perfbench/record.py

Run once, at the commit whose output is the reference; it takes about two
minutes on a 2-core machine, most of it the order-40000 scan of the
published suite run. A benchmark run fails every check whose result differs
from this file, so re-record only in a change that means to alter verdicts
or series.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qcong import build_suite_context, run_catalogue  # noqa: E402

from check import REFERENCE_PATH, series_sha256  # noqa: E402
from child import (SUITE_SERIES, Tracer, batch_block,  # noqa: E402
                   claim_rows, oracle_probe, parse_verdict, run_cli,
                   workload_probes)
from run import git_commit  # noqa: E402
from workloads import PUBLISHED, SUITE, WORKLOADS, verify_argv  # noqa: E402


def suite_args(orders: dict) -> tuple[int, int, int]:
    return orders["order_identity"], orders["order_scan"], orders["kmax"]


def main() -> int:
    published = claim_rows(run_catalogue(build_suite_context(*suite_args(PUBLISHED))))
    ctx = build_suite_context(*suite_args(SUITE))
    if claim_rows(run_catalogue(ctx)) != published:
        print("error: the suite's verdicts differ from the published run's",
              file=sys.stderr)
        return 1
    ref = {
        "recorded_from": git_commit(),
        "published": dict(PUBLISHED, claims=published),
        "suite": {
            "orders": {"n_identity": ctx.n_identity,
                       "n_congruence": ctx.n_congruence,
                       "n_scan": ctx.n_scan, "k_max": ctx.k_max},
            "series": {
                field: {"order": getattr(ctx, field).order,
                        "ring": str(getattr(ctx, field).ring),
                        "sha256": series_sha256(getattr(ctx, field))}
                for field, _, _ in SUITE_SERIES},
        },
        "workloads": {},
    }
    rng = random.Random(0)
    tracer = Tracer("record")
    for name, wl in WORKLOADS.items():
        entry: dict = {}
        if wl["kind"] == "batch":
            entry["items"] = {}
            for item, lhs, rhs, report in batch_block(tracer, rng, name):
                code, stdout = run_cli(verify_argv(item, wl["order"], wl["ring"]))
                if parse_verdict(stdout) != (report.status, report.witness):
                    print(f"error: {item[0]}: the CLI and the library disagree",
                          file=sys.stderr)
                    return 1
                entry["items"][item[0]] = {
                    "status": report.status, "witness": report.witness,
                    "exit_code": code, "lhs_sha256": series_sha256(lhs),
                    "rhs_sha256": series_sha256(rhs)}
        entry["probes"] = {key: series_sha256(s) for key, s in
                           workload_probes(tracer, rng, name).items()}
        ref["workloads"][name] = entry
    ref["oracle_partitions"] = oracle_probe(tracer, rng)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
