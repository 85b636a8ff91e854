"""One benchmark child: a fresh interpreter that runs one workload once.

    python3 perfbench/child.py '{"mode": "timed", "workload": "suite", "seed": 1}'

The child imports qcong from the checkout's `src/`, prints `ready`, runs,
and prints one JSON line with its result. Modes:

- `import`: stop after `ready` (warms the bytecode cache).
- `timed`: run the workload through `qcong.cli.main`, the way a user runs
  the `qcong` command, between two sets of calibration blocks, and check
  every verdict against reference.json.
- `traced`: run the workload as `timed` does, then the same work through
  the layers' public functions with a span around each call, then the layer
  probes, and check every verdict and series checksum against
  reference.json.

Spans are recorded here, around calls into qcong; qcong itself is unchanged.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
from contextlib import contextmanager, redirect_stdout
from io import StringIO
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import qcong
from qcong import (
    CATALOGUE,
    EXACT,
    MOD64,
    Series,
    SuiteContext,
    b_eulerian,
    count_c_limit,
    count_ck,
    dissect,
    euler_fm,
    evaluate,
    f3_series,
    invert,
    mul,
    mul_sparse_binomial,
    omega_series,
    parse,
    series_c,
    verify_congruent,
    verify_identity,
)
from qcong.cli import main as qcong_main

from check import (Tally, check_claims, check_exit, check_series,
                   check_verdict, load_reference)
from workloads import WORKLOADS, suite_argv, verify_argv

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

RINGS = {"exact": EXACT, "mod64": MOD64}

# (SuiteContext field, span name, build function)
SUITE_SERIES = (
    ("c_exact", "engine.series_c.exact", lambda n: series_c(n, EXACT)),
    ("b_exact", "mock_theta.b_eulerian", b_eulerian),
    ("omega_exact", "mock_theta.omega_series", omega_series),
    ("f3_exact", "mock_theta.f3_series", f3_series),
    ("c_scan", "engine.series_c.mod64", lambda n: series_c(n, MOD64)),
)

CHECK_KINDS = ("progression", "relation", "family", "exact", "mod", "oracle")
SAMPLED_KINDS = ("progression", "relation", "family")
ORACLE_NMAX = 25
BINOMIAL_ORDER = 40000
BINOMIAL_CALLS = 1000
EULER_MS = (1, 2, 4, 8, 16)
TRACE_PAIRS = 3
CAL_BLOCKS = 4

# Per-layer metric -> the span name it sums.
LAYER_SPANS = (
    "engine.series_c.mod64", "engine.series_c.exact",
    *(f"engine.check.{kind}" for kind in CHECK_KINDS),
    "mock_theta.b_eulerian", "mock_theta.omega_series", "mock_theta.f3_series",
    "products.euler_fm", "series.mul", "series.invert",
    "series.mul_sparse_binomial.multiply", "series.mul_sparse_binomial.divide",
    "series.dissect", "qexpr.evaluate", "oracle.count",
)


class Tracer:
    """Spans kept in memory: name, start, end, parent span and workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._t0 = perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "workload": self.workload,
                  "start": perf_counter() - self._t0, "end": None}
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = perf_counter() - self._t0

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def children_total(self, parent: int) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] == parent)


def calibrate() -> list[float]:
    """Wall seconds of a fixed mix of the work qcong does (a Python integer
    loop, dense uint64 convolutions, shifted uint64 adds), once per block.
    It runs no qcong code, so only the machine's speed moves it."""
    times = []
    for _ in range(CAL_BLOCKS):
        t0 = perf_counter()
        x = 1
        for i in range(100_000):
            x = (x * 1103515245 + i) & 0xFFFFFFFFFFFF
        a = np.arange(1, 2001, dtype=np.uint64)
        for _ in range(8):
            np.convolve(a, a)
        b = np.arange(1, 20001, dtype=np.uint64)
        for j in range(1, 801):
            b[j:] += b[:-j]
        times.append(perf_counter() - t0)
    return times


def check_kind(entry) -> str:
    return "mod" if entry.kind.startswith("mod-") else entry.kind


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = StringIO()
    with redirect_stdout(out):
        code = qcong_main(argv)
    return code, out.getvalue()


def parse_verdict(stdout: str) -> tuple[str, object]:
    """`pass` or `fail  witness: {...}`, as `qcong verify` prints it."""
    first = stdout.splitlines()[0] if stdout else ""
    status, _, rest = first.partition("  witness: ")
    return status.strip(), json.loads(rest) if rest else None


def claim_rows(reports) -> list[dict]:
    return [{"id": r.claim_id, "status": r.status, "witness": r.witness}
            for r in reports]


# ------------------------------------------------------------------ timed


def timed_suite(tally: Tally, ref: dict) -> float:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"suite-{os.getpid()}.json"
    try:
        t0 = perf_counter()
        code, _ = run_cli(suite_argv(str(path)))
        wall = perf_counter() - t0
        with open(path, encoding="utf-8") as fh:
            claims = json.load(fh)["claims"]
    finally:
        path.unlink(missing_ok=True)
    check_exit(tally, "qcong suite", code, 0)
    check_claims(tally, claims, ref["published"]["claims"])
    return wall


def timed_batch(name: str, rng: random.Random, tally: Tally, ref: dict) -> float:
    wl = WORKLOADS[name]
    items = list(wl["items"])
    rng.shuffle(items)
    wall = 0.0
    for item in items:
        t0 = perf_counter()
        code, stdout = run_cli(verify_argv(item, wl["order"], wl["ring"]))
        wall += perf_counter() - t0
        item_ref = ref["workloads"][name]["items"][item[0]]
        status, witness = parse_verdict(stdout)
        check_verdict(tally, item[0], status, witness, item_ref)
        check_exit(tally, item[0], code, item_ref["exit_code"])
    return wall


# ----------------------------------------------------------------- traced


def suite_block(tracer: Tracer, rng: random.Random, context: dict):
    """Build the suite's shared series and run every catalogue entry, each
    call in its own span. `context` is reference.json's record of the
    SuiteContext that `build_suite_context` makes at the suite's orders."""
    builds = list(SUITE_SERIES)
    rng.shuffle(builds)
    built = {}
    for field, span, build in builds:
        order = context["series"][field]["order"]
        with tracer.span(span, order=order):
            built[field] = build(order)
    ctx = SuiteContext(**context["orders"], **built)
    entries = list(CATALOGUE)
    rng.shuffle(entries)
    reports, kinds = [], {}
    for entry in entries:
        kind = check_kind(entry)
        with tracer.span(f"engine.check.{kind}", claim=entry.claim_id):
            got = entry.run(ctx)
        reports.extend(got)
        kinds.update((r.claim_id, kind) for r in got)
    return built, reports, kinds


def evaluate_sides(tracer: Tracer, item, order: int, ring):
    sides = []
    for side, src in (("lhs", item[1]), ("rhs", item[2])):
        with tracer.span("qexpr.evaluate", item=item[0], side=side):
            sides.append(evaluate(parse(src), order, ring))
    return sides


def verify_item(tracer: Tracer, item, lhs: Series, rhs: Series, order: int):
    with tracer.span("engine.verify", item=item[0]):
        if item[3] is None:
            return verify_identity(lhs, rhs, order)
        return verify_congruent(lhs, rhs, item[3], order)


def batch_block(tracer: Tracer, rng: random.Random, name: str) -> list:
    """Both sides of every batch item, then its verdict, each in a span."""
    wl = WORKLOADS[name]
    ring = RINGS[wl["ring"]]
    items = list(wl["items"])
    rng.shuffle(items)
    results = []
    for item in items:
        lhs, rhs = evaluate_sides(tracer, item, wl["order"], ring)
        report = verify_item(tracer, item, lhs, rhs, wl["order"])
        results.append((item, lhs, rhs, report))
    return results


def binomial_probe(tracer: Tracer, rng: random.Random) -> bool:
    """A fixed batch of sparse-binomial multiplies and divides at order
    40000 mod 2^64; each divide must undo its multiply."""
    with np.errstate(over="ignore"):
        base = Series(MOD64, np.arange(1, BINOMIAL_ORDER + 1, dtype=np.uint64)
                      * np.uint64(0x9E3779B97F4A7C15))
    js = list(range(1, BINOMIAL_CALLS + 1))
    rng.shuffle(js)
    ok = True
    for j in js:
        c = 1 if j % 2 == 0 else -1
        with tracer.span("series.mul_sparse_binomial.multiply"):
            up = mul_sparse_binomial(base, c, j)
        with tracer.span("series.mul_sparse_binomial.divide"):
            back = mul_sparse_binomial(up, c, j, "divide")
        ok = ok and back == base
    return ok


def oracle_probe(tracer: Tracer, rng: random.Random) -> int:
    """count_c_limit and count_ck(k, .) for k in 1..3 and n <= 25; returns
    the number of partitions enumerated."""
    calls = [(None, n) for n in range(ORACLE_NMAX + 1)]
    calls += [(k, n) for k in (1, 2, 3) for n in range(ORACLE_NMAX + 1)]
    rng.shuffle(calls)
    total = 0
    for k, n in calls:
        with tracer.span("oracle.count", k=k, n=n):
            total += count_c_limit(n) if k is None else count_ck(k, n)
    return total


def dissect_probe(tracer: Tracer, rng: random.Random, c_scan: Series,
                  reports, kinds: dict) -> None:
    """The dissections of c_scan that the progression, relation and family
    claims read."""
    pairs = set()
    for r in reports:
        if kinds[r.claim_id] in SAMPLED_KINDS:
            p = r.params
            # c(A*n + B) with B >= A reads the residue class B mod A
            pairs.update((p[a], p[b] % p[a]) for a, b in (
                ("A", "B"), ("A1", "B1"), ("A2", "B2")) if a in p)
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    for a, b in pairs:
        with tracer.span("series.dissect", a=a, b=b):
            dissect(c_scan, a, b)


def workload_probes(tracer: Tracer, rng: random.Random, name: str) -> dict:
    """Probes at the workload's own order and ring; returns the series they
    built, by reference.json key."""
    wl = WORKLOADS[name]
    order, ring = wl["order"], RINGS[wl["ring"]]
    out = {}
    ms = list(EULER_MS)
    rng.shuffle(ms)
    for m in ms:
        with tracer.span("products.euler_fm", m=m, order=order):
            out[f"f{m}"] = euler_fm(m, order, ring)
    with tracer.span("series.invert", order=order):
        out["inv_f1"] = invert(out["f1"])
    with tracer.span("series.mul", order=order):
        out["inv_f1_sq"] = mul(out["inv_f1"], out["inv_f1"])
    if "series_c_exact_order" in wl:
        n = wl["series_c_exact_order"]
        with tracer.span("engine.series_c.exact", order=n):
            out["c_deep"] = series_c(n, EXACT)
    for item in wl.get("probe_items", ()):
        out[f"{item[0]}.lhs"], out[f"{item[0]}.rhs"] = evaluate_sides(
            tracer, item, order, ring)
    return out


def timed(name: str, rng: random.Random, tally: Tally, ref: dict) -> float:
    if WORKLOADS[name]["kind"] == "suite":
        return timed_suite(tally, ref)
    return timed_batch(name, rng, tally, ref)


def traced(name: str, rng: random.Random, tally: Tally, ref: dict) -> dict:
    """The workload untraced and traced, alternately in this process so that
    their difference is the tracing overhead; then the probes and every
    check. Only the last traced pass feeds the per-layer metrics."""
    wl = WORKLOADS[name]
    suite_ref = ref["suite"]
    untraced_s, pipeline_s, pipeline_spans_s = [], [], []
    for _ in range(TRACE_PAIRS):
        untraced_s.append(timed(name, rng, tally, ref))
        tracer = Tracer(name)
        with tracer.span(f"workload.{name}") as root:
            if wl["kind"] == "suite":
                built, reports, kinds = suite_block(tracer, rng, suite_ref)
            else:
                batch = batch_block(tracer, rng, name)
        pipeline_s.append(root["end"] - root["start"])
        pipeline_spans_s.append(tracer.children_total(root["id"]))
    if wl["kind"] != "suite":
        # every traced run covers every layer, so the suite's layers are
        # measured here too, outside the workload's own spans
        with tracer.span("probe.suite"):
            built, reports, kinds = suite_block(tracer, rng, suite_ref)
    with tracer.span("probes"):
        dissect_probe(tracer, rng, built["c_scan"], reports, kinds)
        partitions = oracle_probe(tracer, rng)
        binomial_ok = binomial_probe(tracer, rng)
        probed = workload_probes(tracer, rng, name)

    check_claims(tally, claim_rows(reports), ref["published"]["claims"])
    for field, series in built.items():
        check_series(tally, field, series, suite_ref["series"][field]["sha256"])
    wl_ref = ref["workloads"][name]
    if wl["kind"] == "batch":
        for item, lhs, rhs, report in batch:
            item_ref = wl_ref["items"][item[0]]
            check_verdict(tally, item[0], report.status, report.witness, item_ref)
            check_series(tally, f"{item[0]}.lhs", lhs, item_ref["lhs_sha256"])
            check_series(tally, f"{item[0]}.rhs", rhs, item_ref["rhs_sha256"])
    for key, series in probed.items():
        check_series(tally, key, series, wl_ref["probes"][key])
    tally.expect(partitions == ref["oracle_partitions"],
                 f"oracle: {partitions} partitions, "
                 f"reference {ref['oracle_partitions']}")
    tally.expect(binomial_ok, "sparse binomial: a divide did not undo its multiply")

    metrics = {f"{span}_s": tracer.total(span) for span in LAYER_SPANS}
    metrics["engine.claims"] = len(reports)
    metrics["engine.samples"] = sum(r.params["n_max"] + 1 for r in reports
                                    if kinds[r.claim_id] in SAMPLED_KINDS)
    metrics["oracle.partitions"] = partitions
    return {"layers": metrics, "untraced_s": median(untraced_s),
            "pipeline_s": median(pipeline_s),
            "pipeline_spans_s": median(pipeline_spans_s), "spans": tracer.spans}


# ------------------------------------------------------------------- main


def main() -> int:
    job = json.loads(sys.argv[1])
    origin = Path(qcong.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"error: qcong was imported from {origin}, not from {SRC}",
              file=sys.stderr)
        return 2
    print("ready", flush=True)
    if job["mode"] == "import":
        print(json.dumps({}))
        return 0
    ref = load_reference()
    rng = random.Random(job["seed"])
    tally = Tally()
    name = job["workload"]
    result: dict = {"numpy": np.__version__}
    if job["mode"] == "timed":
        before = calibrate()
        result["wall_s"] = timed(name, rng, tally, ref)
        # blocks on both sides of the work, in the same process, so that
        # they see the machine's speed while the work ran
        result["calibration_s"] = before + calibrate()
    else:
        result.update(traced(name, rng, tally, ref))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
