"""qcong benchmark runner.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`. With `--trace 0` the runner starts fresh single-threaded
child interpreters one after another, each running the workload once, until
`--seconds` is used up (at least three), and reports the median wall time
and set-up time (both rescaled to a reference machine speed, see CAL_REF_S)
and peak memory. With `--trace 1` it runs one child that runs the workload
untraced and traced (a span around each call into a layer) three times
each, then the per-layer probes. Every child checks its verdicts (and,
traced, its series checksums) against reference.json; a mismatch makes the
run exit 1. The last line of standard output is a JSON summary; per-run
details, environment and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# single-threaded children with one fixed string-hash seed, so that
# iterations differ only by the machine's noise
CHILD_ENV = {"PYTHONHASHSEED": "0", **{name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}}
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 170

# The machine is shared and its speed drifts by 10-25% between 30-second
# windows. Each timed child therefore also times a fixed calibration kernel
# right before and after its work, and wall_s and setup_s are the child's
# raw times rescaled by CAL_REF_S over the child's median calibration block:
# the seconds they would take at the speed where one block takes CAL_REF_S.
# The value (one block's median on a quiet 2-core Intel Xeon VM) only
# sets the scale; raw_wall_s and raw_setup_s are reported beside them.
CAL_REF_S = 0.036
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
UNITS = {"peak_rss_mb": "MB", "engine.claims": "count",
         "engine.samples": "count", "oracle.partitions": "count",
         "trace.coverage": "ratio"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def unit_of(metric: str) -> str:
    return UNITS.get(metric, "s")  # every other metric is a time


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "commit": git_commit(), "seed": seed, "child_env": CHILD_ENV,
            "loadavg_start": os.getloadavg()}


def spawn(job: dict) -> dict:
    """Run one child to completion; set-up is spawn-to-`ready` as seen here.
    A child still running after CHILD_TIMEOUT_S is killed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0 or not rest.strip():
        raise BenchError(f"child {job} exited with code {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def timed_run(name: str, seed: int, seconds: float) -> dict:
    spawn({"mode": "import"})
    samples = []
    t0 = perf_counter()
    while True:
        sample = spawn({"mode": "timed", "workload": name, "seed": seed})
        scale = CAL_REF_S / statistics.median(sample["calibration_s"])
        for metric in ("wall_s", "setup_s"):
            sample["raw_" + metric] = sample[metric]
            sample[metric] *= scale
        samples.append(sample)
        elapsed = perf_counter() - t0
        # stop before an iteration that would likely end past the window
        if (len(samples) >= MIN_ITERATIONS
                and elapsed + elapsed / len(samples) > seconds):
            break
    stats = {m: spread([s[m] for s in samples]) for m in (
        *END_TO_END, "raw_wall_s", "raw_setup_s")}
    stats["calibration_s"] = spread([t for s in samples for t in s["calibration_s"]])
    return {"metrics": {m: stats[m]["median"] for m in END_TO_END},
            "stats": stats, "samples": samples,
            "attempted": sum(s["attempted"] for s in samples),
            "failed": sum(s["failed"] for s in samples),
            "problems": [p for s in samples for p in s["problems"]]}


def traced_run(name: str, seed: int) -> dict:
    spawn({"mode": "import"})
    traced = spawn({"mode": "traced", "workload": name, "seed": seed})
    metrics = traced.pop("layers")
    metrics["trace.coverage"] = traced["pipeline_spans_s"] / traced["untraced_s"]
    metrics["trace.overhead_s"] = traced["pipeline_s"] - traced["untraced_s"]
    return dict(traced, metrics=metrics)


def report(name: str, run: dict) -> None:
    for problem in run["problems"]:
        print(f"{name}: FAILED {problem}")
    stats = run.get("stats", {})
    for metric, value in run["metrics"].items():
        if metric not in stats:
            print(f"{name:<18} {metric:<40} {value:>12.6g} {unit_of(metric)}")
    for metric, s in stats.items():
        print(f"{name:<18} {metric:<40} {s['median']:>12.6g} {unit_of(metric)}"
              f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    ratio = run["failed"] / run["attempted"]
    print(f"{name:<18} {'fail_ratio':<40} {ratio:>12.6g} ratio"
          f"  ({run['failed']} of {run['attempted']} checks)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in (ROOT / "src" / "qcong" / "__init__.py",
                           HERE / "reference.json") if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            env = environment(args.seed)
            if args.trace:
                run = traced_run(name, args.seed)
            else:
                run = timed_run(name, args.seed, args.seconds)
            env["loadavg_end"] = os.getloadavg()
            report(name, run)
            kind = "trace" if args.trace else "run"
            path = OUT / f"{kind}-{name}-seed{args.seed}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(dict(run, workload=name, environment=env), fh, indent=1)
            summary["attempted"] += run["attempted"]
            summary["failed"] += run["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, value in run["metrics"].items():
                summary["metrics"][prefix + metric] = {
                    "value": value, "unit": unit_of(metric)}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
