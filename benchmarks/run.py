"""hallforge verdict benchmark.

    python3 benchmarks/run.py --workload {gate,rewrite,classes} --seed N
        --seconds S --trace {0,1}

Run from the root of a checkout.  BENCHMARK.json declares `gate` and
`rewrite`; `classes` is for running by hand.  Each workload runs in a fresh
interpreter (`worker.py`), so set-up time and peak memory belong to that
workload alone.  With ``--trace 0`` the workload is then set up again in
interpreters that stop before the timed phase, up to three set-ups in all
while they have taken under 10 s, and `setup_s` is their median.  With
``--trace 1`` the worker runs one more verdict with every layer wrapped
and the per-layer metrics are printed instead.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it are a readable summary.  The exit code is
nonzero when any check failed.
See README.md in this directory.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gate", "rewrite", "classes")
# set-ups per run, as long as those so far took less than the budget: a
# cheap set-up is repeated and the median taken, rewrite's ~17 s one is not
SETUPS = 3
SETUP_BUDGET_S = 10
TIMEOUT_S = 175

END_TO_END = (
    ("verdict_s", "s"), ("checks_per_s", "1/s"), ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"), ("cpu_s", "s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = tuple(
    [(layer + kind, unit) for layer in LAYERS
     for kind, unit in ((".calls", "count"), (".self_s", "s"))]
    + [("backend.iso_classes.cold_s", "s"),
       ("backend.is_iso.calls", "count"),
       ("backend.subobject_pairs.calls", "count"),
       ("fq.rref.calls", "count"),
       ("backend.memo_entries", "count"),
       ("backend.classes_registered", "count"),
       ("scalars.mul.calls", "count"),
       ("presented.normal_form.calls", "count"),
       ("presented.nf_terms", "count"),
       ("hall.hmult.calls", "count"),
       ("morphisms.apply_hom.calls", "count"),
       ("exprs.render_elt.calls", "count"),
       ("exprs.render_chars", "count"),
       ("suites.thread_wait_s", "s"),
       ("trace.overhead_ratio", "ratio")])


class BenchError(Exception):
    pass


def run_worker(args, flag, deadline):
    """Start worker.py; returns (launch time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + ([flag] if flag else [])
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=deadline - launched)
    except subprocess.TimeoutExpired:
        raise BenchError("worker for %s did not finish in time" % args.workload)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker for %s exited with %d"
                         % (args.workload, proc.returncode))
    return launched, json.loads(lines[-1])


def percentile(values, pct):
    """Inclusive-method percentile; the largest value for tiny samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(res, setups):
    walls, lat = res["walls"], res["latencies"]
    verdict_s = statistics.median(walls)
    return {
        "verdict_s": verdict_s,
        "checks_per_s": res["checks_per_verdict"] / verdict_s,
        "req_p50_ms": statistics.median(lat) * 1e3,
        "req_p99_ms": percentile(lat, 99) * 1e3,
        "cpu_s": statistics.median(res["cpus"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hallforge" / "__init__.py").is_file():
        print("run.py: no hallforge source at %s; run from the root of a "
              "hallforge checkout" % (ROOT / "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S

    try:
        launched, res = run_worker(args, "--trace" if args.trace else None,
                                   deadline)
        setups = [res["setup_end"] - launched]
        while (not args.trace and len(setups) < SETUPS
               and sum(setups) < SETUP_BUDGET_S):
            launched, extra = run_worker(args, "--setup-only", deadline)
            setups.append(extra["setup_end"] - launched)
    except BenchError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1

    if not res["latencies"]:
        for msg in res["messages"]:
            print("  FAIL %s" % msg)
        print("run.py: no request of %s finished" % args.workload,
              file=sys.stderr)
        return 1
    if args.trace:
        values, table = res["layers"], PER_LAYER
    else:
        values, table = end_to_end(res, setups), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in table}

    print("workload %s, seed %d, %d verdict(s) of %d checks, %d thread(s)"
          % (args.workload, args.seed, len(res["walls"]),
             res["checks_per_verdict"], res["threads"]))
    for name, unit in table:
        print("  %-32s %14.6g %s" % (name, values[name], unit))
    print("  %-32s %14d %s" % ("requests (p50/p99 samples)",
                               len(res["latencies"]), "count"))
    print("  %-32s %14.6g %s" % ("fail_ratio",
                                 res["failed"] / max(res["attempted"], 1),
                                 "ratio"))
    if args.trace:
        cost = res["wrapper_cost_us"]
        print("  self times are thread CPU time per verdict, less the"
              " calibrated wrapper cost (%.2f us outside a span, %.2f us"
              " inside, %.2f us per same-layer call); they add up to %.4g s"
              " against an untraced cpu_s of %.4g s, the rest being tracing"
              " cost the calibration misses"
              % (cost["outside_span"], cost["inside_span"],
                 cost["same_layer"], res["self_sum_s"],
                 statistics.median(res["cpus"])))
        print("  spans written to %s (%d dropped over the in-memory cap);"
              " scalars and fq calls are timed but keep no span record"
              % (res["spans_file"], res["spans_dropped"]))
    for msg in res["messages"]:
        print("  FAIL %s" % msg)
    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
