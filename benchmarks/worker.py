"""One workload in a fresh interpreter; `run.py` starts it.

    python3 benchmarks/worker.py --workload W --seed N --seconds S
        [--trace] [--setup-only]

Setup makes the inputs from the seed and does the workload's untimed
warm-up.  The timed phase then repeats whole verdicts until `--seconds`
have passed and the workload's minimum count is reached.  With `--trace`
the minimum is one verdict, and one more verdict then runs with every
layer wrapped.  The last line of standard output is
one JSON object; `setup_end` is the `time.monotonic()` reading at the
first timed call, which `run.py` subtracts from its own reading taken
just before it started this interpreter (both are CLOCK_MONOTONIC).
"""

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from oracles import Tally  # noqa: E402
from tracer import BENCH, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, install_tracing, memo_sizes  # noqa: E402

SPANS_DIR = ROOT / ".bench_out"


def _untraced(name):
    return contextlib.nullcontext()


def timed_phase(wl, tally, seconds, iterations=None, request=_untraced,
                min_verdicts=None):
    """Run verdicts until `seconds` have passed and there are at least
    `min_verdicts` (the workload's minimum by default), or exactly
    `iterations` verdicts; returns per-verdict wall and CPU times and the
    request latencies."""
    if min_verdicts is None:
        min_verdicts = wl.min_verdicts
    clock = time.perf_counter
    walls, cpus, latencies = [], [], []
    start = clock()
    while True:
        w0, c0 = clock(), time.process_time()
        wl.verdict(tally, request, latencies, clock)
        walls.append(clock() - w0)
        cpus.append(time.process_time() - c0)
        if iterations is None:
            if clock() - start >= seconds and len(walls) >= min_verdicts:
                break
        elif len(walls) == iterations:
            break
    return walls, cpus, latencies


def layer_metrics(tracer, wl, untraced_walls, untraced_cpus, traced_walls):
    """Per-layer metrics, per verdict, from a finished traced phase."""
    verdicts = len(traced_walls)
    calls, _, _, extra = tracer.totals()
    self_s = tracer.self_times()
    out = {}
    for layer in LAYERS:
        out[layer + ".calls"] = sum(
            n for k, n in calls.items() if k.startswith(layer + ".")) / verdicts
        out[layer + ".self_s"] = self_s.get(layer, 0.0) / verdicts
    for key in ("backend.is_iso", "backend.subobject_pairs", "fq.rref",
                "scalars.mul", "presented.normal_form", "hall.hmult",
                "morphisms.apply_hom", "exprs.render_elt"):
        out[key + ".calls"] = calls.get(key, 0) / verdicts
    for key in ("backend.iso_classes.cold_s", "presented.nf_terms",
                "exprs.render_chars"):
        out[key] = extra.get(key, 0) / verdicts
    memo = classes = 0
    for be in wl.backends(tracer):
        m, c = memo_sizes(be)
        memo += m
        classes += c
    out["backend.memo_entries"] = memo
    out["backend.classes_registered"] = classes
    verdict_s = statistics.median(untraced_walls)
    out["suites.thread_wait_s"] = (wl.threads * verdict_s
                                   - statistics.median(untraced_cpus))
    out["trace.overhead_ratio"] = statistics.median(traced_walls) / verdict_s
    return out


def write_spans(tracer, path):
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        for sid, parent, name, t0, t1, thread in tracer.spans():
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": t0, "end": t1,
                                 "thread": thread}) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tally = Tally()
    wl = WORKLOADS[args.workload](args.seed)
    wl.warm(tally)
    result = {"setup_end": time.monotonic()}
    if args.setup_only:
        print(json.dumps(result))
        return

    # a traced run needs only one untraced verdict to compare against
    walls, cpus, latencies = timed_phase(
        wl, tally, args.seconds, min_verdicts=1 if args.trace else None)
    result.update(walls=walls, cpus=cpus, latencies=latencies,
                  checks_per_verdict=wl.checks_per_verdict,
                  threads=wl.threads)
    if args.trace:
        tracer = Tracer()
        install_tracing(tracer, wl)
        try:
            traced_walls, _, _ = timed_phase(
                wl, tally, args.seconds, iterations=1,
                request=lambda name: tracer.span(BENCH, name))
        finally:
            tracer.uninstall()
        result["layers"] = layer_metrics(tracer, wl, walls, cpus,
                                         traced_walls)
        spans_file = SPANS_DIR / ("spans-%s-%d.jsonl"
                                  % (args.workload, args.seed))
        write_spans(tracer, spans_file)
        result["spans_file"] = str(spans_file.relative_to(ROOT))
        result["spans_dropped"] = tracer.spans_dropped()
        result["self_sum_s"] = sum(result["layers"][layer + ".self_s"]
                                   for layer in LAYERS)
        result["wrapper_cost_us"] = {
            "outside_span": tracer.frame_cost * 1e6,
            "inside_span": tracer.inside_cost * 1e6,
            "same_layer": tracer.count_cost * 1e6}
    result.update(attempted=tally.attempted, failed=tally.failed,
                  messages=tally.messages,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
