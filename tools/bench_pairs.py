"""Alternating parent/change pairs of the verdict benchmark.

    python3 tools/bench_pairs.py --parent REV --change REV_OR_DIR
        [--workload gate --workload rewrite] [--pairs 10] [--seconds 30]
        [--seed 2801] [--held-out SEED] [--work DIR] --out BENCH_<n>.json

Run from the root of a hallforge checkout.  Each side is a clean copy
made under --work (a temporary directory by default): a git revision of
this repository is exported with `git archive`, and a directory (the
working tree, say) is copied without its caches and `.git`.  Both copies
get freshly compiled bytecode before any run, so neither side pays for
compiling on import (an interpreter that may not write bytecode, as under
PYTHONDONTWRITEBYTECODE, would otherwise compile an edited tree on every
start).  Then, per workload, pair k runs

    python3 benchmarks/run.py --workload W --seed S --seconds T --trace 0

in both copies, the parent first when k is even, on seeds S = --seed,
--seed + 1, ...; with --held-out, one more pair runs on that seed, the
change first.  The output file gets, per workload and end-to-end metric
that BENCHMARK.json declares, each side's median and quartiles
(`statistics.quantiles(n=4)`, exclusive method) and IQR, the pairs the
change wins (ties count for neither side), the change over the parent
per pair and in the median, whether the median gap exceeds the parent's
IQR, whether the change's median is within the metric's bound, and every
run's value; then `median_pair_ratio`, the median of the per-pair ratios
(pairs share the machine's state, so their ratios carry a signal that
the spread of either side's runs hides), and `gain_counts`, true when the
change wins at least 9 of every 10 pairs and its median is better than
the parent's by more than the parent's IQR.  It is rewritten after every pair, so an interrupted series
keeps the pairs it finished.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns("__pycache__", "*.pyc", ".git", ".bench_out",
                                 ".pytest_cache", ".hypothesis")


def clean_copy(source, dest):
    """dest as a clean copy of source, a directory or a git revision of
    this repository, with fresh bytecode; returns the revision's short id,
    or the directory's path."""
    if Path(source).is_dir():
        shutil.copytree(source, dest, ignore=IGNORED)
        label = str(Path(source).resolve())
    else:
        label = subprocess.run(
            ["git", "rev-parse", "--short", source], cwd=ROOT, check=True,
            stdout=subprocess.PIPE, text=True).stdout.strip()
        dest.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", source], cwd=ROOT,
                                 check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive,
                       check=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    "benchmarks"], cwd=dest, check=True,
                   stdout=subprocess.DEVNULL)
    return label


def run_once(tree, workload, seed, seconds):
    """The JSON result of one benchmark run in the copy `tree`."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("bench_pairs: %s %s seed %d printed nothing (exit %d)"
                         % (tree, workload, seed, proc.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def side(values):
    q1, q3 = quartiles(values)
    return {"median": round(statistics.median(values), 4),
            "q1": round(q1, 4), "q3": round(q3, 4), "iqr": round(q3 - q1, 4)}


def summarize(metric, pairs):
    """One metric's summary over pairs of (parent, change) results."""
    lower = metric["better"] == "lower"
    parent = [p["metrics"][metric["name"]]["value"] for p, _ in pairs]
    change = [c["metrics"][metric["name"]]["value"] for _, c in pairs]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ps, cs = side(parent), side(change)
    ratio = cs["median"] / ps["median"] if ps["median"] else None
    worse = None if ratio is None else (ratio - 1 if lower else 1 - ratio)
    ratios = [c / p for p, c in zip(parent, change) if p]
    gain = (ps["median"] - cs["median"]) * (1 if lower else -1)
    return {
        "parent": ps, "change": cs,
        "change_better_in_pairs": "%d/%d" % (wins, len(pairs)),
        "change_over_parent_median":
            None if ratio is None else round(ratio, 4),
        "median_gap_exceeds_parent_iqr":
            abs(cs["median"] - ps["median"]) > ps["iqr"],
        "bound": metric["bound"],
        "worse_than_parent_by": None if worse is None else round(worse, 4),
        "within_bound": worse is not None and worse <= metric["bound"],
        "per_pair_change_over_parent": [round(c / p, 4) if p else None
                                        for p, c in zip(parent, change)],
        "parent_runs": [round(v, 4) for v in parent],
        "change_runs": [round(v, 4) for v in change],
        "median_pair_ratio":
            round(statistics.median(ratios), 4) if ratios else None,
        "gain_counts": wins * 10 >= 9 * len(pairs) and gain > ps["iqr"],
    }


def machine():
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "os": "%s %s" % (platform.system(), platform.release())}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="git revision or directory of the parent side")
    ap.add_argument("--change", required=True,
                    help="git revision or directory of the change side")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: every "
                         "workload BENCHMARK.json declares)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed phase per run (default: BENCHMARK.json's "
                         "run_seconds)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--held-out", type=int, default=None)
    ap.add_argument("--work", type=Path, default=None,
                    help="directory for the two copies (must not exist)")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    work = args.work or Path(tempfile.mkdtemp(prefix="bench_pairs."))
    trees = {"parent": work / "parent", "change": work / "change"}
    labels = {name: clean_copy(getattr(args, name), tree)
              for name, tree in trees.items()}
    bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    report = {
        "what": "Parent against change, `python3 benchmarks/run.py "
                "--workload W --seed S --seconds %g --trace 0` in a clean "
                "copy of each side with fresh bytecode, %d pairs per "
                "workload alternating which side runs first (pair k: parent "
                "first when k is even), seeds %d-%d%s, run one after "
                "another by tools/bench_pairs.py.  Quartiles are "
                "`statistics.quantiles(n=4)` (exclusive method)."
                % (seconds, args.pairs, args.seed, args.seed + args.pairs - 1,
                   "" if args.held_out is None else
                   "; then one held-out pair per workload on seed %d, change "
                   "first" % args.held_out),
        "parent": labels["parent"], "change": labels["change"],
        "machine": machine(), "workloads": {},
    }
    for workload in workloads:
        seeds = [args.seed + k for k in range(args.pairs)]
        entry = report["workloads"][workload] = {"seeds": seeds}
        pairs = []
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else \
                ("change", "parent")
            got = {name: run_once(trees[name], workload, seed, seconds)
                   for name in order}
            pairs.append((got["parent"], got["change"]))
            entry["all_correct"] = all(p["correct"] and c["correct"]
                                       for p, c in pairs)
            entry["summary"] = {m["name"]: summarize(m, pairs)
                                for m in bench["end_to_end"]}
            args.out.write_text(json.dumps(report, indent=1) + "\n")
            print("%s pair %d/%d done" % (workload, k + 1, args.pairs),
                  file=sys.stderr)
        if args.held_out is not None:
            got = {name: run_once(trees[name], workload, args.held_out,
                                  seconds) for name in ("change", "parent")}
            entry["held_out"] = {
                "seed": args.held_out,
                "correct": all(got[name]["correct"] for name in got),
                "metrics": {m["name"]: {
                    side_name: round(got[side_name]["metrics"][m["name"]]
                                     ["value"], 4)
                    for side_name in ("parent", "change")}
                    for m in bench["end_to_end"]}}
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
