"""The names the benchmark reads off the package, exercised at tier 1.

`benchmarks/` drives hallforge through module and backend attributes
(`backend.make_backend`, `be.p`, `be.classes_within`, the memo tables
`workloads.memo_sizes` reads, ...).  A renamed or deleted one would only
fail a benchmark run; these smoke runs fail here instead.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from oracles import Tally, check_gate_report  # noqa: E402


def test_rewrite_triples_check_through_the_workload():
    wl = workloads.Rewrite(1)
    tally = Tally()
    for index, (alg, words) in enumerate(wl.triples):
        if index % 100 == 0:
            wl._check(tally, alg, words, index)
    assert tally.attempted == len(range(0, len(wl.triples), 100))
    assert tally.failed == 0, tally.messages
    memo, classes = workloads.memo_sizes(wl.be)
    assert memo > 0 and classes > 0


def test_a_gate_run_matches_its_pin():
    label = "backend-oracle q=2 quiver=a1"
    (run,) = [r for r in workloads.Gate(0).runs if r[0] == label]
    _, cfg, count, digest = run
    assert digest is not None
    tally = Tally()
    check_gate_report(tally, label, workloads.suites.run_suite(cfg), count,
                      digest)
    assert tally.attempted > count and tally.failed == 0, tally.messages


def test_the_cold_call_test_reads_the_backends_dimvec_table():
    # `workloads.install_tracing` times an iso_classes call as cold when
    # its dimvec is not a key of the backend's `_dimvec_classes`, read with
    # getattr and a default: a renamed table would count every call as
    # cold and raise nothing
    be = workloads.backend.make_backend("a2", 2)
    assert (1, 1) not in be._dimvec_classes
    ids = be.iso_classes((1, 1))
    assert be._dimvec_classes[(1, 1)] == ids


def test_bench_pairs_summary_reads_the_pair_ratios():
    sys.path.insert(0, str(BENCH.parent / "tools"))
    try:
        import bench_pairs
    finally:
        sys.path.remove(str(BENCH.parent / "tools"))
    metric = {"name": "verdict_s", "better": "lower", "bound": 0.25}

    def pairs(parent, change):
        return [({"metrics": {"verdict_s": {"value": p}}},
                 {"metrics": {"verdict_s": {"value": c}}})
                for p, c in zip(parent, change)]

    parent = [1.0, 1.1, 0.9, 1.2, 1.0, 0.8, 1.05, 0.95, 1.0, 1.1]
    faster = [0.5 * v for v in parent]
    got = bench_pairs.summarize(metric, pairs(parent, faster))
    assert got["median_pair_ratio"] == 0.5 and got["gain_counts"]
    assert got["change_better_in_pairs"] == "10/10"
    # 8 wins in 10 pairs do not count, however large the median gap
    mixed = faster[:8] + [2 * v for v in parent[8:]]
    got = bench_pairs.summarize(metric, pairs(parent, mixed))
    assert got["median_pair_ratio"] == 0.5 and not got["gain_counts"]
    # every pair won, but by less than the parent's IQR
    close = [v - 0.01 for v in parent]
    got = bench_pairs.summarize(metric, pairs(parent, close))
    assert got["change_better_in_pairs"] == "10/10"
    assert not got["gain_counts"]
    higher = dict(metric, better="higher")
    assert bench_pairs.summarize(higher, pairs(faster, parent))["gain_counts"]
