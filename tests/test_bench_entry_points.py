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
