"""Self-tests of the benchmark's own code: python3 -m pytest benchmarks"""

import sys
import threading
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from hallforge.fq import gl_order  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from oracles import (Tally, check_class_table, check_gate_report,  # noqa: E402
                     check_triple, orbit_identity, report_digest)
from tracer import BENCH, Tracer  # noqa: E402
from workloads import WORKLOADS, Rewrite  # noqa: E402


class FakeClock:
    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


def test_self_time_on_nested_span_tree():
    # bench [0,10] > presented [1,9] > {scalars [2,3], backend [4,8] >
    # {backend (same layer, no span), fq [5,6]}}
    tr = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 8, 9, 10]))
    bench = tr.enter(BENCH, "request")
    pres = tr.enter("presented", "presented.pmult")
    tr.exit(tr.enter("scalars", "scalars.mul"))
    be = tr.enter("backend", "backend.hall_number")
    assert tr.enter("backend", "backend.class_dim") is None
    tr.exit(tr.enter("fq", "fq.rref"))
    tr.exit(be)
    tr.exit(pres)
    tr.exit(bench)

    calls, self_s, _, _ = tr.totals()
    assert self_s == {BENCH: 2, "presented": 3, "scalars": 1,
                      "backend": 3, "fq": 1}
    assert calls["backend.class_dim"] == 1
    assert sum(calls.values()) == 6
    spans = {name: (sid, parent) for sid, parent, name, *_ in tr.spans()}
    # leaf layers keep no span record; the others link to their parent
    assert set(spans) == {"request", "presented.pmult", "backend.hall_number"}
    assert spans["presented.pmult"][1] == spans["request"][0]
    assert spans["backend.hall_number"][1] == spans["presented.pmult"][0]
    assert tr.spans_dropped() == 0


def test_span_records_are_capped_over_all_threads():
    tr = Tracer(clock=FakeClock(range(100)), max_spans=2)

    def one_span():
        tr.exit(tr.enter("hall", "hall.hmult"))

    one_span()
    worker_thread = threading.Thread(target=lambda: [one_span(), one_span()])
    worker_thread.start()
    worker_thread.join(timeout=10)
    assert not worker_thread.is_alive()
    assert len(tr.spans()) == 2 and tr.spans_dropped() == 1
    assert tr.totals()[0] == {"hall.hmult": 3}


def test_wrapper_cost_is_taken_out_of_self_time():
    tr = Tracer(clock=FakeClock([0, 1, 2, 10]))
    tr.frame_cost, tr.count_cost, tr.inside_cost = 0.5, 0.25, 0.125
    outer = tr.enter("presented", "presented.pmult")
    assert tr.enter("presented", "presented.embed") is None
    tr.exit(tr.enter("scalars", "scalars.mul"))
    tr.exit(outer)
    _, raw, cost, _ = tr.totals()
    assert raw == {"presented": 9, "scalars": 1}
    # presented: the span it opened, its same-layer call, its own wrapper
    assert cost == {"presented": 0.5 + 0.25 + 0.125, "scalars": 0.125}
    assert tr.self_times() == {"presented": 8.125, "scalars": 0.875}


def _module(name, source):
    mod = types.ModuleType(name)
    exec(source, mod.__dict__)
    return mod


def test_install_rebinds_imported_names_and_uninstall_restores():
    lib = _module("lib", "def f(x):\n    return x + 1\n\n"
                         "class C:\n    def g(self):\n        return f(1)\n"
                         "    def __mul__(self, o):\n        return 3\n"
                         "    __rmul__ = __mul__\n")
    user = _module("user", "")
    user.f = lib.f  # as `from .lib import f` would
    original = lib.f
    tr = Tracer()
    tr.install([lib, user], {"lib": lib})
    assert user.f is lib.f and lib.f is not original
    assert user.f(1) == 2 and lib.C().g() == 2
    assert lib.C() * 2 == 3 and 2 * lib.C() == 3
    calls = tr.totals()[0]
    assert calls == {"lib.f": 2, "lib.g": 1, "lib.mul": 2}
    tr.uninstall()
    assert lib.f is original and user.f is original
    assert "wrapped" not in repr(lib.C.__dict__["g"])


def test_layer_metrics_cover_every_per_layer_name():
    class Fake:
        threads = 1

        def backends(self, tracer):
            return []

    got = worker.layer_metrics(Tracer(), Fake(), [2.0], [1.5], [3.0])
    assert set(got) == {name for name, _ in run.PER_LAYER}
    assert got["trace.overhead_ratio"] == 1.5
    assert got["suites.thread_wait_s"] == 0.5


def test_workload_names_agree():
    assert set(run.WORKLOADS) == set(WORKLOADS)


def test_rewrite_inputs_follow_the_seed():
    def words(seed):
        return [(alg.tag, w) for alg, w in Rewrite(seed).triples]

    assert words(7) == words(7)
    assert words(7) != words(8)
    assert len(words(7)) == Rewrite.checks_per_verdict


def _report(**kw):
    rep = {"suite": "green", "instances": 10, "passes": 10, "failures": [],
           "cap_hits": 0, "elapsed_ms": 5, "timestamp": "t0"}
    rep.update(kw)
    return rep


def test_gate_oracle():
    pin = report_digest(_report())
    assert report_digest(_report(elapsed_ms=9, timestamp="t1")) == pin
    ok = Tally()
    check_gate_report(ok, "green", _report(), 10, pin)
    assert (ok.attempted, ok.failed) == (12, 0)

    for rep, want in ((_report(passes=9, failures=[{}]), 10),  # wrong verdict
                      (_report(passes=9, cap_hits=1), 10),     # cap hit
                      (_report(), 11)):                        # count off
        tally = Tally()
        check_gate_report(tally, "green", rep, want, report_digest(rep))
        assert tally.failed == 1, rep

    tally = Tally()
    check_gate_report(tally, "green", _report(suite="psi"), 10, pin)
    assert tally.failed == 1 and "digest" in tally.messages[0]


def test_triple_oracle():
    for left, right, nf, failed in ((1, 1, 1, 0), (1, 2, 1, 1),
                                    (1, 1, 2, 1)):
        tally = Tally()
        check_triple(tally, "hd", left, right, nf)
        assert (tally.attempted, tally.failed) == (1, failed)


def test_orbit_identity():
    # a1, d=2: one class, a_M = |GL_2(F_2)| = 6, and p^0 = 1
    assert orbit_identity((2,), [], 2, [6], gl_order)
    assert not orbit_identity((2,), [], 2, [5], gl_order)
    assert not orbit_identity((2,), [], 2, [7], gl_order)
    # a2, d=(1,1): S1+S2 and the indecomposable, each a_M = 1; p^1 = 2
    assert orbit_identity((1, 1), [(0, 1)], 2, [1, 1], gl_order)
    assert not orbit_identity((1, 1), [(0, 1)], 2, [1, 2], gl_order)
    assert not orbit_identity((1, 1), [(0, 1)], 2, [1], gl_order)


def test_class_table_oracle():
    tally = Tally()
    check_class_table(tally, "a2", (1, 1), [(0, 1)], 2, [1, 1], 2, gl_order)
    assert (tally.attempted, tally.failed) == (4, 0)
    tally = Tally()
    check_class_table(tally, "a2", (1, 1), [(0, 1)], 2, [1, 1], 3, gl_order)
    assert tally.failed == 1
    tally = Tally()
    check_class_table(tally, "a2", (1, 1), [(0, 1)], 2, [1, 2], 2, gl_order)
    assert tally.failed == 1
