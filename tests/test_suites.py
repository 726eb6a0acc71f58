import dataclasses
import gc
import hashlib
import inspect
import json
import os
import threading
import time
import weakref
from functools import partial

import pytest

from hallforge import suites
from hallforge.backend import make_backend
from hallforge.caps import CapExceeded
from hallforge.suites import (RunConfig, _BUILDERS, _index_window, _run_one,
                              exit_code, run_suite)

BE = make_backend("a2", 2)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite(RunConfig(suite="nonesuch"))


def test_index_window_defaults():
    assert _index_window(RunConfig(suite="kappa", m=0)) == [-1, 0, 1]
    assert _index_window(RunConfig(suite="kappa", m=4)) == [1, 3]
    assert _index_window(RunConfig(suite="psi", m=7, i=2)) == [2]


def test_kashaev_rank_names_the_monomials_it_checks():
    # a1 at max_dim 0 has 9 distinct monomials, not the 20 asked for
    cfg = RunConfig(suite="kashaev", quiver="a1", max_dim=0)
    rank = [(prm, check) for rel, prm, check in
            _BUILDERS["kashaev"](make_backend("a1", 2), cfg)
            if rel == "rank"]
    assert [prm for prm, _ in rank] == [{"count": 9}]
    assert rank[0][1]() == (True, 9, 9)
    cfg = RunConfig(suite="kashaev", max_dim=2)
    assert [prm for rel, prm, _ in _BUILDERS["kashaev"](BE, cfg)
            if rel == "rank"] == [{"count": 20}]


def test_instance_order_is_stable():
    cfg = RunConfig(suite="heis-oracle", max_dim=2)
    a = [(rel, prm) for rel, prm, _ in _BUILDERS["heis-oracle"](BE, cfg)]
    b = [(rel, prm) for rel, prm, _ in _BUILDERS["heis-oracle"](BE, cfg)]
    assert a == b


def test_backend_oracle_defaults_to_dim_four():
    rep = run_suite(RunConfig(suite="backend-oracle", q=2))
    # 5 aut checks, 25 hom/euler pairs, 125 hall triples
    assert rep["instances"] == 155
    assert rep["params"]["max_dim"] == 4


def test_report_params_skip_thread_count():
    rep = run_suite(RunConfig(suite="backend-oracle", q=2, threads=3))
    assert "threads" not in rep["params"]


def test_run_suite_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("run_suite started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    rep = run_suite(RunConfig(suite="backend-oracle", quiver="a1", q=2,
                              threads=4))
    assert rep["instances"] == rep["passes"] == 155


class _Unrenderable:
    @property
    def label(self):
        raise AssertionError("a passing check was rendered")


def test_run_one_renders_sides_only_on_failure():
    side = _Unrenderable()
    assert _run_one(BE, ("r", {}, lambda: (True, side, side))) is None
    failed = _run_one(BE, ("r", {"M": "S1"}, lambda: (False, 3, 4)))
    assert failed == {"relation": "r", "params": {"M": "S1"},
                      "lhs": "3", "rhs": "4", "note": ""}
    assert _run_one(BE, ("r", {}, lambda: (False, None, None)))["lhs"] == ""


def test_run_one_turns_a_cap_hit_into_a_noted_failure():
    def capped():
        raise CapExceeded("subobjects", 8, 9)

    assert _run_one(BE, ("r", {}, capped)) == {
        "relation": "r", "params": {}, "lhs": "", "rhs": "",
        "note": "enumeration cap exceeded in subobjects (spent 9, limit 8)"}


def test_run_one_keeps_a_failing_checks_note():
    assert _run_one(BE, ("r", {}, lambda: (False, 3, 4, "why")))["note"] \
        == "why"
    assert _run_one(BE, ("r", {}, lambda: (True, 3, 3, "unused"))) is None


def test_run_one_lets_other_errors_through():
    def broken():
        raise ValueError("not a cap hit")

    with pytest.raises(ValueError, match="not a cap hit"):
        _run_one(BE, ("r", {}, broken))


def test_gradings_failure_notes_why(monkeypatch):
    def inhomogeneous(alg, lhs, rhs):
        raise ValueError("not homogeneous")

    monkeypatch.setattr(suites, "grading_check", inhomogeneous)
    report = run_suite(RunConfig(suite="gradings", max_dim=1, idx_window=1))
    assert (report["passes"], report["instances"]) == (0, 859)
    assert report["failures"][0]["note"] == "not homogeneous"
    assert report["cap_hits"] == 0 and exit_code(report) == 1


def test_every_builder_is_a_generator():
    for name, build in _BUILDERS.items():
        assert inspect.isgeneratorfunction(build), name


def test_run_suite_runs_each_instance_as_it_is_built(monkeypatch):
    log = []

    def check(k):
        log.append("ran %d" % k)
        return True, None, None

    def build(be, cfg):
        for k in range(3):
            log.append("built %d" % k)
            yield "r", {"k": k}, partial(check, k)

    monkeypatch.setitem(_BUILDERS, "backend-oracle", build)
    rep = run_suite(RunConfig(suite="backend-oracle", quiver="a1", q=2))
    assert log == ["built 0", "ran 0", "built 1", "ran 1",
                   "built 2", "ran 2"]
    assert rep["instances"] == rep["passes"] == 3


@pytest.mark.parametrize("suite, rel, side, check, sides", [
    ("kashaev", "2.18r", 1, "2.18~2.18r", ("v^2", "1")),
    ("heis-oracle", "2.18", 0, "2.13~2.18", ("1", "v^2")),
])
def test_two_pair_check_reports_the_failing_pair(monkeypatch, suite, rel,
                                                 side, check, sides):
    # doubling one side of `rel` breaks only the check's second pair
    real = suites.relation_instance

    def doubled(alg, rel_, prm):
        got = list(real(alg, rel_, prm))
        if rel_ == rel:
            got[side] = got[side].scale(2)
        return tuple(got)

    monkeypatch.setattr(suites, "relation_instance", doubled)
    rep = run_suite(RunConfig(suite=suite, max_dim=1))
    bad = [f for f in rep["failures"] if f["relation"] == check]
    assert len(bad) == 9
    assert (bad[0]["lhs"], bad[0]["rhs"]) == sides


def _refuse_fork():
    raise AssertionError("a process was started")


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("threads", [1, 2, 64])
def test_shard_count_is_threads_capped_at_the_usable_cpus(monkeypatch, cpus,
                                                          threads):
    monkeypatch.setattr(os, "fork", _refuse_fork)
    monkeypatch.setattr(suites, "_usable_cpus", lambda: cpus)
    assert suites._shard_count(threads) == min(threads, cpus)


def test_shard_count_without_fork_is_one(monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
    assert [suites._shard_count(t) for t in (1, 2, 64)] == [1, 1, 1]


def test_shard_count_is_one_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(os, "fork", _refuse_fork)
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30,))
    other.start()
    try:
        assert suites._shard_count(2) == 1
    finally:
        stop.set()
        other.join(30)
    assert not other.is_alive()
    assert suites._shard_count(2) == 2


@pytest.mark.parametrize("threads", [0, -1])
def test_shard_count_refuses_fewer_than_one_thread(monkeypatch, threads):
    monkeypatch.setattr(os, "fork", _refuse_fork)
    with pytest.raises(ValueError, match="threads must be at least 1"):
        suites._shard_count(threads)
    with pytest.raises(ValueError, match="threads must be at least 1"):
        run_suite(RunConfig(suite="backend-oracle", quiver="a1",
                            threads=threads))


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert suites._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert suites._usable_cpus() == 1


def _shard_run(monkeypatch, build, threads=2):
    """Run the instances `build` yields at `threads` on four usable CPUs."""
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 4)
    monkeypatch.setitem(_BUILDERS, "backend-oracle", build)
    return run_suite(RunConfig(suite="backend-oracle", quiver="a1",
                               threads=threads))


@pytest.mark.parametrize("bad, exc", [
    (3, ZeroDivisionError("instance 3")),  # shard 1: the child's
    (4, ZeroDivisionError("instance 4")),  # shard 0: the parent's
    (0, KeyboardInterrupt("instance 0")),
], ids=["child", "parent", "parent-interrupt"])
def test_a_raising_shard_leaves_no_process_behind(monkeypatch, bad, exc):
    def check(k):
        if k == bad:
            raise exc
        if k % 2 and k > bad:  # the child hangs: only a kill ends it soon
            time.sleep(60)
        return True, None, None

    def build(be, cfg):
        for k in range(8):
            yield "r", {"k": k}, partial(check, k)

    t0 = time.monotonic()
    with pytest.raises(type(exc)) as got:
        _shard_run(monkeypatch, build)
    assert str(got.value) == str(exc)
    assert time.monotonic() - t0 < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _capped():
    raise CapExceeded("subobjects", 8, 9)


def test_shards_merge_failures_in_stream_order(monkeypatch):
    def build(be, cfg):
        for k in range(7):
            if k in (1, 2, 5):
                yield "r", {"k": k}, lambda: (False, None, None)
            elif k == 6:
                yield "r", {"k": k}, _capped
            else:
                yield "r", {"k": k}, lambda: (True, None, None)

    for threads in (1, 2, 3, 4):
        rep = _shard_run(monkeypatch, build, threads)
        assert [f["params"]["k"] for f in rep["failures"]] == [1, 2, 5, 6]
        assert (rep["instances"], rep["passes"], rep["cap_hits"]) == (7, 3, 1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Unrebuildable(Exception):
    def __init__(self, a, b):
        super().__init__("%s and %s" % (a, b))


def test_a_childs_error_that_cannot_be_rebuilt_is_named(monkeypatch):
    def broken():
        raise _Unrebuildable(1, 2)

    def build(be, cfg):
        yield "r", {}, lambda: (True, None, None)
        yield "r", {}, broken  # index 1: the child's

    with pytest.raises(RuntimeError, match=r"shard 1 raised "
                       r"_Unrebuildable\('1 and 2'\)"):
        _shard_run(monkeypatch, build)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_cap_error_crosses_the_pipe_as_itself(monkeypatch):
    def capped():
        raise CapExceeded("iso_classes", 8, 9)

    def build(be, cfg):
        yield "r", {}, lambda: (True, None, None)
        if os.getpid() != parent:
            capped()  # outside any check, so not a cap hit

    parent = os.getpid()
    with pytest.raises(CapExceeded) as got:
        _shard_run(monkeypatch, build)
    assert (got.value.op, got.value.limit, got.value.spent) == \
        ("iso_classes", 8, 9)
    assert str(got.value) == \
        "enumeration cap exceeded in iso_classes (spent 9, limit 8)"


def test_shards_that_see_different_streams_fail_loudly(monkeypatch):
    def build(be, cfg):
        for k in range(3 if os.getpid() == parent else 4):
            yield "r", {"k": k}, lambda: (True, None, None)

    parent = os.getpid()
    with pytest.raises(RuntimeError, match=r"lengths \[3, 4\]"):
        _shard_run(monkeypatch, build)


# each relation-window builder at its gate configuration: the length and
# the sha256 of its instance stream [(relation, list(params.items()))],
# dumped as JSON.  The gate's report pins see no order, as their reports
# list no failures.
@pytest.mark.parametrize("suite, kw, count, digest", [
    ("kashaev", {}, 412,
     "84d9b6f5cc6f888ca471ba8c9eabe4fec24d88c9f133c98221707f7e4c74beea"),
    ("kappa", {"m": 0}, 2172,
     "75e08ccd64aed361b23c8073ecba41678a0bcdf93ae468992da3e9eb948a0e6c"),
    ("kappa", {"m": 4}, 1448,
     "b76b038366aa3a7d4fcae06f31b7c0d001cc552855654cdadeca2c5abb4b0000"),
    ("psi", {"m": 0}, 1086,
     "a97324b4bdf31d3008c0d6f3e9c2aac7f2a295c4e548b263e9d0224177f129b8"),
    ("psi", {"m": 4, "i": 1}, 362,
     "75e7fc3a1ac5f70ef6eec02eab2d680e536051aae221dda224b2dd1170f74aa3"),
    ("bridgeland-derived", {}, 5051,
     "d1aa69594f0b39d52a23f9aab3e0447c87c36398fc34f40c98f58ae0f3a0cd05"),
    ("varphi", {}, 1544,
     "5680009bc1d0f0aca9110bab3a87e3e461710cc405b602e4297e1d23929f9ba6"),
    ("gradings", {}, 5983,
     "ac31227634326d58efddb10d6d5f601657f8cc0011a8e9e76bd436042250f1f2"),
], ids=["kashaev", "kappa-m0", "kappa-m4", "psi-m0", "psi-m4-i1",
        "bridgeland-derived", "varphi", "gradings"])
def test_window_builder_streams_are_pinned(suite, kw, count, digest):
    cfg = RunConfig(suite=suite, max_dim=2, **kw)
    stream = [(rel, list(prm.items()))
              for rel, prm, _ in _BUILDERS[suite](make_backend("a2", 2), cfg)]
    assert len(stream) == count
    assert hashlib.sha256(json.dumps(stream).encode()).hexdigest() == digest


def test_rewrite_sanity_with_no_module_letters():
    # at max_dim 0 dh and dhtw have no letter to draw; the five other tags
    # draw 8 torus letters: 8^3 one-letter triples and 1,000 random ones
    rep = run_suite(RunConfig(suite="rewrite-sanity", max_dim=0))
    assert (rep["instances"], rep["passes"]) == (7560, 7560)
    assert exit_code(rep) == 0


# every Algebra holds its backend and the backend's `algebras` table holds
# the Algebras; run_suite breaks that cycle as it returns or raises, so the
# run's tables are freed by reference counting, not left for the collector
def _kashaev_doubling_2_18r(monkeypatch):
    real = suites.relation_instance

    def doubled(alg, rel, prm):
        lhs, rhs = real(alg, rel, prm)
        return (lhs, rhs.scale(2)) if rel == "2.18r" else (lhs, rhs)

    monkeypatch.setattr(suites, "relation_instance", doubled)
    return RunConfig(suite="kashaev", max_dim=1), 9


def _kappa_capped(monkeypatch):
    monkeypatch.setenv("HALLFORGE_MAX_ENUM", "8")
    return RunConfig(suite="kappa", max_dim=1), 24


def _kashaev_raising(monkeypatch):
    real = _BUILDERS["kashaev"]

    def build(be, cfg):
        for k, inst in enumerate(real(be, cfg)):
            if k == 101:  # in every process, after the algebras are built
                raise ZeroDivisionError("builder broke")
            yield inst

    monkeypatch.setitem(_BUILDERS, "kashaev", build)
    return RunConfig(suite="kashaev", max_dim=1), ZeroDivisionError


_CASES = {suite: lambda monkeypatch, suite=suite: (
              RunConfig(suite=suite, max_dim=1), 0)
          for suite in suites.SUITES}
_CASES.update({"failing-check": _kashaev_doubling_2_18r,
               "cap-hit": _kappa_capped, "raising-builder": _kashaev_raising})


@pytest.mark.parametrize("case, threads", [
    (case, threads) for case in _CASES for threads in (1, 2)
    # the slowest suite, about 1.4 s, runs at the thread count that forks
    if (case, threads) != ("rewrite-sanity", 1)])
def test_a_run_frees_its_backend_as_it_returns(monkeypatch, case, threads):
    # a forking run imports pickle on first use, and an import leaves
    # cyclic garbage of its own: import it before the count starts
    import pickle  # noqa: F401

    made = []

    def tracked(*args):
        be = make_backend(*args)
        made.append(weakref.ref(be))
        return be

    monkeypatch.setattr(suites, "make_backend", tracked)
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
    cfg, outcome = _CASES[case](monkeypatch)
    cfg = dataclasses.replace(cfg, threads=threads)
    gc.collect()
    gc.disable()
    try:
        if isinstance(outcome, int):
            rep = run_suite(cfg)
            assert rep["instances"] > 0
            assert len(rep["failures"]) == outcome
        else:
            with pytest.raises(outcome):
                run_suite(cfg)
        assert made and all(ref() is None for ref in made)
        assert gc.collect() == 0
    finally:
        gc.enable()


# the gate's window runs over a2 at q=2: every run but the a1 ones and
# rewrite-sanity's random triples, which take four times as long as these
_GATE_A2_RUNS = [
    ("green", {}), ("bialgebra", {}), ("pairing", {}), ("heis-oracle", {}),
    ("kashaev", {}), ("kappa", {"m": 0}), ("kappa", {"m": 4}),
    ("psi", {"m": 0}), ("psi", {"m": 4, "i": 1}), ("bridgeland-derived", {}),
    ("varphi", {}), ("gradings", {})]


@pytest.fixture(scope="module")
def gate_window_rows():
    """One a2 backend after the gate's a2 window ran over it twice, and the
    size of its Hall row table after each pass."""
    be = make_backend("a2", 2)
    sizes = []
    for _ in range(2):
        for suite, kw in _GATE_A2_RUNS:
            cfg = RunConfig(suite=suite, max_dim=2, **kw)
            for _, _, check in _BUILDERS[suite](be, cfg):
                assert check()[0]
        sizes.append(len(be.hall_rows))
    yield be, sizes
    be.algebras.clear()


def test_hall_rows_are_bounded_by_the_classes(gate_window_rows):
    # a gamma row per class pair and a coproduct row per class: at most
    # C^2 + C, however many letter pairs, indices and maps the window has,
    # and a second pass over the window adds none
    be, sizes = gate_window_rows
    classes = len(be._classes)
    assert sizes[0] <= classes ** 2 + classes
    assert sizes[1] == sizes[0]


def test_gate_window_hall_rows_are_coproduct_and_gamma_rows(gate_window_rows):
    # the product is read off the backend's product terms and the mirrored
    # crossing off the gamma row of the exchanged pair: neither has rows
    be, _ = gate_window_rows
    ids = range(len(be._classes))
    kinds = {"coproduct": [], "gamma": []}
    for key in be.hall_rows:
        kind, *cids = key
        assert kind in kinds and all(c in ids for c in cids), key
        kinds[kind].append(tuple(cids))
    assert kinds["coproduct"] and kinds["gamma"]
    assert {len(k) for k in kinds["coproduct"]} == {1}
    assert {len(k) for k in kinds["gamma"]} == {2}
    assert len(kinds["coproduct"]) <= len(ids)
    assert len(kinds["gamma"]) <= len(ids) ** 2
