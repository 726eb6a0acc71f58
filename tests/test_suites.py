import inspect
import threading
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
