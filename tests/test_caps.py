"""HALLFORGE_MAX_ENUM is read once per verify run, before it forks, and
once per top-level operation outside a run."""

import os

import pytest

from hallforge import caps, suites
from hallforge.backend import make_backend
from hallforge.cli import main
from hallforge.presented import (FreeElt, MuMinus, MuPlus, algebra,
                                 normal_form, pmult, tensor_mult, tensor_word)
from hallforge.quiver import preset
from hallforge.suites import RunConfig, run_suite


def _count_reads(monkeypatch):
    """Wrap caps.max_enum: the list of values it returned.  A second read
    in one process raises, so a shard child that read the environment
    again would fail its run."""
    reads = []
    read = caps.max_enum

    def counted():
        if reads:
            raise AssertionError("HALLFORGE_MAX_ENUM read twice")
        reads.append(read())
        return reads[-1]

    monkeypatch.setattr(caps, "max_enum", counted)
    return reads


@pytest.mark.parametrize("threads", [1, 2])
def test_a_run_reads_the_cap_once(monkeypatch, threads):
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 4)
    monkeypatch.delenv("HALLFORGE_MAX_ENUM", raising=False)
    reads = _count_reads(monkeypatch)
    rep = run_suite(RunConfig(suite="kappa", m=0, threads=threads))
    assert reads == [caps.DEFAULT_MAX_ENUM]
    assert rep["instances"] == rep["passes"] == 2172
    # the run's cap ends with the run
    assert caps._run_limit is None


def test_each_run_reads_the_cap_in_force_when_it_starts(monkeypatch):
    capped = RunConfig(suite="kappa", max_dim=1)
    monkeypatch.setenv("HALLFORGE_MAX_ENUM", "8")
    rep = run_suite(capped)
    assert (rep["passes"], rep["cap_hits"]) == (948, 24)
    monkeypatch.setenv("HALLFORGE_MAX_ENUM", "1000")
    rep = run_suite(capped)
    assert (rep["passes"], rep["cap_hits"]) == (972, 0)
    assert caps.current_limit() == 1000


def test_a_run_restores_the_cap_it_found(monkeypatch):
    monkeypatch.setenv("HALLFORGE_MAX_ENUM", "8")
    outer = caps.fix_limit(77)
    try:
        # a run inside a run takes its own read, then hands back 77
        rep = run_suite(RunConfig(suite="kappa", max_dim=1))
        assert rep["cap_hits"] == 24
        assert caps.current_limit() == 77
    finally:
        caps.fix_limit(outer)
    assert caps.current_limit() == 8


def test_a_bad_cap_is_a_usage_error_before_any_fork(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("verify forked before it read the cap")

    monkeypatch.setattr(suites, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setenv("HALLFORGE_MAX_ENUM", "abc")
    assert main(["verify", "--suite", "kappa", "--threads", "2"]) == 2
    assert "HALLFORGE_MAX_ENUM must be an integer" in capsys.readouterr().err
    assert caps._run_limit is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_outside_a_run_each_top_level_operation_reads_the_cap(monkeypatch):
    be = make_backend(preset("a2"), 2)
    hd = algebra("hd", be)
    s1 = be.class_by_name("S1")
    x = tensor_word((hd, hd), (MuPlus(s1),), (MuPlus(s1),))
    y = tensor_word((hd, hd), (MuMinus(s1),), (MuMinus(s1),))
    a = normal_form(hd, FreeElt.word(2, (MuPlus(s1),)))
    b = normal_form(hd, FreeElt.word(2, (MuMinus(s1),)))
    reads = []
    read = caps.max_enum
    monkeypatch.setattr(caps, "max_enum",
                        lambda: reads.append(1) or read())
    # on a warm backend, where no class table is enumerated: every product
    # has two or more terms and tensor_mult two legs, yet one read per call
    for op, args in ((tensor_mult, (x, y)), (pmult, (hd, a, b)),
                     (normal_form, (hd, FreeElt.word(2, (MuPlus(s1),
                                                         MuMinus(s1)))))):
        op(*args)
        del reads[:]
        assert len(op(*args).terms) >= 2
        assert len(reads) == 1
