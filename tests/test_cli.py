import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings

import pytest

import hallforge
from hallforge import suites
from hallforge.backend import make_backend
from hallforge.cli import main
from hallforge.exprs import parse_expr, render_elt
from hallforge.presented import algebra, normal_form
from hallforge.quiver import preset
from hallforge.suites import RunConfig, SUITES, exit_code, run_suite


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_mult_frozen_cross(capsys):
    rc, out, _ = run(capsys, "mult", "--algebra", "hd",
                     "--expr", "mu+[S1] * mu-[S1]")
    assert rc == 0
    assert out.strip() == "mu-[S1] mu+[S1] + K-[(1,0)]"


def test_mult_double_quasi_reduces(capsys):
    # tag d has no oriented rule table: KD letters bubble left of om
    # letters and merge, om letters keep their order
    rc, out, _ = run(capsys, "mult", "--algebra", "d", "--expr",
                     "om+[S1] om-[S2] KD-[(1,0)] KD+[(0,1)]"
                     " + om-[S1] KD-[(1,1)]")
    assert rc == 0
    assert out.strip() == ("v^6 KD-[(1,0)] KD+[(0,1)] om+[S1] om-[S2]"
                           " + v^-1 KD-[(1,1)] om-[S1]")


def test_mult_output_reparses_to_fixed_point(capsys):
    rc, out, _ = run(capsys, "mult", "--algebra", "dhce",
                     "--expr", "Z[S1;1] * Z[S2;0] + v^-1 KZ[(1,0);0]")
    assert rc == 0
    rc2, out2, _ = run(capsys, "mult", "--algebra", "dhce",
                       "--expr", out.strip())
    assert rc2 == 0 and out2 == out


def test_syntax_error_position_one(capsys):
    rc, _, err = run(capsys, "mult", "--algebra", "hd", "--expr", "(")
    assert rc == 2
    assert "position 1" in err


def test_wrong_family_is_usage_error(capsys):
    rc, _, err = run(capsys, "mult", "--algebra", "hd",
                     "--expr", "nu+[S1]")
    assert rc == 2 and "nu" in err


@pytest.mark.parametrize("data,why", [
    ({"dims": {"1": 1, "2": 1}, "maps": {"0": [[1, 0]]}}, "1x1 matrix"),
    ({"dims": {"1": 1}, "maps": {"0": [[1]]}}, "vertex '2'"),
    ({"dims": {"1": 1, "2": 1}, "maps": {"1": [[1]]}}, "unknown arrows 1"),
    ({"dims": {"1": 1, "2": 1}, "maps": {"0": [[1.5]]}},
     "must be an integer, not 1.5"),
    ({"dims": {"1": 1, "2": 1}, "maps": {"0": [[None]]}},
     "must be an integer, not None"),
    ([{"dims": {"1": 1, "2": 1}, "maps": {"0": [[1]]}}],
     "must hold a JSON object"),
    ({"dims": {"1": 1, "2": 1}, "maps": {"0": [[True]]}},
     "must be an integer, not True"),
    ({"dims": {"1": 1.0, "2": 1}}, "vertex '1' must be an integer"),
], ids=["shape", "vertex", "arrow", "float-entry", "null-entry",
        "top-level-array", "bool-entry", "float-dim"])
def test_malformed_rep_file_is_a_parse_error(tmp_path, capsys, data, why):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc, out, err = run(capsys, "mult", "--algebra", "hd",
                       "--expr", "mu+[@%s]" % path)
    assert rc == 2 and out == ""
    assert "cannot load rep" in err and why in err


def run_optimized(*argv):
    """The CLI in a `python -O` subprocess, where assert statements are
    gone: (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(hallforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-m", "hallforge.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_malformed_rep_file_is_refused_under_optimize(tmp_path):
    # the shape check must not rest on assert statements
    path = tmp_path / "bad.json"
    path.write_text('{"dims": {"1": 1, "2": 1}, "maps": {"0": [[1, 0]]}}')
    rc, out, err = run_optimized("mult", "--algebra", "hd",
                                 "--expr", "mu+[@%s]" % path)
    assert rc == 2 and out == ""
    assert "1x1 matrix" in err


def run_cli(*argv, script=None):
    """The CLI, or a script that runs it, in a plain `python` subprocess
    with Python's default warning filters: (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(hallforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    cmd = ["-c", script] if script else ["-m", "hallforge.cli"]
    proc = subprocess.run([sys.executable, *cmd, *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_a_warning_prints_as_one_stderr_line():
    expr = "e[S1;0]e[S2;2]e[S1;1]"
    rc, out, err = run_cli("mult", "--algebra", "dhm:3", "--expr", expr)
    assert rc == 0
    assert err == ("warning: normal_form(dhm:3): word outside the two-residue"
                   " contract; result is a deterministic reduct, not a"
                   " canonical form\n")
    be = make_backend(preset("a2"), 2)
    alg = algebra("dhm:3", be)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = render_elt(be, normal_form(alg, parse_expr(expr, alg)))
    assert out == want + "\n"


SHARD_WARNING = """
import sys, warnings
from hallforge import cli, suites

def build(be, cfg):
    for k in range(2):
        def fn(k=k):
            if k == 1:  # stream index 1: shard 1 of 2, a forked child
                warnings.warn("raised in shard 1")
            return True, None, None
        yield "w", {"k": k}, fn

suites._BUILDERS["green"] = build
suites._usable_cpus = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_warning_raised_in_a_shard_child_is_printed():
    rc, out, err = run_cli("verify", "--suite", "green", "--threads", "2",
                           script=SHARD_WARNING)
    assert rc == 0 and out.startswith("green on a2 (q=2): 2/2 passed")
    assert err == "warning: raised in shard 1\n"


def test_hallnum(capsys):
    rc, out, _ = run(capsys, "hallnum", "--L", "X{1,1}#1",
                     "--M", "S1", "--N", "S2")
    assert rc == 0 and out.strip() == "1"
    # a name that parses to no class, also one whose dimvec has the wrong
    # length or a negative entry, is refused, and not by an assert statement
    bad = [("hallnum", "--L", name, "--M", "S1", "--N", "S2")
           for name in ("P", "X{1,1,1}#0", "X{1}#0", "X{1,-1}#0")]
    bad += [("mult", "--algebra", "hd", "--expr", "mu+[%s]" % name)
            for name in ("X{1,1,1}#0", "X{1}#0")]
    for argv in bad:
        for rc, out, err in (run(capsys, *argv), run_optimized(*argv)):
            assert rc == 2 and out == "" and "unknown object" in err, argv


@pytest.mark.parametrize("q", ["4", "1", "0", "-3"])
def test_field_size_that_is_not_prime_is_refused(capsys, q):
    # refused by a raise, not an assert statement: under python -O the
    # commands used to count over Z/4
    commands = [
        ("classes", "--q", q, "--dimvec", "1,1"),
        ("verify", "--suite", "green", "--q", q, "--max-dim", "1"),
        ("verify", "--suite", "backend-oracle", "--quiver", "a1", "--q", q,
         "--max-dim", "2"),
        ("mult", "--algebra", "hd", "--q", q, "--expr", "mu+[S1] * mu-[S1]"),
        ("hallnum", "--q", q, "--L", "X{1,1}#1", "--M", "S1", "--N", "S2"),
    ]
    for argv in commands:
        for rc, out, err in (run(capsys, *argv), run_optimized(*argv)):
            assert rc == 2 and out == "", argv
            assert "error: field size must be prime, not %s" % q in err, argv


def test_run_suite_refuses_a_field_size_before_forking(monkeypatch):
    def no_fork(*args):
        raise AssertionError("forked a shard")

    monkeypatch.setattr(suites, "_fork_shard", no_fork)
    for suite, quiver in (("green", "a2"), ("backend-oracle", "a1")):
        with pytest.raises(ValueError, match="must be prime"):
            run_suite(RunConfig(suite=suite, quiver=quiver, q=4, threads=2))


def test_classes_table(capsys):
    rc, out, _ = run(capsys, "classes", "--dimvec", "1,1")
    assert rc == 0
    names = [line.split("\t")[0] for line in out.strip().splitlines()]
    assert names == ["X{0,0}#0", "S2", "S1", "X{1,1}#0", "X{1,1}#1"]


@pytest.mark.parametrize("dimvec", ["1,-1", "1", "1,1,1"])
def test_classes_refuses_a_bad_dimension_vector(capsys, dimvec):
    rc, out, err = run(capsys, "classes", "--dimvec", dimvec)
    assert rc == 2 and out == ""
    assert "needs 2 nonnegative entries" in err


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "frobnicate"])
    assert exc.value.code == 2


def test_cap_exceeded_exit(monkeypatch, capsys):
    monkeypatch.setenv("HALLFORGE_MAX_ENUM", "2")
    rc, _, err = run(capsys, "mult", "--algebra", "hd",
                     "--expr", "mu+[S1] * mu-[S1]")
    assert rc == 3 and "cap" in err.lower()


def test_verify_cap_hits_print_their_note(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("HALLFORGE_MAX_ENUM", "8")
    out = tmp_path / "report.json"
    rc, text, _ = run(capsys, "verify", "--suite", "kappa", "--max-dim", "1",
                      "--out", str(out))
    assert rc == 3
    note = "enumeration cap exceeded in subobjects (spent 9, limit 8)"
    assert "948/972 passed, 24 cap hits" in text
    assert ('FAIL 2.3 {"M": "S2", "N": "S2", "map": "kappa(0,-1)", '
            '"sign": 1}\n  lhs: \n  rhs: \n  note: %s\n' % note) in text
    report = json.loads(out.read_text())
    assert report["cap_hits"] == len(report["failures"]) == 24
    assert report["failures"][0] == {
        "relation": "2.3",
        "params": {"sign": 1, "M": "S2", "N": "S2", "map": "kappa(0,-1)"},
        "lhs": "", "rhs": "", "note": note}


def test_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc, text, _ = run(capsys, "verify", "--suite", "backend-oracle",
                      "--q", "2", "--out", str(out))
    assert rc == 0
    assert "backend-oracle" in text and "155/155 passed" in text
    report = json.loads(out.read_text())
    assert report["suite"] == "backend-oracle"
    assert report["passes"] == report["instances"] == 155
    assert report["failures"] == [] and report["cap_hits"] == 0
    assert set(report) >= {"suite", "quiver", "q", "params", "instances",
                           "passes", "failures", "elapsed_ms", "cap_hits",
                           "timestamp"}


def test_backend_oracle_runs_on_a1_and_refuses_another_quiver(
        tmp_path, capsys, monkeypatch):
    # the suite compares a backend on a1 with the a1 closed forms: without
    # --quiver it runs on a1, on the run's one backend, and another quiver
    # exits 2 before any instance runs, instead of being reported
    made = []
    real = suites.make_backend
    monkeypatch.setattr(suites, "make_backend",
                        lambda *args: made.append(args[0].name)
                        or real(*args))
    out = tmp_path / "report.json"
    rc, text, _ = run(capsys, "verify", "--suite", "backend-oracle",
                      "--max-dim", "2", "--out", str(out))
    assert rc == 0
    assert text.startswith("backend-oracle on a1 (q=2): 39/39 passed")
    assert json.loads(out.read_text())["quiver"] == "a1"
    assert made == ["a1"]
    out.unlink()
    for quiver in ("kronecker", "a2"):
        rc, text, err = run(capsys, "verify", "--suite", "backend-oracle",
                            "--quiver", quiver, "--max-dim", "2",
                            "--out", str(out))
        assert rc == 2 and text == ""
        assert "quiver a1 only, not %r" % quiver in err
        assert not out.exists()
    assert made == ["a1"]
    # every other suite still defaults to a2
    rc, text, _ = run(capsys, "verify", "--suite", "green", "--max-dim", "1")
    assert rc == 0 and text.startswith("green on a2 (q=2)")


def test_reports_identical_across_thread_counts(monkeypatch):
    # timestamp and elapsed_ms are wall-clock, everything else must match,
    # the order of failures from different shards included
    def stripped(cfg, threads):
        rep = run_suite(dataclasses.replace(cfg, threads=threads))
        return json.dumps({k: v for k, v in rep.items()
                           if k not in ("timestamp", "elapsed_ms")},
                          sort_keys=True)

    one = stripped(RunConfig(suite="heis-oracle"), 1)
    assert stripped(RunConfig(suite="heis-oracle"), 4) == one
    # 948 passed and 24 cap hits, spread over the shards
    monkeypatch.setenv("HALLFORGE_MAX_ENUM", "8")
    capped = RunConfig(suite="kappa", max_dim=1)
    one = stripped(capped, 1)
    assert '"cap_hits": 24' in one and '"passes": 948' in one
    assert stripped(capped, 2) == one and stripped(capped, 4) == one


def test_verify_refuses_fewer_than_one_thread(capsys):
    for threads in ("0", "-2"):
        rc, out, err = run(capsys, "verify", "--suite", "backend-oracle",
                           "--quiver", "a1", "--threads", threads)
        assert rc == 2 and out == ""
        assert "threads must be at least 1" in err


@pytest.mark.parametrize("argv", [
    ("--suite", "green", "--max-dim", "-1"),
    ("--suite", "bridgeland-derived", "--idx-window", "-2", "--max-dim", "1"),
], ids=["max-dim", "idx-window"])
def test_verify_refuses_a_negative_window(monkeypatch, capsys, argv):
    # a negative window has no instances, so it would pass vacuously
    def no_fork(*args):
        raise AssertionError("forked a shard")

    monkeypatch.setattr(suites, "_fork_shard", no_fork)
    rc, out, err = run(capsys, "verify", "--threads", "2", *argv)
    assert rc == 2 and out == ""
    assert "max_dim and idx_window must be at least 0" in err


def test_a_missing_quiver_file_is_a_usage_error(tmp_path, capsys):
    # exit 1 means verification failures; an unreadable file is a usage
    # error, reported in one line and not by a traceback
    missing = str(tmp_path / "missing.json")
    commands = [
        ("verify", "--suite", "green", "--max-dim", "1"),
        ("classes", "--dimvec", "1,1"),
        ("mult", "--algebra", "hd", "--expr", "mu+[S1]"),
        ("hallnum", "--L", "S1", "--M", "S1", "--N", "X{0,0}#0"),
    ]
    for argv in commands:
        argv += ("--quiver", missing)
        for rc, out, err in (run(capsys, *argv), run_optimized(*argv)):
            assert rc == 2 and out == "", argv
            assert err == ("error: cannot read quiver file %r (No such file "
                           "or directory)\n" % missing), argv


@pytest.mark.parametrize("data,why", [
    ([1], 'must hold an object with a "vertices" list'),
    ({"vertices": ["1", "2"], "arrows": [{"from": "1"}]},
     '"arrows" must be a list of objects with "from" and "to"'),
    ({"vertices": [["1"], "2"], "arrows": []},
     "every vertex must be a string or an integer"),
], ids=["top-level-array", "arrow-without-to", "list-vertex"])
def test_a_malformed_quiver_file_is_a_usage_error(tmp_path, capsys, data, why):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    argv = ("classes", "--dimvec", "1,1", "--quiver", str(path))
    for rc, out, err in (run(capsys, *argv), run_optimized(*argv)):
        assert rc == 2 and out == ""
        assert err == "error: quiver file %r%s%s\n" % (
            str(path), " " if why.startswith("must") else ": ", why)


def test_a_quiver_file_with_integer_vertices_loads_a_rep_file(tmp_path,
                                                             capsys):
    # a rep file names each vertex as a JSON object key, a string
    spec = tmp_path / "q.json"
    spec.write_text(json.dumps({"vertices": [1, 2],
                                "arrows": [{"from": 1, "to": 2}]}))
    rep = tmp_path / "r.json"
    rep.write_text(json.dumps({"dims": {"1": 1, "2": 1}, "maps": {"0": [[1]]}}))
    expr = "mu+[@%s]" % rep
    for quiver in (str(spec), "a2"):
        rc, out, err = run(capsys, "mult", "--algebra", "hd", "--quiver",
                           quiver, "--expr", expr)
        assert (rc, out, err) == (0, "mu+[X{1,1}#1]\n", ""), quiver


def test_a_quiver_file_whose_vertex_names_collide_as_strings_is_refused(
        tmp_path, capsys):
    spec = tmp_path / "q.json"
    spec.write_text(json.dumps({"vertices": [1, "1"], "arrows": []}))
    argv = ("classes", "--dimvec", "1,1", "--quiver", str(spec))
    for rc, out, err in (run(capsys, *argv), run_optimized(*argv)):
        assert rc == 2 and out == ""
        assert err == ("error: vertex names must be unique as strings: "
                       "1, '1'\n")


@pytest.mark.parametrize("where, why", [
    ("no/such/dir/r.json", "no such directory"),
    (".", "is a directory"),
], ids=["missing-dir", "directory"])
def test_verify_refuses_an_unwritable_out_before_running(
        monkeypatch, tmp_path, capsys, where, why):
    def never(*args):
        raise AssertionError("ran an instance or forked a shard")

    monkeypatch.setattr(suites, "_run_one", never)
    monkeypatch.setattr(suites, "_fork_shard", never)
    out = str(tmp_path / where)
    argv = ("verify", "--suite", "green", "--threads", "2", "--out", out)
    for rc, text, err in (run(capsys, *argv), run_optimized(*argv)):
        assert rc == 2 and text == ""
        assert err == "error: cannot write report %r (%s)\n" % (out, why)


@pytest.mark.parametrize("argv, cap", [
    (("--suite", "heis-oracle"), None),
    # 24 cap hits: 20 printed with their sides and notes, then a count
    (("--suite", "kappa", "--max-dim", "1"), "8"),
], ids=["heis-oracle", "kappa-capped"])
def test_verify_prints_the_same_lines_at_any_thread_count(argv, cap):
    # stdout is a pipe, so block-buffered: a child that flushed the buffer
    # it inherited would print the parent's pending lines twice
    src = os.path.dirname(os.path.dirname(hallforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("HALLFORGE_MAX_ENUM", None)
    if cap:
        env["HALLFORGE_MAX_ENUM"] = cap

    def lines(threads):
        proc = subprocess.run(
            [sys.executable, "-m", "hallforge.cli", "verify", *argv,
             "--threads", threads], stdout=subprocess.PIPE, text=True,
            env=env)
        return re.sub(r"\d+ ms$", "ms", proc.stdout,
                      flags=re.M).splitlines()

    one = lines("1")
    assert lines("2") == one
    # the summary, four lines per shown failure, then the count of the rest
    assert len(one) == (82 if cap else 1)


def test_exit_code_ladder():
    assert exit_code({"cap_hits": 0, "failures": []}) == 0
    assert exit_code({"cap_hits": 0, "failures": [{"relation": "x"}]}) == 1
    assert exit_code({"cap_hits": 2, "failures": [{"relation": "x"}]}) == 3


def test_all_suite_names_wired():
    assert SUITES == ("green", "bialgebra", "pairing", "heis-oracle",
                      "kashaev", "kappa", "psi", "bridgeland-derived",
                      "varphi", "gradings", "rewrite-sanity",
                      "backend-oracle")
