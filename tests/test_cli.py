import json

import pytest

from hallforge.cli import main
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


def test_hallnum(capsys):
    rc, out, _ = run(capsys, "hallnum", "--L", "X{1,1}#1",
                     "--M", "S1", "--N", "S2")
    assert rc == 0 and out.strip() == "1"
    rc, _, err = run(capsys, "hallnum", "--L", "P", "--M", "S1",
                     "--N", "S2")
    assert rc == 2 and "unknown object" in err


def test_classes_table(capsys):
    rc, out, _ = run(capsys, "classes", "--dimvec", "1,1")
    assert rc == 0
    names = [line.split("\t")[0] for line in out.strip().splitlines()]
    assert names == ["X{0,0}#0", "S2", "S1", "X{1,1}#0", "X{1,1}#1"]


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "frobnicate"])
    assert exc.value.code == 2


def test_cap_exceeded_exit(monkeypatch, capsys):
    monkeypatch.setenv("HALLFORGE_MAX_ENUM", "2")
    rc, _, err = run(capsys, "mult", "--algebra", "hd",
                     "--expr", "mu+[S1] * mu-[S1]")
    assert rc == 3 and "cap" in err.lower()


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


def test_reports_identical_across_thread_counts():
    # timestamp and elapsed_ms are wall-clock, everything else must match
    def strip(rep):
        return {k: v for k, v in rep.items()
                if k not in ("timestamp", "elapsed_ms")}

    one = run_suite(RunConfig(suite="heis-oracle", threads=1))
    four = run_suite(RunConfig(suite="heis-oracle", threads=4))
    assert json.dumps(strip(one), sort_keys=True) == \
        json.dumps(strip(four), sort_keys=True)


def test_exit_code_ladder():
    assert exit_code({"cap_hits": 0, "failures": []}) == 0
    assert exit_code({"cap_hits": 0, "failures": [{"relation": "x"}]}) == 1
    assert exit_code({"cap_hits": 2, "failures": [{"relation": "x"}]}) == 3


def test_all_suite_names_wired():
    assert SUITES == ("green", "bialgebra", "pairing", "heis-oracle",
                      "kashaev", "kappa", "psi", "bridgeland-derived",
                      "varphi", "gradings", "rewrite-sanity",
                      "backend-oracle")
