"""End-to-end acceptance gate: one test per criterion, exact counts only.

Each criterion prints one PASS/FAIL line (visible with -s, and captured
on failure).  run_suite shards instances over up to `threads` processes;
criterion 11 pins report equality across thread counts.
"""

import json

from hallforge.suites import RunConfig, run_suite

THREADS = 4


def _run(suite, **kw):
    kw.setdefault("threads", THREADS)
    return run_suite(RunConfig(suite=suite, **kw))


def _criterion(num, label, bound_s, reports, expect_counts, extra_ok=True):
    elapsed = sum(r["elapsed_ms"] for r in reports) / 1000.0
    counts = [r["instances"] for r in reports]
    clean = all(r["passes"] == r["instances"] and not r["failures"]
                and not r["cap_hits"] for r in reports)
    ok = clean and counts == expect_counts and elapsed < bound_s and extra_ok
    print("%s criterion %d (%s): %s instances, %.1fs (bound %ds)"
          % ("PASS" if ok else "FAIL", num, label,
             "+".join(str(c) for c in counts), elapsed, bound_s))
    for r in reports:
        assert not r["cap_hits"], (num, r["suite"], r["cap_hits"])
        assert r["passes"] == r["instances"] and not r["failures"], \
            (num, r["suite"], r["failures"][:3])
    assert counts == expect_counts, (num, counts, expect_counts)
    assert extra_ok, num
    assert elapsed < bound_s, (num, elapsed, bound_s)


def test_criterion_01_green_formula():
    rep = _run("green")
    _criterion(1, "green formula, a2 q=2", 60, [rep], [2401])


def test_criterion_02_bialgebra():
    reps = [_run("bialgebra"), _run("bialgebra", quiver="a1", q=3)]
    _criterion(2, "coassociativity and comult-mult", 60, reps, [1260, 90])


def test_criterion_03_pairing():
    rep = _run("pairing")
    _criterion(3, "pairing axioms", 60, [rep], [686])


def test_criterion_04_heisenberg_oracle():
    rep = _run("heis-oracle")
    _criterion(4, "cross-relation oracle and abstract double", 120,
               [rep], [147])


def test_criterion_05_double_embedding():
    rep = _run("kashaev")
    _criterion(5, "double into Heisenberg pair, scaling, rank", 300,
               [rep], [412])


def test_criterion_06_cyclic_morphisms():
    reps = [_run("kappa", m=0), _run("kappa", m=4),
            _run("psi", m=0), _run("psi", m=4, i=1)]
    _criterion(6, "kappa/kappaCheck/psi windows", 300, reps,
               [2172, 1448, 1086, 362])


def test_criterion_07_complexes_iso():
    rep = _run("bridgeland-derived")
    _criterion(7, "phi relations and round trips", 300, [rep], [5051])


def test_criterion_08_varphi():
    rep = _run("varphi")
    _criterion(8, "varphi relations and triangle", 300, [rep], [1544])


def test_criterion_09_backend_oracle():
    reps = [_run("backend-oracle", quiver="a1", q=2),
            _run("backend-oracle", quiver="a1", q=3)]
    _criterion(9, "closed-form backend oracle", 30, reps, [155, 155])


def test_criterion_10_rewrite_and_gradings():
    reps = [_run("rewrite-sanity"), _run("gradings")]
    _criterion(10, "associativity, idempotence, gradings", 300, reps,
               [50456, 5983])


def test_criterion_11_determinism():
    def strip(rep):
        return {k: v for k, v in rep.items()
                if k not in ("timestamp", "elapsed_ms")}

    one = _run("green", threads=1)
    four = _run("green", threads=4)
    same = json.dumps(strip(one), sort_keys=True) == \
        json.dumps(strip(four), sort_keys=True)
    _criterion(11, "thread-count determinism", 120, [one, four],
               [2401, 2401], extra_ok=same)
