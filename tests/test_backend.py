import functools
import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from hallforge import backend
from hallforge.backend import (A1ClosedFormBackend, EnumerationError,
                               QuiverBackend, Rep)
from hallforge.caps import Budget, CapExceeded
from hallforge.fq import gaussian_binomial, gl_order, row_rank
from hallforge.quiver import Quiver, load_quiver, preset

from enum_oracles import aut_count_enum, filtration_count, is_iso_enum
from matrix_oracles import direct_sum, mat_mul, rref


@pytest.fixture(scope="module")
def a2():
    return QuiverBackend(preset("a2"), 2)


@pytest.fixture(scope="module")
def a1_3():
    return QuiverBackend(preset("a1"), 3)


def proj(be):
    # indecomposable (k -> k, identity) on a2
    return be.rep((1, 1), [[[1]]])


def s1(be):
    return be.simple_rep(0)


def s2(be):
    return be.simple_rep(1)


def test_quiver_presets_and_cycles():
    assert preset("a1").n == 1
    assert preset("a3").arrows == ((0, 1), (1, 2))
    assert preset("kronecker").arrows == ((0, 1), (0, 1))
    with pytest.raises(ValueError):
        Quiver(("1", "2"), (("1", "2"), ("2", "1")))
    with pytest.raises(ValueError):
        Quiver(("1", "1"), ())
    with pytest.raises(ValueError):
        preset("d4")


def test_euler_form_frozen(a2):
    assert a2.euler_form((1, 0), (0, 1)) == -1
    assert a2.euler_form((1, 1), (1, 1)) == 1
    assert a2.euler_form((0, 0), (5, -3)) == 0
    assert a2.sym_euler((1, 0), (0, 1)) == -1
    assert a2.sym_euler((1, 0), (1, 0)) == 2


def ids_of(be, *reps):
    """The class ids of reps, in order."""
    return [be.classify(rep) for rep in reps]


def test_hom_dim_frozen(a2):
    p, x, y, zero = ids_of(a2, proj(a2), s1(a2), s2(a2), a2.zero_rep())
    assert a2.hom_dim(p, x) == 1
    assert a2.hom_dim(p, y) == 0
    assert a2.hom_dim(p, zero) == 0
    assert a2.hom_dim(y, p) == 1
    assert a2.hom_dim(x, y) == 0


def test_hereditary_identity(a2):
    # hom - ext = euler with ext >= 0, and Ext^1(P,-) = 0 for the projective
    p = a2.classify(proj(a2))
    for cid in a2.classes_within((2, 2)):
        assert a2.ext_dim(p, cid) == 0
        for did in a2.classes_within((1, 1)):
            e = a2.ext_dim(cid, did)
            assert e >= 0
            assert a2.hom_dim(cid, did) - e == a2.euler_form(
                a2.class_dim(cid), a2.class_dim(did))


def test_aut_count_frozen(a2):
    ss, p, zero, x = ids_of(a2, direct_sum(a2, s1(a2), s1(a2)), proj(a2),
                            a2.zero_rep(), s1(a2))
    assert a2.aut_count(ss) == 6
    assert a2.aut_count(p) == 1
    assert a2.aut_count(zero) == 1
    assert a2.aut_count(x) == 1


def test_aut_count_matches_enumeration(a2, a1_3):
    # quotient sieve vs direct End(M) enumeration at small sizes
    for cid in a2.classes_within((2, 2)):
        assert a2.aut_count(cid) == aut_count_enum(a2, cid)
    for cid in a1_3.classes_within((2,)):
        assert a1_3.aut_count(cid) == aut_count_enum(a1_3, cid)


def test_is_iso(a2):
    p = proj(a2)
    assert a2.classify(p) == a2.classify(a2.rep((1, 1), [[[1]]]))
    assert a2.classify(s1(a2)) != a2.classify(s2(a2))
    three = QuiverBackend(preset("a2"), 3)
    r1 = three.rep((1, 1), [[[1]]])
    r2 = three.rep((1, 1), [[[2]]])
    assert three.classify(r1) == three.classify(r2)
    assert is_iso_enum(three, r1, r2)
    assert three.classify(r1) != three.classify(three.rep((1, 1), [[[0]]]))


def test_is_iso_matches_enumeration(a2):
    reps = [a2.class_rep(c) for c in a2.classes_within((2, 2))]
    for x in reps:
        for y in reps:
            assert (a2.classify(x) == a2.classify(y)) == is_iso_enum(a2, x, y)


def test_is_iso_equivalence(a2):
    reps = [a2.class_rep(c) for c in a2.classes_within((1, 1))]
    reps.append(direct_sum(a2, s1(a2), s2(a2)))

    def iso(x, y):
        return a2.classify(x) == a2.classify(y)

    for x in reps:
        assert iso(x, x)
        for y in reps:
            assert iso(x, y) == iso(y, x)
            for z in reps:
                if iso(x, y) and iso(y, z):
                    assert iso(x, z)


def test_subobjects_frozen(a2):
    assert len(a2.subobject_pairs(proj(a2))) == 3
    assert len(a2.subobject_pairs(a2.zero_rep())) == 1
    split = direct_sum(a2, s1(a2), s2(a2))
    assert len(a2.subobject_pairs(split)) == 4
    # the socle of P is S2: exactly one 1-dim subobject, no S1 inside
    mids = [a2.classify(sub) for sub, _ in a2.subobject_pairs(proj(a2))
            if sum(sub.dims) == 1]
    assert mids == [a2.classify(s2(a2))]


def test_subquotient_shapes(a2):
    for sub, quot in a2.subobject_pairs(proj(a2)):
        assert tuple(a + b for a, b in zip(sub.dims, quot.dims)) == (1, 1)


def test_hall_number_frozen(a2):
    p, x, y, zero = ids_of(a2, proj(a2), s1(a2), s2(a2), a2.zero_rep())
    assert a2.hall_number(p, x, y) == 1
    assert a2.hall_number(p, y, x) == 0
    assert a2.hall_number(p, p, zero) == 1
    assert a2.hall_number(p, zero, p) == 1
    ss, split = ids_of(a2, direct_sum(a2, s1(a2), s1(a2)),
                       direct_sum(a2, s1(a2), s2(a2)))
    assert a2.hall_number(ss, x, x) == 3
    assert a2.hall_number(split, x, y) == 1
    assert a2.hall_number(split, y, x) == 1


def test_hall_number_a1():
    be = QuiverBackend(preset("a1"), 2)
    two, one = be.iso_classes((2,))[0], be.iso_classes((1,))[0]
    assert be.hall_number(two, one, one) == 3


@pytest.mark.parametrize("bound", [(-1, 2), (2,), (1, 1, 1)])
def test_classes_within_refuses_a_bad_bound(a2, bound):
    # as iso_classes does, not by returning no classes
    with pytest.raises(ValueError, match="needs 2 nonnegative entries"):
        a2.classes_within(bound)
    with pytest.raises(ValueError, match="needs 2 nonnegative entries"):
        a2.iso_classes(bound)


def test_iso_classes_frozen(a2):
    ids = a2.iso_classes((1, 1))
    assert len(ids) == 2
    # first class in enumeration order is the zero map (split), second is P
    assert a2.classify(direct_sum(a2, s1(a2), s2(a2))) == ids[0]
    assert a2.classify(proj(a2)) == ids[1]
    assert a2.iso_classes((0, 0)) == [0]
    # one class per rank of the arrow map at each dimvec: 14 in the box
    assert len(a2.classes_within((2, 2))) == 14
    window = [c for c in a2.classes_within((2, 2))
              if sum(a2.class_dim(c)) <= 2]
    assert len(window) == 7


def test_middle_terms(a2):
    split, pid, x, y = ids_of(a2, direct_sum(a2, s1(a2), s2(a2)), proj(a2),
                              s1(a2), s2(a2))
    assert {lid for lid, _ in a2.product_terms(x, y)} == {split, pid}
    assert {lid for lid, _ in a2.product_terms(y, x)} == {split}


def test_filtration_count(a2):
    p = proj(a2)
    pid, x, y = ids_of(a2, p, s1(a2), s2(a2))
    assert filtration_count(a2, p, [x, y]) == 1
    assert filtration_count(a2, p, [y, x]) == 0
    assert filtration_count(a2, p, [pid]) == 1
    assert filtration_count(a2, a2.zero_rep(), []) == 1
    be1 = QuiverBackend(preset("a1"), 2)
    two = be1.iso_classes((2,))[0]
    one = be1.iso_classes((1,))[0]
    assert filtration_count(be1, two, [one, one]) == 3


def test_contraction_identity(a2):
    # sum_X g^M_{N1,X} g^X_{N2,N3} = sum_Y g^Y_{N1,N2} g^M_{Y,N3}
    small = [c for c in a2.classes_within((1, 1)) if sum(a2.class_dim(c)) <= 1]
    nonzero = [c for c in small if sum(a2.class_dim(c)) == 1]
    for n1, n2, n3 in itertools.product(nonzero, repeat=3):
        total = tuple(a + b + c for a, b, c in zip(
            a2.class_dim(n1), a2.class_dim(n2), a2.class_dim(n3)))
        for m in a2.iso_classes(total):
            via_x = sum(
                a2.hall_number(m, n1, x) * filtration_count(a2, x, [n2, n3])
                for x in a2.classes_within(total))
            via_y = sum(
                filtration_count(a2, a2.class_rep(y), [n1, n2]) * a2.hall_number(m, y, n3)
                for y in a2.classes_within(total))
            assert via_x == via_y == filtration_count(a2, a2.class_rep(m), [n1, n2, n3])


def test_closed_form_oracle_a1():
    for q in (2, 3):
        brute = QuiverBackend(preset("a1"), q)
        oracle = A1ClosedFormBackend(q)
        for d in range(5):
            ids = brute.iso_classes((d,))
            assert len(ids) == len(oracle.iso_classes((d,))) == 1
            assert brute.aut_count(ids[0]) == oracle.aut_count(d) == gl_order(d, q)
            for a in range(d + 1):
                got = brute.hall_number(ids[0],
                                        brute.iso_classes((d - a,))[0],
                                        brute.iso_classes((a,))[0])
                assert got == oracle.hall_number(d, d - a, a)
                assert got == gaussian_binomial(d, a, q)


def test_registry_stability(a2):
    p = proj(a2)
    assert a2.classify(p) == a2.classify(p)
    other = a2.rep((1, 1), [[[1]]])
    assert a2.classify(other) == a2.classify(p)


def test_rep_json_roundtrip(a2):
    data = {"dims": {"1": 1, "2": 1}, "maps": {"0": [[1]]}, "p": 2}
    rep = a2.rep_from_json(data)
    assert a2.classify(rep) == a2.classify(proj(a2))
    missing = a2.rep_from_json({"dims": {"1": 1, "2": 1}, "p": 2})
    assert a2.classify(missing) == a2.classify(direct_sum(a2, s1(a2), s2(a2)))
    with pytest.raises(ValueError):
        a2.rep_from_json({"dims": {"1": 1, "2": 1}, "p": 3})


# extra matrix, 1x2 on a 1x1 arrow, no matrix, 2x1 on a 1x1 arrow, a dimvec
# of the wrong length, a negative dimension
BAD_REPS = [((1, 1), [[[1]], [[1]]]), ((1, 1), [[[1, 1]]]), ((1, 1), []),
            ((1, 1), [[[1], [1]]]), ((1,), [[[1]]]), ((1, -1), [[]])]


def test_rep_refuses_a_wrong_shape(a2):
    for dims, maps in BAD_REPS:
        with pytest.raises(ValueError):
            a2.rep(dims, maps)
    # entries are reduced mod p where they enter
    assert a2.rep((1, 1), [[[3]]]) == ((1, 1), (((1,),),))
    assert a2.rep((1, 1), [[[-2]]]) == a2.rep((1, 1), [[[0]]])


def test_rep_refuses_a_wrong_shape_under_optimize():
    # the checks are raises, so python -O, which strips assert statements,
    # keeps them
    script = "\n".join([
        "import sys",
        "from hallforge.backend import QuiverBackend",
        "from hallforge.quiver import preset",
        "if not sys.flags.optimize:",
        "    sys.exit('not optimized')",
        "be = QuiverBackend(preset('a2'), 2)",
        "for dims, maps in %r:" % (BAD_REPS,),
        "    try:",
        "        be.rep(dims, maps)",
        "    except ValueError:",
        "        continue",
        "    sys.exit('accepted %r' % ((dims, maps),))",
    ])
    src = os.path.dirname(os.path.dirname(backend.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


def test_field_size_must_be_prime():
    for p in (4, 1, 0, -3):
        for make in (lambda: QuiverBackend(preset("a2"), p),
                     lambda: A1ClosedFormBackend(p)):
            with pytest.raises(ValueError, match="must be prime"):
                make()


def test_cap_guard():
    be = QuiverBackend(preset("kronecker"), 5)
    import os
    os.environ["HALLFORGE_MAX_ENUM"] = "100"
    try:
        with pytest.raises(CapExceeded):
            be.iso_classes((2, 2))
    finally:
        del os.environ["HALLFORGE_MAX_ENUM"]


def test_cap_reports_budget_spent(monkeypatch):
    monkeypatch.setenv("HALLFORGE_MAX_ENUM", "100")
    be = QuiverBackend(preset("kronecker"), 5)
    with pytest.raises(CapExceeded) as refused:
        be.iso_classes((2, 2))
    # refused up front: the 5^8 arrow assignments it asked for
    assert refused.value.spent == 5 ** 8 and refused.value.limit == 100
    assert "spent 390625, limit 100" in str(refused.value)
    budget = Budget("visits", limit=3)
    with pytest.raises(CapExceeded) as busted:
        for _ in range(5):
            budget.spend()
    assert busted.value.spent == 4 and busted.value.op == "visits"


def full_scan_reps(be, dimvec):
    """Class representatives at dimvec from a scan of every arrow
    assignment, keeping each one with no injective homomorphism to an
    earlier keeper by the sieve: the enumeration without the
    orbit-counting stop.  Each keeper is registered on be, so the sieve
    can take it as a class id."""
    arrows = be.quiver.arrows
    slots = [dimvec[t] * dimvec[s] for s, t in arrows]
    keepers = []
    for assign in itertools.product(range(be.p), repeat=sum(slots)):
        entries, pos = [], 0
        for (s, t), n_ent in zip(arrows, slots):
            chunk = assign[pos:pos + n_ent]
            pos += n_ent
            entries.append([chunk[r * dimvec[s]:(r + 1) * dimvec[s]]
                            for r in range(dimvec[t])])
        cand = be.rep(dimvec, entries)
        if be._sieve_class(cand, keepers) is None:
            keepers.append(be._register(cand, be._class_key(cand)))
    return [be.class_rep(c) for c in keepers]


@pytest.mark.parametrize("tag,p,dimvec", [
    ("a2", 2, (3, 2)), ("a2", 2, (2, 3)), ("kronecker", 2, (2, 2)),
    ("a2", 3, (2, 2)), ("a3", 2, (2, 2, 1))])
def test_iso_classes_match_full_scan(tag, p, dimvec):
    be = QuiverBackend(preset(tag), p)
    ids = be.iso_classes(dimvec)
    ref_be = QuiverBackend(preset(tag), p)
    ref = full_scan_reps(ref_be, dimvec)
    assert [be.class_rep(c) for c in ids] == ref
    name = "X{" + ",".join(map(str, dimvec)) + "}#"
    assert [be.class_name(c) for c in ids] == [name + str(j) for j in range(len(ref))]
    auts = [ref_be.aut_count(ref_be.classify(r)) for r in ref]
    assert [be.aut_count(c) for c in ids] == auts
    # the orbits of the full scan's classes cover the space exactly
    group = 1
    for d in dimvec:
        group *= gl_order(d, p)
    assert sum(group // a for a in auts) == p ** sum(
        dimvec[s] * dimvec[t] for s, t in be.quiver.arrows)


def test_iso_classes_stop_once_orbits_cover_the_space(monkeypatch):
    asked = []

    class RecordingBudget(Budget):
        def check_upfront(self, n):
            super().check_upfront(n)
            asked.append((self, n))

    monkeypatch.setattr(backend, "Budget", RecordingBudget)
    be = QuiverBackend(preset("a2"), 2)
    assert len(be.iso_classes((5, 1))) == 2
    # zero map (orbit 1) then rank one (orbit 31): 2 of the 2^5 visits
    (top,) = [b for b, n in asked if b.op == "iso_classes" and n == 32]
    assert top.spent == 2


def test_iso_classes_raise_when_classes_merge(monkeypatch):
    # a path quiver's scan looks each candidate up by its rank key, so a
    # constant rank invariant merges the two classes at (1, 1)
    monkeypatch.setattr(QuiverBackend, "_rank_invariant", lambda self, maps: (0,))
    be = QuiverBackend(preset("a2"), 2)
    with pytest.raises(EnumerationError, match="cover 1 of 2"):
        be.iso_classes((1, 1))
    assert (1, 1) not in be._dimvec_classes


def test_iso_classes_raise_when_classes_merge_on_the_sieve(monkeypatch):
    # kronecker's scan sieves candidates against the classes found: a sieve
    # that sees an injection everywhere lets the zero pair at (1, 1) (orbit
    # 1) swallow the other 3 assignments
    monkeypatch.setattr(QuiverBackend, "_sieve",
                        lambda self, hom, quots, b: 1)
    be = QuiverBackend(preset("kronecker"), 2)
    with pytest.raises(EnumerationError, match="cover 1 of 4"):
        be.iso_classes((1, 1))
    assert (1, 1) not in be._dimvec_classes


@pytest.mark.parametrize("aut,message", [
    (7, r"a_M = 7 does not divide \|GL_\(2, 1\)\| = 6"),
    (1, "cover 6 of 4")])  # one orbit of |GL_(2,1)| = 6 overshoots 2^2
def test_iso_classes_raise_on_bad_orbit_count(monkeypatch, aut, message):
    monkeypatch.setattr(QuiverBackend, "aut_count", lambda self, m: aut)
    be = QuiverBackend(preset("a2"), 2)
    with pytest.raises(EnumerationError, match=message):
        be.iso_classes((2, 1))


@st.composite
def a2_pairs(draw):
    be = QuiverBackend(preset("a2"), 2)
    ids = [c for c in be.classes_within((1, 1))]
    return be, draw(st.sampled_from(ids)), draw(st.sampled_from(ids))


@settings(max_examples=30, deadline=None)
@given(a2_pairs())
def test_hall_symmetry_of_counts(pair):
    # total count over all middle terms L of g^L_{MN} weighted by nothing
    # must match the subobject scan run with roles of sub and quotient fixed
    be, m, n = pair
    total = tuple(a + b for a, b in zip(be.class_dim(m), be.class_dim(n)))
    direct = 0
    for lid in be.iso_classes(total):
        direct += be.hall_number(lid, m, n)
    by_scan = 0
    for lid in be.iso_classes(total):
        for sub, quot in be.subobject_pairs(be.class_rep(lid)):
            if be.classify(sub) == n and be.classify(quot) == m:
                by_scan += 1
    assert direct == by_scan


# 2 -> 1 and 3 -> 4: a disjoint union of two paths
TWO_PATHS = Quiver(("1", "2", "3", "4"), (("2", "1"), ("3", "4")))
THREE_ONE_TWO = Quiver(("1", "2", "3"), (("3", "1"), ("1", "2")))


def test_path_chains_detects_unions_of_linear_paths(tmp_path):
    assert backend.path_chains(preset("a1")) == ()
    assert backend.path_chains(preset("a2")) == ((0,),)
    assert backend.path_chains(preset("a3")) == ((0, 1),)
    # 3 -> 1 -> 2 with its arrows listed out of path order, read from JSON
    spec = tmp_path / "path.json"
    spec.write_text(json.dumps({"vertices": ["1", "2", "3"], "arrows": [
        {"from": "1", "to": "2"}, {"from": "3", "to": "1"}]}))
    assert backend.path_chains(load_quiver(spec)) == ((1, 0),)
    assert backend.path_chains(TWO_PATHS) == ((0,), (1,))
    assert backend.path_chains(preset("kronecker")) is None
    assert QuiverBackend(preset("kronecker"), 2)._chains is None
    assert backend.path_chains(
        Quiver(("1", "2", "3"), (("1", "2"), ("3", "2")))) is None
    assert backend.path_chains(
        Quiver(("1", "2", "3"), (("2", "1"), ("2", "3")))) is None


# each backend with its paths, as vertex indices in path order
RANK_KEY_CASES = {
    "a2/2": (QuiverBackend(preset("a2"), 2), [[0, 1]]),
    "a2/3": (QuiverBackend(preset("a2"), 3), [[0, 1]]),
    "a3/2": (QuiverBackend(preset("a3"), 2), [[0, 1, 2]]),
    "a3/3": (QuiverBackend(preset("a3"), 3), [[0, 1, 2]]),
    "3>1>2/2": (QuiverBackend(THREE_ONE_TWO, 2), [[2, 0, 1]]),
    "3>1>2/3": (QuiverBackend(THREE_ONE_TWO, 3), [[2, 0, 1]]),
    "two-paths/2": (QuiverBackend(TWO_PATHS, 2), [[1, 0], [2, 3]]),
}


def _roots(n, paths):
    """Dimension vectors of the interval modules: the positive roots."""
    return [tuple(int(v in path[i:j]) for v in range(n))
            for path in paths for i in range(len(path))
            for j in range(i + 1, len(path) + 1)]


def _root_partitions(dimvec, roots):
    """Each way to write dimvec as a sum of roots, order ignored."""
    if not any(dimvec):
        yield ()
        return
    if not roots:
        return
    root, rest = roots[0], roots[1:]
    taken = ()
    while all(x >= 0 for x in dimvec):
        for tail in _root_partitions(dimvec, rest):
            yield taken + tail
        dimvec = tuple(x - r for x, r in zip(dimvec, root))
        taken += (root,)


def _inverse(m, p):
    n = len(m)
    aug = tuple(row + tuple(int(i == j) for j in range(n))
                for i, row in enumerate(m))
    red, _, _ = rref(aug, p)
    return tuple(row[n:] for row in red)


@functools.lru_cache(maxsize=None)
def invertible(d, p):
    """Every invertible d x d matrix over F_p, as a tuple of row tuples."""
    rows = list(itertools.product(range(p), repeat=d))
    return [m for m in itertools.product(rows, repeat=d)
            if row_rank(m, p) == d]


def change_basis(draw, be, rep):
    """rep after a random change of basis at every vertex."""
    p, dims = be.p, rep.dims
    base = [draw(st.sampled_from(invertible(d, p))) for d in dims]
    maps = [mat_mul(mat_mul(base[t], f, p, dims[s]), _inverse(base[s], p),
                    p, dims[s])
            for (s, t), f in zip(be.quiver.arrows, rep.maps)]
    return Rep(dims, tuple(maps))


@st.composite
def rep_pairs(draw):
    """Two reps of one small dimvec on a path quiver.  Each is random
    arrow matrices, a direct sum of interval modules, or (the second) the
    first after a random change of basis."""
    be, paths = RANK_KEY_CASES[draw(st.sampled_from(sorted(RANK_KEY_CASES)))]
    p, arrows = be.p, be.quiver.arrows
    bound = 9 if p == 2 else 6
    dims = tuple(draw(st.lists(st.sampled_from((0, 1, 1, 2, 2)),
                               min_size=be.quiver.n,
                               max_size=be.quiver.n).filter(
        lambda d: sum(x * x for x in d) <= bound)))
    splits = list(_root_partitions(dims, _roots(be.quiver.n, paths)))

    def matrix(rows, cols):
        return draw(st.lists(st.lists(st.integers(0, p - 1), min_size=cols,
                                      max_size=cols),
                             min_size=rows, max_size=rows))

    def draw_rep():
        if draw(st.booleans()):
            return be.rep(dims, [matrix(dims[t], dims[s]) for s, t in arrows])
        rep = be.zero_rep()
        for root in draw(st.sampled_from(splits)):
            rep = direct_sum(be, rep, be.rep(root, [
                [[int(root[s] and root[t])] * root[s]] * root[t]
                for s, t in arrows]))
        return change_basis(draw, be, rep)

    a = draw_rep()
    b = change_basis(draw, be, a) if draw(st.booleans()) else draw_rep()
    return be, a, b


@settings(max_examples=150, deadline=None)
@given(rep_pairs())
def test_rank_key_is_iso_matches_sieve_and_enumeration(pair):
    be, a, b = pair
    assert be._chains is not None
    aid, bid = be.classify(a), be.classify(b)
    got = aid == bid
    assert got == (be._sieve_class(a, [bid]) is not None) \
        == is_iso_enum(be, a, b)
    assert (be._sieve_class(b, [aid]) is not None) == got


def assert_memos_keyed_by_class_pairs(be):
    """Every key of the injection memo, the one memo of class pairs a Hom
    dimension goes into, is a pair of class ids."""
    ids = range(len(be._classes))
    assert all(type(a) is int and type(b) is int and a in ids and b in ids
               for a, b in be._inj)


def assert_one_key_per_class(be):
    """On a path quiver the classification table maps the rank key of each
    class to its id and holds nothing else: no classified Rep is stored."""
    assert be._chains is not None
    assert be._key_to_id == {be._class_key(rep): cid
                             for cid, rep in enumerate(be._classes)}


# a backend at q=2 and the dimvecs drawn on it, each with a space of
# dimension 2 for a change of basis to move
UNREGISTERED_CASES = {
    "kronecker": (QuiverBackend(preset("kronecker"), 2),
                  [(2, 1), (1, 2), (2, 2)]),
    "a3": (QuiverBackend(preset("a3"), 2), [(2, 1, 1), (1, 2, 1), (2, 2, 1)]),
    "1>2<3": (QuiverBackend(Quiver(("1", "2", "3"),
                                   (("1", "2"), ("3", "2"))), 2),
              [(1, 2, 1), (2, 1, 1), (1, 2, 2)]),
}


@st.composite
def class_and_conjugate(draw):
    """A backend, a class id M and M's representative after a random change
    of basis that moves it to a Rep whose class is not known yet."""
    be, dimvecs = UNREGISTERED_CASES[draw(st.sampled_from(
        sorted(UNREGISTERED_CASES)))]
    mid = draw(st.sampled_from(be.iso_classes(draw(st.sampled_from(dimvecs)))))
    rep = change_basis(draw, be, be.class_rep(mid))
    # on a path quiver the table holds rank keys, not Reps, so the table
    # alone would let the registered representative itself through
    assume(rep != be.class_rep(mid) and rep not in be._key_to_id)
    return be, mid, rep


@settings(max_examples=40, deadline=None)
@given(class_and_conjugate())
def test_an_unregistered_rep_counts_like_its_class(case):
    # a Rep whose class is not known is sieved against the classes of its
    # dims with nothing stored for it: the sieve, classify and enumeration
    # must all find its class
    be, mid, rep = case
    cids = be.iso_classes(rep.dims)
    for cid in cids:
        assert be._rep_hom_dim(rep, be.class_rep(cid)) == be.hom_dim(mid, cid)
        assert be._rep_hom_dim(be.class_rep(cid), rep) == be.hom_dim(cid, mid)
        assert is_iso_enum(be, rep, cid) == (cid == mid)
    assert be._sieve_class(rep, cids) == be.classify(rep) == mid
    assert_memos_keyed_by_class_pairs(be)


@pytest.mark.parametrize("tag,dimvec,count", [
    ("a2", (3, 3), 4), ("a2", (4, 3), 4), ("a3", (2, 2, 2), 10)])
@pytest.mark.parametrize("p", [2, 3])
def test_class_count_is_the_kostant_partition_count(tag, dimvec, count, p):
    # Gabriel: on a Dynkin quiver the isoclasses at d are the ways to split
    # d into dimension vectors of indecomposables, the positive roots, so
    # their number does not depend on the field
    roots = _roots(len(dimvec), [list(range(len(dimvec)))])
    assert len(list(_root_partitions(dimvec, roots))) == count
    assert len(QuiverBackend(preset(tag), p).iso_classes(dimvec)) == count


def test_rejected_candidates_leave_no_memo_entries():
    be = QuiverBackend(preset("a2"), 2)
    assert len(be.iso_classes((3, 3))) == 4
    assert_one_key_per_class(be)
    assert_memos_keyed_by_class_pairs(be)


def test_rejected_candidates_leave_no_memo_entries_on_the_sieve():
    # kronecker is not a path quiver: its scan sieves each candidate against
    # the classes found, and nothing is stored for a rejected one
    be = QuiverBackend(preset("kronecker"), 2)
    assert be._chains is None
    top = be.iso_classes((2, 2))
    assert len(top) == 16
    assert len(be._classes) == 35
    assert_memos_keyed_by_class_pairs(be)
    # the classification memo holds quotients and subobjects, all of
    # smaller dims: the only Reps of the scanned dims are the classes
    assert {rep for rep in be._key_to_id if rep.dims == (2, 2)} == {
        be.class_rep(c) for c in top}
    for cid in be.classes_within((1, 1)):
        be.subobject_table(cid)  # classifies every sub and quotient
    assert_memos_keyed_by_class_pairs(be)


# -- class-id tables against the per-triple algorithms they replace -------

CLASS_TABLE_CASES = {
    "a2/2": ("a2", 2, 3), "a2/3": ("a2", 3, 3), "a3/2": ("a3", 2, 3),
    "kronecker/2": ("kronecker", 2, 2), "1>2<3/2": ("1>2<3", 2, 3),
}


def table_case(name):
    """A fresh backend and its classes up to the case's total dim."""
    tag, p, top = CLASS_TABLE_CASES[name]
    if tag == "1>2<3":
        quiver = Quiver(("1", "2", "3"), (("1", "2"), ("3", "2")))
    else:
        quiver = preset(tag)
    be = QuiverBackend(quiver, p)
    dimvecs = [d for d in itertools.product(range(top + 1), repeat=quiver.n)
               if sum(d) <= top]
    return be, [c for d in dimvecs for c in be.iso_classes(d)]


def scan_hall_number(be, lid, mid, nid):
    """g^L_{MN} by one scan of L's subobjects per triple."""
    lrep, mrep, nrep = (be.class_rep(c) for c in (lid, mid, nid))
    if tuple(m + n for m, n in zip(mrep.dims, nrep.dims)) != lrep.dims:
        return 0
    return sum(1 for sub, quot in be.subobject_pairs(lrep)
               if sub.dims == nrep.dims and quot.dims == mrep.dims
               and be.classify(sub) == nid and be.classify(quot) == mid)


@pytest.mark.parametrize("case", sorted(CLASS_TABLE_CASES))
def test_hall_number_matches_the_subobject_scan(case):
    be, classes = table_case(case)
    for lid in classes:
        top = be.class_dim(lid)
        table = {}
        for mid in classes:
            for nid in classes:
                want = scan_hall_number(be, lid, mid, nid)
                assert be.hall_number(lid, mid, nid) == want
                if want:
                    table[(mid, nid)] = want
                    assert all(m + n == t for m, n, t in zip(
                        be.class_dim(mid), be.class_dim(nid), top))
        assert be.subobject_table(lid) == table
        assert sum(table.values()) == len(be.subobject_pairs(
            be.class_rep(lid)))


@pytest.mark.parametrize("case", sorted(CLASS_TABLE_CASES))
def test_product_terms_match_the_hall_number_scan(case):
    be, classes = table_case(case)
    top = CLASS_TABLE_CASES[case][2]
    for mid in classes:
        for nid in classes:
            total = tuple(m + n for m, n in zip(be.class_dim(mid),
                                                be.class_dim(nid)))
            if sum(total) > top:
                continue
            want = [(lid, g) for lid in be.iso_classes(total)
                    if (g := scan_hall_number(be, lid, mid, nid))]
            assert list(be.product_terms(mid, nid)) == want


def sieve_classify(be, rep):
    """The class of rep by the injection-count sieve."""
    return be._sieve_class(rep, be.iso_classes(rep.dims))


@settings(max_examples=100, deadline=None)
@given(rep_pairs())
def test_rank_key_classify_matches_the_sieve(pair):
    be, a, b = pair
    for rep in (a, b):
        assert be.classify(rep) == sieve_classify(be, rep)
    # a path quiver classifies without storing the classified rep
    assert_one_key_per_class(be)


def test_bialgebra_run_keys_registered_reps_only(monkeypatch):
    from hallforge import suites
    made = []

    def make(quiver, p):
        made.append(QuiverBackend(quiver, p))
        return made[-1]

    monkeypatch.setattr(suites, "make_backend", make)
    report = suites.run_suite(suites.RunConfig(suite="bialgebra"))
    assert report["instances"] == report["passes"] == 1260
    (be,) = made
    assert_one_key_per_class(be)
    assert_memos_keyed_by_class_pairs(be)


def test_aut_count_and_euler_form_memos(a2):
    ss = a2.classify(direct_sum(a2, s1(a2), s1(a2)))
    assert a2.aut_count(ss) == aut_count_enum(a2, ss) == 6
    assert a2._inj[(ss, ss)] == 6
    assert a2.euler_form((1, 1), (1, 1)) == a2._euler[((1, 1), (1, 1))] == 1
    with pytest.raises(ValueError):
        a2.euler_form((1,), (1, 0))


# -- rank-key subobject tables on path quivers ------------------------------

def reps_table(be, lid):
    """L's subobject table from its (sub, quotient) Reps, each leg
    classified on its own, in subobject order."""
    table = {}
    for sub, quot in be.subobject_pairs(be.class_rep(lid)):
        key = (be.classify(quot), be.classify(sub))
        table[key] = table.get(key, 0) + 1
    return table


def two_path_quiver(tmp_path):
    # 2 -> 1 and 3 -> 4 -> 5, read from JSON
    spec = tmp_path / "two-paths.json"
    spec.write_text(json.dumps({"vertices": ["1", "2", "3", "4", "5"], "arrows": [
        {"from": "2", "to": "1"}, {"from": "3", "to": "4"},
        {"from": "4", "to": "5"}]}))
    return load_quiver(spec)


@pytest.mark.parametrize("case,p,box", [
    ("a2", 2, (3, 3)), ("a2", 3, (2, 2)), ("a3", 2, (2, 2, 2)),
    ("two-paths", 2, (1, 2, 1, 1, 1))])
def test_rank_key_table_matches_the_subobject_reps(case, p, box, tmp_path):
    quiver = two_path_quiver(tmp_path) if case == "two-paths" else preset(case)
    be = QuiverBackend(quiver, p)
    assert be._chains is not None
    checked = 0
    for lid in be.classes_within(box):
        table = be.subobject_table(lid)
        assert list(table.items()) == list(reps_table(be, lid).items())
        if p ** be.hom_dim(lid, lid) <= 2 ** 10:
            assert be.aut_count(lid) == aut_count_enum(be, lid)
            checked += 1
    assert checked >= len(be.classes_within(box)) // 2


def count_sub_quot_reps(monkeypatch):
    """A list that gets one entry per (sub, quotient) Rep pair built."""
    made = []
    build = QuiverBackend._make_sub_quot

    def counting(self, rep, combo):
        made.append(rep.dims)
        return build(self, rep, combo)

    monkeypatch.setattr(QuiverBackend, "_make_sub_quot", counting)
    return made


@pytest.mark.parametrize("tag,p,dimvec", [
    ("a2", 2, (4, 3)), ("a2", 3, (3, 3)), ("a3", 2, (2, 2, 2))])
def test_path_quiver_tables_build_no_subobject_reps(monkeypatch, tag, p,
                                                   dimvec):
    made = count_sub_quot_reps(monkeypatch)
    be = QuiverBackend(preset(tag), p)
    for lid in be.iso_classes(dimvec):
        be.aut_count(lid)
    for lid in be.classes_within(dimvec):
        be.subobject_table(lid)
    assert made == []
    assert_memos_keyed_by_class_pairs(be)


def test_sieve_quiver_tables_still_build_subobject_reps(monkeypatch):
    made = count_sub_quot_reps(monkeypatch)
    be = QuiverBackend(preset("kronecker"), 2)
    for lid in be.iso_classes((2, 2)):
        be.aut_count(lid)
    assert made
    assert_memos_keyed_by_class_pairs(be)


# ---------------------------------------------------------------------------
# the class name table

@pytest.mark.parametrize("tag,p,dimvec", [
    ("a2", 2, (3, 3)), ("a3", 2, (2, 2, 2)), ("kronecker", 2, (2, 2))])
def test_class_names_are_places_in_the_class_list(tag, p, dimvec):
    be = QuiverBackend(preset(tag), p)
    ids = be.iso_classes(dimvec)
    prefix = "X{" + ",".join(map(str, dimvec)) + "}#"
    for cid in ids:
        assert be.class_name(cid) == prefix + str(
            be.iso_classes(dimvec).index(cid))
    # one name per registered class at most, however often it is asked
    # for (the zero class gets its name when its dimvec is first listed)
    assert set(be._names) <= set(range(len(be._classes)))
    for _ in range(2):
        for cid in range(len(be._classes)):
            be.class_name(cid)
    assert set(be._names) == set(range(len(be._classes)))


def test_class_names_do_not_move_when_larger_dimvecs_are_enumerated():
    def names_by_key(be, cids):
        return {be.class_rep(c): be.class_name(c) for c in cids}

    early = QuiverBackend(preset("a2"), 2)
    small = early.classes_within((2, 1))
    before = names_by_key(early, small)
    early.classes_within((3, 3))
    assert names_by_key(early, small) == before
    late = QuiverBackend(preset("a2"), 2)
    late.classes_within((3, 3))
    assert names_by_key(late, late.classes_within((2, 1))) == before
    assert before[early.simple_rep(0)] == "S1"
    assert len(early._names) == len(early._classes)
    assert len(late._names) == len(late._classes)


def test_class_name_lists_an_unlisted_dimvec_first():
    # the zero class is registered when the backend is made, before its
    # dimvec is ever listed
    be = QuiverBackend(preset("a2"), 2)
    zero = be.classify(be.zero_rep())
    assert (0, 0) not in be._dimvec_classes and zero not in be._names
    assert be.class_name(zero) == "X{0,0}#0"
    assert be._dimvec_classes[(0, 0)] == [zero]
