import hashlib
import itertools
from functools import partial

import pytest

from hallforge import morphisms, presented, scalars, suites
from hallforge.backend import QuiverBackend
from hallforge.exprs import render_any, render_letter
from hallforge.morphisms import (GenMap, apply_hom, build_hom, check_relation,
                                 double_monomials, rank_independence,
                                 tensor_apply)
from hallforge.presented import (TWO_SIDED, E, FreeElt, Kc, KMinus, KPlus,
                                 KcMinus, KcPlus, KdMinus, KdPlus, Kz, MuMinus,
                                 MuPlus, NuMinus, NuPlus, OmMinus, OmPlus, Zg,
                                 algebra, normal_form, pmult,
                                 relation_instance, tensor_mult, tensor_word)
from hallforge.quiver import add_class, neg_class, preset
from hallforge.scalars import Lin, vpow
from hallforge.suites import _BUILDERS, RunConfig, _alphas, _run_one

import fold_oracles
from pair_oracles import check_pair_table

BE = QuiverBackend(preset("a2"), 2)
S1 = BE.class_by_name("S1")
S2 = BE.class_by_name("S2")
SPLIT = BE.class_by_name("X{1,1}#0")
P = BE.class_by_name("X{1,1}#1")
WINDOW = [c for c in BE.classes_within((2, 2))
          if sum(BE.class_dim(c)) <= 2]
ALPHAS = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]


def w(*letters):
    return FreeElt.word(2, letters)


def test_build_hom_validation():
    with pytest.raises(ValueError):
        build_hom(BE, "kappa", m=2, i=0)
    with pytest.raises(ValueError):
        build_hom(BE, "kappa")  # missing i
    with pytest.raises(ValueError):
        build_hom(BE, "varphi")
    with pytest.raises(ValueError):
        build_hom(BE, "frobenius")


def test_I_frozen_image():
    I = build_hom(BE, "I")
    img = I.image(OmPlus(S1))
    expected = tensor_word(I.target, (MuPlus(S1),), ()) + \
        tensor_word(I.target, (KPlus((1, 0)),), (NuPlus(S1),))
    assert img == expected
    # unit goes to unit
    assert apply_hom(I, w()) == I.target_unit()


def test_apply_hom_rejects_foreign_symbols():
    I = build_hom(BE, "I")
    with pytest.raises(ValueError):
        apply_hom(I, w(MuPlus(S1)))


def test_psi_frozen_image():
    psi = build_hom(BE, "psi", m=0, i=0)
    assert psi.image(KdPlus((1, 0))) == \
        tensor_word(psi.target, (Kc((1, 0), 1),), (Kc((1, 0), 0),))


def _low_classes(be):
    """Every class of total dimension 1 or 2."""
    n = be.quiver.n
    dims = {d for d in itertools.product(range(3), repeat=n)
            if 1 <= sum(d) <= 2}
    return [c for d in sorted(dims) for c in be.iso_classes(d)]


@pytest.mark.parametrize("quiver,q", [("a2", 2), ("a2", 3), ("a3", 2),
                                      ("kronecker", 2)])
def test_index_shift_maps_match_their_closed_forms(quiver, q):
    """phi and phiInv against images written out by hand, each right side
    the normal form of that word; then phiInv o phi and phi o phiInv are
    the identity on every generator at indices -6..6, torus letters of the
    non-simple alpha S1^ - S2^ included."""
    be = QuiverBackend(preset(quiver), q)
    phi, inv = build_hom(be, "phi"), build_hom(be, "phiInv")
    classes = _low_classes(be)
    alphas = [a for a in _alphas(be) if any(a)]
    for M in classes:
        d = be.class_dim(M)
        nd = neg_class(d)
        mm = be.euler_form(d, d)
        cases = [
            (phi, Zg(M, 2), 2, (E(M, 2), Kc(nd, 1), Kc(d, 0))),
            (phi, Zg(M, 1), 1, (E(M, 1), Kc(nd, 0))),
            (phi, Zg(M, 0), 0, (E(M, 0),)),
            (phi, Zg(M, -1), -1, (E(M, -1), Kc(nd, -1))),
            (phi, Zg(M, -2), -2, (E(M, -2), Kc(nd, -2), Kc(d, -1))),
            (inv, E(M, 2), -2, (Zg(M, 2), Kz(nd, 0), Kz(d, 1))),
            (inv, E(M, 1), -1, (Zg(M, 1), Kz(d, 0))),
            (inv, E(M, 0), 0, (Zg(M, 0),)),
            (inv, E(M, -1), 1, (Zg(M, -1), Kz(d, -1))),
            (inv, E(M, -2), 2, (Zg(M, -2), Kz(nd, -1), Kz(d, -2))),
        ]
        for h, letter, e, letters in cases:
            want = normal_form(h.target,
                               FreeElt.word(q, letters, vpow(e * mm, q)))
            assert h.image(letter) == want, (quiver, q, h.name, letter)
    for a in alphas:
        for n in range(-2, 3):
            for h, letter, image in ((phi, Kz(a, n), Kc(a, n)),
                                     (inv, Kc(a, n), Kz(a, n))):
                assert h.image(letter) == \
                    normal_form(h.target, FreeElt.word(q, (image,))), \
                    (quiver, q, h.name, letter)
    s1, s2 = be.quiver.simple_class(0), be.quiver.simple_class(1)
    alphas.append(add_class(s1, neg_class(s2)))
    for n in range(-6, 7):
        gens = [(phi, inv, Zg(M, n)) for M in classes] + \
            [(inv, phi, E(M, n)) for M in classes] + \
            [(phi, inv, Kz(a, n)) for a in alphas] + \
            [(inv, phi, Kc(a, n)) for a in alphas]
        for first, second, letter in gens:
            x = FreeElt.word(q, (letter,))
            assert apply_hom(second, apply_hom(first, x)) == \
                normal_form(first.source, x), (quiver, q, letter)


def test_phi_preserves_sample_relations():
    phi = build_hom(BE, "phi")
    cases = [
        ("4.10", {"alpha": (1, 0), "M": S2, "i": 0, "j": 0}),
        ("4.11", {"alpha": (1, 0), "beta": (0, 1), "i": 1, "j": 0}),
        ("4.12", {"alpha": (0, 1), "M": S1, "i": -1}),
        ("4.14", {"alpha": (1, 0), "M": P, "i": 0, "j": 2}),
        ("4.15", {"M": S1, "N": S2, "i": 1}),
        ("4.16", {"M": P, "N": S1, "i": -2}),
        ("4.17", {"M": S1, "N": P, "i": 2, "j": 0}),
    ]
    for rel, params in cases:
        ok, left, right = check_relation(phi, rel, params)
        assert ok, (rel, params, render_any(BE, left), render_any(BE, right))


def test_kappa_preserves_relations_spot():
    for m, i in ((0, 0), (0, -1), (4, 3)):
        kap = build_hom(BE, "kappa", m=m, i=i)
        chk = build_hom(BE, "kappaCheck", m=m, i=i)
        for rel in TWO_SIDED["hd"].relations:
            ok, left, right = check_relation(kap, rel, {
                "M": S1, "N": P, "alpha": (1, 0), "beta": (0, 1), "sign": 1})
            assert ok, (m, i, rel, render_any(BE, left),
                        render_any(BE, right))
        for rel in TWO_SIDED["hhd"].relations:
            ok, left, right = check_relation(chk, rel, {
                "M": P, "N": S2, "alpha": (0, 1), "beta": (1, 0), "sign": -1})
            assert ok, (m, i, rel, render_any(BE, left),
                        render_any(BE, right))


def test_I_preserves_double_relations_spot():
    I = build_hom(BE, "I")
    for rel in TWO_SIDED["d"].relations:
        ok, left, right = check_relation(I, rel, {
            "M": S1, "N": S2, "alpha": (1, 0), "beta": (0, -1), "sign": 1})
        assert ok, (rel, render_any(BE, left), render_any(BE, right))
    ok, _, _ = check_relation(I, "2.18", {"M": P, "N": P})
    assert ok


def test_varphi_triangle():
    phi_inv = build_hom(BE, "phiInv")
    letters = (OmPlus(S1), OmPlus(P), OmMinus(S2), OmMinus(P),
               KdPlus((1, 0)), KdMinus((0, 1)))
    for i in (-2, -1, 0, 1):
        vp = build_hom(BE, "varphi", i=i)
        psi = build_hom(BE, "psi", m=0, i=i)
        for letter in letters:
            direct = apply_hom(vp, w(letter))
            via = tensor_apply(phi_inv, phi_inv, apply_hom(psi, w(letter)))
            assert direct == via, (i, letter)


def test_varphi_preserves_relations_spot():
    for i in (-2, -1, 0, 1):
        vp = build_hom(BE, "varphi", i=i)
        ok, left, right = check_relation(vp, "2.18", {"M": S1, "N": S1})
        assert ok, (i, render_any(BE, left), render_any(BE, right))
        ok, _, _ = check_relation(vp, "2.15",
                                  {"alpha": (0, 1), "M": P, "sign": -1})
        assert ok, i


def test_check_relation_reports_failure():
    # a deliberately wrong map: kappa with mismatched indices on the K side
    kap = build_hom(BE, "kappa", m=0, i=0)
    broken = build_hom(BE, "kappa", m=0, i=1)
    bad = GenMap("bad", kap.source, kap.target,
                 lambda letter: (kap.image(letter)
                                 if letter[0] == "mu"
                                 else broken.image(letter)))
    prm = {"alpha": (1, 0), "M": S1, "sign": 1}
    ok, left, right = check_relation(bad, "2.4", prm)
    assert not ok and left != right
    fail = _run_one(BE, ("2.4", {}, partial(check_relation, bad, "2.4", prm)))
    assert fail["lhs"] and fail["rhs"] and fail["lhs"] != fail["rhs"]


def test_rank_independence():
    I = build_hom(BE, "I")
    a = I.image(OmPlus(S1))
    b = I.image(OmPlus(S2))
    assert rank_independence([a, b]) == 2
    assert rank_independence([a, a]) == 1
    assert rank_independence([]) == 0
    assert rank_independence([a, b, a + b]) == 2
    # scalar multiples are dependent over the field (not just over Q)
    assert rank_independence([a, a.scale(vpow(1, 2))]) == 1


def test_double_monomials_rank():
    I = build_hom(BE, "I")
    monos = double_monomials(BE, ALPHAS, WINDOW, 8)
    assert len(monos) == 8
    assert len({tuple(m.terms) for m in monos}) == 8
    images = [apply_hom(I, m) for m in monos]
    assert rank_independence(images) == 8


# ---------------------------------------------------------------------------
# apply_hom starts each word from its first image, not from the unit

OBJS_NZ = [c for c in WINDOW if c]
ALPHAS_NZ = [a for a in ALPHAS if any(a)]
IDX = range(-3, 4)


def _generators(family):
    """Source generators of the gate's maps over the max_dim 2 window."""
    if family == "d":
        return ([OmPlus(c) for c in OBJS_NZ] + [OmMinus(c) for c in OBJS_NZ]
                + [KdPlus(a) for a in ALPHAS_NZ]
                + [KdMinus(a) for a in ALPHAS_NZ])
    if family == "hd":
        return ([MuPlus(c) for c in OBJS_NZ] + [MuMinus(c) for c in OBJS_NZ]
                + [KPlus(a) for a in ALPHAS_NZ]
                + [KMinus(a) for a in ALPHAS_NZ])
    if family == "hhd":
        return ([NuPlus(c) for c in OBJS_NZ] + [NuMinus(c) for c in OBJS_NZ]
                + [KcPlus(a) for a in ALPHAS_NZ]
                + [KcMinus(a) for a in ALPHAS_NZ])
    if family == "dhce":
        return ([Zg(c, i) for c in OBJS_NZ for i in IDX]
                + [Kz(a, i) for a in ALPHAS_NZ for i in IDX])
    assert family == "dhm"
    return ([E(c, i) for c in OBJS_NZ for i in IDX]
            + [Kc(a, i) for a in ALPHAS_NZ for i in IDX])


def _gate_maps():
    maps = [build_hom(BE, "I"), build_hom(BE, "phi"),
            build_hom(BE, "phiInv")]
    for m, idxs in ((0, (-1, 0, 1)), (4, (1, 3))):
        for i in idxs:
            maps.append(build_hom(BE, "kappa", m=m, i=i))
            maps.append(build_hom(BE, "kappaCheck", m=m, i=i))
    for m, idxs in ((0, (-2, -1, 0, 1)), (4, (1,))):
        maps += [build_hom(BE, "psi", m=m, i=i) for i in idxs]
    maps += [build_hom(BE, "varphi", i=i) for i in (-2, -1, 0, 1)]
    return maps


def _unit_first_apply(h, x):
    """apply_hom as it read when every word started from the unit."""
    out = Lin(h.source.q, None, h.target)
    for word, c in x.terms.items():
        acc = h.target_unit()
        for letter in word:
            img = h.image(letter)
            if h.is_tensor():
                acc = tensor_mult(acc, img)
            else:
                acc = pmult(h.target, acc, img)
        out = out + acc.scale(c)
    return out


def test_unit_times_each_image_is_the_image():
    for h in _gate_maps():
        unit = h.target_unit()
        for letter in _generators(h.source.family):
            img = h.image(letter)
            if h.is_tensor():
                assert tensor_mult(unit, img) == img, (h, letter)
            else:
                prod = pmult(h.target, unit, img)
                assert prod == img and prod.canonical == img.canonical, \
                    (h, letter)


def test_apply_hom_matches_unit_first_loop():
    for h in _gate_maps():
        gens = _generators(h.source.family)[::3][:8]
        images = {g: dict(h.image(g).terms) for g in gens}
        words = [w(a, b) for a, b in itertools.product(gens[:4], gens[4:])]
        words += [w(*gens[k:k + 3]) for k in range(0, len(gens) - 2, 3)]
        words.append(w(gens[0], gens[-1]) + w(gens[1]).scale(vpow(1, 2))
                     + w())
        for x in words:
            assert apply_hom(h, x) == _unit_first_apply(h, x), (h, x)
        # the cached images are shared, never updated in place
        for g, terms in images.items():
            assert h.image(g).terms == terms


# ---------------------------------------------------------------------------
# every generator image, byte for byte

def _pinned_maps():
    maps = [build_hom(BE, "I"), build_hom(BE, "phi"),
            build_hom(BE, "phiInv")]
    for m, idxs in ((0, (-1, 0, 1)), (4, range(4))):
        for i in idxs:
            maps += [build_hom(BE, name, m=m, i=i)
                     for name in ("kappa", "kappaCheck", "psi")]
    maps += [build_hom(BE, "varphi", i=i) for i in range(-3, 3)]
    return maps


def test_generator_images_pinned():
    # sha256 of the rendered image of every generator of each source under
    # every map: a change to how a map is built must keep all 700 images
    digest = hashlib.sha256()
    count = 0
    for h in _pinned_maps():
        for letter in _generators(h.source.family):
            digest.update(("%r %s: %s\n" % (
                h, render_letter(BE, letter),
                render_any(BE, h.image(letter)))).encode())
            count += 1
    assert (count, digest.hexdigest()) == (
        700, "bc5f4a13b06fd2418cb73227783145d895f7d3cf038445c87cc7d290141df204")


@pytest.mark.parametrize("quiver,q", [("a2", 2), ("a2", 3),
                                      ("kronecker", 2)])
def test_psi_is_kappa_tensor_kappa_check_after_I(quiver, q):
    # psi(m, i) = (kappa(m, i) (x) kappaCheck(m, i)) o I on every generator
    # of d, unit letters included: one route maps letters and then orders
    # in dhm, the other orders in hd and hhd and then maps
    be = QuiverBackend(preset(quiver), q)
    objs = [c for c in be.classes_within((2, 2))
            if sum(be.class_dim(c)) <= 2]
    alphas = _alphas(be)
    gens = ([OmPlus(c) for c in objs] + [OmMinus(c) for c in objs]
            + [KdPlus(a) for a in alphas] + [KdMinus(a) for a in alphas])
    I = build_hom(be, "I")
    count = 0
    for m, idxs in ((0, (-1, 0, 1)), (4, range(4))):
        for i in idxs:
            psi = build_hom(be, "psi", m=m, i=i)
            kap = build_hom(be, "kappa", m=m, i=i)
            chk = build_hom(be, "kappaCheck", m=m, i=i)
            for g in gens:
                assert psi.image(g) == tensor_apply(kap, chk, I.image(g)), \
                    (quiver, q, m, i, g)
                count += 1
    assert count == {"a2": 168, "kronecker": 196}[quiver]


# ---------------------------------------------------------------------------
# sums built in one dict against the fold they replaced

_GATE_MAP_RUNS = (("kashaev", {}), ("kappa", {"m": 0}), ("kappa", {"m": 4}),
                  ("psi", {"m": 0}), ("psi", {"m": 4, "i": 1}),
                  ("bridgeland-derived", {}), ("varphi", {}))


def _relation_checks(suite, kw):
    """(map, relation id, params) of every relation instance the gate run
    of `suite` checks through check_relation."""
    cfg = RunConfig(suite=suite, max_dim=2, **kw)
    for _, _, check in _BUILDERS[suite](BE, cfg):
        if isinstance(check, partial) and check.func is check_relation:
            yield check.args


@pytest.mark.parametrize("suite,kw", _GATE_MAP_RUNS)
def test_relation_sides_match_the_fold(monkeypatch, suite, kw):
    cases = list(_relation_checks(suite, kw))
    got = []
    for h, rel, prm in cases:
        sides = relation_instance(h.source, rel, prm)
        got.append((sides, [apply_hom(h, x) for x in sides]))
    with monkeypatch.context() as mp:
        fold_oracles.install(mp)
        maps = {}
        for (h, rel, prm), (sides, images) in zip(cases, got):
            old = maps.get(id(h))
            if old is None:
                # h built again, its double-map images folded
                old = maps[id(h)] = build_hom(BE, h.name, **h.params)
            want = relation_instance(old.source, rel, prm)
            for x, y in zip(sides, want):
                assert fold_oracles.same(x, y), (h, rel, prm)
            for x, y in zip(images, [fold_oracles.apply_hom(old, s)
                                     for s in want]):
                assert fold_oracles.same(x, y), (h, rel, prm)
    assert {h.name for h, _, _ in cases} == {
        "kashaev": {"I"}, "kappa": {"kappa", "kappaCheck"}, "psi": {"psi"},
        "bridgeland-derived": {"phi"}, "varphi": {"varphi"}}[suite]


def test_gate_closures_match_the_fold(monkeypatch):
    # the gate window's checks that are not check_relation calls: the
    # bridgeland round trips, the varphi triangles, the kashaev rank
    # monomials and the 2.13 and 2.18r sides of d
    phi, inv = build_hom(BE, "phi"), build_hom(BE, "phiInv")
    psis = {i: build_hom(BE, "psi", m=0, i=i) for i in (-2, -1, 0, 1)}
    I = build_hom(BE, "I")
    objs_nz = [c for c in WINDOW if sum(BE.class_dim(c)) > 0]
    trips = []
    for n in range(-3, 4):
        trips += [("phi", Zg(c, n)) for c in objs_nz]
        trips += [("phi", Kz(a, n)) for a in ALPHAS]
        trips += [("phiInv", E(c, n)) for c in objs_nz]
        trips += [("phiInv", Kc(a, n)) for a in ALPHAS]
    gens = [("om", s, c) for s in (1, -1) for c in WINDOW] + \
           [("KD", s, a) for s in (1, -1) for a in ALPHAS]
    monos = double_monomials(BE, ALPHAS, WINDOW, 20)
    dd = algebra("d", BE)
    pairs = list(itertools.product(WINDOW, repeat=2))

    def run(apply, tensor, maps):
        phi_, inv_, psis_, I_ = maps
        out = []
        for rel in ("2.13", "2.18r"):
            for m, n in pairs:
                out += relation_instance(dd, rel, {"M": m, "N": n})
        for first, letter in trips:
            f, g = (phi_, inv_) if first == "phi" else (inv_, phi_)
            out.append(apply(g, apply(f, w(letter))))
        for psi in psis_.values():
            out += [tensor(inv_, inv_, apply(psi, w(letter)))
                    for letter in gens]
        out += [apply(I_, x) for x in monos]
        return out

    got = run(apply_hom, tensor_apply, (phi, inv, psis, I))
    with monkeypatch.context() as mp:
        fold_oracles.install(mp)
        old = (build_hom(BE, "phi"), build_hom(BE, "phiInv"),
               {i: build_hom(BE, "psi", m=0, i=i) for i in psis},
               build_hom(BE, "I"))
        want = run(fold_oracles.apply_hom, fold_oracles.tensor_apply, old)
    assert len(got) == len(want) == (4 * len(pairs) + len(trips)
                                     + 4 * len(gens) + 20)
    for x, y in zip(got, want):
        assert fold_oracles.same(x, y)


def test_in_place_sums_merge_cancel_and_carry_canonical():
    # the gate window's sums never meet a key twice; these do, and one
    # product falls outside dhm:4's two-residue contract
    I = build_hom(BE, "I")
    a, b, ab = (1, 0), (0, 1), (1, 1)
    for x in (w(KdPlus(a), KdPlus(b)) + w(KdPlus(ab)).scale(2),
              w(KdPlus(a), KdPlus(b)) - w(KdPlus(ab))):
        assert fold_oracles.same(apply_hom(I, x),
                                 fold_oracles.apply_hom(I, x))
    assert apply_hom(I, w(KdPlus(a), KdPlus(b)) - w(KdPlus(ab))).is_zero()

    dhm0 = algebra("dhm:0", BE)
    inv = build_hom(BE, "phiInv")
    one = dhm0.one()
    x = Lin(2, {((Kc(a, 0), Kc(b, 0)), (Kc(a, 1),)): one,
                ((Kc(ab, 0),), (Kc(a, 1),)): one},
            (dhm0, dhm0))
    got = tensor_apply(inv, inv, x)
    assert len(got.terms) == 1
    assert fold_oracles.same(got, fold_oracles.tensor_apply(inv, inv, x))

    hd = algebra("hd", BE)
    summands = [(one, (MuPlus(S1),)), (one, (MuPlus(S1), MuPlus(0))),
                (-one, (MuPlus(S2),)), (one, (MuPlus(S2),))]
    got = presented._free_sum(hd, summands)
    assert got.terms == {(MuPlus(S1),): one + one}
    assert fold_oracles.same(got, fold_oracles.free_sum(hd, summands))

    dhm4 = algebra("dhm:4", BE)
    far = GenMap("far", hd, dhm4, lambda letter: normal_form(
        dhm4, w(E(letter[2], 0 if letter[1] > 0 else 2))))
    x = w(MuPlus(S1), MuMinus(S2)) + w(MuPlus(S1))
    with pytest.warns(UserWarning, match="two-residue"):
        got = apply_hom(far, x)
        want = fold_oracles.apply_hom(far, x)
    assert not got.canonical and fold_oracles.same(got, want)


def test_owned_terms_alias_no_shared_value(monkeypatch):
    # the kappa, psi and varphi checks on one backend: every cached image
    # and pair-rule answer must still be what a recomputation gives, and
    # no Lin that took its dict as its own may keep a zero coefficient
    maps = []
    build = suites.build_hom
    monkeypatch.setattr(suites, "build_hom",
                        lambda *args, **kw: maps.append(build(*args, **kw))
                        or maps[-1])
    zeros = []
    owned = scalars.Lin.owned

    def checked(q, terms, label=None, canonical=True):
        x = owned(q, terms, label, canonical)
        zeros.extend(k for k, c in x.terms.items() if c.is_zero())
        return x

    monkeypatch.setattr(scalars.Lin, "owned", staticmethod(checked))
    be = QuiverBackend(preset("a2"), 2)
    for suite, kw in (("kappa", {"m": 0}), ("psi", {"m": 0}), ("varphi", {})):
        cfg = RunConfig(suite=suite, max_dim=2, **kw)
        for _, _, check in _BUILDERS[suite](be, cfg):
            assert check()[0]
    assert zeros == []
    assert {h.name for h in maps} == {"kappa", "kappaCheck", "psi",
                                      "phiInv", "varphi"}
    assert sum(len(row) for alg in be.algebras.values()
               for row in alg._pair_rules.values()) > 100
    for alg in be.algebras.values():
        check_pair_table(alg)
    for h in maps:
        assert h._cache
        for letter, img in h._cache.items():
            fresh = h._image_fn(letter)
            assert img == fresh and list(img.terms) == list(fresh.terms)


def test_public_lin_copies_and_owned_lin_takes_its_dict():
    one, zero = vpow(0, 2), vpow(0, 2) * 0
    d = {(MuPlus(S1),): one, (MuMinus(S1),): zero}
    x = Lin(2, d)
    d[(MuPlus(S2),)] = one
    d[(MuPlus(S1),)] = zero
    assert x.terms == {(MuPlus(S1),): one}
    d = {(MuPlus(S1),): one, (MuMinus(S1),): zero}
    y = Lin.owned(2, d)
    assert y.terms is d and d == {(MuPlus(S1),): one}
    assert y == Lin(2, {(MuPlus(S1),): one})


@pytest.mark.parametrize("tag, q", [("a2", 2), ("a2", 3), ("a3", 2),
                                    ("kronecker", 2)])
def test_double_map_images_match_the_per_split_formula(monkeypatch, tag, q):
    # om images read the coproduct row of their class; the fold builds each
    # split's weight g a_M1 a_M2 / a_M and v^e from the subobject table
    be = QuiverBackend(preset(tag), q)
    classes = [c for d in itertools.product(range(4), repeat=be.quiver.n)
               if sum(d) <= 3 for c in be.iso_classes(d)]
    specs = [("I", {}), ("psi", {"m": 0, "i": 1}), ("varphi", {"i": -1}),
             ("varphi", {"i": 1})]
    maps = [build_hom(be, name, **kw) for name, kw in specs]
    with monkeypatch.context() as mp:
        mp.setattr(morphisms, "_double_map", fold_oracles.double_map)
        refs = [build_hom(be, name, **kw) for name, kw in specs]
    for h, ref in zip(maps, refs):
        for c in classes:
            for letter in (OmPlus(c), OmMinus(c)):
                got, want = h.image(letter), ref.image(letter)
                assert fold_oracles.same(got, want), (h, letter)
                assert list(got.terms) == list(want.terms)
