import itertools
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from hallforge.backend import QuiverBackend
from hallforge.caps import Budget, CapExceeded
from hallforge.presented import (Algebra, E, FreeElt, Kc, KcMinus, KcPlus,
                                 KMinus, KPlus, Kz, MuMinus,
                                 MuPlus, NuMinus, NuPlus,
                                 OmPlus, TensorSquareElt, Zg, algebra, d_quasi,
                                 embed, grading_check, hd_cross,
                                 hd_cross_oracle, homogeneous_degree,
                                 normal_form, pmult, relation_instance,
                                 tensor_mult, tensor_word,
                                 twist_consistency_check, word_degree)
from hallforge.quiver import preset
from hallforge.scalars import SqrtScalar, vpow

BE = QuiverBackend(preset("a2"), 2)
S1 = BE.classify(BE.simple_rep(0))
S2 = BE.classify(BE.simple_rep(1))
SPLIT, P = BE.iso_classes((1, 1))
WINDOW = [c for c in BE.classes_within((2, 2)) if sum(BE.class_dim(c)) <= 2]
HD = Algebra("hd", BE)
HHD = Algebra("hhd", BE)
DH0 = Algebra("dhm:0", BE)
DH4 = Algebra("dhm:4", BE)
DH = Algebra("dh", BE)
DHTW = Algebra("dhtw", BE)
DHCE = Algebra("dhce", BE)
DD = Algebra("d", BE)

ONE = SqrtScalar.one(2)


def w(letters, coeff=None):
    return FreeElt.word(2, letters, coeff)


def test_tags():
    assert algebra("dhm:4", BE).m == 4
    with pytest.raises(ValueError):
        algebra("dhm:2", BE)
    with pytest.raises(ValueError):
        algebra("nope", BE)
    with pytest.raises(ValueError):
        normal_form(DD, w((OmPlus(S1),)))
    with pytest.raises(ValueError):
        normal_form(HD, w((NuPlus(S1),)))


def test_unit_letters_drop():
    x = w((KPlus((0, 0)), MuPlus(0), MuPlus(S1)))
    nf = normal_form(HD, x)
    assert nf.terms == {(MuPlus(S1),): ONE}
    assert normal_form(HD, FreeElt.unit(2)).terms == {(): ONE}


def test_hd_cross_frozen():
    got = hd_cross(BE, "HD", S1, S1)
    want = {(MuMinus(S1), MuPlus(S1)): ONE, (KMinus((1, 0)),): ONE}
    assert got.terms == want
    nf = normal_form(HD, w((MuPlus(S1), MuMinus(S1))))
    assert nf.terms == want
    got = hd_cross(BE, "HHD", S1, S1)
    want = {(NuPlus(S1), NuMinus(S1)): ONE, (KcPlus((1, 0)),): ONE}
    assert got.terms == want
    # one-sided zero object: nothing to cross
    got = hd_cross(BE, "HD", S1, 0)
    assert got.terms == {(MuPlus(S1),): ONE}


def test_hd_cross_oracle_equivalence():
    for side in ("HD", "HHD"):
        for m, n in itertools.product(WINDOW, repeat=2):
            assert hd_cross(BE, side, m, n) == hd_cross_oracle(BE, side, m, n)


def test_kk_swap_frozen():
    nf = normal_form(HD, w((KPlus((1, 0)), KMinus((0, 1)))))
    assert nf.terms == {(KMinus((0, 1)), KPlus((1, 0))): vpow(-1, 2)}
    nf = normal_form(HHD, w((KcPlus((1, 0)), KcMinus((0, 1)))))
    assert nf.terms == {(KcMinus((0, 1)), KcPlus((1, 0))): vpow(1, 2)}
    nf = normal_form(HD, w((KMinus((1, 0)), KMinus((0, 1)))))
    assert nf.terms == {(KMinus((1, 1)),): ONE}


def test_mu_merge_frozen():
    nf = normal_form(HD, w((MuMinus(S1), MuMinus(S2))))
    assert nf.terms == {(MuMinus(SPLIT),): vpow(-1, 2),
                        (MuMinus(P),): vpow(-1, 2)}


def test_dh0_cross_frozen():
    nf = normal_form(DH0, w((E(S1, 1), E(S1, 0))))
    assert nf.terms == {(E(S1, 0), E(S1, 1)): ONE, (Kc((1, 0), 0),): ONE}


def test_hd_shape_invariant():
    rank = {("K", -1): 0, ("K", 1): 1, ("mu", -1): 2, ("mu", 1): 3}
    gens = [MuPlus(S1), MuMinus(S2), KPlus((1, 0)), MuPlus(P),
            MuMinus(S1), KMinus((0, 1))]
    for trip in itertools.product(gens, repeat=3):
        nf = normal_form(HD, w(trip))
        for word in nf.terms:
            ranks = [rank[(l[0], l[1])] for l in word]
            assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)


def test_idempotence():
    gens = [MuPlus(S1), MuMinus(S1), MuPlus(S2), KMinus((1, 0)),
            MuMinus(P), KPlus((0, 1))]
    for trip in itertools.product(gens, repeat=3):
        nf = normal_form(HD, w(trip))
        again = normal_form(HD, embed(nf, HD.q))
        assert again == nf
        assert again.canonical


def test_associativity_exhaustive_hd():
    gens = [w((MuPlus(c),)) for c in WINDOW if c] \
        + [w((MuMinus(c),)) for c in WINDOW if c] \
        + [w((KPlus((1, 0)),)), w((KMinus((0, 1)),))]
    for a, b, c in itertools.product(gens, repeat=3):
        ab = pmult(HD, normal_form(HD, a), normal_form(HD, b))
        bc = pmult(HD, normal_form(HD, b), normal_form(HD, c))
        assert pmult(HD, ab, normal_form(HD, c)) == \
            pmult(HD, normal_form(HD, a), bc)


def test_associativity_sampled_other_tags():
    cases = {
        HHD: [(NuPlus(S1),), (NuMinus(S1),), (NuPlus(P),),
              (KcMinus((1, 0)),), (NuMinus(S2),)],
        DH0: [(E(S1, 0),), (E(S2, 1),), (E(S1, -1),), (Kc((1, 0), 2),),
              (E(P, 0),)],
        DH: [(Zg(S1, 0),), (Zg(S2, 1),), (Zg(S1, 3),), (Zg(P, -1),)],
        DHTW: [(Zg(S1, 0),), (Zg(S2, 1),), (Zg(S1, 3),), (Zg(P, -1),)],
        DHCE: [(Zg(S1, 0),), (Zg(S2, 1),), (Kz((1, 0), -1),),
               (Zg(P, -2),), (Kz((0, 1), 2),)],
        DH4: [(E(S1, 0),), (E(S2, 1),), (Kc((1, 0), 3),), (E(P, 1),)],
    }
    for alg, letters in cases.items():
        gens = [w(ls) for ls in letters]
        for a, b, c in itertools.product(gens, repeat=3):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ab = normal_form(alg, a * b)
                bc = normal_form(alg, b * c)
                assert normal_form(alg, embed(ab, alg.q) * c) == \
                    normal_form(alg, a * embed(bc, alg.q))


def test_relation_instances_hold_in_engine():
    """Every oriented relation instance must normalize to equal sides."""
    shots = [
        (HD, "2.3", {"sign": "+", "M": S1, "N": S2}),
        (HD, "2.3", {"sign": "-", "M": P, "N": P}),
        (HD, "2.4", {"sign": "-", "alpha": (1, 0), "M": P}),
        (HD, "2.5", {"variant": "merge", "sign": "+", "alpha": (1, 0),
                     "beta": (0, 1)}),
        (HD, "2.5", {"variant": "cross", "alpha": (1, 0), "beta": (0, 1)}),
        (HD, "2.6", {"alpha": (1, 0), "M": S2}),
        (HD, "2.6", {"variant": "K-mu+", "alpha": (1, 0), "M": S2}),
        (HD, "2.7", {"M": P, "N": S1}),
        (HHD, "2.8", {"sign": "+", "M": S1, "N": S1}),
        (HHD, "2.9", {"sign": "-", "alpha": (0, 1), "M": P}),
        (HHD, "2.10", {"variant": "cross", "alpha": (1, 1), "beta": (0, 1)}),
        (HHD, "2.11", {"alpha": (1, 0), "M": S1}),
        (HHD, "2.11", {"variant": "Kc+nu-", "alpha": (1, 0), "M": S1}),
        (HHD, "2.12", {"M": S2, "N": P}),
        (DH0, "4.1", {"i": 1, "j": 0, "alpha": (1, 0), "beta": (0, 1)}),
        (DH0, "4.2", {"i": 0, "j": 0, "alpha": (1, 1), "M": S1}),
        (DH0, "4.3", {"i": 2, "M": S1, "N": S2}),
        (DH0, "4.4", {"i": -1, "M": S1, "N": P}),
        (DH0, "4.5", {"i": 3, "j": 0, "M": S1, "N": S2}),
        (DH4, "4.1", {"i": 3, "j": 0, "alpha": (1, 0), "beta": (0, 1)}),
        (DH4, "4.2", {"i": 3, "j": 0, "alpha": (1, 0), "M": S2}),
        (DH4, "4.4", {"i": 3, "M": S1, "N": S1}),
        (DH, "4.6", {"i": 2, "M": S1, "N": S2}),
        (DH, "4.7", {"i": 0, "M": S1, "N": S1}),
        (DH, "4.8", {"i": 3, "j": 0, "M": P, "N": S1}),
        (DHCE, "4.10", {"variant": "KK", "i": -1, "alpha": (1, 0),
                        "beta": (0, 1)}),
        (DHCE, "4.10", {"i": 0, "alpha": (1, 0), "M": S1}),
        (DHCE, "4.10", {"i": 2, "alpha": (1, 0), "M": S1}),
        (DHCE, "4.11", {"i": 1, "j": 0, "alpha": (1, 0), "beta": (0, 1)}),
        (DHCE, "4.12", {"i": -1, "alpha": (1, 0), "M": S2}),
        (DHCE, "4.13", {"i": 0, "alpha": (1, 0), "M": S2}),
        (DHCE, "4.14", {"i": 0, "j": 2, "alpha": (1, 0), "M": S1}),
        (DHCE, "4.14", {"i": -1, "j": -3, "alpha": (1, 0), "M": S1}),
        (DHCE, "4.15", {"i": 1, "M": S1, "N": S2}),
        (DHCE, "4.16", {"i": -2, "M": P, "N": S1}),
        (DHCE, "4.17", {"i": 2, "j": 0, "M": S1, "N": S2}),
        (DHTW, "4.15", {"i": 0, "M": P, "N": P}),
    ]
    for alg, rel, params in shots:
        lhs, rhs = relation_instance(alg, rel, params)
        assert normal_form(alg, lhs) == normal_form(alg, rhs), (rel, params)


def test_relation_instance_shapes():
    lhs, rhs = relation_instance(HD, "2.6", {"alpha": (1, 0), "M": S2})
    assert lhs.terms == {(KPlus((1, 0)), MuMinus(S2)): ONE}
    assert rhs.terms == {(MuMinus(S2), KPlus((1, 0))): ONE}
    lhs, rhs = relation_instance(DH0, "4.5",
                                 {"i": 0, "j": 2, "M": S1, "N": S2})
    assert lhs.terms == {(E(S1, 0), E(S2, 2)): ONE}
    assert rhs.terms == {(E(S2, 2), E(S1, 0)): ONE}
    with pytest.raises(ValueError):
        relation_instance(HD, "9.9", {})


def test_drinfeld_vs_double_cross():
    for m, n in itertools.product([S1, S2, P, SPLIT], repeat=2):
        l13, r13 = relation_instance(DD, "2.13", {"M": m, "N": n})
        l18, r18 = relation_instance(DD, "2.18", {"M": m, "N": n})
        assert d_quasi(BE, l13) == d_quasi(BE, r18)
        assert d_quasi(BE, r13) == d_quasi(BE, l18)


def test_double_cross_expanded_scaling():
    for m, n in itertools.product([S1, S2, P], repeat=2):
        l, r = relation_instance(DD, "2.18", {"M": m, "N": n})
        le, re_ = relation_instance(DD, "2.18r", {"M": m, "N": n})
        scale = BE.aut_count(m) * BE.aut_count(n)
        assert le == l.scale(scale)
        assert re_ == r.scale(scale)


def test_far_swap_both_directions():
    # reading the far Z swap right-to-left inverts the exponent, so both
    # orientations of the instance must reduce to the same normal form
    for alg, rel in ((DH, "4.8"), (DHCE, "4.17")):
        for i, j in ((2, 0), (0, 2), (-3, -1), (-1, -3), (3, -1)):
            lhs, rhs = relation_instance(alg, rel,
                                         {"M": S1, "N": P, "i": i, "j": j})
            assert normal_form(alg, lhs) == normal_form(alg, rhs), (rel, i, j)


def test_cyclic_wrap():
    # residues 0 and m-1 are adjacent: e_0 e_3 rewrites, e_3 e_0 stays
    nf = normal_form(DH4, w((E(S1, 3), E(S1, 0))))
    assert nf.terms == {(E(S1, 3), E(S1, 0)): ONE}
    assert nf.canonical
    nf = normal_form(DH4, w((E(S1, 0), E(S1, 3))))
    assert (E(S1, 3), E(S1, 0)) in nf.terms
    assert (Kc((1, 0), 3),) in nf.terms
    assert nf.canonical
    # k-letter wrap: k_3 k_0 sorts with the inverse-adjacency scalar
    nf = normal_form(DH4, w((Kc((1, 0), 3), Kc((0, 1), 0))))
    assert nf.terms == {(Kc((0, 1), 0), Kc((1, 0), 3)): vpow(1, 2)}


def test_cyclic_noncanonical_flag():
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        nf = normal_form(DH4, w((E(S1, 0), E(S1, 1), E(S1, 2))))
    assert not nf.canonical
    assert any("two-residue" in str(g.message) for g in got)
    # indices canonicalize mod m
    nf = normal_form(DH4, w((E(S1, 5),)))
    assert nf.terms == {(E(S1, 1),): ONE}


def test_dhce_kz_cases():
    # near the boundary indices the torus letters pick up v-powers
    for i in (-1, 0):
        nf = normal_form(DHCE, w((Zg(S1, i), Kz((1, 0), i))))
        assert nf.terms == {(Kz((1, 0), i), Zg(S1, i)): vpow(-2, 2)}
    # away from them they commute
    nf = normal_form(DHCE, w((Zg(S1, 2), Kz((1, 0), 2))))
    assert nf.terms == {(Kz((1, 0), 2), Zg(S1, 2)): ONE}
    # far pair against index 0: sign alternates with the Z index parity
    nf = normal_form(DHCE, w((Zg(S1, 2), Kz((1, 0), 0))))
    assert nf.terms == {(Kz((1, 0), 0), Zg(S1, 2)): vpow(-2, 2)}
    nf = normal_form(DHCE, w((Zg(S1, 3), Kz((1, 0), 0))))
    assert nf.terms == {(Kz((1, 0), 0), Zg(S1, 3)): vpow(2, 2)}


def test_twist_consistency_window():
    picks = [S1, S2, P]
    for m, n in itertools.product(picks, repeat=2):
        for i, j in ((0, 0), (1, 0), (2, 0), (3, 0), (0, 2), (-1, 1)):
            assert twist_consistency_check(BE, (Zg(m, i), Zg(n, j)))
    assert twist_consistency_check(BE, (Zg(S1, 2), Zg(P, 1), Zg(S2, 0)))


def test_gradings():
    assert word_degree(HD, (MuPlus(S1), MuMinus(P), KPlus((3, 4)))) == (0, -1)
    assert word_degree(DH0, (E(S1, 1), E(S1, 0))) == (0, 0)
    assert word_degree(DHCE, (Zg(P, -1), Kz((1, 0), 5))) == (-1, -1)
    for alg, rel, params in [
        (HD, "2.7", {"M": P, "N": S1}),
        (DD, "2.18", {"M": S1, "N": S2}),
        (DH0, "4.4", {"i": 0, "M": S1, "N": P}),
        (DHCE, "4.16", {"i": 1, "M": P, "N": P}),
    ]:
        lhs, rhs = relation_instance(alg, rel, params)
        assert grading_check(alg, lhs, rhs)
    mixed = w((MuPlus(S1),)) + w((MuMinus(S1),))
    with pytest.raises(ValueError):
        homogeneous_degree(HD, mixed)
    with pytest.raises(ValueError):
        word_degree(Algebra("dhm:5", BE), (E(S1, 0),))


def test_tensor_ops():
    algs = (HD, HHD)
    x = tensor_word(algs, (MuPlus(S1),), ())
    y = tensor_word(algs, (), (NuPlus(S2),))
    xy = tensor_mult(x, y)
    assert xy.terms == {((MuPlus(S1),), (NuPlus(S2),)): ONE}
    # components renormalize: K bubbles inside the left leg
    z = tensor_word(algs, (MuPlus(S1), KPlus((0, 1))), ())
    zz = tensor_mult(z, tensor_word(algs, (KPlus((1, 0)),), ()))
    words = list(zz.terms)
    assert words[0][0][0][0] == "K"
    assert tensor_mult(TensorSquareElt.unit(algs), x) == x


def test_budget_guard():
    word = tuple(MuPlus(S1) for _ in range(6)) \
        + tuple(MuMinus(S1) for _ in range(6))
    with pytest.raises(CapExceeded):
        normal_form(HD, w(word), budget=Budget("normal_form", 5))


def test_pmult_units():
    x = normal_form(HD, w((MuPlus(S1), MuMinus(S2))))
    one = normal_form(HD, FreeElt.unit(2))
    assert pmult(HD, x, one) == x
    assert pmult(HD, one, x) == x


def test_embed_zero_keeps_the_field():
    # a zero NormalElt has no coefficient to read q from
    be3 = QuiverBackend(preset("a2"), 3)
    hd3 = Algebra("hd", be3)
    zero = normal_form(hd3, FreeElt(3))
    assert zero.is_zero()
    one = FreeElt.word(3, ())
    assert embed(zero, hd3.q) == FreeElt(3)
    assert embed(zero, hd3.q) - one == one.scale(-1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_words_idempotent(data):
    letters = [MuPlus(S1), MuMinus(S1), MuPlus(S2), MuMinus(S2),
               MuPlus(P), MuMinus(P), KPlus((1, 0)), KMinus((0, 1))]
    # length 3 keeps merged classes within the (3,3) window the backend
    # enumerates quickly; four dim-(1,1) letters would force a (4,4) scan
    n = data.draw(st.integers(min_value=0, max_value=3))
    word = tuple(data.draw(st.sampled_from(letters)) for _ in range(n))
    nf = normal_form(HD, w(word))
    assert normal_form(HD, embed(nf, HD.q)) == nf
    deg = word_degree(HD, word)
    for word2 in nf.terms:
        assert word_degree(HD, word2) == deg
