import contextlib
import hashlib
import itertools
import re
import warnings

import pytest
from hypothesis import assume, given, settings, strategies as st

from hallforge import caps, presented, suites
from hallforge.backend import QuiverBackend
from hallforge.caps import CapExceeded
from hallforge.exprs import render_elt
from hallforge.hall import gamma_row
from hallforge.presented import (Algebra, E, FreeElt, Kc, KcMinus, KcPlus,
                                 KMinus, KPlus, Kz, MuMinus,
                                 MuPlus, NuMinus, NuPlus,
                                 OmPlus, Zg, algebra, d_quasi,
                                 grading_check, hd_cross_oracle,
                                 homogeneous_degree, is_torus, letter_mid,
                                 normal_form, pmult, relation_instance,
                                 relation_window, tensor_mult, tensor_unit,
                                 tensor_word, word_degree)
from hallforge.quiver import neg_class, preset
from hallforge.scalars import Lin, SqrtScalar, vpow

BE = QuiverBackend(preset("a2"), 2)
S1 = BE.classify(BE.simple_rep(0))
S2 = BE.classify(BE.simple_rep(1))
SPLIT, P = BE.iso_classes((1, 1))
WINDOW = [c for c in BE.classes_within((2, 2)) if sum(BE.class_dim(c)) <= 2]
HD = algebra("hd", BE)
HHD = algebra("hhd", BE)
DH0 = algebra("dhm:0", BE)
DH4 = algebra("dhm:4", BE)
DH = algebra("dh", BE)
DHTW = algebra("dhtw", BE)
DHCE = algebra("dhce", BE)
DD = algebra("d", BE)

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


def _crossing(alg, m, n):
    """The normal-ordered right side of alg's crossing relation, 2.7 on hd
    and 2.12 on hhd, at (M, N)."""
    rel = "2.7" if alg.tag == "hd" else "2.12"
    return normal_form(alg, relation_instance(alg, rel, {"M": m, "N": n})[1])


def test_hd_cross_frozen():
    got = _crossing(HD, S1, S1)
    want = {(MuMinus(S1), MuPlus(S1)): ONE, (KMinus((1, 0)),): ONE}
    assert got.terms == want
    nf = normal_form(HD, w((MuPlus(S1), MuMinus(S1))))
    assert nf.terms == want
    got = _crossing(HHD, S1, S1)
    want = {(NuPlus(S1), NuMinus(S1)): ONE, (KcPlus((1, 0)),): ONE}
    assert got.terms == want
    # one-sided zero object: nothing to cross
    got = _crossing(HD, S1, 0)
    assert got.terms == {(MuPlus(S1),): ONE}


def test_hd_cross_oracle_equivalence():
    for alg in (HD, HHD):
        for m, n in itertools.product(WINDOW, repeat=2):
            assert _crossing(alg, m, n) == hd_cross_oracle(BE, alg.tag, m, n)


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
        again = normal_form(HD, Lin(HD.q, nf.terms))
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
                assert normal_form(alg, Lin(alg.q, ab.terms) * c) == \
                    normal_form(alg, a * Lin(alg.q, bc.terms))


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


_A, _B = (1, 0), (0, 1)

# the rendered sides of one a2 q=2 instance per (relation, variant) of the
# two-sided presentations, with the no-variant defaults of the torus-torus
# and torus-module cross shapes; M and N are object names
_PINNED_SIDES = [
    ("hd", "2.3", {"sign": 1, "M": "S1", "N": "S2"},
     "mu+[S1] mu+[S2]", "v^-1 mu+[X{1,1}#0] + v^-1 mu+[X{1,1}#1]"),
    ("hd", "2.3", {"sign": -1, "M": "S1", "N": "S2"},
     "mu-[S1] mu-[S2]", "v^-1 mu-[X{1,1}#0] + v^-1 mu-[X{1,1}#1]"),
    ("hd", "2.4", {"sign": 1, "alpha": _A, "M": "S1"},
     "K+[(1,0)] mu+[S1]", "v^2 mu+[S1] K+[(1,0)]"),
    ("hd", "2.4", {"sign": -1, "alpha": _A, "M": "S1"},
     "K-[(1,0)] mu-[S1]", "v^2 mu-[S1] K-[(1,0)]"),
    ("hd", "2.5", {"variant": "merge", "sign": 1, "alpha": _A, "beta": _B},
     "K+[(1,0)] K+[(0,1)]", "K+[(1,1)]"),
    ("hd", "2.5", {"variant": "merge", "sign": -1, "alpha": _A, "beta": _B},
     "K-[(1,0)] K-[(0,1)]", "K-[(1,1)]"),
    ("hd", "2.5", {"variant": "cross", "alpha": _A, "beta": _B},
     "K+[(1,0)] K-[(0,1)]", "v^-1 K-[(0,1)] K+[(1,0)]"),
    ("hd", "2.5", {"alpha": _A, "beta": _B},
     "K+[(1,0)] K-[(0,1)]", "v^-1 K-[(0,1)] K+[(1,0)]"),
    ("hd", "2.6", {"variant": "K-mu+", "alpha": _A, "M": "S1"},
     "K-[(1,0)] mu+[S1]", "v^-2 mu+[S1] K-[(1,0)]"),
    ("hd", "2.6", {"variant": "K+mu-", "alpha": _A, "M": "S1"},
     "K+[(1,0)] mu-[S1]", "mu-[S1] K+[(1,0)]"),
    ("hd", "2.6", {"alpha": _A, "M": "S1"},
     "K+[(1,0)] mu-[S1]", "mu-[S1] K+[(1,0)]"),
    ("hd", "2.7", {"M": "S1", "N": "S1"},
     "mu+[S1] mu-[S1]", "mu-[S1] mu+[S1] + K-[(1,0)]"),
    ("hhd", "2.8", {"sign": 1, "M": "S1", "N": "S2"},
     "nu+[S1] nu+[S2]", "v^-1 nu+[X{1,1}#0] + v^-1 nu+[X{1,1}#1]"),
    ("hhd", "2.8", {"sign": -1, "M": "S1", "N": "S2"},
     "nu-[S1] nu-[S2]", "v^-1 nu-[X{1,1}#0] + v^-1 nu-[X{1,1}#1]"),
    ("hhd", "2.9", {"sign": 1, "alpha": _A, "M": "S1"},
     "Kc+[(1,0)] nu+[S1]", "v^2 nu+[S1] Kc+[(1,0)]"),
    ("hhd", "2.9", {"sign": -1, "alpha": _A, "M": "S1"},
     "Kc-[(1,0)] nu-[S1]", "v^2 nu-[S1] Kc-[(1,0)]"),
    ("hhd", "2.10", {"variant": "merge", "sign": 1, "alpha": _A, "beta": _B},
     "Kc+[(1,0)] Kc+[(0,1)]", "Kc+[(1,1)]"),
    ("hhd", "2.10", {"variant": "merge", "sign": -1, "alpha": _A, "beta": _B},
     "Kc-[(1,0)] Kc-[(0,1)]", "Kc-[(1,1)]"),
    ("hhd", "2.10", {"variant": "cross", "alpha": _A, "beta": _B},
     "Kc+[(1,0)] Kc-[(0,1)]", "v Kc-[(0,1)] Kc+[(1,0)]"),
    ("hhd", "2.10", {"alpha": _A, "beta": _B},
     "Kc+[(1,0)] Kc-[(0,1)]", "v Kc-[(0,1)] Kc+[(1,0)]"),
    ("hhd", "2.11", {"variant": "Kc+nu-", "alpha": _A, "M": "S1"},
     "Kc+[(1,0)] nu-[S1]", "v^-2 nu-[S1] Kc+[(1,0)]"),
    ("hhd", "2.11", {"variant": "Kc-nu+", "alpha": _A, "M": "S1"},
     "Kc-[(1,0)] nu+[S1]", "nu+[S1] Kc-[(1,0)]"),
    ("hhd", "2.11", {"alpha": _A, "M": "S1"},
     "Kc-[(1,0)] nu+[S1]", "nu+[S1] Kc-[(1,0)]"),
    ("hhd", "2.12", {"M": "S1", "N": "S1"},
     "nu-[S1] nu+[S1]", "nu+[S1] nu-[S1] + Kc+[(1,0)]"),
    ("d", "2.13", {"M": "S1", "N": "S1"},
     "om+[S1] om-[S1] + KD+[(1,0)]", "om-[S1] om+[S1] + KD-[(1,0)]"),
    ("d", "2.14", {"sign": 1, "M": "S1", "N": "S2"},
     "om+[S1] om+[S2]", "v^-1 om+[X{1,1}#0] + v^-1 om+[X{1,1}#1]"),
    ("d", "2.14", {"sign": -1, "M": "S1", "N": "S2"},
     "om-[S1] om-[S2]", "v^-1 om-[X{1,1}#0] + v^-1 om-[X{1,1}#1]"),
    ("d", "2.15", {"sign": 1, "alpha": _A, "M": "S1"},
     "KD+[(1,0)] om+[S1]", "v^2 om+[S1] KD+[(1,0)]"),
    ("d", "2.15", {"sign": -1, "alpha": _A, "M": "S1"},
     "KD-[(1,0)] om-[S1]", "v^2 om-[S1] KD-[(1,0)]"),
    ("d", "2.16", {"variant": "merge", "sign": 1, "alpha": _A, "beta": _B},
     "KD+[(1,0)] KD+[(0,1)]", "KD+[(1,1)]"),
    ("d", "2.16", {"variant": "merge", "sign": -1, "alpha": _A, "beta": _B},
     "KD-[(1,0)] KD-[(0,1)]", "KD-[(1,1)]"),
    ("d", "2.16", {"variant": "cross", "alpha": _A, "beta": _B},
     "KD+[(1,0)] KD-[(0,1)]", "KD-[(0,1)] KD+[(1,0)]"),
    ("d", "2.17", {"variant": "K-om+", "alpha": _A, "M": "S1"},
     "KD-[(1,0)] om+[S1]", "v^-2 om+[S1] KD-[(1,0)]"),
    ("d", "2.17", {"variant": "K+om-", "alpha": _A, "M": "S1"},
     "KD+[(1,0)] om-[S1]", "v^-2 om-[S1] KD+[(1,0)]"),
]


@pytest.mark.parametrize(
    "tag,rel,params,lhs,rhs", _PINNED_SIDES,
    ids=["%s-%s-%s" % (t, r, p.get("variant", p.get("sign", "")))
         for t, r, p, _, _ in _PINNED_SIDES])
def test_two_sided_relation_sides_pinned(tag, rel, params, lhs, rhs):
    prm = {k: BE.class_by_name(v) if k in ("M", "N") else v
           for k, v in params.items()}
    got = relation_instance(algebra(tag, BE), rel, prm)
    assert [render_elt(BE, side) for side in got] == [lhs, rhs]


# the same for the indexed presentations 4.1-4.17: the dhm:4 wrap across
# residues 3 and 0, and both readings of the far swaps 4.8 and 4.17
_P = "X{1,1}#1"
_PINNED_INDEXED_SIDES = [
    ("dhm:0", "4.1", {"alpha": _A, "beta": _B, "i": 1, "j": 0},
     "k[(1,0);1] k[(0,1);0]", "v^-1 k[(0,1);0] k[(1,0);1]"),
    ("dhm:0", "4.1", {"alpha": _A, "beta": _B, "i": 0, "j": 1},
     "k[(1,0);0] k[(0,1);1]", "v k[(0,1);1] k[(1,0);0]"),
    ("dhm:0", "4.1", {"alpha": _A, "beta": (1, 1), "i": 2, "j": 0},
     "k[(1,0);2] k[(1,1);0]", "k[(1,1);0] k[(1,0);2]"),
    ("dhm:0", "4.1", {"alpha": _A, "beta": _B, "i": 1, "j": 1},
     "k[(1,0);1] k[(0,1);1]", "k[(1,1);1]"),
    ("dhm:0", "4.2", {"alpha": _A, "M": "S1", "i": 0, "j": 0},
     "k[(1,0);0] e[S1;0]", "v^2 e[S1;0] k[(1,0);0]"),
    ("dhm:0", "4.2", {"alpha": _A, "M": "S1", "i": 0, "j": 1},
     "k[(1,0);0] e[S1;1]", "v^-2 e[S1;1] k[(1,0);0]"),
    ("dhm:0", "4.2", {"alpha": _A, "M": "S1", "i": 1, "j": 0},
     "k[(1,0);1] e[S1;0]", "e[S1;0] k[(1,0);1]"),
    ("dhm:0", "4.3", {"M": "S1", "N": "S2", "i": 2},
     "e[S1;2] e[S2;2]", "v^-1 e[X{1,1}#0;2] + v^-1 e[X{1,1}#1;2]"),
    ("dhm:0", "4.4", {"M": "S1", "N": "S1", "i": 0},
     "e[S1;1] e[S1;0]", "e[S1;0] e[S1;1] + k[(1,0);0]"),
    ("dhm:0", "4.5", {"M": "S1", "N": "S2", "i": 3, "j": 0},
     "e[S1;3] e[S2;0]", "e[S2;0] e[S1;3]"),
    ("dhm:4", "4.1", {"alpha": _A, "beta": _B, "i": 3, "j": 0},
     "k[(1,0);3] k[(0,1);0]", "v k[(0,1);0] k[(1,0);3]"),
    ("dhm:4", "4.1", {"alpha": _A, "beta": _B, "i": 0, "j": 3},
     "k[(1,0);0] k[(0,1);3]", "v^-1 k[(0,1);3] k[(1,0);0]"),
    ("dhm:4", "4.2", {"alpha": _A, "M": "S1", "i": 3, "j": 0},
     "k[(1,0);3] e[S1;0]", "v^-2 e[S1;0] k[(1,0);3]"),
    ("dhm:4", "4.2", {"alpha": _A, "M": "S1", "i": 0, "j": 3},
     "k[(1,0);0] e[S1;3]", "e[S1;3] k[(1,0);0]"),
    ("dhm:4", "4.3", {"M": "S1", "N": "S2", "i": 5},
     "e[S1;1] e[S2;1]", "v^-1 e[X{1,1}#0;1] + v^-1 e[X{1,1}#1;1]"),
    ("dhm:4", "4.4", {"M": "S1", "N": "S1", "i": 3},
     "e[S1;0] e[S1;3]", "e[S1;3] e[S1;0] + k[(1,0);3]"),
    ("dhm:4", "4.5", {"M": "S2", "N": "S1", "i": 2, "j": 0},
     "e[S2;2] e[S1;0]", "e[S1;0] e[S2;2]"),
    ("dh", "4.6", {"M": "S1", "N": "S2", "i": 1},
     "Z[S1;1] Z[S2;1]", "Z[X{1,1}#0;1] + Z[X{1,1}#1;1]"),
    ("dh", "4.7", {"M": "S1", "N": "S1", "i": 0},
     "Z[S1;1] Z[S1;0]", "v^-2 Z[S1;0] Z[S1;1] + 1"),
    ("dh", "4.8", {"M": "S2", "N": "S1", "i": 2, "j": 0},
     "Z[S2;2] Z[S1;0]", "v^-2 Z[S1;0] Z[S2;2]"),
    ("dh", "4.8", {"M": "S1", "N": "S2", "i": 0, "j": 3},
     "Z[S1;0] Z[S2;3]", "v^-2 Z[S2;3] Z[S1;0]"),
    ("dhtw", "4.15", {"M": "S1", "N": "S2", "i": 1},
     "Z[S1;1] Z[S2;1]", "v^-1 Z[X{1,1}#0;1] + v^-1 Z[X{1,1}#1;1]"),
    ("dhtw", "4.16", {"M": "S1", "N": "S1", "i": 0},
     "Z[S1;1] Z[S1;0]", "v^-2 Z[S1;0] Z[S1;1] + v^-1"),
    ("dhtw", "4.17", {"M": "S1", "N": "S2", "i": 3, "j": 0},
     "Z[S1;3] Z[S2;0]", "v Z[S2;0] Z[S1;3]"),
    ("dhtw", "4.17", {"M": "S1", "N": "S2", "i": 0, "j": 2},
     "Z[S1;0] Z[S2;2]", "v Z[S2;2] Z[S1;0]"),
    ("dhce", "4.10", {"variant": "KK", "alpha": _A, "beta": _B, "i": -1},
     "KZ[(1,0);-1] KZ[(0,1);-1]", "KZ[(1,1);-1]"),
    ("dhce", "4.10", {"variant": "KZ", "alpha": _A, "M": "S1", "i": 0},
     "KZ[(1,0);0] Z[S1;0]", "v^2 Z[S1;0] KZ[(1,0);0]"),
    ("dhce", "4.10", {"alpha": _A, "M": "S1", "i": 2},
     "KZ[(1,0);2] Z[S1;2]", "Z[S1;2] KZ[(1,0);2]"),
    ("dhce", "4.11", {"alpha": _A, "beta": _B, "i": 1, "j": 0},
     "KZ[(1,0);1] KZ[(0,1);0]", "v^-1 KZ[(0,1);0] KZ[(1,0);1]"),
    ("dhce", "4.11", {"alpha": _A, "beta": _B, "i": 0, "j": 2},
     "KZ[(1,0);0] KZ[(0,1);2]", "KZ[(0,1);2] KZ[(1,0);0]"),
    ("dhce", "4.12", {"alpha": _A, "M": "S1", "i": -1},
     "KZ[(1,0);-1] Z[S1;0]", "v^-2 Z[S1;0] KZ[(1,0);-1]"),
    ("dhce", "4.13", {"alpha": _A, "M": "S1", "i": 0},
     "KZ[(1,0);0] Z[S1;-1]", "v^-2 Z[S1;-1] KZ[(1,0);0]"),
    ("dhce", "4.14", {"alpha": _A, "M": "S1", "i": 0, "j": 3},
     "KZ[(1,0);0] Z[S1;3]", "v^-2 Z[S1;3] KZ[(1,0);0]"),
    ("dhce", "4.14", {"alpha": _A, "M": "S1", "i": -1, "j": -3},
     "KZ[(1,0);-1] Z[S1;-3]", "v^2 Z[S1;-3] KZ[(1,0);-1]"),
    ("dhce", "4.14", {"alpha": _A, "M": "S1", "i": 2, "j": 0},
     "KZ[(1,0);2] Z[S1;0]", "Z[S1;0] KZ[(1,0);2]"),
    ("dhce", "4.15", {"M": "S1", "N": "S2", "i": -2},
     "Z[S1;-2] Z[S2;-2]", "v^-1 Z[X{1,1}#0;-2] + v^-1 Z[X{1,1}#1;-2]"),
    ("dhce", "4.16", {"M": _P, "N": "S1", "i": -2},
     "Z[X{1,1}#1;-1] Z[S1;-2]",
     "v^-1 Z[S1;-2] Z[X{1,1}#1;-1] + v^-1 Z[S2;-1]"),
    ("dhce", "4.17", {"M": "S1", "N": "S2", "i": 2, "j": 0},
     "Z[S1;2] Z[S2;0]", "v^-1 Z[S2;0] Z[S1;2]"),
    ("dhce", "4.17", {"M": "S1", "N": "S2", "i": -3, "j": 0},
     "Z[S1;-3] Z[S2;0]", "v^-1 Z[S2;0] Z[S1;-3]"),
]


@pytest.mark.parametrize(
    "tag,rel,params,lhs,rhs", _PINNED_INDEXED_SIDES,
    ids=["%s-%s-%s" % (t, r, "-".join(str(p[k]) for k in ("variant", "i", "j")
                                      if k in p))
         for t, r, p, _, _ in _PINNED_INDEXED_SIDES])
def test_indexed_relation_sides_pinned(tag, rel, params, lhs, rhs):
    prm = {k: BE.class_by_name(v) if k in ("M", "N") else v
           for k, v in params.items()}
    got = relation_instance(algebra(tag, BE), rel, prm)
    assert [render_elt(BE, side) for side in got] == [lhs, rhs]


def _apart(m, i, j):
    """Indices i, j neither equal nor adjacent, as residues mod m if m."""
    return (i - j) % m not in (0, 1, m - 1) if m else abs(i - j) > 1


def _indexed_instances(objs, alphas, w):
    """(tag, relation, params) over every in-domain instance of 4.1-4.17 at
    indices i, j in -w..w: 4.1-4.5 on dhm:0 and dhm:4, 4.6-4.8 on dh, 4.15-
    4.17 on dhtw, and the dhce window of the bridgeland-derived suite."""
    idxs = range(-w, w + 1)
    pairs = list(itertools.product(idxs, repeat=2))
    for tag, m in (("dhm:0", 0), ("dhm:4", 4)):
        for i, j in pairs:
            for a, b in itertools.product(alphas, repeat=2):
                yield tag, "4.1", {"alpha": a, "beta": b, "i": i, "j": j}
            for a in alphas:
                for n in objs:
                    yield tag, "4.2", {"alpha": a, "M": n, "i": i, "j": j}
        for i in idxs:
            for n, k in itertools.product(objs, repeat=2):
                yield tag, "4.3", {"M": n, "N": k, "i": i}
                yield tag, "4.4", {"M": n, "N": k, "i": i}
        for i, j in pairs:
            if _apart(m, i, j):
                for n, k in itertools.product(objs, repeat=2):
                    yield tag, "4.5", {"M": n, "N": k, "i": i, "j": j}
    for tag, rels in (("dh", ("4.6", "4.7", "4.8")),
                      ("dhtw", ("4.15", "4.16", "4.17"))):
        merge, cross, far = rels
        for n, k in itertools.product(objs, repeat=2):
            for i in idxs:
                yield tag, merge, {"M": n, "N": k, "i": i}
            for i in range(-w, w):
                yield tag, cross, {"M": n, "N": k, "i": i}
            for i, j in pairs:
                if _apart(0, i, j):
                    yield tag, far, {"M": n, "N": k, "i": i, "j": j}
    for rel, prm in relation_window(algebra("dhce", BE), objs, alphas, w):
        yield "dhce", rel, prm


def _two_sided_instances(objs, alphas):
    """(tag, relation, params) over the hd and hhd windows of the suites:
    2.3-2.7 and 2.8-2.12, every variant and sign."""
    for tag in ("hd", "hhd"):
        for rel, prm in relation_window(algebra(tag, BE), objs, alphas):
            yield tag, rel, prm


@pytest.mark.parametrize("instances,count", [
    (lambda objs, alphas: _indexed_instances(objs, alphas, 3), 18421),
    (_two_sided_instances, 724),
], ids=["indexed", "two-sided"])
def test_relations_hold_over_a_window(instances, count):
    # both sides normal-ordered in the algebra's own presentation
    objs, alphas = suites._objs(BE, 2), suites._alphas(BE)
    seen = 0
    with warnings.catch_warnings():
        # dhm:4's far pairs leave the two-residue contract
        warnings.simplefilter("ignore", UserWarning)
        for tag, rel, prm in instances(objs, alphas):
            alg = algebra(tag, BE)
            lhs, rhs = relation_instance(alg, rel, prm)
            assert normal_form(alg, lhs) == normal_form(alg, rhs), \
                (tag, rel, prm)
            seen += 1
    assert seen == count


@pytest.mark.parametrize("alg,rel,params", [
    # a misspelling, another family's name, a wrong case: none may fall
    # through to some other instance
    (HD, "2.5", {"variant": "mrege", "alpha": _A, "beta": _B}),
    (HD, "2.6", {"variant": "K-mu-", "alpha": _A, "M": S1}),
    (HHD, "2.10", {"variant": "Merge", "alpha": _A, "beta": _B}),
    (HHD, "2.11", {"variant": "K-mu+", "alpha": _A, "M": S1}),
    (DD, "2.16", {"variant": "crossing", "alpha": _A, "beta": _B}),
    (DD, "2.17", {"variant": "Kc+nu-", "alpha": _A, "M": S1}),
    (DHCE, "4.10", {"variant": "kk", "alpha": _A, "beta": _B, "M": S1,
                    "i": 0}),
], ids=["2.5", "2.6", "2.10", "2.11", "2.16", "2.17", "4.10"])
def test_unknown_variant_raises(alg, rel, params):
    with pytest.raises(ValueError, match=re.escape(rel)):
        relation_instance(alg, rel, params)


DH5 = algebra("dhm:5", BE)


@pytest.mark.parametrize("alg,rel,i,j", [
    # equal or adjacent indices, where each of these would read a merge, a
    # crossing or the wrong orientation as a swap
    (DH, "4.8", 1, 0), (DH, "4.8", 0, 1), (DH, "4.8", 2, 2),
    (DHTW, "4.17", 0, 1), (DHCE, "4.17", 2, 2), (DHCE, "4.17", -1, 0),
    (DHCE, "4.11", 0, 1), (DHCE, "4.11", 1, 1),
    (DHCE, "4.14", 0, 0), (DHCE, "4.14", 0, 1), (DHCE, "4.14", -1, -2),
    (DH0, "4.5", 1, 1), (DH0, "4.5", 1, 0), (DH0, "4.5", 0, 1),
    (DH4, "4.5", 3, 0), (DH4, "4.5", 5, 1), (DH4, "4.5", 1, 2),
    (DH5, "4.5", 4, 0), (DH5, "4.5", 0, 5),
], ids=lambda x: x.tag if isinstance(x, Algebra) else str(x))
def test_index_outside_the_domain_raises(alg, rel, i, j):
    params = {"M": S1, "N": S2, "alpha": _A, "beta": _B, "i": i, "j": j}
    with pytest.raises(ValueError, match=r"%s .*i=%d, j=%d"
                       % (re.escape(rel), i, j)):
        relation_instance(alg, rel, params)


@pytest.mark.parametrize("alg,rel", [
    (HD, "2.8"), (DH, "4.15"), (DHTW, "4.6"), (DH0, "4.6"), (DHCE, "4.1"),
    (HHD, "2.13"), (DD, "2.3"), (HD, "4.1"), (DH4, "2.18r"),
], ids=lambda x: x.tag if isinstance(x, Algebra) else x)
def test_relation_of_another_family_raises(alg, rel):
    params = {"M": S1, "N": S2, "alpha": _A, "beta": _B, "i": 0, "j": 2}
    with pytest.raises(ValueError, match=re.escape(rel)):
        relation_instance(alg, rel, params)


def test_oracles_and_drinfeld_sides_pinned():
    # sha256 of the rendered 2.7/2.12 oracles and of both sides of 2.13,
    # free and quasi-reduced, over the max_dim 2 window
    digest = hashlib.sha256()
    for m, n in itertools.product(WINDOW, repeat=2):
        names = "%s %s" % (BE.class_name(m), BE.class_name(n))
        for side in ("HD", "HHD"):
            digest.update(("%s %s: %s\n" % (side, names, render_elt(
                BE, hd_cross_oracle(BE, side, m, n)))).encode())
        for x in relation_instance(DD, "2.13", {"M": m, "N": n}):
            digest.update(("2.13 %s: %s | %s\n" % (
                names, render_elt(BE, x),
                render_elt(BE, d_quasi(BE, x)))).encode())
    assert digest.hexdigest() == \
        "0733b07a37c432944441169433b325266678169a06771532e48c30d3b5730ee3"


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


def _twist_exponent(be, w):
    letters = [l for l in w if l[0] == "Z"]
    total = 0
    for p in range(len(letters)):
        dp = be.class_dim(letters[p][1])
        if letters[p][2] % 2:
            dp = neg_class(dp)
        for r in range(p + 1, len(letters)):
            dr = be.class_dim(letters[r][1])
            if letters[r][2] % 2:
                dr = neg_class(dr)
            total += be.euler_form(dp, dr)
    return total


def twist_consistency_check(be, letters):
    """The twisted product is the cocycle twist of the untwisted one.

    For an input word w of Z-letters: NF_dhtw(w) must equal
    v^{T(w)} * sum_u c_u v^{-T(u)} u  where NF_dh(w) = sum_u c_u u and
    T counts the Euler pairing over letter pairs with sign (-1)^index.
    """
    letters = tuple(letters)
    tw = normal_form(algebra("dhtw", be), FreeElt.word(be.p, letters))
    un = normal_form(algebra("dh", be), FreeElt.word(be.p, letters))
    pre = vpow(_twist_exponent(be, letters), be.p)
    expect = {}
    for w, c in un.terms.items():
        expect[w] = c * pre * vpow(-_twist_exponent(be, w), be.p)
    return tw.terms == {w: c for w, c in expect.items() if not c.is_zero()}


def test_twist_consistency_window():
    picks = [S1, S2, P]
    for m, n in itertools.product(picks, repeat=2):
        for i, j in ((0, 0), (1, 0), (2, 0), (3, 0), (0, 2), (-1, 1)):
            assert twist_consistency_check(BE, (Zg(m, i), Zg(n, j)))
    assert twist_consistency_check(BE, (Zg(S1, 2), Zg(P, 1), Zg(S2, 0)))


# dh is dhtw untwisted by the Euler form of D^b on classes,
# chi(M[i], N[j]) = (-1)^(i-j) <M^, N^>, with x * y = v^chi(x,y) x <> y for
# the twisted product * and the untwisted <>: row by row, each dh swap and
# cross exponent plus its chi correction is the dhtw one

FAR_STEPS = (-4, -3, -2, 2, 3, 4)


def untwist_mismatches(be):
    """(checks, mismatches) of the row-level tie between dh and dhtw over
    the classes of total dim 1-2: for each pair (M, N), the far swap at
    each step d in FAR_STEPS and each term of the adjacent cross."""
    dh, dhtw = algebra("dh", be), algebra("dhtw", be)
    far_dh = presented.INDEXED["dh"].far
    far_tw = presented.INDEXED["dhtw"].far
    objs = [c for c in suites._objs(be, 2) if sum(be.class_dim(c)) > 0]
    checks, bad = 0, []
    for m, n in itertools.product(objs, repeat=2):
        mh, nh = be.class_dim(m), be.class_dim(n)
        emn, enm = be.euler_form(mh, nh), be.euler_form(nh, mh)
        for d in FAR_STEPS:
            # X_{M,i} X_{N,j} = v^n X_{N,j} X_{M,i}, d = i - j
            checks += 1
            if far_dh(be, d, mh, nh) + (-1) ** abs(d) * (emn - enm) != \
                    far_tw(be, d, mh, nh):
                bad.append(("far", m, n, d))
        # X_{M,1} X_{N,0}: the terms over gamma_row(M, N), in its order
        row = gamma_row(be, m, n)
        untw = presented._z_cross_terms(dh, m, n, 0)
        tw = presented._z_cross_terms(dhtw, m, n, 0)
        assert len(row) == len(untw) == len(tw)
        for (_, _, _, xh, yh, _), (cu, wu), (ct, wt) in zip(row, untw, tw):
            checks += 1
            shift = vpow(be.euler_form(yh, xh) - emn, be.p)
            if wu != wt or cu * shift != ct:
                bad.append(("cross", m, n, wu))
    return checks, bad


@pytest.mark.parametrize("name,q,checks", [
    ("a2", 2, 280), ("a2", 3, 280), ("a3", 2, 920), ("kronecker", 2, 490),
])
def test_dh_rows_are_dhtw_untwisted(name, q, checks):
    be = BE if (name, q) == ("a2", 2) else QuiverBackend(preset(name), q)
    assert untwist_mismatches(be) == (checks, [])


def test_dh_untwist_check_fails_on_a_flipped_far_sign(monkeypatch):
    # 4.8's sign flipped: 2(-1)^d <N^, M^> -> -2(-1)^d <N^, M^>, which the
    # tie misses only where <N^, M^> = 0
    dh = presented.INDEXED["dh"]
    monkeypatch.setitem(presented.INDEXED, "dh", dh._replace(
        far=lambda be, d, mh, nh: -dh.far(be, d, mh, nh)))
    checks, bad = untwist_mismatches(BE)
    assert (checks, len(bad)) == (280, 144)
    assert {kind for kind, *_ in bad} == {"far"}


# relation ids whose left side is a function of (M, N), not a letter pair
FUNCTION_SIDES = ("2.13", "2.18", "2.18r")


def left_pair_owners(alg, objs, alphas, w):
    """{(a, b): the (relation id, variant)s whose instances in
    relation_window(alg, objs, alphas, w) have the left letter pair a b},
    canonical letters as `relation_instance` builds them, unit letters
    kept."""
    owners = {}
    for rel_id, params in relation_window(alg, objs, alphas, w):
        if rel_id in FUNCTION_SIDES:
            continue
        rel = presented._LEFT[alg.family, rel_id]
        letters, _ = presented._left_side(rel_id, rel, params.get("variant"))
        pair = tuple(alg.canon_letter((kind, x(params), y(params)))
                     for kind, x, y in letters)
        owners.setdefault(pair, set()).add((rel_id, params.get("variant")))
    return owners


def _shared_pairs(tag):
    owners = left_pair_owners(algebra(tag, BE), suites._objs(BE, 2),
                              suites._alphas(BE), 3)
    assert owners
    return {pair: ids for pair, ids in owners.items() if len(ids) > 1}


@pytest.mark.parametrize("tag", ["hd", "hhd", "d", "dhm:0", "dhm:4", "dh",
                                 "dhtw", "dhce"])
def test_each_left_pair_has_one_relation(tag):
    # a letter pair that two relations (or two variants) both state would
    # have two right sides, while the pair rule gives it one
    assert _shared_pairs(tag) == {}


def test_left_pair_check_fails_on_a_misplaced_index(monkeypatch):
    # 4.12 read as T_{alpha,i} X_{M,i-1} states 4.13's pairs again: all
    # of them, 5 alphas by 7 classes (the zero class too) by 6 indices
    monkeypatch.setitem(presented._LEFT, ("dhce", "4.12"), presented._resolve(
        presented.Relation(None, {None: ("T alpha i", "X M i-1")}),
        presented.INDEXED["dhce"]))
    shared = _shared_pairs("dhce")
    assert len(shared) == 5 * 7 * 6
    assert set(map(frozenset, shared.values())) == {
        frozenset({("4.12", None), ("4.13", None)})}


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
        word_degree(DH5, (E(S1, 0),))


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
    assert tensor_mult(tensor_unit(algs), x) == x


@contextlib.contextmanager
def _cap(limit):
    """Every operation in the block runs under the cap `limit`, as in a
    verify run."""
    previous = caps.fix_limit(limit)
    try:
        yield
    finally:
        caps.fix_limit(previous)


def test_budget_guard():
    # torus letters only: their pair rules count nothing in the backend,
    # so the one cap this rewrite can pass is its own
    word = (KPlus((1, 0)), KMinus((0, 1)), KMinus((1, 0))) * 2
    _, visits = _reference_normalize(HD, w(word).terms)
    assert visits > 5
    with _cap(visits):
        assert normal_form(HD, w(word)).terms
    with _cap(visits - 1), pytest.raises(CapExceeded) as exc:
        normal_form(HD, w(word))
    assert (exc.value.op, exc.value.limit, exc.value.spent) == \
        ("normal_form", visits - 1, visits)


def test_pmult_units():
    x = normal_form(HD, w((MuPlus(S1), MuMinus(S2))))
    one = normal_form(HD, FreeElt.unit(2))
    assert pmult(HD, x, one) == x
    assert pmult(HD, one, x) == x


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
    assert normal_form(HD, Lin(HD.q, nf.terms)) == nf
    deg = word_degree(HD, word)
    for word2 in nf.terms:
        assert word_degree(HD, word2) == deg


# ---------------------------------------------------------------------------
# the resuming, seam-starting driver against the plain one

# letters per family over S1, S2, P and the simple classes; dhm:4 and the
# Z families get residues outside their canonical range or far apart
ALPHAS_1 = [(1, 0), (0, -1)]
LETTERS = {
    HD: [MuPlus(S1), MuMinus(S2), MuPlus(P), MuMinus(P)]
        + [KPlus(a) for a in ALPHAS_1] + [KMinus(a) for a in ALPHAS_1],
    HHD: [NuPlus(S2), NuMinus(S1), NuPlus(P), NuMinus(P)]
         + [KcPlus(a) for a in ALPHAS_1] + [KcMinus(a) for a in ALPHAS_1],
    DH0: [E(S1, 0), E(S2, 1), E(P, -1), E(S1, 1)]
         + [Kc(a, i) for a in ALPHAS_1 for i in (0, 1)],
    DH4: [E(S1, 0), E(S2, 1), E(P, 2), E(S1, 5)]
         + [Kc(a, i) for a in ALPHAS_1 for i in (3, 4)],
    DH: [Zg(S1, 0), Zg(S2, 1), Zg(P, 2), Zg(S1, -1)],
    DHTW: [Zg(S1, 0), Zg(S2, 1), Zg(P, 2), Zg(S1, -1)],
    DHCE: [Zg(S1, 0), Zg(S2, 1), Zg(P, -1), Zg(S1, 2)]
          + [Kz(a, i) for a in ALPHAS_1 for i in (-1, 0)],
}


def _dims(words):
    total = [0, 0]
    for word in words:
        for letter in word:
            if not is_torus(letter):
                for k, d in enumerate(BE.class_dim(letter_mid(letter))):
                    total[k] += d
    return total


def _draw_elt(data, alg, max_len):
    """A FreeElt of one or two words of alg's letters, with v-power
    coefficients."""
    words = data.draw(st.lists(
        st.lists(st.sampled_from(LETTERS[alg]), max_size=max_len)
        .map(tuple), min_size=1, max_size=2))
    out = Lin(2)
    for word in words:
        out = out + w(word, vpow(data.draw(st.integers(-2, 2)), 2))
    return words, out


def _reference_normalize(alg, terms):
    """The driver before resume and seam starts: every word searches from
    its first pair and every pair rule is evaluated afresh.  Returns the
    reduced terms and the words visited."""
    reduce_pair = presented._REDUCERS[alg.family]
    out = {}
    stack = []
    for word, c in terms.items():
        stack.append((presented._strip(
            tuple(alg.canon_letter(l) for l in word)), c))
    visits = 0
    while stack:
        word, c = stack.pop()
        visits += 1
        for i in range(len(word) - 1):
            res = reduce_pair(alg, word[i], word[i + 1])
            if res is not None:
                break
        else:
            s = out.get(word)
            out[word] = c if s is None else s + c
            continue
        for scal, letters in res:
            stack.append((word[:i] + letters + word[i + 2:], c * scal))
    return {w_: c for w_, c in out.items() if not c.is_zero()}, visits


TAGS = [HD, HHD, DH0, DH4, DH, DHTW, DHCE]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_driver_matches_restart_from_zero(data):
    alg = data.draw(st.sampled_from(TAGS))
    words, x = _draw_elt(data, alg, 3)
    assume(max(_dims(words)) <= 3)
    want, visits = _reference_normalize(alg, x.terms)
    terms, spent = presented._normalize_terms(alg, x.terms, "normal_form",
                                              10 ** 6)
    # the same leftmost rewrites in the same order: equal terms, in the same
    # order, after the same number of visits
    assert [(w_, c) for w_, c in terms.items() if not c.is_zero()] == \
        list(want.items())
    assert spent == visits
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert list(normal_form(alg, x).terms.items()) == list(want.items())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pmult_matches_normal_form_of_free_product(data):
    alg = data.draw(st.sampled_from(TAGS))
    a_words, a = _draw_elt(data, alg, 2)
    b_words, b = _draw_elt(data, alg, 2)
    assume(max(_dims(a_words + b_words)) <= 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        na, nb = normal_form(alg, a), normal_form(alg, b)
        for left, right in ((na, nb), (na, b), (a, nb), (a, b)):
            got = pmult(alg, left, right)
            want = normal_form(alg, Lin(alg.q, left.terms)
                               * Lin(alg.q, right.terms))
            assert got == want
            assert got.canonical == want.canonical


def test_pmult_of_normal_factors_spends_the_same_visits(monkeypatch):
    # only the search start moves: the words visited are the same, so the
    # reference's visit count is exactly the cap pmult needs
    a = normal_form(HD, w((MuMinus(S1), MuPlus(S2))))
    b = normal_form(HD, w((MuMinus(S2), MuPlus(S1))))
    want, visits = _reference_normalize(
        HD, (Lin(2, a.terms) * Lin(2, b.terms)).terms)
    assert visits > 1
    assert pmult(HD, a, b).terms == want
    monkeypatch.setenv("HALLFORGE_MAX_ENUM", str(visits))
    assert pmult(Algebra("hd", BE), a, b).terms == want
    monkeypatch.setenv("HALLFORGE_MAX_ENUM", str(visits - 1))
    with pytest.raises(CapExceeded) as exc:
        pmult(Algebra("hd", BE), a, b)
    assert exc.value.op == "normal_form"


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_tensor_mult_matches_legwise_normal_form(data):
    alg = data.draw(st.sampled_from(TAGS))
    algs = (alg, alg)
    legs = st.lists(st.sampled_from(LETTERS[alg]), max_size=2).map(tuple)
    x_legs = data.draw(st.lists(st.tuples(legs, legs), min_size=1,
                                max_size=2))
    y_legs = data.draw(st.tuples(legs, legs))
    assume(max(_dims([u for u, _ in x_legs] + [y_legs[0]])) <= 3)
    assume(max(_dims([u for _, u in x_legs] + [y_legs[1]])) <= 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        x = Lin(2, {}, algs)
        for u1, u2 in x_legs:
            x = x + tensor_word(algs, u1, u2)
        y = tensor_word(algs, *y_legs)
        got = tensor_mult(x, y)
        want = Lin(2, {}, algs)
        for (u1, u2), c in x.terms.items():
            for (w1, w2), d in y.terms.items():
                left = normal_form(alg, w(u1 + w1, c * d))
                right = normal_form(alg, w(u2 + w2))
                want = want + Lin(2, {
                    (lw, rw): lc * rc for lw, lc in left.terms.items()
                    for rw, rc in right.terms.items()}, algs)
    assert got == want


def test_tensor_mult_caps_each_leg_by_the_env_cap(monkeypatch):
    # one term pair, so one rewrite per leg; each leg has its own budget
    # under the HALLFORGE_MAX_ENUM in force when tensor_mult is called
    x = tensor_word((HD, HD), (MuPlus(S1),), (MuPlus(P),))
    y = tensor_word((HD, HD), (MuMinus(S1),), (MuMinus(P),))
    _, left = _reference_normalize(HD, w((MuPlus(S1), MuMinus(S1))).terms)
    _, right = _reference_normalize(HD, w((MuPlus(P), MuMinus(P))).terms)
    assert min(left, right) > 1
    want = tensor_mult(x, y)
    monkeypatch.setenv("HALLFORGE_MAX_ENUM", str(max(left, right)))
    assert tensor_mult(x, y) == want
    monkeypatch.setenv("HALLFORGE_MAX_ENUM", str(max(left, right) - 1))
    with pytest.raises(CapExceeded) as exc:
        tensor_mult(x, y)
    assert exc.value.op == "normal_form"
    assert exc.value.limit == max(left, right) - 1


def test_pmult_cap_on_normal_factors(monkeypatch):
    a = normal_form(HD, w((MuPlus(S1),)))
    b = normal_form(HD, w((MuMinus(S1),)))
    # warm the backend, then multiply in a fresh algebra: the only budget
    # left to bust is the rewrite's own
    assert len(pmult(HD, a, b).terms) == 2
    monkeypatch.setenv("HALLFORGE_MAX_ENUM", "2")
    with pytest.raises(CapExceeded) as exc:
        pmult(Algebra("hd", BE), a, b)
    assert exc.value.op == "normal_form"
    assert exc.value.limit == 2


def test_cap_inside_a_pair_rule_stores_nothing():
    be = QuiverBackend(preset("a2"), 2)
    s1 = be.classify(be.simple_rep(0))
    s2 = be.classify(be.simple_rep(1))
    hd = algebra("hd", be)
    word = FreeElt.word(2, (MuPlus(s1), MuPlus(s2)))
    # merging needs the cold (1,1) class table: 2 candidates over a cap of
    # 1, hit inside the pair rule at the rewrite's first visit
    with _cap(1), pytest.raises(CapExceeded) as exc:
        normal_form(hd, word)
    assert exc.value.op != "normal_form"
    # no entry, and no empty inner row for the pair's left letter
    assert hd._pair_rules == {}
    got = normal_form(hd, word)
    assert {a: list(row) for a, row in hd._pair_rules.items()} == \
        {MuPlus(s1): [MuPlus(s2)]}
    # a fresh pair table gives the same terms
    assert got.terms == normal_form(Algebra("hd", be), word).terms


def _pair_entries(alg):
    """The (a, b, answer) entries of alg's two-level pair table."""
    return [(a, b, res) for a, row in alg._pair_rules.items()
            for b, res in row.items()]


def test_pair_table_holds_each_pair_once():
    alg = Algebra("hd", BE)
    x = w((MuPlus(S1), MuMinus(S1), MuPlus(S1), MuMinus(S1)))
    first = normal_form(alg, x)
    entries = _pair_entries(alg)
    assert entries
    # keyed letter by letter: every key is one letter, never a pair
    assert all(isinstance(a[0], str) and isinstance(b[0], str)
               for a, b, _ in entries)
    assert all(row for row in alg._pair_rules.values())
    assert all(res is None or isinstance(res, tuple) for _, _, res in entries)
    assert normal_form(alg, x) == first
    assert _pair_entries(alg) == entries


def test_pmult_three_residues_not_canonical():
    a = normal_form(DH4, w((E(S1, 0), E(S1, 1))))
    assert a.canonical
    for b in (w((E(S1, 2),)), normal_form(DH4, w((E(S1, 2),)))):
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            prod = pmult(DH4, a, b)
        assert not prod.canonical
        assert any("two-residue" in str(g.message) for g in got)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert prod == normal_form(DH4, Lin(2, a.terms) * Lin(2, b.terms))


def test_only_cyclic_moduli_above_two_check_the_two_residue_contract(
        monkeypatch):
    checked = []
    real = presented._word_canonical
    monkeypatch.setattr(presented, "_word_canonical",
                        lambda alg, word: checked.append(alg.tag)
                        or real(alg, word))
    for alg, word in ((HD, (MuPlus(S1), MuMinus(S1))),
                      (DH0, (E(S1, 1), E(S1, 0))),
                      (DH, (Zg(S1, 1), Zg(S1, 0))),
                      (DH4, (E(S1, 1), E(S1, 0)))):
        assert normal_form(alg, w(word)).canonical
    assert set(checked) == {"dhm:4"}


def test_pmult_rejects_the_double():
    x = w((OmPlus(S1),))
    with pytest.raises(ValueError):
        pmult(DD, x, x)


def test_algebra_is_one_instance_per_tag_and_backend():
    be = QuiverBackend(preset("a2"), 2)
    hd = presented.algebra("hd", be)
    assert presented.algebra("hd", be) is hd
    assert presented.algebra("dhm:4", be) is presented.algebra("dhm:4", be)
    assert presented.algebra("dhm:4", be) is not presented.algebra("dhm:0", be)
    assert presented.algebra("hd", QuiverBackend(preset("a2"), 2)) is not hd
    from hallforge.morphisms import build_hom
    kappas = [build_hom(be, "kappa", i=i, m=4) for i in range(4)]
    assert all(h.target is presented.algebra("dhm:4", be) for h in kappas)
    assert all(h.source is hd for h in kappas)


def test_letter_table_reduces_residues_and_drops_unit_letters():
    be = QuiverBackend(preset("a2"), 2)
    alg = presented.algebra("dhm:4", be)
    s1 = be.classify(be.simple_rep(0))
    zero = be.classify(be.zero_rep())
    word = (E(s1, 7), Kc((0, 0), 1), Kc((1, 0), -3), E(zero, 5), E(s1, 3))
    assert presented._canon_word(alg, word) == \
        (E(s1, 3), Kc((1, 0), 1), E(s1, 3))
    assert alg._letters == {E(s1, 7): E(s1, 3), Kc((0, 0), 1): None,
                            Kc((1, 0), -3): Kc((1, 0), 1), E(zero, 5): None,
                            E(s1, 3): E(s1, 3)}
    # a letter outside the family raises every time and is never stored
    for _ in range(2):
        with pytest.raises(ValueError):
            presented._canon_word(alg, (E(s1, 1), MuPlus(s1)))
    assert MuPlus(s1) not in alg._letters
    with pytest.raises(ValueError):
        pmult(alg, w((E(s1, 1),)), w((MuPlus(s1),)))


def test_letter_table_holds_one_entry_per_distinct_letter():
    be = QuiverBackend(preset("a2"), 2)
    s1 = be.classify(be.simple_rep(0))
    s2 = be.classify(be.simple_rep(1))
    for tag, letters in (
            ("dhm:4", [E(s1, i) for i in range(-4, 9)]
             + [Kc((1, 0), i) for i in range(-4, 9)]),
            ("hd", [MuPlus(s1), MuMinus(s2), KPlus((1, 0)),
                    KMinus((0, 1))])):
        alg = presented.algebra(tag, be)
        with warnings.catch_warnings():
            # residues two apart leave the two-residue contract on dhm:4
            warnings.simplefilter("ignore", UserWarning)
            for _ in range(3):
                for a, b in itertools.product(letters, repeat=2):
                    x = normal_form(alg, w((a, b)))
                    pmult(alg, w((b,)), x)
        assert set(alg._letters) == set(letters)
