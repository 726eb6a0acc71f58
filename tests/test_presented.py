import itertools
import warnings

import pytest
from hypothesis import assume, given, settings, strategies as st

from hallforge import presented
from hallforge.backend import QuiverBackend
from hallforge.caps import Budget, CapExceeded
from hallforge.presented import (Algebra, E, FreeElt, Kc, KcMinus, KcPlus,
                                 KMinus, KPlus, Kz, MuMinus,
                                 MuPlus, NuMinus, NuPlus,
                                 OmPlus, Zg, algebra, d_quasi,
                                 grading_check, hd_cross,
                                 hd_cross_oracle, homogeneous_degree,
                                 is_torus, letter_mid, normal_form, pmult,
                                 relation_instance, tensor_mult, tensor_unit,
                                 tensor_word,
                                 twist_consistency_check, word_degree)
from hallforge.quiver import preset
from hallforge.scalars import Lin, SqrtScalar, vpow

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
    assert tensor_mult(tensor_unit(algs), x) == x


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
    budget = Budget("normal_form", 10 ** 6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = normal_form(alg, x, budget=budget)
    # the same leftmost rewrites in the same order: equal terms, in the same
    # order, after the same number of visits
    assert list(got.terms.items()) == list(want.items())
    assert budget.spent == visits


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


def test_cap_inside_a_pair_rule_stores_nothing(monkeypatch):
    be = QuiverBackend(preset("a2"), 2)
    s1 = be.classify(be.simple_rep(0))
    s2 = be.classify(be.simple_rep(1))
    hd = Algebra("hd", be)
    word = FreeElt.word(2, (MuPlus(s1), MuPlus(s2)))
    # merging needs the cold (1,1) class table: 2 candidates over a cap of 1
    monkeypatch.setenv("HALLFORGE_MAX_ENUM", "1")
    with pytest.raises(CapExceeded) as exc:
        normal_form(hd, word, budget=Budget("normal_form", 100))
    assert exc.value.op != "normal_form"
    assert hd._pair_rules == {}
    monkeypatch.delenv("HALLFORGE_MAX_ENUM")
    got = normal_form(hd, word)
    assert list(hd._pair_rules) == [(MuPlus(s1), MuPlus(s2))]
    assert got == normal_form(Algebra("hd", be), word)


def test_pair_table_holds_each_pair_once():
    alg = Algebra("hd", BE)
    x = w((MuPlus(S1), MuMinus(S1), MuPlus(S1), MuMinus(S1)))
    first = normal_form(alg, x)
    size = len(alg._pair_rules)
    assert size > 0
    assert all(res is None or isinstance(res, tuple)
               for res in alg._pair_rules.values())
    assert normal_form(alg, x) == first
    assert len(alg._pair_rules) == size


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
