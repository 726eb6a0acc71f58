import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hallforge.backend import QuiverBackend
from hallforge.hall import (basis, bialgebra_check, coassoc_check, comult,
                            cross_support, gamma, gamma_row,
                            green_formula_check, green_pairing, hmult,
                            pairing_coproduct_check, pairing_product_check,
                            tensor_hmult, unit)
from hallforge.presented import (KcPlus, NuMinus, NuPlus, _crossing_terms,
                                 algebra)
from hallforge.quiver import Quiver, preset
from hallforge.scalars import Lin, SqrtScalar, vpow
from hallforge.suites import _alphas, _objs

import fold_oracles
from matrix_oracles import direct_sum


_ASSOC_BE = QuiverBackend(preset("a2"), 2)


@pytest.fixture(scope="module")
def be():
    return _ASSOC_BE


def ids(be):
    s1 = be.classify(be.simple_rep(0))
    s2 = be.classify(be.simple_rep(1))
    split, p = be.iso_classes((1, 1))
    return s1, s2, split, p


def test_hmult_frozen(be):
    s1, s2, split, p = ids(be)
    got = hmult(basis(be, s1), basis(be, s2))
    want = (basis(be, split) + basis(be, p)).scale(vpow(-1, 2))
    assert got == want
    # reverse order: only the split extension, Euler exponent 0
    got = hmult(basis(be, s2), basis(be, s1))
    assert got == basis(be, split)


def test_hmult_torus(be):
    s1, s2, split, p = ids(be)
    ka = basis(be, 0, (1, 0))
    kb = basis(be, 0, (0, 1))
    assert hmult(ka, kb) == basis(be, 0, (1, 1))
    # K_a [M] = v^{(a,M)} [M] K_a
    lhs = hmult(ka, basis(be, s2))
    assert lhs == Lin(be.p, {(s2, (1, 0)): vpow(be.sym_euler((1, 0), (0, 1)), 2)}, be)
    assert hmult(unit(be), ka) == ka


def test_hmult_unit_and_assoc_exhaustive(be):
    window = [c for c in be.classes_within((2, 2)) if sum(be.class_dim(c)) <= 2]
    assert len(window) == 7
    elts = [basis(be, c) for c in window]
    for x in elts:
        assert hmult(unit(be), x) == x == hmult(x, unit(be))
    for x, y, z in itertools.product(elts, repeat=3):
        assert hmult(hmult(x, y), z) == hmult(x, hmult(y, z))


def test_comult_frozen(be):
    s1, s2, split, p = ids(be)
    got = comult(basis(be, p))
    zero = (0, 0)
    want = {
        ((p, zero), (0, zero)): SqrtScalar.one(2),
        ((0, (1, 1)), (p, zero)): SqrtScalar.one(2),
        ((s1, (0, 1)), (s2, zero)): vpow(-1, 2),
    }
    assert got.terms == want
    got = comult(basis(be, 0, (1, 0)))
    assert got.terms == {((0, (1, 0)), (0, (1, 0))): SqrtScalar.one(2)}
    got = comult(basis(be, s1))
    assert got.terms == {
        ((s1, zero), (0, zero)): SqrtScalar.one(2),
        ((0, (1, 0)), (s1, zero)): SqrtScalar.one(2),
    }


def test_green_pairing_frozen(be):
    s1, s2, split, p = ids(be)
    one = SqrtScalar.one(2)
    assert green_pairing(basis(be, p), basis(be, p)) == one
    assert green_pairing(basis(be, s1), basis(be, s2)).is_zero()
    got = green_pairing(basis(be, 0, (1, 0)), basis(be, 0, (0, 1)))
    assert got == vpow(-1, 2)
    # a_M in the denominator: S1 + S1 direct sum has 6 automorphisms
    ss = be.classify(direct_sum(be, be.simple_rep(0), be.simple_rep(0)))
    got = green_pairing(basis(be, ss), basis(be, ss))
    assert got == SqrtScalar.of(Fraction(1, 6), 2)


def test_gamma_frozen(be):
    s1, s2, split, p = ids(be)
    one = SqrtScalar.one(2)
    assert gamma(be, s1, 0, s1, 0) == one
    assert gamma(be, s1, 0, s2, 0).is_zero()
    assert gamma(be, s1, s1, s1, s1) == one
    assert gamma(be, s1, s1, 0, 0) == one  # 1/(q-1) = 1 at q = 2
    assert gamma(be, s1, s2, 0, 0).is_zero()
    three = QuiverBackend(preset("a2"), 3)
    t1 = three.classify(three.simple_rep(0))
    assert gamma(three, t1, t1, 0, 0) == SqrtScalar.of(Fraction(1, 2), 3)


def test_green_formula_frozen(be):
    s1, s2, split, p = ids(be)
    lhs, rhs, ok = green_formula_check(be, s1, s2, s1, s2)
    assert ok and lhs == SqrtScalar.of(2, 2) and rhs == lhs
    lhs, rhs, ok = green_formula_check(be, s1, s2, s2, s1)
    assert ok
    lhs, rhs, ok = green_formula_check(be, p, 0, p, 0)
    assert ok
    # class mismatch: both sides vanish
    lhs, rhs, ok = green_formula_check(be, s1, s1, s2, s2)
    assert ok and lhs.is_zero() and rhs.is_zero()


def test_green_formula_window(be):
    window = [c for c in be.classes_within((1, 1))]
    for tup in itertools.product(window, repeat=4):
        _, _, ok = green_formula_check(be, *tup)
        assert ok


def test_coassociativity(be):
    window = [c for c in be.classes_within((2, 2)) if sum(be.class_dim(c)) <= 2]
    for c in window:
        assert coassoc_check(basis(be, c))
        assert coassoc_check(basis(be, c, (1, 0)))


def test_bialgebra_compat(be):
    window = [c for c in be.classes_within((2, 2)) if sum(be.class_dim(c)) <= 2]
    for x, y in itertools.product(window, repeat=2):
        assert bialgebra_check(basis(be, x), basis(be, y))


def test_bialgebra_compat_a1_q3():
    be3 = QuiverBackend(preset("a1"), 3)
    window = [c for d in range(3) for c in be3.iso_classes((d,))]
    for x, y in itertools.product(window, repeat=2):
        assert bialgebra_check(basis(be3, x), basis(be3, y))
        assert coassoc_check(basis(be3, x))


def test_pairing_axioms(be):
    s1, s2, split, p = ids(be)
    for tup in itertools.product([s1, s2, split, p], repeat=3):
        x, y, z = (basis(be, c) for c in tup)
        assert pairing_product_check(x, y, z)
        assert pairing_coproduct_check(x, y, z)
    ks = [basis(be, 0, a) for a in ((1, 0), (0, 1), (-1, 0))]
    for x, y, z in itertools.product(ks, repeat=3):
        assert pairing_product_check(x, y, z)
        assert pairing_coproduct_check(x, y, z)


def test_tensor_mult_componentwise(be):
    s1, s2, split, p = ids(be)
    one = SqrtScalar.one(2)
    zero_cls = (0, 0)
    xt = Lin(be.p, {((s1, zero_cls), (0, zero_cls)): one}, (be, be))
    yt = Lin(be.p, {((0, zero_cls), (s2, zero_cls)): one}, (be, be))
    got = tensor_hmult(xt, yt)
    assert got.terms == {((s1, zero_cls), (s2, zero_cls)): one}


@pytest.mark.parametrize("quiver,q", [("a2", 2), ("a1", 3)])
def test_products_match_the_per_term_fold(quiver, q):
    # every comult pair of the gate's bialgebra window, as its
    # comult-mult instances multiply them
    be = QuiverBackend(preset(quiver), q)
    objs = _objs(be, 2)
    symbols = [basis(be, m, a) for m in objs for a in _alphas(be)]
    coproducts = [comult(x) for x in symbols]
    for x, dx in zip(symbols, coproducts):
        for y, dy in zip(symbols, coproducts):
            got, want = hmult(x, y), fold_oracles.hmult(x, y)
            assert fold_oracles.same(got, want)
            got = tensor_hmult(dx, dy)
            want = fold_oracles.tensor_hmult(dx, dy)
            assert fold_oracles.same(got, want) and got.label == (be, be)
    assert len(symbols) == {"a2": 35, "a1": 9}[quiver]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hmult_assoc_with_torus(data):
    be = _ASSOC_BE
    window = [c for c in be.classes_within((1, 1))]
    alphas = [(0, 0), (1, 0), (0, 1), (-1, 1)]
    picks = [
        basis(be, data.draw(st.sampled_from(window)),
                      data.draw(st.sampled_from(alphas)))
        for _ in range(3)
    ]
    x, y, z = picks
    assert hmult(hmult(x, y), z) == hmult(x, hmult(y, z))


# -- comult by subobject table against the per-subobject loop -------------

def _comult_per_subobject(x):
    """Delta x with one term per subobject of each input class."""
    be = x.label
    out = {}
    for (lid, alpha), c in x.terms.items():
        c_over_a_l = c / be.aut_count(lid)
        for sub, quot in be.subobject_pairs(be.class_rep(lid)):
            mid = be.classify(quot)
            nid = be.classify(sub)
            mhat, nhat = be.class_dim(mid), be.class_dim(nid)
            coeff = c_over_a_l * vpow(be.euler_form(mhat, nhat), be.p) \
                * (be.aut_count(mid) * be.aut_count(nid))
            key = ((mid, tuple(a + b for a, b in zip(nhat, alpha))),
                   (nid, alpha))
            s = out.get(key)
            out[key] = coeff if s is None else s + coeff
    return out


@pytest.mark.parametrize("tag,p,top", [
    ("a2", 2, 3), ("a2", 3, 3), ("a3", 2, 3), ("kronecker", 2, 2),
    ("1>2<3", 2, 3)])
def test_comult_matches_the_per_subobject_loop(tag, p, top):
    if tag == "1>2<3":
        quiver = Quiver(("1", "2", "3"), (("1", "2"), ("3", "2")))
    else:
        quiver = preset(tag)
    be = QuiverBackend(quiver, p)
    classes = [c for d in itertools.product(range(top + 1), repeat=quiver.n)
               if sum(d) <= top for c in be.iso_classes(d)]
    simple = quiver.simple_class(0)
    elts = [basis(be, c, a) for c in classes
            for a in (None, simple)]
    elts.append(elts[-1] + elts[-2].scale(vpow(1, p)) + elts[1])
    for x in elts:
        got, want = comult(x).terms, _comult_per_subobject(x)
        assert got == want
        assert list(got) == list(want)


# the four categories the class-row reference checks run on, each with its
# classes of total dim <= 3
ROW_CASES = [("a2", 2), ("a2", 3), ("a3", 2), ("kronecker", 2)]


def classes_up_to(be, top):
    return [c for d in itertools.product(range(top + 1), repeat=be.quiver.n)
            if sum(d) <= top for c in be.iso_classes(d)]


@pytest.mark.parametrize("tag, q", ROW_CASES)
def test_class_rows_match_their_per_call_formulas(tag, q):
    be = QuiverBackend(preset(tag), q)
    classes = classes_up_to(be, 3)
    for m, n in itertools.product(classes, repeat=2):
        want = []
        for x, y, xh, yh, lh in cross_support(be, m, n):
            g = gamma(be, m, n, x, y)
            if not g.is_zero():
                want.append((g, x, y, xh, yh, lh))
        assert list(gamma_row(be, m, n)) == want
    # every row was built once and is read back as the same object
    assert gamma_row(be, classes[-1], classes[-1]) \
        is gamma_row(be, classes[-1], classes[-1])


def _crossing_letters(L, X, Y):
    # hhd's crossing letters: the stripped word names (X, Y) uniquely
    return KcPlus(L), NuPlus(X), NuMinus(Y)


@pytest.mark.parametrize("tag, q", ROW_CASES)
def test_mirrored_crossing_terms_match_the_per_call_gammas(tag, q):
    # the mirrored crossing sum of (M, N) reads the gamma row of (N, M)
    # with X and Y exchanged: it must be v^<L^, Y^ - X^> gamma(N, M, Y, X)
    # over cross_support(M, N), term by term
    be = QuiverBackend(preset(tag), q)
    alg = algebra("hhd", be)
    classes = classes_up_to(be, 2)
    for m, n in itertools.product(classes, repeat=2):
        got = {}
        for coeff, word in _crossing_terms(alg, m, n, _crossing_letters,
                                           mirrored=True):
            assert word not in got
            got[word] = coeff
        want = {}
        for x, y, xh, yh, lh in cross_support(be, m, n):
            g = gamma(be, n, m, y, x)
            if not g.is_zero():
                # the unit letters K_0, [0] dropped
                units = (not any(lh), x == 0, y == 0)
                word = tuple(letter for letter, unit in zip(
                    _crossing_letters(lh, x, y), units) if not unit)
                want[word] = g * vpow(be.euler_form(
                    lh, tuple(b - a for a, b in zip(xh, yh))), q)
        assert got == want, (m, n)
