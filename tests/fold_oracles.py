"""Fold-style reference sums, for checking the in-place ones.

Each function here builds its sum the way the library once did: start
from a zero element and fold in one summand at a time with `Lin.__add__`,
so every summand builds a `Lin` and every `+` copies the running dict.
The library now accumulates into one dict and builds a single `Lin` at
the end; the results must agree in terms, label and canonical flag.

`install(mp)` points the library's private summing helpers at the fold
versions through a pytest monkeypatch, so a map built or a relation side
computed under it is the fold one.
"""

from fractions import Fraction

from hallforge import morphisms, presented
from hallforge.hall import (_elt, _vp, basis, comult, cross_support,
                            green_pairing)
from hallforge.morphisms import GenMap
from hallforge.presented import (FreeElt, KdMinus, KdPlus, OmMinus, OmPlus,
                                 algebra, tensor_mult, pmult, tensor_word)
from hallforge.quiver import add_class, sub_class
from hallforge.scalars import Lin, SqrtScalar, accumulate, vpow


def same(got, want):
    """Equal terms, q, label and canonical flag."""
    return (got == want and got.label == want.label
            and got.canonical == want.canonical)


def apply_hom(h, x):
    out = Lin(h.source.q, None, h.target)
    for word, c in x.terms.items():
        acc = h.image(word[0]) if word else h.target_unit()
        for letter in word[1:]:
            img = h.image(letter)
            if h.is_tensor():
                acc = tensor_mult(acc, img)
            else:
                acc = pmult(h.target, acc, img)
        out = out + acc.scale(c)
    return out


def tensor_apply(h_left, h_right, x):
    algs = (h_left.target, h_right.target)
    q = algs[0].q
    out = Lin(q, None, algs)
    for (lw, rw), c in x.terms.items():
        left = apply_hom(h_left, FreeElt.word(q, lw))
        right = apply_hom(h_right, FreeElt.word(q, rw))
        terms = {}
        for ul, cl in left.terms.items():
            for ur, cr in right.terms.items():
                terms[(ul, ur)] = cl * cr
        out = out + Lin(q, terms, algs).scale(c)
    return out


def double_map(be, name, algs, torus_words, module_words, exponent=None,
               params=None):
    if exponent is None:
        exponent = be.euler_form

    def image(letter):
        kind, s, x = letter
        if kind == "KD":
            return tensor_word(algs, *torus_words(s, x))
        aM = be.aut_count(x)
        out = Lin(be.p, None, algs)
        for (quot, sub), g in be.subobject_table(x).items():
            dq, ds = be.class_dim(quot), be.class_dim(sub)
            m1, m2, d1, d2 = ((quot, sub, dq, ds) if s > 0
                              else (sub, quot, ds, dq))
            rat = Fraction(g * be.aut_count(m1) * be.aut_count(m2), aM)
            coeff = vpow(exponent(dq, ds), be.p) * SqrtScalar.of(rat, be.p)
            out = out + tensor_word(algs, *module_words(s, m1, m2, d1, d2),
                                    coeff=coeff)
        return out

    return GenMap(name, algebra("d", be), algs, image, params)


def free_sum(alg, summands):
    out = Lin(alg.q)
    for c, letters in summands:
        out = out + FreeElt.word(alg.q, letters, c)
    return out


def double_cross_expanded(alg, M, N):
    be = alg.be
    q = alg.q
    mh, nh = be.class_dim(M), be.class_dim(N)
    lhs = Lin(q)
    rhs = Lin(q)
    for X, Y, xh, yh, lh in cross_support(be, M, N):
        for L in be.iso_classes(lh):
            aaa = SqrtScalar.of(be.aut_count(X) * be.aut_count(Y)
                                * be.aut_count(L), q)
            g1 = be.hall_number(M, L, X)
            g2 = be.hall_number(N, Y, L)
            if g1 and g2:
                c = aaa * SqrtScalar.of(g1 * g2, q) \
                    * alg.v(be.euler_form(lh, sub_class(mh, nh)))
                lhs = lhs + FreeElt.word(
                    q, (KdMinus(lh), OmMinus(Y), OmPlus(X)), c)
            g3 = be.hall_number(M, X, L)
            g4 = be.hall_number(N, L, Y)
            if g3 and g4:
                c2 = aaa * SqrtScalar.of(g3 * g4, q) \
                    * alg.v(be.euler_form(lh, sub_class(nh, mh)))
                rhs = rhs + FreeElt.word(
                    q, (KdPlus(lh), OmPlus(X), OmMinus(Y)), c2)
    return lhs, rhs


def pairing_sum(be, a, b, module, torus, s):
    q = be.p
    db = comult(basis(be, b)).terms.items()
    out = Lin(q)
    for ((a1m, a1k), (a2m, a2k)), ca in comult(basis(be, a)).terms.items():
        a2 = basis(be, a2m, a2k)
        for ((b1m, b1k), (b2m, b2k)), cb in db:
            pair = green_pairing(a2, basis(be, b1m, b1k))
            if not pair.is_zero():
                letters = ((module, s, a1m), (torus, s, a1k),
                           (module, -s, b2m), (torus, -s, b2k))
                out = out + FreeElt.word(q, letters, ca * cb * pair)
    return out


def hmult(x, y):
    be = x.label
    out = {}
    for (mid, alpha), cx in x.terms.items():
        mhat = be.class_dim(mid)
        for (nid, beta), cy in y.terms.items():
            nhat = be.class_dim(nid)
            base = cx * cy * _vp(be, be.sym_euler(alpha, nhat)
                                 + be.euler_form(mhat, nhat))
            gamma_cls = add_class(alpha, beta)
            for lid, g in be.product_terms(mid, nid):
                accumulate(out, (lid, gamma_cls), base * g)
    return _elt(be, out)


def tensor_hmult(xt, yt):
    """Per pair of terms: two one-term products of each leg, through
    four `Lin`s and two `hmult` calls."""
    be = xt.label[0]
    out = {}
    for (l1, l2), cx in xt.terms.items():
        for (r1, r2), cy in yt.terms.items():
            left = hmult(_elt(be, {l1: cx}), _elt(be, {r1: cy}))
            right = hmult(basis(be, *l2), basis(be, *r2))
            for k1, c1 in left.terms.items():
                for k2, c2 in right.terms.items():
                    accumulate(out, (k1, k2), c1 * c2)
    return Lin(be.q, out, xt.label)


def install(mp):
    """Route the library's free sums and double-map images through the
    fold versions above, on the pytest monkeypatch `mp`."""
    mp.setattr(presented, "_free_sum", free_sum)
    mp.setattr(presented, "_double_cross_expanded", double_cross_expanded)
    mp.setattr(presented, "_pairing_sum", pairing_sum)
    mp.setattr(morphisms, "_double_map", double_map)
