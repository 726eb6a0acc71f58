"""Generator-image homomorphisms between the presented algebras.

Every map is a GenMap: a source algebra, a target (an algebra or a tensor
square of one), and an image per generator letter.  apply_hom extends the
images multiplicatively and normalizes in the target, so verifying that a
map is a homomorphism reduces to checking each defining relation of the
source presentation with check_relation, which returns `(ok, left,
right)` with both images unrendered; the suites render them for a failure
and catch cap hits.  The relation ids of the two-sided sources hd, hhd
and d are those of `presented.TWO_SIDED`.  Images and results are `Lin`s
labelled by the target: an Algebra, or the pair of Algebras of a tensor
square.

Each shape of map has one construction.  `_double_map` builds the maps
out of the double d into a tensor square (I, psi, varphi): KD^s_a goes to
a pair of torus words and om^s_M to a sum over the terms of Delta([M]),
read off the backend's coproduct row of M (`hall.coproduct_row`), so the
Hall-number weight of each split is built once per class, not once per
map.  I supplies its word pairs.  `_kappa_letter` is the letter map of both
index-shift maps, kappa from hd and kappaCheck from hhd, reading the
letter kinds off the source's TWO_SIDED row; psi is I's word pairs with
each leg's letters sent through it, (kappa (x) kappaCheck) o I.  phi and
phiInv share one builder over one tail, `_phi_tail`: phi sends Z_{M,n}
to v^{n<M^,M^>} e_{M,n} followed by the tail's torus letters, and phiInv
sends e_{M,n} to v^{-n<M^,M^>} Z_{M,n} followed by the tail reversed
with every class negated, so it undoes phi letter by letter.  varphi is
one formula, written without that tail, so its triangle with psi checks
phiInv against a second derivation: one v-exponent, and plus-side words
for i < 0 and for i >= 0, whose minus side is the plus side mirrored.
"""

import itertools

from .hall import coproduct_row
from .presented import (TWO_SIDED, E, FreeElt, Kc, KMinus, KPlus, KcMinus,
                        KcPlus, KdMinus, KdPlus, Kz, MuMinus, MuPlus, NuMinus,
                        NuPlus, OmMinus, OmPlus, Zg, algebra, is_torus,
                        normal_form, pmult, relation_instance, tensor_mult,
                        tensor_unit, tensor_word)
from .quiver import neg_class, sub_class
from .scalars import Lin, SqrtScalar, accumulate, vpow

class GenMap:
    """A homomorphism candidate given by generator images."""

    __slots__ = ("name", "source", "target", "params", "_image_fn", "_cache")

    def __init__(self, name, source, target, image_fn, params=None):
        self.name = name
        self.source = source
        self.target = target
        self.params = dict(params or {})
        self._image_fn = image_fn
        self._cache = {}

    def is_tensor(self):
        return isinstance(self.target, tuple)

    def target_unit(self):
        if self.is_tensor():
            return tensor_unit(self.target)
        return Lin(self.source.q, {(): SqrtScalar.one(self.source.q)},
                   self.target)

    def image(self, letter):
        letter = self.source.canon_letter(letter)
        got = self._cache.get(letter)
        if got is None:
            got = self._image_fn(letter)
            self._cache[letter] = got
        return got

    def __repr__(self):
        inner = ", ".join("%s=%s" % kv for kv in sorted(self.params.items()))
        return "GenMap(%s%s)" % (self.name, " " + inner if inner else "")


def apply_hom(h, x):
    """Multiplicative extension of h's generator images to an element.

    A word's product starts from the image of its first letter: images are
    normal, so the unit times an image is that image.  The cached images
    are shared and never changed: every word's product, times its
    coefficient, is summed into one dict, and the result is built from it
    once; it is canonical if every product is.
    """
    tensor = h.is_tensor()
    out = {}
    canonical = True
    for word, c in x.terms.items():
        acc = h.image(word[0]) if word else h.target_unit()
        for letter in word[1:]:
            img = h.image(letter)
            if tensor:
                acc = tensor_mult(acc, img)
            else:
                acc = pmult(h.target, acc, img)
        canonical = canonical and acc.canonical
        for key, s in acc.terms.items():
            accumulate(out, key, s * c)
    return Lin.owned(h.source.q, out, h.target, canonical)


def tensor_apply(h_left, h_right, x):
    """Map a tensor-square element leg by leg through two GenMaps."""
    algs = (h_left.target, h_right.target)
    q = algs[0].q
    out = {}
    for (lw, rw), c in x.terms.items():
        left = apply_hom(h_left, FreeElt.word(q, lw))
        right = apply_hom(h_right, FreeElt.word(q, rw))
        for ul, cl in left.terms.items():
            for ur, cr in right.terms.items():
                accumulate(out, (ul, ur), cl * cr * c)
    return Lin.owned(q, out, algs)


# ---------------------------------------------------------------------------
# image builders

def _signed(dims, sign):
    return tuple(dims) if sign > 0 else neg_class(dims)


def _alt(n):
    """(-1)^n."""
    return 1 if n % 2 == 0 else -1


def _nf_word(alg, letters, coeff=None):
    return normal_form(alg, FreeElt.word(alg.q, tuple(letters), coeff))


def _double_map(be, name, algs, torus_words, module_words, exponent=None,
                params=None):
    """A map out of the double d into the tensor square of `algs`.

    KD^s_a goes to the word pair torus_words(s, a).  om^s_M goes to a sum
    over the terms of Delta([M]), one per (quotient, sub) split with Hall
    number g: v^e (g a_M1 a_M2 / a_M) times the word pair
    module_words(s, M1, M2, M1^, M2^), where (M1, M2) is (quotient, sub)
    on the plus side and (sub, quotient) on the minus side.  The exponent
    e = exponent(quotient^, sub^) is the same on both sides; it defaults
    to <quotient^, sub^>, the exponent of M's coproduct row, and any other
    multiplies the row's coefficient by v^{e - <quotient^, sub^>}.
    """
    def image(letter):
        kind, s, x = letter
        if kind == "KD":
            return tensor_word(algs, *torus_words(s, x))
        out = {}
        for quot, sub, ds, coeff in coproduct_row(be, x):
            dq = be.class_dim(quot)
            if exponent is not None:
                coeff = coeff * vpow(exponent(dq, ds) - be.euler_form(dq, ds),
                                     be.p)
            m1, m2, d1, d2 = ((quot, sub, dq, ds) if s > 0
                              else (sub, quot, ds, dq))
            split = tensor_word(algs, *module_words(s, m1, m2, d1, d2),
                                coeff=coeff)
            for key, c in split.terms.items():
                accumulate(out, key, c)
        return Lin.owned(be.p, out, algs)

    return GenMap(name, algebra("d", be), algs, image, params)


def _I_torus_words(s, a):
    if s > 0:
        return (KPlus(a),), (KcPlus(a),)
    return (KMinus(a),), (KcMinus(a),)


def _I_module_words(s, m1, m2, d1, d2):
    if s > 0:
        return (MuPlus(m1), KPlus(d2)), (NuPlus(m2),)
    return (MuMinus(m1),), (NuMinus(m2), KcMinus(d1))


def _build_I(be):
    return _double_map(be, "I", (algebra("hd", be), algebra("hhd", be)),
                       _I_torus_words, _I_module_words)


def _kappa_letter(row, i, letter):
    """The dhm letter of an hd (row hd) or hhd (row hhd) letter of sign s:
    index i + 1 when s is the sign of the left letter of the row's
    crossing, else index i, so the crossing lands on 4.4."""
    kind, s, x = letter
    idx = i + 1 if s == row.crossing[0] else i
    return E(x, idx) if kind == row.module else Kc(x, idx)


def _build_kappa(be, name, m, i):
    """kappa (source hd) or kappaCheck (source hhd), letter by letter."""
    tgt = algebra("dhm:%d" % m, be)
    source = algebra("hd" if name == "kappa" else "hhd", be)
    row = TWO_SIDED[source.family]
    return GenMap(name, source, tgt, lambda letter: _nf_word(
        tgt, (_kappa_letter(row, i, letter),)), {"m": m, "i": i})


def _build_psi(be, m, i):
    """(kappa (x) kappaCheck) o I: I's word pairs, each leg's letters sent
    through its kappa letter map."""
    tgt = algebra("dhm:%d" % m, be)
    rows = (TWO_SIDED["hd"], TWO_SIDED["hhd"])

    def legs(words):
        return tuple(tuple(_kappa_letter(row, i, x) for x in leg)
                     for row, leg in zip(rows, words))

    return _double_map(be, "psi", (tgt, tgt),
                       lambda s, a: legs(_I_torus_words(s, a)),
                       lambda *split: legs(_I_module_words(*split)),
                       params={"m": m, "i": i})


def _phi_tail(d, n):
    """The torus tail of phi(Z_{M,n}), M^ = d: (class, index) pairs at
    indices n-1 down to 0 (n >= 0) or n up to -1 (n < 0), the classes
    alternating -d, d, -d, ... from the first."""
    idxs = range(n - 1, -1, -1) if n >= 0 else range(n, 0)
    return [(_signed(d, _alt(p + 1)), j) for p, j in enumerate(idxs)]


def _build_phi(be, inverse):
    """phi (dhce -> dhm:0) sends KZ_{a,i} to k_{a,i} and Z_{M,n} to
    v^{n<M^,M^>} e_{M,n} followed by _phi_tail's k letters.  phiInv
    (inverse) sends k to KZ and e_{M,n} to v^{-n<M^,M^>} Z_{M,n} followed
    by that tail reversed, every class negated, as KZ letters."""
    src, tgt = algebra("dhce", be), algebra("dhm:0", be)
    module, torus, sign = E, Kc, 1
    if inverse:
        src, tgt, module, torus, sign = tgt, src, Zg, Kz, -1

    def image(letter):
        _, x, n = letter
        if is_torus(letter):
            return _nf_word(tgt, (torus(x, n),))
        d = be.class_dim(x)
        tail = _phi_tail(d, n)
        if inverse:
            tail = [(neg_class(a), j) for a, j in reversed(tail)]
        return _nf_word(tgt, [module(x, n)] + [torus(a, j) for a, j in tail],
                        vpow(sign * n * be.euler_form(d, d), be.p))

    return GenMap("phiInv" if inverse else "phi", src, tgt, image)


def _build_varphi(be, i):
    """The closed form of (phiInv (x) phiInv) o psi(0, i).  The plus side
    of a split has its quotient's Z at i + 1 and its sub's at i, each
    followed by an alternating tail of torus letters; the minus side, and
    KD-, are the plus side of the exchanged split with its legs
    exchanged."""
    ce = algebra("dhce", be)

    def torus_words(s, a):
        words = (Kz(a, i + 1),), (Kz(a, i),)
        return words if s > 0 else words[::-1]

    def exponent(dq, ds):
        return (be.euler_form(dq, sub_class(ds, dq))
                - i * (be.euler_form(dq, dq) + be.euler_form(ds, ds)))

    def plus_words(m1, m2, d1, d2):
        if i < 0:
            left = [Kz(_signed(d1, _alt(i - k + 1)), k)
                    for k in range(-1, i, -1)]
            right = [Kz(_signed(d2, _alt(i - k)), k)
                     for k in range(-1, i - 1, -1)]
        else:
            left = [Kz(_signed(d1, _alt(i - k)), k) for k in range(i + 1)]
            right = [Kz(_signed(d2, _alt(i - k - 1)), k) for k in range(i)]
        return ((Zg(m1, i + 1), *left, Kz(d2, i + 1)), (Zg(m2, i), *right))

    def module_words(s, m1, m2, d1, d2):
        if s > 0:
            return plus_words(m1, m2, d1, d2)
        left, right = plus_words(m2, m1, d2, d1)
        return right, left

    return _double_map(be, "varphi", (ce, ce), torus_words, module_words,
                       exponent, {"i": i})


def build_hom(be, name, i=None, m=None):
    """Construct one of the named maps; parameters validated here."""
    if name == "I":
        return _build_I(be)
    if name in ("kappa", "kappaCheck", "psi"):
        m = 0 if m is None else int(m)
        if i is None:
            raise ValueError("%s needs an index i" % name)
        i = int(i)
        if m:
            i %= m
        if name == "psi":
            return _build_psi(be, m, i)
        return _build_kappa(be, name, m, i)
    if name in ("phi", "phiInv"):
        return _build_phi(be, name == "phiInv")
    if name == "varphi":
        if i is None:
            raise ValueError("varphi needs an index i")
        return _build_varphi(be, int(i))
    raise ValueError("unknown map %r" % (name,))


# ---------------------------------------------------------------------------
# checking

def check_relation(h, rel_id, params):
    """Push both sides of a source relation through h: (equal, left,
    right), the images unrendered."""
    lhs, rhs = relation_instance(h.source, rel_id, params)
    left = apply_hom(h, lhs)
    right = apply_hom(h, rhs)
    return left == right, left, right


def double_monomials(be, alphas, classes, count):
    """First `count` distinct monomials Kd-_a Kd+_b om+_M om-_N, scanning
    (a, b, M, N) lexicographically (alphas sorted, classes in given order);
    unit letters drop, so distinctness is after that collapse."""
    out = []
    seen = set()
    q = be.p
    for alpha, beta, m, n in itertools.product(
            sorted(alphas), sorted(alphas), list(classes), list(classes)):
        word = FreeElt.word(q, (KdMinus(tuple(alpha)), KdPlus(tuple(beta)),
                                OmPlus(m), OmMinus(n)))
        key = tuple(sorted(word.terms))
        if key in seen:
            continue
        seen.add(key)
        out.append(word)
        if len(out) == count:
            break
    return out


def rank_independence(elts):
    """Exact rank of the elements over Q(sqrt q), on their joint support."""
    elts = list(elts)
    support = sorted({key for e in elts for key in e.terms}, key=repr)
    if not support:
        return 0
    zero = SqrtScalar.zero(elts[0].q)
    rows = [[e.terms.get(key, zero) for key in support] for e in elts]
    rank = 0
    for col in range(len(support)):
        pivot = next((r for r in range(rank, len(rows))
                      if not rows[r][col].is_zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [c * inv for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero():
                factor = rows[r][col]
                rows[r] = [a - b * factor
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank
