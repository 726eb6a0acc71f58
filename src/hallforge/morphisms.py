"""Generator-image homomorphisms between the presented algebras.

Every map is a GenMap: a source algebra, a target (an algebra or a tensor
square of one), and an image per generator letter.  apply_hom extends the
images multiplicatively and normalizes in the target, so verifying that a
map is a homomorphism reduces to checking each defining relation of the
source presentation with check_relation.  Images and results are `Lin`s
labelled by the target: an Algebra, or the pair of Algebras of a tensor
square.
"""

import itertools
from fractions import Fraction

from .caps import CapExceeded
from .exprs import render_any
from .presented import (E, FreeElt, Kc, KMinus, KPlus, KcMinus, KcPlus,
                        KdMinus, KdPlus, Kz, MuMinus, MuPlus, NuMinus, NuPlus,
                        OmMinus, OmPlus, Zg, algebra, normal_form, pmult,
                        relation_instance, tensor_mult, tensor_unit,
                        tensor_word)
from .quiver import neg_class, sub_class
from .scalars import Lin, SqrtScalar, vpow

# defining relations of each presentation, keyed by algebra family
SOURCE_RELATIONS = {
    "hd": ("2.3", "2.4", "2.5", "2.6", "2.7"),
    "hhd": ("2.8", "2.9", "2.10", "2.11", "2.12"),
    "d": ("2.14", "2.15", "2.16", "2.17", "2.18"),
    "dhm": ("4.1", "4.2", "4.3", "4.4", "4.5"),
    "dh": ("4.6", "4.7", "4.8"),
    "dhce": ("4.10", "4.11", "4.12", "4.13", "4.14", "4.15", "4.16", "4.17"),
}


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

    def target_zero(self):
        return Lin(self.source.q, None, self.target)

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


class CheckReport:
    """Outcome of one relation check; lhs/rhs rendered only on failure."""

    __slots__ = ("map_name", "rel_id", "params", "passed", "lhs", "rhs",
                 "cap_hit", "note")

    def __init__(self, map_name, rel_id, params, passed, lhs=None, rhs=None,
                 cap_hit=False, note=""):
        self.map_name = map_name
        self.rel_id = rel_id
        self.params = dict(params)
        self.passed = passed
        self.lhs = lhs
        self.rhs = rhs
        self.cap_hit = cap_hit
        self.note = note

    def as_failure_dict(self):
        return {"relation": self.rel_id,
                "params": _render_params(self.params),
                "lhs": self.lhs or "",
                "rhs": self.rhs or ""}

    def __repr__(self):
        return "CheckReport(%s, %s, %s)" % (
            self.map_name, self.rel_id, "pass" if self.passed else "FAIL")


def _render_params(params):
    out = {}
    for key, val in params.items():
        out[key] = list(val) if isinstance(val, tuple) else val
    return out


def apply_hom(h, x):
    """Multiplicative extension of h's generator images to an element.

    A word's product starts from the image of its first letter: images are
    normal, so the unit times an image is that image.  The cached images
    are shared; scale and + build new elements.
    """
    out = h.target_zero()
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
    """Map a tensor-square element leg by leg through two GenMaps."""
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


# ---------------------------------------------------------------------------
# image builders

def _signed(dims, sign):
    return tuple(dims) if sign > 0 else neg_class(dims)


def _alt(n):
    """(-1)^n."""
    return 1 if n % 2 == 0 else -1


def _nf_word(alg, letters, coeff=None):
    return normal_form(alg, FreeElt.word(alg.q, tuple(letters), coeff))


def _embedding_terms(be, letter, plus_exp, minus_exp):
    """Shared sum scaffold for the maps out of the double: yields
    (coeff, M1, M2, d1, d2) over the splits carrying a nonzero Hall number,
    in the order of M's subobject table.

    plus side uses g^M_{M1 M2}, minus side g^M_{M2 M1}; the v-exponent
    callbacks receive (dM, d1, d2)."""
    sign, M = letter[1], letter[2]
    aM = be.aut_count(M)
    dM = be.class_dim(M)
    q = be.p
    for (quot, sub), g in be.subobject_table(M).items():
        m1, m2 = (quot, sub) if sign > 0 else (sub, quot)
        d1, d2 = be.class_dim(m1), be.class_dim(m2)
        rat = Fraction(g * be.aut_count(m1) * be.aut_count(m2), aM)
        exp = plus_exp(dM, d1, d2) if sign > 0 else minus_exp(dM, d1, d2)
        coeff = vpow(exp, q) * SqrtScalar.of(rat, q)
        yield coeff, m1, m2, d1, d2


def _build_I(be):
    hd = algebra("hd", be)
    hhd = algebra("hhd", be)
    algs = (hd, hhd)

    def image(letter):
        kind, sign = letter[0], letter[1]
        if kind == "KD":
            alpha = letter[2]
            if sign > 0:
                return tensor_word(algs, (KPlus(alpha),), (KcPlus(alpha),))
            return tensor_word(algs, (KMinus(alpha),), (KcMinus(alpha),))
        out = Lin(be.p, None, algs)
        for coeff, m1, m2, d1, d2 in _embedding_terms(
                be, letter,
                lambda dM, d1, d2: be.euler_form(d1, d2),
                lambda dM, d1, d2: be.euler_form(d2, d1)):
            if sign > 0:
                out = out + tensor_word(
                    algs, (MuPlus(m1), KPlus(d2)), (NuPlus(m2),), coeff)
            else:
                out = out + tensor_word(
                    algs, (MuMinus(m1),), (NuMinus(m2), KcMinus(d1)), coeff)
        return out

    return GenMap("I", algebra("d", be), algs, image)


def _build_kappa(be, m, i):
    tgt = algebra("dhm:%d" % m, be)

    def image(letter):
        kind, sign, arg = letter
        idx = i + 1 if sign > 0 else i
        if kind == "mu":
            return _nf_word(tgt, (E(arg, idx),))
        return _nf_word(tgt, (Kc(arg, idx),))

    return GenMap("kappa", algebra("hd", be), tgt, image, {"m": m, "i": i})


def _build_kappa_check(be, m, i):
    tgt = algebra("dhm:%d" % m, be)

    def image(letter):
        kind, sign, arg = letter
        idx = i if sign > 0 else i + 1
        if kind == "nu":
            return _nf_word(tgt, (E(arg, idx),))
        return _nf_word(tgt, (Kc(arg, idx),))

    return GenMap("kappaCheck", algebra("hhd", be), tgt, image,
                  {"m": m, "i": i})


def _build_psi(be, m, i):
    tgt = algebra("dhm:%d" % m, be)
    algs = (tgt, tgt)

    def image(letter):
        kind, sign = letter[0], letter[1]
        if kind == "KD":
            alpha = letter[2]
            if sign > 0:
                lw, rw = (Kc(alpha, i + 1),), (Kc(alpha, i),)
            else:
                lw, rw = (Kc(alpha, i),), (Kc(alpha, i + 1),)
            return tensor_word(algs, lw, rw)
        out = Lin(be.p, None, algs)
        for coeff, m1, m2, d1, d2 in _embedding_terms(
                be, letter,
                lambda dM, d1, d2: be.euler_form(d1, d2),
                lambda dM, d1, d2: be.euler_form(d2, d1)):
            if sign > 0:
                out = out + tensor_word(
                    algs, (E(m1, i + 1), Kc(d2, i + 1)), (E(m2, i),), coeff)
            else:
                out = out + tensor_word(
                    algs, (E(m1, i),), (E(m2, i + 1), Kc(d1, i + 1)), coeff)
        return out

    return GenMap("psi", algebra("d", be), algs, image, {"m": m, "i": i})


def _build_phi(be):
    tgt = algebra("dhm:0", be)

    def image(letter):
        kind = letter[0]
        if kind == "KZ":
            return _nf_word(tgt, (Kc(letter[1], letter[2]),))
        M, n = letter[1], letter[2]
        if n == 0:
            return _nf_word(tgt, (E(M, 0),))
        dM = be.class_dim(M)
        mm = be.euler_form(dM, dM)
        if n > 0:
            letters = [E(M, n)]
            letters += [Kc(_signed(dM, _alt(k)), n - k)
                        for k in range(1, n + 1)]
            return _nf_word(tgt, letters, vpow(n * mm, be.p))
        n = -n
        letters = [E(M, -n)]
        letters += [Kc(_signed(dM, _alt(k + 1)), k - n) for k in range(n)]
        return _nf_word(tgt, letters, vpow(-n * mm, be.p))

    return GenMap("phi", algebra("dhce", be), tgt, image)


def _build_phi_inv(be):
    tgt = algebra("dhce", be)

    def image(letter):
        kind = letter[0]
        if kind == "k":
            return _nf_word(tgt, (Kz(letter[1], letter[2]),))
        M, n = letter[1], letter[2]
        if n == 0:
            return _nf_word(tgt, (Zg(M, 0),))
        dM = be.class_dim(M)
        mm = be.euler_form(dM, dM)
        if n > 0:
            letters = [Zg(M, n)]
            letters += [Kz(_signed(dM, _alt(n - k - 1)), k) for k in range(n)]
            return _nf_word(tgt, letters, vpow(-n * mm, be.p))
        n = -n
        letters = [Zg(M, -n)]
        letters += [Kz(_signed(dM, _alt(n - k)), -k) for k in range(1, n + 1)]
        return _nf_word(tgt, letters, vpow(n * mm, be.p))

    return GenMap("phiInv", algebra("dhm:0", be), tgt, image)


def _build_varphi(be, i):
    ce = algebra("dhce", be)
    algs = (ce, ce)

    def image(letter):
        kind, sign = letter[0], letter[1]
        if kind == "KD":
            alpha = letter[2]
            if sign > 0:
                lw, rw = (Kz(alpha, i + 1),), (Kz(alpha, i),)
            else:
                lw, rw = (Kz(alpha, i),), (Kz(alpha, i + 1),)
            return tensor_word(algs, lw, rw)

        def exp_plus(dM, d1, d2):
            if i == -1:
                return be.euler_form(dM, d2)
            if i == 0:
                return -be.euler_form(dM, d1)
            return (be.euler_form(d1, sub_class(d2, d1))
                    - i * (be.euler_form(d1, d1) + be.euler_form(d2, d2)))

        def exp_minus(dM, d1, d2):
            if i == -1:
                return be.euler_form(dM, d1)
            if i == 0:
                return -be.euler_form(dM, d2)
            return (be.euler_form(d2, sub_class(d1, d2))
                    - i * (be.euler_form(d1, d1) + be.euler_form(d2, d2)))

        out = Lin(be.p, None, algs)
        for coeff, m1, m2, d1, d2 in _embedding_terms(
                be, letter, exp_plus, exp_minus):
            if sign > 0:
                lw, rw = _omega_plus_words(m1, m2, d1, d2)
            else:
                lw, rw = _omega_minus_words(m1, m2, d1, d2)
            out = out + tensor_word(algs, lw, rw, coeff)
        return out

    def _omega_plus_words(m1, m2, d1, d2):
        if i == -1:
            return ((Zg(m1, 0), Kz(d2, 0)), (Zg(m2, -1), Kz(d2, -1)))
        if i == 0:
            return ((Zg(m1, 1), Kz(d2, 1), Kz(d1, 0)), (Zg(m2, 0),))
        if i < -1:
            lw = [Zg(m1, i + 1)]
            lw += [Kz(_signed(d1, _alt(i + j + 1)), -j)
                   for j in range(1, -(i + 1) + 1)]
            lw.append(Kz(d2, i + 1))
            rw = [Zg(m2, i)]
            rw += [Kz(_signed(d2, _alt(i + j)), -j) for j in range(1, -i + 1)]
            return tuple(lw), tuple(rw)
        lw = [Zg(m1, i + 1)]
        lw += [Kz(_signed(d1, _alt(i - j)), j) for j in range(i + 1)]
        lw.append(Kz(d2, i + 1))
        rw = [Zg(m2, i)]
        rw += [Kz(_signed(d2, _alt(i - j - 1)), j) for j in range(i)]
        return tuple(lw), tuple(rw)

    def _omega_minus_words(m1, m2, d1, d2):
        if i == -1:
            return ((Zg(m1, -1), Kz(d1, -1)), (Zg(m2, 0), Kz(d1, 0)))
        if i == 0:
            return ((Zg(m1, 0),), (Zg(m2, 1), Kz(d1, 1), Kz(d2, 0)))
        if i < -1:
            lw = [Zg(m1, i)]
            lw += [Kz(_signed(d1, _alt(i + j)), -j) for j in range(1, -i + 1)]
            rw = [Zg(m2, i + 1)]
            rw += [Kz(_signed(d2, _alt(i + j + 1)), -j)
                   for j in range(1, -(i + 1) + 1)]
            rw.append(Kz(d1, i + 1))
            return tuple(lw), tuple(rw)
        lw = [Zg(m1, i)]
        lw += [Kz(_signed(d1, _alt(i - j - 1)), j) for j in range(i)]
        rw = [Zg(m2, i + 1)]
        rw += [Kz(_signed(d2, _alt(i - j)), j) for j in range(i + 1)]
        rw.append(Kz(d1, i + 1))
        return tuple(lw), tuple(rw)

    return GenMap("varphi", algebra("d", be), algs, image, {"i": i})


def build_hom(be, name, i=None, m=None):
    """Construct one of the named maps; parameters validated here."""
    if name == "I":
        return _build_I(be)
    if name in ("kappa", "kappaCheck", "psi"):
        m = 0 if m is None else int(m)
        if m < 0 or m in (1, 2):
            raise ValueError("modulus must be 0 or > 2, got %d" % m)
        if i is None:
            raise ValueError("%s needs an index i" % name)
        i = int(i)
        if m and not 0 <= i < m:
            i %= m
        builder = {"kappa": _build_kappa, "kappaCheck": _build_kappa_check,
                   "psi": _build_psi}[name]
        return builder(be, m, i)
    if name == "phi":
        return _build_phi(be)
    if name == "phiInv":
        return _build_phi_inv(be)
    if name == "varphi":
        if i is None:
            raise ValueError("varphi needs an index i")
        return _build_varphi(be, int(i))
    raise ValueError("unknown map %r" % (name,))


# ---------------------------------------------------------------------------
# checking

def check_relation(h, rel_id, params):
    """Push both sides of a source relation through h and compare."""
    be = h.source.be
    try:
        lhs, rhs = relation_instance(h.source, rel_id, params)
        left = apply_hom(h, lhs)
        right = apply_hom(h, rhs)
    except CapExceeded as exc:
        return CheckReport(h.name, rel_id, params, passed=False,
                           cap_hit=True, note=str(exc))
    if left == right:
        return CheckReport(h.name, rel_id, params, passed=True)
    return CheckReport(h.name, rel_id, params, passed=False,
                       lhs=render_any(be, left), rhs=render_any(be, right))


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
