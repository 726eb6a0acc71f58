"""Normal-ordering rewrite engines for the presented algebras.

One generic leftmost-redex rewriter, parameterized by a per-algebra table of
pair rules.  A rule receives two adjacent letters and answers either None
("normally ordered, leave alone") or a list of (scalar, replacement letters)
summands.  All coefficients are exact SqrtScalar values.

The two-sided presentations hd (2.3-2.7), hhd (2.8-2.12) and d (2.14-2.18)
share five relation shapes and differ only in their letter kinds, one torus
exponent, the two torus-module cross exponents and the crossing: one
`TWO_SIDED` row each.  The indexed presentations dhm (4.1-4.5), dh
(4.6-4.8), dhtw (4.15-4.17) and dhce (4.10-4.17) have one `INDEXED` row
each: letter kinds, twist, cross builder and swap exponents.  The letter
kinds the rest of the package tells apart are read off these rows.
`_two_sided_side` and `_indexed_side` read a letter pair's right side off
its row, for both the family's one pair rule and `relation_instance`.
`RELATIONS` states each relation's left side once, as letter templates
per variant filled from the row, and `DOMAINS` the index pairs where it
is not stated everywhere: `relation_instance` fills one instance's
letters from it, and `relation_window` runs over the instances of a
window, the stream the suites check.  The
crossing sum v^<L, X-Y> gamma(M, N, X, Y) over letters of L, X and Y, or
its mirror, is `_crossing_terms`, given their letters by the hd and hhd
crossings, 4.4 and both sides of 2.18; it and the Z crossing of 4.7 and
4.16 (`_z_cross_terms`) read their gamma terms off the backend's gamma row of
(M, N), or of (N, M) for the mirror (see `hall`), and the Hall merge reads
the backend's product terms of (M, N), so each of these sums is built
once per class pair, not once per letter pair or index.
The comultiplication-pairing sum, sum phi(a_(2), b_(1)) a_(1) b_(2), is
one function, `_pairing_sum`: the 2.7/2.12 oracles normal-order it, and
it is both sides of the abstract double relation 2.13.

The driver keeps a stack of (word, coefficient, start) entries and searches
each word for its leftmost redex from `start` on:

- Resume.  A rewrite at pair i leaves the pairs left of i - 1 as they were,
  and they held no redex, so the words it produces start at i - 1.
- Seam.  A word of a normal form holds no redex, so in pmult with a normal
  left factor, and in both legs of tensor_mult, a product word starts at
  the pair that joins its two factors' words.  pmult puts the product of
  each pair of words on the stack as it is: equal products are not summed
  first, since by linearity the normal form is the same.

Either way the search finds the redex a search from 0 would find, so every
word goes through the same rewrites and counts the same visits.
Each Algebra remembers its rules' answers in a two-level table looked up
letter by letter, `_pair_rules[a][b]` for the pair a b: None for a normal
pair, the bare scalar s of a swap a b = s b a (the letters are the key's,
reversed), and a tuple of (scalar, letters) summands for any other answer.
It holds one inner entry per distinct adjacent pair the algebra has looked
at, no pair tuple is built for a lookup, and it lives as long as the
Algebra.  A rule that raises (a cap hit in the backend) leaves no entry,
not even an empty inner table.  Words enter the rewriter through a second
table per Algebra, raw letter -> canonical letter (None for a unit
letter), one entry per distinct letter of the family; a letter outside the
family raises on every call and is never stored.

Letters are plain tuples:

    ("mu", s, mid)    ("K", s, alpha)      s = +1 / -1        tag hd
    ("nu", s, mid)    ("Kc", s, alpha)                        tag hhd
    ("e", mid, i)     ("k", alpha, i)      i residue          tag dhm:<m>
    ("Z", mid, i)     ("KZ", alpha, i)     i integer          tags dh, dhtw, dhce
    ("om", s, mid)    ("KD", s, alpha)                        tag d (quasi only)

mid is a registered IsoClassId, alpha an integer class tuple.  Elements are
`Lin`s of words: labelled None when free, by their Algebra when normal, and
by a pair of Algebras in a tensor square.  Tag d has a pair table too, but
it never reorders om letters, so only `d_quasi` runs it: `normal_form` and
`pmult` refuse tag d.
"""

from __future__ import annotations

import warnings
from collections import namedtuple

from .caps import CapExceeded, current_limit
from .hall import basis, comult, cross_support, gamma_row, green_pairing
from .quiver import add_class, neg_class, sub_class
from .scalars import Lin, SqrtScalar, accumulate, vpow

# letter constructors, one per generator shape

def MuPlus(mid):
    return ("mu", 1, mid)


def MuMinus(mid):
    return ("mu", -1, mid)


def KPlus(alpha):
    return ("K", 1, tuple(alpha))


def KMinus(alpha):
    return ("K", -1, tuple(alpha))


def NuPlus(mid):
    return ("nu", 1, mid)


def NuMinus(mid):
    return ("nu", -1, mid)


def KcPlus(alpha):
    return ("Kc", 1, tuple(alpha))


def KcMinus(alpha):
    return ("Kc", -1, tuple(alpha))


def E(mid, i):
    return ("e", mid, i)


def Kc(alpha, i):
    return ("k", tuple(alpha), i)


def Zg(mid, i):
    return ("Z", mid, i)


def Kz(alpha, i):
    return ("KZ", tuple(alpha), i)


def OmPlus(mid):
    return ("om", 1, mid)


def OmMinus(mid):
    return ("om", -1, mid)


def KdPlus(alpha):
    return ("KD", 1, tuple(alpha))


def KdMinus(alpha):
    return ("KD", -1, tuple(alpha))


class Algebra:
    """A presented algebra: tag + quiver backend (+ modulus for dhm).

    Compared by identity: `algebra(tag, be)` keeps the one Algebra of each
    (tag, backend), so two elements of it carry the same label object.
    """

    __slots__ = ("tag", "be", "m", "family", "_pair_rules", "_letters")

    def __init__(self, tag, be):
        if tag.startswith("dhm:"):
            m = int(tag.split(":", 1)[1])
            if m < 0 or m in (1, 2):
                raise ValueError("dhm modulus must be 0 or > 2, got %d" % m)
            self.family = "dhm"
            self.m = m
        elif tag in ("hd", "hhd", "dh", "dhtw", "dhce", "d"):
            self.family = tag
            self.m = None
        else:
            raise ValueError("unknown algebra tag %r" % (tag,))
        self.tag = tag
        self.be = be
        # a -> {b -> the family rule's answer for the pair a b: None, a
        # swap's scalar s (a b = s b a), or a tuple of (scalar, letters)};
        # one inner entry per distinct adjacent pair looked at
        self._pair_rules = {}
        # raw letter -> its canonical letter, or None for a unit letter;
        # one entry per distinct letter of the family looked at
        self._letters = {}

    @property
    def q(self):
        return self.be.p

    def one(self):
        return SqrtScalar.one(self.q)

    def v(self, n):
        return vpow(n, self.q)

    def canon_letter(self, letter):
        kind = letter[0]
        if kind not in _FAMILY_KINDS[self.family]:
            raise ValueError("symbol %r does not belong to algebra %s"
                             % (kind, self.tag))
        if self.m:
            return (kind, letter[1], self.residue(letter[2]))
        return letter

    def residue(self, i):
        """Index i as the algebra reads it: mod m on dhm:<m>, m > 0."""
        return i % self.m if self.m else i

    def __repr__(self):
        return "Algebra(%s)" % self.tag


def algebra(tag, be):
    """The Algebra with this tag over `be`, one per (tag, backend): built
    on first use and held in `be.algebras`, so its pair-rule table fills
    once for every caller.  The Algebra holds `be` in turn: whoever made
    the backend breaks that cycle by clearing `be.algebras` when done
    (`suites.run_suite` does, as each run returns), else the two live
    until a full garbage collection."""
    alg = be.algebras.get(tag)
    if alg is None:
        alg = be.algebras[tag] = Algebra(tag, be)
    return alg


class FreeElt:
    """Constructors of free combinations: `Lin`s of words labelled None."""

    __slots__ = ()

    @staticmethod
    def unit(q):
        return Lin(q, {(): SqrtScalar.one(q)})

    @staticmethod
    def word(q, letters, coeff=None):
        """coeff (default 1) times the word, its unit letters dropped."""
        return Lin(q, {_strip(letters):
                       coeff if coeff is not None else SqrtScalar.one(q)})


def tensor_unit(algs):
    """1 (x) 1 in the tensor square of the pair of Algebras `algs`."""
    return Lin(algs[0].q, {((), ()): SqrtScalar.one(algs[0].q)}, tuple(algs))


# ---------------------------------------------------------------------------
# pair rules

def _hall_merge(alg, M, N, rebuild, twisted=True):
    """Merge two same-kind module letters of objects M, N through the Hall
    product, the backend's product terms of (M, N) scaled by v^<M^,N^>
    when twisted and by v^0 when not: (coeff, letters) summands, the unit
    letter dropped."""
    be = alg.be
    v = alg.v(be.euler_form(be.class_dim(M), be.class_dim(N))
              if twisted else 0)
    return [(v * g, () if lid == 0 else (rebuild(lid),))
            for lid, g in be.product_terms(M, N)]


def _strip(letters):
    return tuple(l for l in letters if not _is_unit(l))


def _crossing_terms(alg, M, N, letters, mirrored=False):
    """The crossing sum over `hall.gamma_row(M, N)`: the summands
    v^<L^, X^ - Y^> gamma(M, N, X, Y) letters(L^, X, Y), or, mirrored,
    v^<L^, Y^ - X^> gamma(N, M, Y, X) letters(L^, X, Y) over the row of
    (N, M), whose (A, B) are (Y, X).  Either way the exponent is
    <L^, A^ - B^> over the row's own (A, B)."""
    be = alg.be
    row = gamma_row(be, N, M) if mirrored else gamma_row(be, M, N)
    for gam, A, B, ah, bh, lh in row:
        X, Y = (B, A) if mirrored else (A, B)
        yield (gam * alg.v(be.euler_form(lh, sub_class(ah, bh))),
               _strip(letters(lh, X, Y)))


def _e_cross_terms(alg, M, N, lo):
    # e_{M,lo+1} e_{N,lo} -> sum v^<L,X-Y> gamma (k_{L,lo}, e_{Y,lo}, e_{X,lo+1})
    hi = alg.residue(lo + 1)
    return _crossing_terms(alg, M, N,
                           lambda L, X, Y: (Kc(L, lo), E(Y, lo), E(X, hi)))


def _z_cross_terms(alg, M, N, lo):
    # (4.7) untwisted / (4.16) twisted orientation of adjacent Z letters
    be = alg.be
    twisted = INDEXED[alg.family].twisted
    exmn = be.euler_form(be.class_dim(M), be.class_dim(N))
    out = []
    for gam, X, Y, xh, yh, lh in gamma_row(be, M, N):
        eyx = be.euler_form(yh, xh)
        n = -exmn - eyx if twisted else -2 * eyx
        out.append((gam * alg.v(n), _strip((Zg(Y, lo), Zg(X, lo + 1)))))
    return out


class TwoSided(namedtuple("TwoSided", "module torus relations f g "
                                      "crossing")):
    """One two-sided presentation, with X the module and T the torus kind:

    - relations: its five ids, in the order merge (X^s X^s), torus-module
      (T^s X^s), torus-torus (T^s T^s merge, T+ T- cross), torus-module
      cross (T^t X^-t) and crossing; `RELATIONS` states their left sides;
    - f: T+_a T-_b = v^{f (a,b)} T-_b T+_a;
    - g: {t: g}, T^t_a X^-t_M = v^{g (a,M)} X^-t_M T^t_a;
    - crossing: (t, letters, mirrored), or None where the crossing is not
      oriented: X^t X^-t, with (M, N) the objects of its plus and minus
      letter, is `_crossing_terms(M, N, letters, mirrored)`.

    (a,b) is the symmetric Euler form, (a,M) that of a and dim M.
    """

    __slots__ = ()


TWO_SIDED = {
    "hd": TwoSided("mu", "K", ("2.3", "2.4", "2.5", "2.6", "2.7"), 1,
                   {-1: -1, 1: 0},
                   (1, lambda L, X, Y: (KMinus(L), MuMinus(Y), MuPlus(X)),
                    False)),
    "hhd": TwoSided("nu", "Kc", ("2.8", "2.9", "2.10", "2.11", "2.12"), -1,
                    {1: -1, -1: 0},
                    (-1, lambda L, X, Y: (KcPlus(L), NuPlus(X), NuMinus(Y)),
                     True)),
    "d": TwoSided("om", "KD", ("2.14", "2.15", "2.16", "2.17", "2.18"), 0,
                  {-1: -1, 1: -1}, None),
}


def _two_sided_exponent(alg, row, a, b):
    """n with a b = v^n b a, for T+ T- and for a torus and a module letter
    in either order."""
    be = alg.be
    if a[0] != row.torus:
        return -_two_sided_exponent(alg, row, b, a)
    if b[0] == row.torus:
        return row.f * be.sym_euler(a[2], b[2])
    g = 1 if a[1] == b[1] else row.g[a[1]]
    return g * be.sym_euler(a[2], be.class_dim(b[2]))


def _two_sided_side(alg, a, b):
    """The right side of a b in hd, hhd or d, as (scalar, letters)
    summands: letters of one kind and sign merge, the crossing pair X^t
    X^-t crosses, and any other pair swaps."""
    row = TWO_SIDED[alg.family]
    if a[0] == b[0] and a[1] == b[1]:
        if a[0] == row.torus:
            return [(alg.one(),
                     _strip(((a[0], a[1], add_class(a[2], b[2])),)))]
        return _hall_merge(alg, a[2], b[2], lambda L: (a[0], a[1], L))
    if a[0] == b[0] == row.module:
        t, letters, mirrored = row.crossing
        M, N = (a[2], b[2]) if t == 1 else (b[2], a[2])
        return _crossing_terms(alg, M, N, letters, mirrored)
    return [(alg.v(_two_sided_exponent(alg, row, a, b)), (b, a))]


def _reduce_two_sided(alg, a, b):
    """The pair rule of hd, hhd and d.  Normal are T- T+, any T X, the
    reversed crossing pair X^-t X^t and, on d, any module pair: d never
    reorders or merges its module letters.  Any other pair is rewritten to
    its `_two_sided_side`."""
    row = TWO_SIDED[alg.family]
    if b[0] == row.torus:
        normal = a[0] == row.torus and a[1] < b[1]
    elif a[0] == row.torus or not row.crossing:
        normal = True
    else:
        normal = a[1] != b[1] and a[1] != row.crossing[0]
    return None if normal else _two_sided_side(alg, a, b)


def _cyc_succ(alg, x, y):
    """x = y + 1 in the algebra's index set."""
    if alg.m:
        return (x - y) % alg.m == 1
    return x == y + 1


def _apart(alg, i, j):
    """Indices i and j neither equal nor adjacent."""
    return i != j and not _cyc_succ(alg, i, j) and not _cyc_succ(alg, j, i)


def _parity(d):
    return -1 if d % 2 else 1


class Indexed(namedtuple("Indexed", "module torus relations twisted cross "
                                    "torus_module far")):
    """One indexed presentation, with X the module and T the torus kind (None
    where there is none), letters (kind, class, index) and d = i - j:

    - relations: its ids;
    - twisted: whether X_{M,i} X_{N,i} merges by the twisted Hall product;
    - cross: (alg, M, N, i) -> the summands of X_{M,i+1} X_{N,i};
    - torus_module: (alg, i, j) -> t, T_{a,i} X_{M,j} = v^{t (a,M)} X T;
    - far: (be, d, M^, N^) -> n, X_{M,i} X_{N,j} = v^n X_{N,j} X_{M,i}
      for i > j not adjacent.

    Torus letters swap as T_{a,i} T_{b,j} = v^{s (a,b)} T_{b,j} T_{a,i},
    s = 1, -1 or 0 as i succeeds j, j succeeds i or neither.  A swap read
    the other way round takes the opposite exponent.
    """

    __slots__ = ()


def _twisted_far(be, d, mh, nh):
    return _parity(d) * be.sym_euler(mh, nh)


INDEXED = {
    "dhm": Indexed(
        "e", "k", ("4.1", "4.2", "4.3", "4.4", "4.5"), twisted=True,
        cross=_e_cross_terms,
        torus_module=lambda alg, i, j:
            1 if i == j else -1 if _cyc_succ(alg, j, i) else 0,
        far=lambda be, d, mh, nh: 0),
    "dh": Indexed(
        "Z", None, ("4.6", "4.7", "4.8"), twisted=False,
        cross=_z_cross_terms, torus_module=None,
        far=lambda be, d, mh, nh: 2 * _parity(d) * be.euler_form(nh, mh)),
    "dhtw": Indexed(
        "Z", None, ("4.15", "4.16", "4.17"), twisted=True,
        cross=_z_cross_terms, torus_module=None, far=_twisted_far),
    "dhce": Indexed(
        "Z", "KZ", ("4.10", "4.11", "4.12", "4.13", "4.14", "4.15", "4.16",
                    "4.17"), twisted=True, cross=_z_cross_terms,
        torus_module=lambda alg, i, j: _parity(i - j) if i in (-1, 0) else 0,
        far=_twisted_far),
}

_ROWS = {**TWO_SIDED, **INDEXED}

_FAMILY_KINDS = {fam: frozenset(k for k in (row.torus, row.module) if k)
                 for fam, row in _ROWS.items()}

# letter kinds read off the rows: the torus kinds, and the kinds of the
# indexed presentations, whose letters are (kind, class, index)
_TORUS_KINDS = frozenset(row.torus for row in _ROWS.values() if row.torus)
_INDEXED_KINDS = frozenset().union(*(_FAMILY_KINDS[fam] for fam in INDEXED))


def is_torus(letter):
    return letter[0] in _TORUS_KINDS


def letter_mid(letter):
    """The class argument of a letter: the IsoClassId of a module letter,
    the K-class of a torus letter."""
    return letter[1] if letter[0] in _INDEXED_KINDS else letter[2]


def _is_unit(letter):
    arg = letter_mid(letter)
    return not any(arg) if is_torus(letter) else arg == 0


def _swap_exponent(alg, row, a, b):
    """n with a b = v^n b a, for letters that neither merge nor cross."""
    be = alg.be
    if a[0] != b[0]:
        if a[0] != row.torus:
            return -_swap_exponent(alg, row, b, a)
        return row.torus_module(alg, a[2], b[2]) \
            * be.sym_euler(a[1], be.class_dim(b[1]))
    if a[0] == row.torus:
        s = 1 if _cyc_succ(alg, a[2], b[2]) else \
            -1 if _cyc_succ(alg, b[2], a[2]) else 0
        return s * be.sym_euler(a[1], b[1])
    if a[2] < b[2]:
        return -_swap_exponent(alg, row, b, a)
    return row.far(be, a[2] - b[2], be.class_dim(a[1]), be.class_dim(b[1]))


def _indexed_side(alg, a, b):
    """The right side of a b in dhm, dh, dhtw or dhce, as (scalar, letters)
    summands: letters of one kind and index merge, X_{M,i+1} X_{N,i}
    crosses, and any other pair swaps."""
    row = INDEXED[alg.family]
    if a[0] == b[0] and a[2] == b[2]:
        if a[0] == row.torus:
            return [(alg.one(),
                     _strip(((a[0], add_class(a[1], b[1]), a[2]),)))]
        return _hall_merge(alg, a[1], b[1], lambda L: (a[0], L, a[2]),
                           row.twisted)
    if a[0] == b[0] == row.module and _cyc_succ(alg, a[2], b[2]):
        return row.cross(alg, a[1], b[1], b[2])
    return [(alg.v(_swap_exponent(alg, row, a, b)), (b, a))]


def _reduce_indexed(alg, a, b):
    """The pair rule of dhm, dh, dhtw and dhce: torus letters go before
    module letters and lower indices first, except that X_{M,i} X_{N,i+1}
    is normal and X_{M,i+1} X_{N,i} crosses.  Any other pair is rewritten
    to its `_indexed_side`."""
    row = INDEXED[alg.family]
    if a[0] != b[0]:
        normal = a[0] == row.torus
    elif a[0] == row.module and _cyc_succ(alg, a[2], b[2]):
        normal = False
    elif a[0] == row.module and _cyc_succ(alg, b[2], a[2]):
        normal = True
    else:
        normal = a[2] < b[2]
    return None if normal else _indexed_side(alg, a, b)


_REDUCERS = {fam: _reduce_two_sided if fam in TWO_SIDED else _reduce_indexed
             for fam in _ROWS}
_SIDES = {fam: _two_sided_side if fam in TWO_SIDED else _indexed_side
          for fam in _ROWS}


# ---------------------------------------------------------------------------
# the rewrite driver

_UNSEEN = object()


def _canon_word(alg, w):
    """w in canonical letters, its unit letters dropped, read off the
    algebra's letter table (see the module docstring)."""
    table = alg._letters
    out = []
    for letter in w:
        canon = table.get(letter, _UNSEEN)
        if canon is _UNSEEN:
            canon = alg.canon_letter(letter)
            if _is_unit(canon):
                canon = None
            table[letter] = canon
        if canon is not None:
            out.append(canon)
    return tuple(out)


def _seam(word):
    """Where a search in word + suffix starts when word holds no redex."""
    return max(len(word) - 1, 0)


def _rewrite(alg, stack, op, limit):
    """Normal-order the sum of c * w over the stack entries (w, c, start).

    w is spelled in canonical non-unit letters and holds no redex at a pair
    left of `start`.  Each step rewrites the leftmost redex, at pair i; the
    words it produces keep the pairs left of i - 1, so they resume there.
    Pair-rule answers come from the algebra's table, looked up letter by
    letter and filled on first use, a swap as its bare scalar; a rule that
    raises stores nothing.
    Every word popped off the stack is one visit, counted in a local: past
    `limit` the rewrite raises CapExceeded(op, limit, visits).  Returns
    ({word: coefficient}, visits), where words whose terms cancelled keep a
    zero coefficient until a `Lin` drops them.
    """
    reduce_pair = _REDUCERS[alg.family]
    rules = alg._pair_rules
    out = {}
    visits = 0
    while stack:
        w, c, i = stack.pop()
        visits += 1
        if visits > limit:
            raise CapExceeded(op, limit, visits)
        last = len(w) - 1
        while i < last:
            a, b = w[i], w[i + 1]
            row = rules.get(a)
            res = _UNSEEN if row is None else row.get(b, _UNSEEN)
            if res is _UNSEEN:
                res = reduce_pair(alg, a, b)
                if res is not None:
                    res = tuple(res)
                    # a swap a b = s b a keeps only s
                    if len(res) == 1 and res[0][1] == (b, a):
                        res = res[0][0]
                if row is None:
                    row = rules[a] = {}
                row[b] = res
            if res is not None:
                break
            i += 1
        else:
            accumulate(out, w, c)
            continue
        head, tail = w[:i], w[i + 2:]
        resume = max(i - 1, 0)
        if type(res) is tuple:
            for scal, letters in res:
                stack.append((head + letters + tail, c * scal, resume))
        else:
            stack.append((head + (b, a) + tail, c * res, resume))
    return out, visits


def _normalize_terms(alg, terms, op, limit):
    """`_rewrite` of free terms {word: coeff}, searched from the start."""
    return _rewrite(alg, [(_canon_word(alg, w), c, 0)
                          for w, c in terms.items()], op, limit)


def _word_canonical(alg, w):
    """Whether w, a word of dhm:<m> with m > 2, is inside the two-residue
    contract: its e letters sit at one residue or at two adjacent ones."""
    res = sorted({l[2] for l in w if l[0] == "e"})
    if len(res) <= 1:
        return True
    if len(res) > 2:
        return False
    a, b = res
    return (b - a) % alg.m == 1 or (a - b) % alg.m == 1


def _normal_elt(alg, terms):
    """The normal form of alg whose terms are the rewrite result `terms`.
    Only dhm:<m> with m > 2, the one algebra with a nonzero `m`, has the
    two-residue contract, and only its words are checked against it."""
    x = Lin.owned(alg.q, terms, alg)
    if alg.m and not all(_word_canonical(alg, w) for w in x.terms):
        x.canonical = False
        warnings.warn("normal_form(%s): word outside the two-residue contract;"
                      " result is a deterministic reduct, not a canonical form"
                      % alg.tag)
    return x


def _check_oriented(alg):
    if alg.family == "d":
        raise ValueError("the double presentation has no oriented rule table")


def normal_form(alg, x):
    """Rewrite x's words to their normal form in alg, counting the visits
    against the cap of an operation starting now.  Raises for tag 'd'."""
    _check_oriented(alg)
    terms, _ = _normalize_terms(alg, x.terms, "normal_form", current_limit())
    return _normal_elt(alg, terms)


def pmult(alg, a, b):
    """Product of two (normal or free) elements, renormalized.

    Equal to normal_form of the free product, by linearity: each pair of
    words goes onto the rewrite stack as it is, with no sum over equal
    products first.  A word of a normal form of alg (an element labelled
    by alg itself) holds no redex and is spelled in canonical letters, so
    it is used as it is, and when `a` is one the search in each product
    word starts at the seam, the pair that joins a's word to b's.
    """
    _check_oriented(alg)
    left = [(w, c, _seam(w)) if a.label is alg
            else (_canon_word(alg, w), c, 0) for w, c in a.terms.items()]
    right = [(w if b.label is alg else _canon_word(alg, w), c)
             for w, c in b.terms.items()]
    stack = [(k1 + k2, c1 * c2, start)
             for k1, c1, start in left for k2, c2 in right]
    terms, _ = _rewrite(alg, stack, "normal_form", current_limit())
    return _normal_elt(alg, terms)


def tensor_mult(x, y):
    """Componentwise product of tensor-square elements (no sign rule).

    Both legs of every term are normal, so each leg of a product starts its
    search at its seam.  The cap of an operation is read once per call, and
    each leg's rewrite counts its own visits against it.
    """
    if y.label != x.label:
        raise ValueError("tensor_mult of %r and %r" % (x.label, y.label))
    a1, a2 = x.label
    one = SqrtScalar.one(a2.q)
    limit = current_limit()
    terms = {}
    for (u1, u2), c in x.terms.items():
        s1, s2 = _seam(u1), _seam(u2)
        for (w1, w2), d in y.terms.items():
            left, _ = _rewrite(a1, [(u1 + w1, c * d, s1)], "normal_form",
                               limit)
            right, _ = _rewrite(a2, [(u2 + w2, one, s2)], "normal_form",
                                limit)
            for lw, lc in left.items():
                for rw, rc in right.items():
                    accumulate(terms, (lw, rw), lc * rc)
    return Lin.owned(x.q, terms, x.label)


def tensor_word(algs, left_letters, right_letters, coeff=None):
    """The tensor of one pair of free words, each leg normalized in its
    algebra of `algs`."""
    a1, a2 = algs
    c = coeff if coeff is not None else SqrtScalar.one(a1.q)
    limit = current_limit()
    left, _ = _normalize_terms(a1, {_strip(tuple(left_letters)): c},
                               "normal_form", limit)
    right, _ = _normalize_terms(a2, {_strip(tuple(right_letters)):
                                     SqrtScalar.one(a2.q)},
                                "normal_form", limit)
    terms = {}
    for lw, lc in left.items():
        for rw, rc in right.items():
            accumulate(terms, (lw, rw), lc * rc)
    return Lin.owned(a1.q, terms, tuple(algs))


# ---------------------------------------------------------------------------
# the Heisenberg crossings' bialgebra oracle

def _pairing_sum(be, a, b, module, torus, s):
    """sum phi(a_(2), b_(1)) X^s_(a_(1)) T^s X^-s_(b_(2)) T^-s, a free
    element, over the terms [A1]K_a1 (x) [A2]K_a2 of Delta(a) and
    [B1]K_b1 (x) [B2]K_b2 of Delta(b) for objects a and b; X is the
    module letter kind, T the torus letter kind, and a_(1) stands for
    (A1, a1).  This is the comultiplication-pairing sum of the Heisenberg
    and Drinfeld doubles (Kashaev 1997)."""
    q = be.p
    db = comult(basis(be, b)).terms.items()
    out = {}
    for ((a1m, a1k), (a2m, a2k)), ca in comult(basis(be, a)).terms.items():
        a2 = basis(be, a2m, a2k)
        for ((b1m, b1k), (b2m, b2k)), cb in db:
            pair = green_pairing(a2, basis(be, b1m, b1k))
            if not pair.is_zero():
                letters = ((module, s, a1m), (torus, s, a1k),
                           (module, -s, b2m), (torus, -s, b2k))
                accumulate(out, _strip(letters), ca * cb * pair)
    return Lin(q, out)


def hd_cross_oracle(be, side, M, N):
    """The normal form of mu+_M mu-_N (side HD, relation 2.7) or nu-_N
    nu+_M (side HHD, 2.12), computed from comult and green_pairing alone.

    b * a = sum phi(a_(2), b_(1)) a_(1) * b_(2), with the minus copy acting
    as the coalgebra leg carrier on the HD side and roles mirrored for HHD.
    Only torus-bubbling rewrites are exercised when normal-ordering the
    resulting words, so this route is independent of the crossing tables.
    """
    side = side.upper()
    if side == "HD":
        free = _pairing_sum(be, N, M, "mu", "K", -1)
    elif side == "HHD":
        free = _pairing_sum(be, M, N, "nu", "Kc", 1)
    else:
        raise ValueError("side must be HD or HHD, got %r" % (side,))
    return normal_form(algebra(side.lower(), be), free)


# ---------------------------------------------------------------------------
# gradings and the DH/DH_tw twist bridge

def letter_degree(alg, letter):
    be = alg.be
    if is_torus(letter):
        return be.quiver.zero_class()
    if letter[0] not in _INDEXED_KINDS:
        d = be.class_dim(letter[2])
        return d if letter[1] > 0 else neg_class(d)
    if alg.m and alg.m % 2:
        raise ValueError("no signed grading for odd cyclic modulus")
    d = be.class_dim(letter[1])
    return d if letter[2] % 2 == 0 else neg_class(d)


def word_degree(alg, w):
    deg = alg.be.quiver.zero_class()
    for letter in w:
        deg = add_class(deg, letter_degree(alg, letter))
    return deg


def homogeneous_degree(alg, x):
    """The common degree of x's words, or a ValueError if mixed.

    Returns None for x = 0.
    """
    degs = {word_degree(alg, w) for w in x.terms}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError("inhomogeneous element: degrees %r" % (sorted(degs),))
    return degs.pop()


def grading_check(alg, lhs, rhs):
    """Both sides homogeneous of the same signed degree (zero sides skip)."""
    dl = homogeneous_degree(alg, lhs)
    dr = homogeneous_degree(alg, rhs)
    return dl is None or dr is None or dl == dr


# ---------------------------------------------------------------------------
# quasi-normalization for the unoriented double presentation

def d_quasi(be, x):
    """Bubble KD letters left of om letters and merge/sort them.

    om-om pairs are never reordered: the double's crossing relation is not
    oriented.  Deterministic; used to align relation instances for
    comparison, not to define a basis, so the result is a free element.
    """
    alg = algebra("d", be)
    terms, _ = _normalize_terms(alg, x.terms, "d_quasi", current_limit())
    return Lin.owned(alg.q, terms)


# ---------------------------------------------------------------------------
# relation instances

def _pm(sign):
    if sign in (1, "+", "+1"):
        return 1
    if sign in (-1, "-", "-1"):
        return -1
    raise ValueError("bad sign %r" % (sign,))


def _free_sum(alg, summands):
    """The free element sum c * letters over (c, letters) summands, their
    unit letters dropped."""
    out = {}
    for c, letters in summands:
        accumulate(out, _strip(letters), c)
    return Lin.owned(alg.q, out)


def _drinfeld_instance(alg, M, N):
    """The abstract double relation on ([M]+, [N]-) via comult and pairing.

    lhs: sum phi(a1, b2) b1 a2;  rhs: sum phi(a2, b1) a1 b2, with
    a = [N] in the minus copy and b = [M] in the plus copy.  phi is
    symmetric, so lhs is the pairing sum with the roles of a and b
    exchanged.
    """
    return (_pairing_sum(alg.be, M, N, "om", "KD", 1),
            _pairing_sum(alg.be, N, M, "om", "KD", -1))


def _double_cross_instance(alg, M, N):
    """2.18: the crossing sum of (M, N) as on hd equals the mirrored one as
    on hhd, their letters renamed to KD and om."""
    lhs = _crossing_terms(alg, M, N, lambda L, X, Y:
                          (KdMinus(L), OmMinus(Y), OmPlus(X)))
    rhs = _crossing_terms(alg, M, N, lambda L, X, Y:
                          (KdPlus(L), OmPlus(X), OmMinus(Y)), mirrored=True)
    return _free_sum(alg, lhs), _free_sum(alg, rhs)


def _double_cross_expanded(alg, M, N):
    """The same two sides with gamma unfolded and cleared of denominators:
    every term carries a_X a_Y a_L and a pair of Hall numbers; equals
    a_M a_N times the compact form, word for word."""
    be = alg.be
    q = alg.q
    mh, nh = be.class_dim(M), be.class_dim(N)
    lhs, rhs = {}, {}
    for X, Y, xh, yh, lh in cross_support(be, M, N):
        for L in be.iso_classes(lh):
            aaa = SqrtScalar.of(be.aut_count(X) * be.aut_count(Y)
                                * be.aut_count(L), q)
            g1 = be.hall_number(M, L, X)
            g2 = be.hall_number(N, Y, L)
            if g1 and g2:
                c = aaa * SqrtScalar.of(g1 * g2, q) \
                    * alg.v(be.euler_form(lh, sub_class(mh, nh)))
                accumulate(lhs, _strip((KdMinus(lh), OmMinus(Y), OmPlus(X))),
                           c)
            g3 = be.hall_number(M, X, L)
            g4 = be.hall_number(N, L, Y)
            if g3 and g4:
                c2 = aaa * SqrtScalar.of(g3 * g4, q) \
                    * alg.v(be.euler_form(lh, sub_class(nh, mh)))
                accumulate(rhs, _strip((KdPlus(lh), OmPlus(X), OmMinus(Y))),
                           c2)
    return Lin(q, lhs), Lin(q, rhs)


class Relation(namedtuple("Relation", "default variants")):
    """The left side of a defining relation: `variants` maps each variant
    name, in window order, to two letter templates, and `default` names
    the variant an instance without one selects.  A relation without
    variants has the one variant None.

    A template spells a letter in its family's layout, (kind, sign, class)
    on hd, hhd and d and (kind, class, index) on the indexed families, one
    slot name per field: X and T are the row's module and torus kind,
    `sign` the sign parameter, + and - a fixed sign, i or j plus an
    optional offset (i+1) an index, and alpha, beta, M and N a class
    parameter.
    """

    __slots__ = ()


def _one(a, b):
    return Relation(None, {None: (a, b)})


# relation id -> its Relation, or, for 2.13, 2.18 and 2.18r, the function
# of (alg, M, N) that gives both sides.  The right side of any other
# relation is its left side's `_two_sided_side` or `_indexed_side`.
RELATIONS = {rid: rel for ids, rel in (
    (("2.3", "2.8", "2.14"), _one("X sign M", "X sign N")),
    (("2.4", "2.9", "2.15"), _one("T sign alpha", "X sign M")),
    (("2.5", "2.10", "2.16"), Relation("cross", {
        "merge": ("T sign alpha", "T sign beta"),
        "cross": ("T + alpha", "T - beta")})),
    (("2.6",), Relation("K+mu-", {"K-mu+": ("T - alpha", "X + M"),
                                  "K+mu-": ("T + alpha", "X - M")})),
    (("2.11",), Relation("Kc-nu+", {"Kc+nu-": ("T + alpha", "X - M"),
                                    "Kc-nu+": ("T - alpha", "X + M")})),
    (("2.17",), Relation("K+om-", {"K-om+": ("T - alpha", "X + M"),
                                   "K+om-": ("T + alpha", "X - M")})),
    (("2.7",), _one("X + M", "X - N")),
    (("2.12",), _one("X - N", "X + M")),
    (("2.13",), _drinfeld_instance),
    (("2.18",), _double_cross_instance),
    (("2.18r",), _double_cross_expanded),
    (("4.1", "4.11"), _one("T alpha i", "T beta j")),
    (("4.2", "4.14"), _one("T alpha i", "X M j")),
    (("4.3", "4.6", "4.15"), _one("X M i", "X N i")),
    (("4.4", "4.7", "4.16"), _one("X M i+1", "X N i")),
    (("4.5", "4.8", "4.17"), _one("X M i", "X N j")),
    (("4.10",), Relation("KZ", {"KK": ("T alpha i", "T beta i"),
                                "KZ": ("T alpha i", "X M i")})),
    (("4.12",), _one("T alpha i", "X M i+1")),
    (("4.13",), _one("T alpha i", "X M i-1")),
) for rid in ids}

# relation id -> the index pairs (i, j) it is stated for, where not all
DOMAINS = {"4.5": _apart, "4.8": _apart, "4.14": _apart, "4.17": _apart,
           "4.11": lambda alg, i, j:
               _cyc_succ(alg, i, j) or _apart(alg, i, j)}


def _reader(slot):
    """The function that reads a template slot's value off params."""
    if slot[0] in "ij":
        key, at = slot[0], int(slot[1:] or 0)
        return lambda p: p[key] + at
    if slot == "sign":
        return lambda p: _pm(p.get("sign", 1))
    if slot in ("+", "-"):
        sign = _pm(slot)
        return lambda p: sign
    if slot in ("alpha", "beta"):
        return lambda p: tuple(p[slot])
    return lambda p: p[slot]


def _resolve(rel, row):
    """rel read on the row: each variant becomes (letters, reads), its
    templates as (kind, reader, reader) with X and T the row's kinds, and
    the set of params they read.  A function relation becomes the one
    variant (function, {M, N})."""
    if not isinstance(rel, Relation):
        return Relation(None, {None: (rel, {"M", "N"})})
    kinds = {"X": row.module, "T": row.torus}
    variants = {}
    for name, left in rel.variants.items():
        slots = [t.split() for t in left]
        letters = tuple((kinds[k], _reader(x), _reader(y))
                        for k, x, y in slots)
        reads = {s[0] if s[0] in "ij" else s for _, *xy in slots for s in xy}
        variants[name] = letters, reads
    return rel._replace(variants=variants)


# (family, relation id) -> the relation resolved on the family's row, for
# each relation its algebras have: the row's own, and 2.13 and 2.18r on d
_LEFT = {(fam, rid): _resolve(RELATIONS[rid], row)
         for fam, row in _ROWS.items()
         for rid in row.relations + (("2.13", "2.18r") if fam == "d" else ())}


def _left_side(rel_id, rel, variant):
    """The resolved variant an instance of rel_id selects: the default for
    None, and the only one where there is one."""
    if variant is None or rel.default is None:
        return rel.variants[rel.default]
    if variant not in rel.variants:
        raise ValueError("relation %s has no variant %r (one of %s)"
                         % (rel_id, variant, ", ".join(rel.variants)))
    return rel.variants[variant]


def _stated(alg, rel_id, i, j):
    """Whether rel_id is stated at the (canonical) letter indices i, j."""
    return rel_id not in DOMAINS or DOMAINS[rel_id](alg, i, j)


def relation_instance(alg, rel_id, params):
    """Both sides of one defining relation, coefficients fully evaluated.

    params maps M, N to IsoClassIds, alpha, beta to integer tuples, i, j to
    indices, and sign, variant to selectors.  A relation id outside alg's
    family, an unknown variant, or indices outside the relation's domain
    raise ValueError.
    """
    rel = _LEFT.get((alg.family, rel_id))
    if rel is None:
        raise ValueError("relation %r does not belong to algebra %s"
                         % (rel_id, alg.tag))
    letters, _ = _left_side(rel_id, rel, params.get("variant"))
    if callable(letters):  # 2.13, 2.18 and 2.18r
        return letters(alg, params.get("M"), params.get("N"))
    (ka, xa, ya), (kb, xb, yb) = letters
    a = alg.canon_letter((ka, xa(params), ya(params)))
    b = alg.canon_letter((kb, xb(params), yb(params)))
    if not _stated(alg, rel_id, a[2], b[2]):
        raise ValueError("relation %s is not stated at i=%r, j=%r"
                         % (rel_id, params.get("i"), params.get("j")))
    return (FreeElt.word(alg.q, (a, b)),
            _free_sum(alg, _SIDES[alg.family](alg, a, b)))


def relation_window(alg, objs, alphas, w=0):
    """(relation id, params) over the instances of alg's defining relations
    with M, N in objs, alpha, beta in alphas and every letter index in
    -w..w: the window the suites check.

    Relation by relation in row order, it runs over the index assignments
    (i, or (i, j) in product order) at which the relation is stated, then
    the variants in window order, then the signs 1 and -1 where a template
    reads `sign`, then the classes in the order alpha, beta, M, N (2.18
    reads M and N).  The params keys come in the order variant (where
    the relation has variants), sign, alpha, beta, M, N, i, j.
    """
    from itertools import product  # here, to keep module loading lean

    pools = {"sign": (1, -1), "alpha": alphas, "beta": alphas,
             "M": objs, "N": objs}
    for rel_id in _ROWS[alg.family].relations:
        rel = _LEFT[alg.family, rel_id]
        keys = sorted({"i", "j"} & set().union(
            *(reads for _, reads in rel.variants.values())))
        for at in product(range(-w, w + 1), repeat=len(keys)):
            index = dict(zip(keys, at))
            for variant, (letters, reads) in rel.variants.items():
                if index:
                    i, j = (y(index) for _, _, y in letters)
                    if max(abs(i), abs(j)) > w or not _stated(
                            alg, rel_id, alg.residue(i), alg.residue(j)):
                        continue
                head = {} if rel.default is None else {"variant": variant}
                ranged = [p for p in pools if p in reads]
                for combo in product(*(pools[p] for p in ranged)):
                    yield rel_id, {**head, **dict(zip(ranged, combo)),
                                   **index}
