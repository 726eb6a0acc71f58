"""Exact arithmetic in Q(sqrt q): numbers a + b*v with v*v = q, q prime,
and `Lin`, the finite Q(sqrt q)-linear combinations every element is."""

from fractions import Fraction
from math import gcd, lcm

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n):
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # trial division is plenty for desk-scale field sizes
    d = 49
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class SqrtScalar:
    """a + b*v with v^2 = q. Immutable, hashable, componentwise equality.

    Stored as one reduced triple of ints: the value is (an + bn*v) / den
    with den > 0 and gcd(an, bn, den) == 1, so equal values have equal
    triples.  `a` and `b` are Fraction views of the two components.
    """

    __slots__ = ("_an", "_bn", "_den", "q")

    def __init__(self, a, b, q):
        # both parts in lowest terms over their lcm denominator: reduced
        an, ad = _num_den(a)
        bn, bd = _num_den(b)
        den = ad if ad == bd else lcm(ad, bd)
        an *= den // ad
        bn *= den // bd
        _set_an(self, an)
        _set_bn(self, bn)
        _set_den(self, den)
        _set_q(self, q)

    def __setattr__(self, name, value):
        raise AttributeError("SqrtScalar is immutable")

    @property
    def a(self):
        return Fraction(self._an, self._den)

    @property
    def b(self):
        return Fraction(self._bn, self._den)

    @staticmethod
    def of(r, q):
        if isinstance(r, (int, Fraction)):
            return _rational(r, q)
        return SqrtScalar(r, 0, q)

    @staticmethod
    def zero(q):
        return _make(0, 0, 1, q)

    @staticmethod
    def one(q):
        return _make(1, 0, 1, q)

    def _coerce(self, other):
        if isinstance(other, SqrtScalar):
            if other.q != self.q:
                raise ValueError("mixed base fields: q=%r vs q=%r" % (self.q, other.q))
            return other
        if isinstance(other, (int, Fraction)):
            return _rational(other, self.q)
        return None

    def __eq__(self, other):
        if isinstance(other, SqrtScalar):
            return (self._an == other._an and self._bn == other._bn
                    and self._den == other._den and self.q == other.q)
        if isinstance(other, int):
            return self._bn == 0 and self._den == 1 and self._an == other
        if isinstance(other, Fraction):
            return (self._bn == 0 and self._an == other.numerator
                    and self._den == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a rational value equals the int or Fraction it names, so it
        # hashes like one
        if self._bn == 0:
            return hash(Fraction(self._an, self._den))
        return hash((self._an, self._bn, self._den, self.q))

    def is_zero(self):
        return self._an == 0 and self._bn == 0

    def is_rational(self):
        return self._bn == 0

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, f = self._den, o._den
        if d == f:
            return _reduced(self._an + o._an, self._bn + o._bn, d, self.q)
        return _reduced(self._an * f + o._an * d, self._bn * f + o._bn * d,
                        d * f, self.q)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._an, -self._bn, self._den, self.q)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, f = self._den, o._den
        if d == f:
            return _reduced(self._an - o._an, self._bn - o._bn, d, self.q)
        return _reduced(self._an * f - o._an * d, self._bn * f - o._bn * d,
                        d * f, self.q)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a + bv)(c + dv) = ac + bd q + (ad + bc) v
        a, b, c, d = self._an, self._bn, o._an, o._bn
        return _reduced(a * c + b * d * self.q, a * d + b * c,
                        self._den * o._den, self.q)

    __rmul__ = __mul__

    def inverse(self):
        # conjugate trick: (a + bv)(a - bv) = a^2 - q b^2, nonzero for q prime
        a, b, d = self._an, self._bn, self._den
        n = a * a - self.q * b * b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt %d)" % self.q)
        if n < 0:
            return _reduced(-d * a, d * b, -n, self.q)
        return _reduced(d * a, -d * b, n, self.q)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = SqrtScalar.one(self.q)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self):
        return "SqrtScalar(%s, %s, q=%d)" % (self.a, self.b, self.q)

    def __str__(self):
        return render_scalar(self)


# the slot setters bypass the __setattr__ guard
_new = object.__new__
_set_an = SqrtScalar._an.__set__
_set_bn = SqrtScalar._bn.__set__
_set_den = SqrtScalar._den.__set__
_set_q = SqrtScalar.q.__set__


def _make(an, bn, den, q):
    """A SqrtScalar from a triple already in reduced form."""
    x = _new(SqrtScalar)
    _set_an(x, an)
    _set_bn(x, bn)
    _set_den(x, den)
    _set_q(x, q)
    return x


def _reduced(an, bn, den, q):
    """A SqrtScalar from any triple with den > 0."""
    if den != 1:
        g = gcd(an, bn, den)
        if g != 1:
            an, bn, den = an // g, bn // g, den // g
    return _make(an, bn, den, q)


def _rational(r, q):
    """r, an int or a Fraction, as a SqrtScalar."""
    if isinstance(r, int):
        return _make(int(r), 0, 1, q)
    return _make(r.numerator, 0, r.denominator, q)


def _num_den(r):
    if isinstance(r, int):
        return int(r), 1
    if not isinstance(r, Fraction):
        r = Fraction(r)
    return r.numerator, r.denominator


def accumulate(out, key, c):
    """out[key] += c, where a key out lacks starts at c."""
    s = out.get(key)
    out[key] = c if s is None else s + c


class Lin:
    """A finite combination sum c_k * k of keys with SqrtScalar coefficients.

    `terms` maps each key to its coefficient; zero coefficients are dropped.
    `label` names the algebra the keys belong to, and only elements with the
    same label and q add or compare equal:

        None                  free words, tuples of letters
        an Algebra            normal words of that presented algebra
        (Algebra, Algebra)    pairs of normal words: its tensor square
        a backend             Hall symbols (mid, alpha) of its Hall algebra
        (backend, backend)    pairs of Hall symbols: the tensor square

    `canonical` is False on a normal form that holds a word outside the
    cyclic two-residue contract; a sum is canonical if both summands are.
    The constructors that know each key format live with it (`hall.basis`,
    `presented.FreeElt.word`, `presented.tensor_unit`, ...).
    """

    __slots__ = ("q", "terms", "label", "canonical")

    def __init__(self, q, terms=None, label=None, canonical=True):
        self.q = q
        self.terms = ({k: c for k, c in terms.items() if not c.is_zero()}
                      if terms else {})
        self.label = label
        self.canonical = canonical

    def _check(self, other):
        if (other.label is not self.label and other.label != self.label) \
                or other.q != self.q:
            raise ValueError("cannot combine an element of %r over q=%d"
                             " with one of %r over q=%d"
                             % (self.label, self.q, other.label, other.q))

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c)
        return Lin(self.q, out, self.label,
                   self.canonical and other.canonical)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if not isinstance(c, SqrtScalar):
            c = SqrtScalar.of(c, self.q)
        return Lin(self.q, {k: s * c for k, s in self.terms.items()},
                   self.label, self.canonical)

    def __mul__(self, other):
        """Concatenation of free words; elements of an algebra multiply
        through that algebra (`hall.hmult`, `presented.pmult`, ...)."""
        if self.label is not None or not isinstance(other, Lin) \
                or other.label is not None:
            raise TypeError("'*' concatenates free words only")
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                accumulate(out, w1 + w2, c1 * c2)
        return Lin(self.q, out)

    def __eq__(self, other):
        return (isinstance(other, Lin) and self.terms == other.terms
                and self.q == other.q and (self.label is other.label
                                           or self.label == other.label))

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return "Lin(q=%d, %r, %r)" % (self.q, self.label, self.terms)


def scalar_arith(op, x, y):
    """add|sub|mul|div|neg on SqrtScalars sharing one q."""
    if op == "neg":
        return -x
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        return x / y
    raise ValueError("unknown op %r" % (op,))


def vpow(n, q):
    """v^n exactly: q^(n/2) for even n, q^((n-1)/2) * v for odd n."""
    assert isinstance(n, int)
    k, odd = divmod(n, 2)
    p = q ** abs(k)
    num, den = (p, 1) if k >= 0 else (1, p)
    return _make(0, num, den, q) if odd else _make(num, 0, den, q)


def _render_fraction(r):
    if r.denominator == 1:
        return str(r.numerator)
    return "%d/%d" % (r.numerator, r.denominator)


def _as_vpower(r, q):
    """Return k with r = q^k (k integer, any sign), or None."""
    if r <= 0:
        return None
    if r == 1:
        return 0
    k = 0
    if r.denominator == 1:
        n = r.numerator
        while n % q == 0:
            n //= q
            k += 1
        return k if n == 1 else None
    if r.numerator == 1:
        n = r.denominator
        while n % q == 0:
            n //= q
            k -= 1
        return k if n == 1 else None
    return None


def render_scalar(x):
    """Deterministic text form: pure rationals as p/r, pure v-multiples as
    v^k or r * v^k, mixed values as (a + b * v)."""
    if x.b == 0:
        k = _as_vpower(x.a, x.q)
        if k is not None and k != 0:
            return "v^%d" % (2 * k)
        k = _as_vpower(-x.a, x.q)
        if k is not None and k != 0:
            return "-v^%d" % (2 * k)
        return _render_fraction(x.a)
    if x.a == 0:
        k = _as_vpower(x.b, x.q)
        if k is not None:
            e = 2 * k + 1
            return "v" if e == 1 else "v^%d" % e
        k = _as_vpower(-x.b, x.q)
        if k is not None:
            e = 2 * k + 1
            return "-v" if e == 1 else "-v^%d" % e
        return "%s * v" % _render_fraction(x.b)
    bpart = "%s * v" % _render_fraction(abs(x.b)) if abs(x.b) != 1 else "v"
    sign = "+" if x.b > 0 else "-"
    return "(%s %s %s)" % (_render_fraction(x.a), sign, bpart)
