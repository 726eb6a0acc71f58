"""Exact arithmetic in Q(sqrt q): numbers a + b*v with v*v = q, q prime."""

from fractions import Fraction

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
    """a + b*v with v^2 = q. Immutable, hashable, componentwise equality."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a, b, q):
        object.__setattr__(self, "a", a if isinstance(a, Fraction) else Fraction(a))
        object.__setattr__(self, "b", b if isinstance(b, Fraction) else Fraction(b))
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("SqrtScalar is immutable")

    @staticmethod
    def of(r, q):
        return SqrtScalar(r, 0, q)

    @staticmethod
    def zero(q):
        return SqrtScalar(0, 0, q)

    @staticmethod
    def one(q):
        return SqrtScalar(1, 0, q)

    def _coerce(self, other):
        if isinstance(other, SqrtScalar):
            if other.q != self.q:
                raise ValueError("mixed base fields: q=%r vs q=%r" % (self.q, other.q))
            return other
        if isinstance(other, (int, Fraction)):
            return SqrtScalar(other, 0, self.q)
        return None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, SqrtScalar):
            return NotImplemented
        return self.q == other.q and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def is_rational(self):
        return self.b == 0

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtScalar(self.a + o.a, self.b + o.b, self.q)

    __radd__ = __add__

    def __neg__(self):
        return SqrtScalar(-self.a, -self.b, self.q)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtScalar(self.a - o.a, self.b - o.b, self.q)

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
        return SqrtScalar(
            self.a * o.a + self.b * o.b * self.q,
            self.a * o.b + self.b * o.a,
            self.q,
        )

    __rmul__ = __mul__

    def inverse(self):
        # conjugate trick: (a + bv)(a - bv) = a^2 - q b^2, nonzero for q prime
        n = self.a * self.a - self.q * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt %d)" % self.q)
        return SqrtScalar(self.a / n, -self.b / n, self.q)

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
    if n % 2 == 0:
        return SqrtScalar(Fraction(q) ** (n // 2), 0, q)
    return SqrtScalar(0, Fraction(q) ** ((n - 1) // 2), q)


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
