from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from hallforge import hall, scalars
from hallforge.backend import QuiverBackend
from hallforge.presented import (FreeElt, MuMinus, MuPlus, NuPlus, algebra,
                                 normal_form, tensor_mult, tensor_unit,
                                 tensor_word)
from hallforge.quiver import preset
from hallforge.scalars import Lin, SqrtScalar, is_prime, render_scalar, vpow

from render_oracles import ref_render

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)
operands = st.one_of(st.integers(-6, 6), rationals)


def sq(a, b, q=2):
    return SqrtScalar(a, b, q)


def test_frozen_products():
    # (1 + v)(1 - v) = 1 - q
    assert sq(1, 1) * sq(1, -1) == sq(-1, 0)
    # v * v = q
    assert sq(0, 1) * sq(0, 1) == sq(2, 0)
    assert sq(3, -2) + SqrtScalar.zero(2) == sq(3, -2)


def test_vpow_frozen():
    assert vpow(2, 3) == SqrtScalar.of(3, 3)
    assert vpow(-1, 2) == SqrtScalar(0, Fraction(1, 2), 2)
    assert vpow(0, 5) == SqrtScalar.one(5)
    assert vpow(1, 2) * vpow(-1, 2) == SqrtScalar.one(2)
    assert vpow(7, 2) == SqrtScalar(0, 8, 2)


def test_mismatched_q_rejected():
    with pytest.raises(ValueError):
        sq(1, 0, 2) * sq(1, 0, 3)


def test_multiplying_by_one_keeps_the_field_check():
    x = sq(1, 1, 2)
    with pytest.raises(ValueError):
        SqrtScalar.one(3) * x
    with pytest.raises(ValueError):
        x * SqrtScalar.one(3)
    with pytest.raises(ValueError):
        SqrtScalar.one(3) * SqrtScalar.one(2)


def test_multiplying_by_one_makes_no_scalar(monkeypatch):
    x = sq(Fraction(3, 4), -2)
    one = SqrtScalar.one(2)
    made = []
    make = scalars._make
    monkeypatch.setattr(scalars, "_make",
                        lambda *triple: made.append(triple) or make(*triple))
    products = [x * 1, 1 * x, x * Fraction(1), Fraction(1) * x, x * one,
                one * x]
    assert made == []
    assert all(p == x for p in products)
    # a product with anything else is still a new value
    assert x * 2 == sq(Fraction(3, 2), -4) and made


def test_scalars_are_immutable():
    x = sq(1, 1)
    for name in ("_an", "_bn", "_den", "q", "a", "b", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    assert x == sq(1, 1)


def test_vpow_rejects_a_non_int_exponent():
    assert vpow(2, 2) == SqrtScalar.of(2, 2)
    for n in (1.5, 2.0, Fraction(2), "2", None):
        with pytest.raises(TypeError):
            vpow(n, 2)


def test_vpow_table_is_bounded(monkeypatch):
    monkeypatch.setattr(scalars, "_VPOWS", {})
    limit = scalars._VPOW_LIMIT
    for n in range(-limit, limit):
        got = vpow(n, 3)
        k, odd = divmod(n, 2)
        want = SqrtScalar(0, Fraction(3) ** k, 3) if odd \
            else SqrtScalar(Fraction(3) ** k, 0, 3)
        assert got == want and vpow(n, 3) == want
    assert len(scalars._VPOWS) == limit


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        sq(1, 1) / SqrtScalar.zero(2)


@given(rationals, rationals, rationals, rationals, rationals, rationals,
       st.sampled_from([2, 3, 5]))
def test_field_axioms(a1, b1, a2, b2, a3, b3, q):
    x, y, z = SqrtScalar(a1, b1, q), SqrtScalar(a2, b2, q), SqrtScalar(a3, b3, q)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    if not x.is_zero():
        assert x * x.inverse() == SqrtScalar.one(q)


@given(st.integers(-9, 9), st.integers(-9, 9), st.sampled_from([2, 3, 5]))
def test_vpow_additive(m, n, q):
    assert vpow(m, q) * vpow(n, q) == vpow(m + n, q)


@given(rationals, rationals, st.sampled_from([2, 3]))
def test_no_floats(a, b, q):
    x = SqrtScalar(a, b, q) * SqrtScalar(b, a, q)
    assert isinstance(x.a, Fraction) and isinstance(x.b, Fraction)


def test_render():
    assert render_scalar(sq(1, 0)) == "1"
    assert render_scalar(sq(Fraction(1, 2), 0)) == "v^-2"
    assert render_scalar(sq(Fraction(1, 3), 0)) == "1/3"
    assert render_scalar(sq(0, 1)) == "v"
    assert render_scalar(sq(0, -1)) == "-v"
    assert render_scalar(vpow(-1, 2)) == "v^-1"
    assert render_scalar(vpow(3, 2)) == "v^3"
    assert render_scalar(sq(1, 1)) == "(1 + v)"
    assert render_scalar(sq(1, -2)) == "(1 - 2 * v)"
    assert render_scalar(sq(0, Fraction(3, 5))) == "3/5 * v"


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert is_prime(2503)
    assert not is_prime(2501)


class RefScalar:
    """Oracle: a + b*v kept as two Fractions, the form SqrtScalar stored
    before it moved to a reduced int triple."""

    def __init__(self, a, b, q):
        self.a, self.b, self.q = Fraction(a), Fraction(b), q

    def _lift(self, other):
        return other if isinstance(other, RefScalar) else RefScalar(other, 0, self.q)

    def __add__(self, other):
        o = self._lift(other)
        return RefScalar(self.a + o.a, self.b + o.b, self.q)

    __radd__ = __add__

    def __neg__(self):
        return RefScalar(-self.a, -self.b, self.q)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        return RefScalar(self.a * o.a + self.b * o.b * self.q,
                         self.a * o.b + self.b * o.a, self.q)

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a - self.q * self.b * self.b
        return RefScalar(self.a / n, -self.b / n, self.q)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        out = RefScalar(1, 0, self.q)
        for _ in range(abs(n)):
            out = out * base
        return out


def assert_canonical(x):
    assert x._den > 0 and gcd(x._an, x._bn, x._den) == 1


def assert_agrees(got, want):
    assert isinstance(got, SqrtScalar)
    assert_canonical(got)
    assert isinstance(got.a, Fraction) and isinstance(got.b, Fraction)
    assert (got.a, got.b) == (want.a, want.b)
    assert got == SqrtScalar(want.a, want.b, want.q)
    assert render_scalar(got) == ref_render(want)


@given(rationals, rationals, rationals, rationals, operands,
       st.integers(-4, 4), st.sampled_from([2, 3, 5]))
def test_matches_fraction_pair_reference(a1, b1, a2, b2, r, n, q):
    x, y = SqrtScalar(a1, b1, q), SqrtScalar(a2, b2, q)
    rx, ry = RefScalar(a1, b1, q), RefScalar(a2, b2, q)
    assert_agrees(x, rx)
    cases = [(x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
             (-x, -rx), (x + r, rx + r), (r + x, r + rx), (x - r, rx - r),
             (r - x, r - rx), (x * r, rx * r), (r * x, r * rx)]
    if not y.is_zero():
        cases += [(x / y, rx / ry), (r / y, r / ry), (y.inverse(), ry.inverse()),
                  (y ** n, ry ** n)]
    if r != 0:
        cases.append((x / r, rx / r))
    for got, want in cases:
        assert_agrees(got, want)
    assert (x == y) == ((rx.a, rx.b) == (ry.a, ry.b))
    assert (x == r) == (rx.b == 0 and rx.a == r)
    assert SqrtScalar(r, 0, q) == r and SqrtScalar.of(r, q) == r


# parts that are 0, +-q^k (k of either sign) or plain rationals, so pure
# rationals, pure v-multiples, mixed values, negative values and q-power
# denominators all come up
def _parts(q):
    powers = st.builds(lambda k, s: s * Fraction(q) ** k,
                       st.integers(-4, 4), st.sampled_from([1, -1]))
    return st.one_of(st.just(Fraction(0)), powers, rationals,
                     st.builds(lambda r, k: r / q ** k, rationals,
                               st.integers(1, 3)))


@given(st.sampled_from([2, 3, 5]).flatmap(
    lambda q: st.tuples(st.just(q), _parts(q), _parts(q))))
def test_render_matches_fraction_pair_reference(case):
    q, a, b = case
    x = SqrtScalar(a, b, q)
    assert render_scalar(x) == ref_render(RefScalar(a, b, q))


def test_render_reference_cases_frozen():
    cases = {(Fraction(1, 4), 0, 2): "v^-4", (-9, 0, 3): "-v^4",
             (Fraction(-1, 2), 0, 5): "-1/2", (0, Fraction(1, 25), 5): "v^-3",
             (0, -3, 3): "-v^3", (0, Fraction(2, 3), 3): "2/3 * v",
             (Fraction(1, 2), Fraction(-1, 4), 2): "(1/2 - 1/4 * v)",
             (Fraction(-2, 3), Fraction(1, 3), 3): "(-2/3 + 1/3 * v)",
             (3, Fraction(-1), 5): "(3 - v)", (0, 0, 2): "0"}
    for (a, b, q), text in cases.items():
        assert render_scalar(SqrtScalar(a, b, q)) == text
        assert ref_render(RefScalar(a, b, q)) == text


def test_mixed_operands_frozen():
    x = SqrtScalar(Fraction(1, 2), 0, 2)
    assert x == Fraction(1, 2) and Fraction(1, 2) == x
    assert not x == 1 and x != Fraction(1, 3)
    assert 3 - x == Fraction(5, 2)
    assert 1 / x == 2 and (1 / x).b == 0
    assert x ** -2 == 4


def test_canonical_form_hashes_equal():
    half, half2 = SqrtScalar(Fraction(2, 4), 0, 2), SqrtScalar(Fraction(1, 2), 0, 2)
    assert half == half2 and hash(half) == hash(half2)
    x = SqrtScalar(Fraction(3, 4), Fraction(-5, 6), 3)
    y = SqrtScalar(Fraction(2, 9), 7, 3)
    routes = [(x * y) / y, x + 0, 0 + x, (x * 6) / 6, -(-x), x - y + y,
              SqrtScalar(Fraction(9, 12), Fraction(-10, 12), 3)]
    for z in routes:
        assert_canonical(z)
        assert z == x and hash(z) == hash(x)
    assert len(set(routes)) == 1


def test_inverse_of_negative_norm_keeps_den_positive():
    v = SqrtScalar(0, 1, 2)
    inv = (1 + v).inverse()  # norm 1 - 2 = -1
    assert_canonical(inv)
    assert inv == -1 + v and hash(inv) == hash(-1 + v)
    third = SqrtScalar(1, 2, 3).inverse()  # norm 1 - 12 = -11
    assert_canonical(third)
    assert third == SqrtScalar(Fraction(-1, 11), Fraction(2, 11), 3)


def test_rational_hash_agrees_with_int_and_fraction():
    # a rational SqrtScalar equals the int or Fraction it names, so it
    # must find that key in a dict and the key must find it
    one, half = SqrtScalar.one(2), SqrtScalar(Fraction(1, 2), 0, 3)
    for x, plain in [(one, 1), (SqrtScalar.of(-4, 5), -4), (SqrtScalar.zero(2), 0),
                     (half, Fraction(1, 2)), (SqrtScalar.of(Fraction(6, 4), 2), Fraction(3, 2))]:
        assert x == plain and hash(x) == hash(plain)
        assert {plain: "k"}[x] == "k" and {x: "k"}[plain] == "k"
    assert {1: "one"}[one] == "one"
    assert {Fraction(2, 2): "one"}[one] == "one"
    assert {Fraction(1, 2): "half"}[half] == "half"
    assert SqrtScalar(1, 1, 2) not in {1: None, Fraction(1, 2): None}


# a rational operand: ints with 0 and negatives, and Fractions whose
# denominators are powers of q times a small cofactor
def _rational_operands(q):
    powers = st.integers(-4, 4).map(lambda k: Fraction(q) ** k)
    return st.one_of(
        st.integers(-40, 40),
        st.builds(lambda n, p, d: Fraction(n, d) * p, st.integers(-40, 40),
                  powers, st.integers(1, 6)))


def _triple(x):
    return (x._an, x._bn, x._den, x.q)


@given(rationals, rationals, st.sampled_from([2, 3, 5]), st.data())
def test_rational_operands_scale_the_triple(a, b, q, data):
    x = SqrtScalar(a, b, q)
    r = data.draw(_rational_operands(q))
    want = x * SqrtScalar.of(r, q)
    for got in (x * r, r * x):
        assert isinstance(got, SqrtScalar)
        assert_canonical(got)
        assert _triple(got) == _triple(want)
        assert got == want and hash(got) == hash(want)
    if r:
        quot = x / r
        assert_canonical(quot)
        assert _triple(quot) == _triple(x * SqrtScalar.of(r, q).inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            x / r
    assert x * 1 is x and 1 * x is x and x / 1 is x


def test_rational_operands_make_no_scalar_for_themselves(monkeypatch):
    x = SqrtScalar(Fraction(3, 4), -2, 3)
    built = []
    rational = scalars._rational
    monkeypatch.setattr(scalars, "_rational",
                        lambda *args: built.append(args) or rational(*args))
    products = [x * 6, 6 * x, x * Fraction(-2, 9), x / 4, x / Fraction(2, 3)]
    assert built == []
    assert products == [SqrtScalar(Fraction(9, 2), -12, 3),
                        SqrtScalar(Fraction(9, 2), -12, 3),
                        SqrtScalar(Fraction(-1, 6), Fraction(4, 9), 3),
                        SqrtScalar(Fraction(3, 16), Fraction(-1, 2), 3),
                        SqrtScalar(Fraction(9, 8), -3, 3)]
    # two scalars of different fields still do not multiply
    with pytest.raises(ValueError):
        x * SqrtScalar(1, 1, 2)
    with pytest.raises(ValueError):
        SqrtScalar.of(2, 5) * x


# -- Lin: one combination type for every kind of element ---------------

BE3 = QuiverBackend(preset("a2"), 3)
S1 = BE3.class_by_name("S1")
S2 = BE3.class_by_name("S2")
HD3 = algebra("hd", BE3)
HD3_HHD3 = (HD3, algebra("hhd", BE3))
ZERO3 = SqrtScalar.zero(3)


def _free():
    return (FreeElt.word(3, (MuPlus(S1), MuMinus(S2)))
            + FreeElt.word(3, (MuMinus(S1),)))


# kind -> (an element x of two or more terms, the kind's one, a zero built
# by the kind's own constructor)
KINDS = {
    "free": lambda: (_free(), FreeElt.unit(3), FreeElt.word(3, (), ZERO3)),
    "normal": lambda: (normal_form(HD3, FreeElt.word(3, (MuPlus(S1),
                                                          MuMinus(S1)))),
                       normal_form(HD3, FreeElt.unit(3)),
                       normal_form(HD3, Lin(3))),
    "tensor": lambda: (tensor_word(HD3_HHD3, (MuPlus(S1),), (NuPlus(S2),))
                       + tensor_unit(HD3_HHD3),
                       tensor_unit(HD3_HHD3),
                       tensor_word(HD3_HHD3, (), (), ZERO3)),
    "hall": lambda: (hall.basis(BE3, S1) + hall.basis(BE3, 0, (1, 0)),
                     hall.unit(BE3),
                     hall.basis(BE3, 0, coeff=ZERO3)),
    "hall-tensor": lambda: (hall.comult(hall.basis(BE3, S1, (0, 1))),
                            hall.comult(hall.unit(BE3)),
                            hall.comult(hall.basis(BE3, 0, coeff=ZERO3))),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_lin_contract(kind):
    x, one, zero = KINDS[kind]()
    label = x.label
    assert isinstance(x, Lin) and len(x.terms) >= 2
    assert one.label == label and zero.label == label
    # zero coefficients drop on construction and after + and -
    key = next(iter(x.terms))
    assert Lin(3, {key: ZERO3}, label).terms == {}
    assert zero.is_zero() and zero.terms == {}
    assert (x - x).is_zero() and (x - x).terms == {}
    part = Lin(3, {key: x.terms[key]}, label)
    assert key not in (x - part).terms
    assert (x - part) + part == x
    assert (x + x.scale(-1)).terms == {}
    assert x.scale(0).is_zero()
    # a zero still knows its field, q=3 here
    assert zero.q == 3
    assert zero - one == one.scale(-1)
    assert zero + one == one
    # the same terms under another label are another element
    free = Lin(3, x.terms)
    assert (free == x) == (label is None)
    if label is None:
        assert x * one == x
    else:
        with pytest.raises(ValueError):
            x + free
        with pytest.raises(ValueError):
            free - x
        with pytest.raises(TypeError):
            x * x
        with pytest.raises(TypeError):
            one * x
    with pytest.raises(ValueError):
        x + Lin(2, {}, label)
    with pytest.raises(TypeError):
        hash(x)


def test_lin_free_and_normal_words_differ():
    nf = normal_form(HD3, FreeElt.word(3, (MuPlus(S1),)))
    free = FreeElt.word(3, (MuPlus(S1),))
    assert nf.terms == free.terms
    assert nf != free and free != nf


def test_tensor_mult_rejects_different_pairs():
    x = tensor_word(HD3_HHD3, (MuPlus(S1),), ())
    y = tensor_word((HD3, HD3), (MuPlus(S2),), ())
    with pytest.raises(ValueError):
        tensor_mult(x, y)
    assert tensor_mult(x, tensor_unit(HD3_HHD3)) == x


def test_hmult_rejects_different_backends():
    other = QuiverBackend(preset("a2"), 3)
    with pytest.raises(ValueError):
        hall.hmult(hall.unit(BE3), hall.unit(other))
