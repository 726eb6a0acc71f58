import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hallforge.backend import QuiverBackend
from hallforge.exprs import (ExprError, parse_expr, render_elt, render_tensor,
                             render_word)
from hallforge.presented import (E, Kc, KPlus, KMinus, Kz, MuMinus, MuPlus,
                                 NuPlus, OmPlus, Zg, algebra,
                                 normal_form, pmult, tensor_word, FreeElt)
from hallforge.quiver import preset
from hallforge.scalars import Lin, SqrtScalar, vpow

BE = QuiverBackend(preset("a2"), 2)
HD = algebra("hd", BE)
S1 = BE.class_by_name("S1")
S2 = BE.class_by_name("S2")
P = BE.class_by_name("X{1,1}#1")


def w(letters, coeff=None):
    return FreeElt.word(2, letters, coeff)


def test_parse_words():
    x = parse_expr("mu+[S1] * mu-[S1]", HD)
    assert x == w((MuPlus(S1), MuMinus(S1)))
    # juxtaposition and bare v
    y = parse_expr("v mu+[S1] mu-[S1]", HD)
    assert y == w((MuPlus(S1), MuMinus(S1)), vpow(1, 2))
    assert parse_expr("K-[(1,0)]", HD) == w((KMinus((1, 0)),))


def test_parse_sum_matches_hmult_rendering():
    x = parse_expr("v^-1 * (mu-[X{1,1}#0] + mu-[X{1,1}#1])", HD)
    split = BE.class_by_name("X{1,1}#0")
    expected = w((MuMinus(split),), vpow(-1, 2)) + w((MuMinus(P),),
                                                     vpow(-1, 2))
    assert x == expected


def test_parse_scalars():
    assert parse_expr("3/2", HD) == w((), SqrtScalar.of(Fraction(3, 2), 2))
    assert parse_expr("v^2", HD) == w((), vpow(2, 2))
    assert parse_expr("-v", HD) == w((), -vpow(1, 2))
    assert parse_expr("0", HD) == Lin(2, {})
    assert parse_expr("2 - 1", HD) == w(())


def test_parse_indexed_atoms():
    dh4 = algebra("dhm:4", BE)
    assert parse_expr("e[S2;3]", dh4) == w((E(S2, 3),))
    # residues reduce mod m
    assert parse_expr("e[S2;7]", dh4) == w((E(S2, 3),))
    assert parse_expr("k[(0,1);2]", dh4) == w((Kc((0, 1), 2),))
    dhce = algebra("dhce", BE)
    assert parse_expr("Z[S1;-1] KZ[(1,0);0]", dhce) == \
        w((Zg(S1, -1), Kz((1, 0), 0)))


def test_parse_errors():
    with pytest.raises(ExprError) as err:
        parse_expr("(", HD)
    assert err.value.position == 1
    with pytest.raises(ExprError):
        parse_expr("mu+[S9]", HD)
    with pytest.raises(ExprError):
        parse_expr("mu+[S1] +", HD)
    with pytest.raises(ExprError):
        parse_expr("nu+[S1]", HD)  # wrong family for hd
    with pytest.raises(ExprError):
        parse_expr("e[S1;0]", HD)
    with pytest.raises(ExprError):
        parse_expr("mu+[S1;2]", HD)
    with pytest.raises(ExprError):
        parse_expr("K+[(1,0,0)]", HD)
    with pytest.raises(ExprError):
        parse_expr("1.5", HD)


def test_render_frozen():
    x = pmult(HD, w((MuPlus(S1),)), w((MuMinus(S1),)))
    assert render_elt(BE, x) == "mu-[S1] mu+[S1] + K-[(1,0)]"
    y = pmult(HD, w((MuPlus(S1),)), w((MuPlus(S2),)))
    assert render_elt(BE, y) == \
        "v^-1 mu+[X{1,1}#0] + v^-1 mu+[X{1,1}#1]"
    assert render_elt(BE, Lin(2, {})) == "0"
    assert render_elt(BE, w(())) == "1"
    assert render_word(BE, (OmPlus(P),)) == "om+[X{1,1}#1]"


def test_render_tensor():
    HHD = algebra("hhd", BE)
    t = tensor_word((HD, HHD), (KPlus((1, 0)),), (NuPlus(S1),))
    assert render_tensor(BE, t) == "K+[(1,0)] (x) nu+[S1]"


_LETTER_POOL = [MuPlus(S1), MuMinus(S1), MuPlus(S2), MuMinus(S2), MuPlus(P),
                KPlus((1, 0)), KMinus((0, 1)), KPlus((-1, 1))]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_parse_render_round_trip(data):
    n = data.draw(st.integers(min_value=0, max_value=3))
    word = tuple(data.draw(st.sampled_from(_LETTER_POOL)) for _ in range(n))
    num = data.draw(st.integers(min_value=-3, max_value=3))
    den = data.draw(st.integers(min_value=1, max_value=4))
    vexp = data.draw(st.integers(min_value=-2, max_value=2))
    coeff = SqrtScalar.of(Fraction(num, den), 2) * vpow(vexp, 2)
    if coeff.is_zero():
        coeff = SqrtScalar.one(2)
    x = Lin(HD.q, normal_form(HD, w(word, coeff)).terms)
    text = render_elt(BE, x)
    assert parse_expr(text, HD) == x
