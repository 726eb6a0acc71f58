import pytest
from hypothesis import given, settings, strategies as st

from hallforge.caps import Budget, CapExceeded
from hallforge.fq import (
    FpMatrix, enumerate_subspaces, gaussian_binomial, gl_order, in_rowspace,
    rank, reduce_against, row_rank, rref, solve_nullspace,
)

from matrix_oracles import mat_mul, transpose


def gauss_oracle(n, k, q):
    # Pascal-type recurrence, independent of the product formula
    if k in (0, n):
        return 1
    if k < 0 or k > n:
        return 0
    return gauss_oracle(n - 1, k - 1, q) + q ** k * gauss_oracle(n - 1, k, q)


def mat(p, rows):
    return FpMatrix.from_rows(p, rows)


def test_rref_frozen():
    red, rk, piv = rref(mat(2, [[1, 1], [1, 1]]))
    assert red == mat(2, [[1, 1], [0, 0]]) and rk == 1 and piv == [0]
    ident = FpMatrix.identity(3, 4)
    assert rref(ident) == (ident, 4, [0, 1, 2, 3])
    red, rk, piv = rref(mat(3, [[2, 4], [1, 2]]))
    assert red == mat(3, [[1, 2], [0, 0]]) and rk == 1 and piv == [0]


small_mats = st.sampled_from([2, 3, 5]).flatmap(
    lambda p: st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(0, p - 1), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0],
        ).map(lambda rows: FpMatrix(p, shape[0], shape[1], rows))
    )
)


@given(small_mats)
def test_rref_idempotent_and_rank(m):
    red, rk, piv = rref(m)
    assert rref(red) == (red, rk, piv)
    assert rank(m) == rank(transpose(m))
    assert rk == len(piv) <= min(m.rows, m.cols)


@settings(max_examples=200)
@given(st.sampled_from([2, 3, 5]).flatmap(
    lambda p: st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(0, p - 1), min_size=shape[1],
                     max_size=shape[1]),
            min_size=shape[0], max_size=shape[0],
        ).map(lambda rows: FpMatrix(p, shape[0], shape[1], rows)))))
def test_row_rank_matches_rref(m):
    # forward elimination over row tuples against Gauss-Jordan
    assert row_rank(m.entries, m.p) == rref(m)[1] == rank(m)
    # rows already in the span add nothing, in any order
    doubled = list(m.entries) + [tuple(2 * x % m.p for x in r)
                                 for r in reversed(m.entries)]
    assert row_rank(doubled, m.p) == rref(m)[1]


def test_nullspace_frozen():
    ns = solve_nullspace(FpMatrix.zero(2, 2, 3))
    assert ns == FpMatrix.identity(2, 3)
    assert solve_nullspace(FpMatrix.identity(3, 3)).rows == 0
    ns = solve_nullspace(mat(2, [[1, 1]]))
    assert ns == mat(2, [[1, 1]])


@given(small_mats)
def test_nullspace_property(m):
    ns = solve_nullspace(m)
    assert ns.rows == m.cols - rank(m)
    for row in ns.entries:
        assert all(x == 0 for x in m.apply(row))
    # canonical: rref of the basis is the basis
    if ns.rows:
        assert rref(ns)[0] == ns


def test_enumerate_subspaces_counts():
    assert len(enumerate_subspaces(2, 1, 2)) == 3
    assert len(enumerate_subspaces(4, 2, 2)) == 35
    assert len(enumerate_subspaces(3, 0, 5)) == 1
    for p in (2, 3):
        for n in range(5):
            for k in range(n + 1):
                subs = enumerate_subspaces(n, k, p)
                assert len(subs) == gaussian_binomial(n, k, p) == gauss_oracle(n, k, p)
                assert len(set(subs)) == len(subs)


def test_enumerate_subspaces_canonical_and_deterministic():
    subs = enumerate_subspaces(3, 2, 3)
    for s in subs:
        red, rk, _ = rref(s)
        assert red == s and rk == s.rows
    assert subs == enumerate_subspaces(3, 2, 3)


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        enumerate_subspaces(4, 2, 2, budget=Budget("test", limit=10))


def test_membership_helpers():
    basis = mat(2, [[1, 0, 1], [0, 1, 1]])
    assert in_rowspace((1, 1, 0), basis)
    assert not in_rowspace((1, 0, 0), basis)
    assert reduce_against((1, 0, 1), basis) == (0, 0, 0)


def test_gl_order():
    assert gl_order(2, 2) == 6
    assert gl_order(0, 3) == 1
    assert gl_order(4, 3) == 24261120


@settings(max_examples=30)
@given(st.integers(0, 3), st.integers(0, 3), st.sampled_from([2, 3]))
def test_matrix_mul_associative(n, m, p):
    import random
    rng = random.Random(n * 10 + m + p)
    a = FpMatrix(p, n, m, [[rng.randrange(p) for _ in range(m)] for _ in range(n)])
    b = FpMatrix(p, m, n, [[rng.randrange(p) for _ in range(n)] for _ in range(m)])
    c = FpMatrix(p, n, m, [[rng.randrange(p) for _ in range(m)] for _ in range(n)])
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
