from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hallforge.caps import Budget, CapExceeded
from hallforge.fq import (
    apply, enumerate_subspaces, gaussian_binomial, gl_order, in_rowspace,
    reduce_against, row_rank, rowspace_coords,
)

from matrix_oracles import (identity, mat_mul, rref, solve_nullspace,
                            transpose)


def gauss_oracle(n, k, q):
    # Pascal-type recurrence, independent of the product formula
    if k in (0, n):
        return 1
    if k < 0 or k > n:
        return 0
    return gauss_oracle(n - 1, k - 1, q) + q ** k * gauss_oracle(n - 1, k, q)


def mat(p, rows):
    return tuple(tuple(x % p for x in r) for r in rows)


def test_rref_frozen():
    red, rk, piv = rref(mat(2, [[1, 1], [1, 1]]), 2)
    assert red == mat(2, [[1, 1], [0, 0]]) and rk == 1 and piv == [0]
    ident = identity(4)
    assert rref(ident, 3) == (ident, 4, [0, 1, 2, 3])
    red, rk, piv = rref(mat(3, [[2, 4], [1, 2]]), 3)
    assert red == mat(3, [[1, 2], [0, 0]]) and rk == 1 and piv == [0]


def matrices(max_rows, max_cols):
    """(p, column count, matrix) over p in {2, 3, 5}: a matrix with no
    rows does not carry its column count."""
    return st.sampled_from([2, 3, 5]).flatmap(
        lambda p: st.tuples(st.integers(0, max_rows),
                            st.integers(0, max_cols)).flatmap(
            lambda shape: st.lists(
                st.lists(st.integers(0, p - 1), min_size=shape[1],
                         max_size=shape[1]).map(tuple),
                min_size=shape[0], max_size=shape[0],
            ).map(lambda rows: (p, shape[1], tuple(rows)))))


small_mats = matrices(4, 4)


@given(small_mats)
def test_rref_idempotent_and_rank(case):
    p, cols, m = case
    red, rk, piv = rref(m, p)
    assert rref(red, p) == (red, rk, piv)
    assert row_rank(m, p) == row_rank(transpose(m, cols), p)
    assert rk == len(piv) <= min(len(m), cols)


@settings(max_examples=200)
@given(matrices(7, 7))
def test_row_rank_matches_rref(case):
    p, cols, m = case
    # forward elimination over row tuples against Gauss-Jordan
    assert row_rank(m, p) == rref(m, p)[1] == row_rank(transpose(m, cols), p)
    # rows already in the span add nothing, in any order
    doubled = list(m) + [tuple(2 * x % p for x in r) for r in reversed(m)]
    assert row_rank(doubled, p) == rref(m, p)[1]


def test_nullspace_frozen():
    ns = solve_nullspace(mat(2, [[0, 0, 0]] * 2), 2, 3)
    assert ns == identity(3)
    assert len(solve_nullspace(identity(3), 3, 3)) == 0
    ns = solve_nullspace(mat(2, [[1, 1]]), 2, 2)
    assert ns == mat(2, [[1, 1]])


@given(small_mats)
def test_nullspace_property(case):
    p, cols, m = case
    ns = solve_nullspace(m, p, cols)
    assert len(ns) == cols - row_rank(m, p)
    for row in ns:
        assert all(x == 0 for x in apply(m, row, p))
    # canonical: rref of the basis is the basis
    if ns:
        assert rref(ns, p)[0] == ns


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
        red, rk, _ = rref(s, 3)
        assert red == s and rk == len(s)
    assert subs == enumerate_subspaces(3, 2, 3)


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        enumerate_subspaces(4, 2, 2, budget=Budget("test", limit=10))


def test_enumerate_subspaces_refuses_a_bad_dimension():
    # a ValueError, not an assert statement, so it holds under python -O
    for n, k in ((2, 3), (2, -1)):
        with pytest.raises(ValueError):
            enumerate_subspaces(n, k, 2)


def test_membership_helpers():
    basis = mat(2, [[1, 0, 1], [0, 1, 1]])
    assert in_rowspace((1, 1, 0), basis, 2)
    assert not in_rowspace((1, 0, 0), basis, 2)
    assert reduce_against((1, 0, 1), basis, 2) == (0, 0, 0)


@settings(max_examples=300)
@given(st.data())
def test_rowspace_helpers_match_brute_force(data):
    # every subspace basis of F_p^n, n <= 4, against the span it lists
    p = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(0, 4))
    k = data.draw(st.integers(0, n))
    basis = data.draw(st.sampled_from(enumerate_subspaces(n, k, p)))
    span = {coords: tuple(sum(c * row[j] for c, row in zip(coords, basis)) % p
                          for j in range(n))
            for coords in product(range(p), repeat=k)}
    if data.draw(st.booleans()):
        vec = data.draw(st.sampled_from(sorted(span.values())))
    else:
        vec = tuple(data.draw(st.lists(st.integers(0, p - 1),
                                       min_size=n, max_size=n)))
    inside = vec in span.values()
    assert in_rowspace(vec, basis, p) == inside
    assert (reduce_against(vec, basis, p) == (0,) * n) == inside
    coords = rowspace_coords(vec, basis, p)
    if inside:
        assert span[coords] == vec
    else:
        assert coords is None


def test_gl_order():
    assert gl_order(2, 2) == 6
    assert gl_order(0, 3) == 1
    assert gl_order(4, 3) == 24261120


@settings(max_examples=30)
@given(st.integers(0, 3), st.integers(0, 3), st.sampled_from([2, 3]))
def test_matrix_mul_associative(n, m, p):
    import random
    rng = random.Random(n * 10 + m + p)
    a = mat(p, [[rng.randrange(p) for _ in range(m)] for _ in range(n)])
    b = mat(p, [[rng.randrange(p) for _ in range(n)] for _ in range(m)])
    c = mat(p, [[rng.randrange(p) for _ in range(m)] for _ in range(n)])
    assert (mat_mul(mat_mul(a, b, p, n), c, p, m)
            == mat_mul(a, mat_mul(b, c, p, m), p, m))
