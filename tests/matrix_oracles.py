"""Reference constructions only the tests use: the reduced row echelon
form, transpose, product and null space of F_p matrices (tuples of row
tuples, as in `hallforge.fq`), and the direct sum of two representations."""

from hallforge.backend import Rep


def rref(m, p):
    """Gauss-Jordan over F_p. Returns (reduced matrix, rank, pivot_cols)."""
    rows = [list(r) for r in m]
    nr, nc = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = None
        for i in range(r, nr):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows), r, pivots


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m, cols):
    """The transpose of m, a matrix with `cols` columns (a matrix with no
    rows does not carry its column count)."""
    return tuple(zip(*m)) if m else ((),) * cols


def mat_mul(a, b, p, cols):
    """The product a b over F_p, with `cols` the column count of b."""
    assert all(len(r) == len(b) for r in a)
    bt = transpose(b, cols)
    return tuple(tuple(sum(x * y for x, y in zip(r, c)) % p for c in bt)
                 for r in a)


def solve_nullspace(m, p, cols):
    """Canonical RREF basis of {x : m x = 0}, one row per basis vector,
    for m with `cols` columns."""
    red, rk, pivots = rref(m, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * cols
        vec[f] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-red[i][f]) % p
        basis.append(tuple(vec))
    # independent by construction; one more reduction makes the basis canonical
    return rref(basis, p)[0]


def direct_sum(be, a, b):
    """a (+) b over be's quiver: block-diagonal arrow matrices."""
    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    maps = []
    for idx, (s, t) in enumerate(be.quiver.arrows):
        ma, mb = a.maps[idx], b.maps[idx]
        rows = [tuple(r) + (0,) * b.dims[s] for r in ma]
        rows += [(0,) * a.dims[s] + tuple(r) for r in mb]
        maps.append(tuple(rows))
    return Rep(dims, tuple(maps))
