"""Reference constructions only the tests use: the transpose and product
of F_p matrices, and the direct sum of two representations."""

from hallforge.backend import Rep
from hallforge.fq import FpMatrix


def transpose(m):
    return FpMatrix(m.p, m.cols, m.rows, tuple(zip(*m.entries))
                    if m.rows else ((),) * m.cols)


def mat_mul(a, b):
    """The product a b over F_p."""
    assert a.p == b.p and a.cols == b.rows
    bt = transpose(b).entries
    return FpMatrix(a.p, a.rows, b.cols,
                    [tuple(sum(x * y for x, y in zip(r, c)) % a.p for c in bt)
                     for r in a.entries])


def direct_sum(be, a, b):
    """a (+) b over be's quiver: block-diagonal arrow matrices."""
    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    maps = []
    for idx, (s, t) in enumerate(be.quiver.arrows):
        ma, mb = a.maps[idx], b.maps[idx]
        rows = [tuple(r) + (0,) * mb.cols for r in ma.entries]
        rows += [(0,) * ma.cols + tuple(r) for r in mb.entries]
        maps.append(FpMatrix.from_rows(be.p, rows, cols=dims[s]))
    return Rep(be.quiver, be.p, dims, tuple(maps))
