"""Dense exact linear algebra over F_p and canonical subspace enumeration.

Matrices are immutable tuples of tuples (row-major residues), so they hash
and compare structurally. Everything here is pure."""

from itertools import combinations, product

from .caps import Budget
from .scalars import is_prime


class FpMatrix:
    __slots__ = ("p", "rows", "cols", "entries")

    def __init__(self, p, rows, cols, entries):
        assert is_prime(p), "p must be prime"
        assert rows >= 0 and cols >= 0
        ents = tuple(tuple(int(x) % p for x in row) for row in entries)
        assert len(ents) == rows and all(len(r) == cols for r in ents)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ents)

    def __setattr__(self, name, value):
        raise AttributeError("FpMatrix is immutable")

    @staticmethod
    def zero(p, rows, cols):
        return FpMatrix(p, rows, cols, ((0,) * cols,) * rows)

    @staticmethod
    def identity(p, n):
        return FpMatrix(p, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def from_rows(p, rows_list, cols=None):
        rows_list = [tuple(r) for r in rows_list]
        if cols is None:
            cols = len(rows_list[0]) if rows_list else 0
        return FpMatrix(p, len(rows_list), cols, rows_list)

    def __eq__(self, other):
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return self.p == other.p and self.entries == other.entries and self.cols == other.cols

    def __hash__(self):
        return hash((self.p, self.cols, self.entries))

    def __repr__(self):
        return "FpMatrix(p=%d, %r)" % (self.p, [list(r) for r in self.entries])

    def apply(self, vec):
        """Matrix times column vector (vec a tuple of length cols)."""
        assert len(vec) == self.cols
        p = self.p
        return tuple(sum(x * y for x, y in zip(r, vec)) % p for r in self.entries)


def rref(m):
    """Gauss-Jordan over F_p. Returns (reduced FpMatrix, rank, pivot_cols)."""
    p = m.p
    rows = [list(r) for r in m.entries]
    nr, nc = m.rows, m.cols
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
    return FpMatrix(p, nr, nc, rows), r, pivots


def row_rank(rows, p):
    """Rank over F_p of the span of rows, an iterable of tuples of
    residues: forward elimination only, building no FpMatrix.  Each kept
    row is scaled to a leading 1 and is zero at the pivots of the rows
    kept before it, so reducing a new row against them in order clears
    every pivot column."""
    kept = []
    for row in rows:
        for c, b in kept:
            f = row[c]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, b)]
        for c, x in enumerate(row):
            if x:
                inv = pow(x, p - 2, p)
                kept.append((c, [(y * inv) % p for y in row]))
                break
    return len(kept)


def rank(m):
    return row_rank(m.entries, m.p)


def solve_nullspace(m):
    """Canonical RREF basis of {x : m x = 0}, one row per basis vector."""
    red, rk, pivots = rref(m)
    nc = m.cols
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * nc
        vec[f] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-red.entries[i][f]) % m.p
        basis.append(tuple(vec))
    # independent by construction; one more reduction makes the basis canonical
    return rref(FpMatrix.from_rows(m.p, basis, nc))[0]


def reduce_against(vec, basis):
    """Reduce vec modulo the row space of an RREF basis; residual is zero
    iff vec lies in the span."""
    p = basis.p
    v = list(vec)
    for row in basis.entries:
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        if v[lead]:
            f = v[lead]  # row has leading 1
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return tuple(v)


def in_rowspace(vec, basis):
    return all(x == 0 for x in reduce_against(vec, basis))


def rowspace_coords(vec, basis):
    """Coordinates of vec in an RREF basis, or None if outside the span."""
    coords = []
    v = list(vec)
    p = basis.p
    for row in basis.entries:
        lead = next(i for i, x in enumerate(row) if x)
        c = v[lead]
        coords.append(c)
        if c:
            v = [(a - c * b) % p for a, b in zip(v, row)]
    if any(v):
        return None
    return tuple(coords)


def enumerate_subspaces(n, k, p, budget=None):
    """All k-dim subspaces of F_p^n as canonical RREF bases, deterministic
    order: pivot-column patterns lexicographically, then free entries."""
    assert 0 <= k <= n
    if budget is None:
        budget = Budget("enumerate_subspaces")
    count = gaussian_binomial(n, k, p)
    budget.check_upfront(count)
    out = []
    for pivots in combinations(range(n), k):
        # free slots: (row i, col c) with c > pivots[i] and c not a pivot col
        pivset = set(pivots)
        slots = [(i, c) for i in range(k) for c in range(pivots[i] + 1, n) if c not in pivset]
        for vals in product(range(p), repeat=len(slots)):
            budget.spend()
            rows = [[0] * n for _ in range(k)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, c), val in zip(slots, vals):
                rows[i][c] = val
            out.append(FpMatrix.from_rows(p, rows, n))
    return out


def gaussian_binomial(n, k, q):
    """Number of k-dim subspaces of F_q^n, by the product formula."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def gl_order(n, q):
    """|GL_n(F_q)| = prod_{i<n} (q^n - q^i)."""
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out
