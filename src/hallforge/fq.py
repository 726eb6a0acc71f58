"""Dense exact linear algebra over F_p and canonical subspace enumeration.

A matrix is a tuple of row tuples of residues reduced mod p (row-major,
acting on column vectors), so it hashes and compares structurally; a
subspace is the matrix of its canonical RREF basis, one row per basis
vector.  The functions here take p as an argument and trust their input:
p prime, every row of one length and every entry in range(p).  Input from
outside the package is reduced and checked where it enters, by
`QuiverBackend.rep`.  Everything here is pure."""

from itertools import combinations, product

from .caps import Budget


def apply(m, vec, p):
    """m times the column vector vec (a tuple with one entry per column)."""
    return tuple(sum(x * y for x, y in zip(r, vec)) % p for r in m)


def row_rank(rows, p):
    """Rank over F_p of the span of rows, an iterable of tuples of
    residues: forward elimination only.  Each kept row is scaled to a
    leading 1 and is zero at the pivots of the rows kept before it, so
    reducing a new row against them in order clears every pivot column."""
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


def reduce_against(vec, basis, p):
    """Reduce vec modulo the row space of an RREF basis; residual is zero
    iff vec lies in the span."""
    v = list(vec)
    for row in basis:
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        if v[lead]:
            f = v[lead]  # row has leading 1
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return tuple(v)


def in_rowspace(vec, basis, p):
    return all(x == 0 for x in reduce_against(vec, basis, p))


def rowspace_coords(vec, basis, p):
    """Coordinates of vec in an RREF basis, or None if outside the span."""
    coords = []
    v = list(vec)
    for row in basis:
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
    order: pivot-column patterns lexicographically, then free entries.
    Raises ValueError unless 0 <= k <= n."""
    if not 0 <= k <= n:
        raise ValueError("no %d-dimensional subspaces of F_p^%d" % (k, n))
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
            out.append(tuple(tuple(row) for row in rows))
    return out


def gaussian_binomial(n, k, q):
    """Number of k-dim subspaces of F_q^n, by the product formula."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise AssertionError("Gaussian binomial not integral")  # unreachable
    return num // den


def gl_order(n, q):
    """|GL_n(F_q)| = prod_{i<n} (q^n - q^i)."""
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out
