"""Slow enumeration oracles for the backend's counts, at tiny sizes only.

Each one counts by brute force what `QuiverBackend` computes another way:
automorphisms and isomorphisms by running over every intertwiner, and
filtrations by recursing over `subobject_pairs`.
"""

import itertools
import weakref

from hallforge.caps import Budget
from hallforge.fq import row_rank

from matrix_oracles import identity, solve_nullspace


def _rep(be, x):
    return be.class_rep(x) if isinstance(x, int) else x


def hom_basis(be, a, b):
    """Basis of the intertwiner space a -> b as tuples of per-vertex
    matrices."""
    a, b = _rep(be, a), _rep(be, b)
    total, rows = be._hom_system(a, b)
    if total == 0:
        return []
    if rows:
        vecs = list(solve_nullspace(rows, be.p, total))
    else:
        vecs = list(identity(total))
    out = []
    m, n = a.dims, b.dims
    for v in vecs:
        mats = []
        pos = 0
        for i in range(be.quiver.n):
            ent = [v[pos + r * m[i]:pos + (r + 1) * m[i]] for r in range(n[i])]
            pos += n[i] * m[i]
            mats.append(tuple(ent))
        out.append(tuple(mats))
    return out


def _all_homs(be, a, b, budget=None):
    basis = hom_basis(be, a, b)
    if budget is not None:
        budget.check_upfront(be.p ** len(basis))
    for coeffs in itertools.product(range(be.p), repeat=len(basis)):
        mats = []
        for i in range(be.quiver.n):
            acc = [[0] * a.dims[i] for _ in range(b.dims[i])]
            for c, elt in zip(coeffs, basis):
                if c:
                    for r, row in enumerate(elt[i]):
                        for j, x in enumerate(row):
                            acc[r][j] = (acc[r][j] + c * x) % be.p
            mats.append(tuple(tuple(row) for row in acc))
        yield tuple(mats)


def aut_count_enum(be, m):
    """a_M by counting the invertible endomorphisms of M."""
    m = _rep(be, m)
    budget = Budget("aut_count_enum")
    count = 0
    for mats in _all_homs(be, m, m, budget):
        if all(row_rank(mat, be.p) == len(mat) for mat in mats):
            count += 1
    return count


def is_iso_enum(be, a, b):
    """Whether some intertwiner a -> b is invertible at every vertex."""
    a, b = _rep(be, a), _rep(be, b)
    if a.dims != b.dims:
        return False
    budget = Budget("is_iso_enum")
    for mats in _all_homs(be, a, b, budget):
        if all(row_rank(mat, be.p) == len(mat) for mat in mats):
            return True
    return False


# backend -> {(rep, part ids): count}
_FILT = weakref.WeakKeyDictionary()


def filtration_count(be, big, parts):
    """g^M_{N1..Nt}: filtrations of big with successive quotients
    N1, N2, ..., memoized per backend."""
    big = _rep(be, big)
    part_ids = tuple(be.classify(x) for x in parts)
    memo = _FILT.setdefault(be, {})
    memo_key = (big, part_ids)
    got = memo.get(memo_key)
    if got is not None:
        return got
    if not part_ids:
        count = 1 if big.is_zero() else 0
    else:
        head = be.class_rep(part_ids[0])
        count = 0
        for sub, quot in be.subobject_pairs(big):
            if quot.dims == head.dims and be.is_iso(quot, head):
                count += filtration_count(be, sub, part_ids[1:])
    memo[memo_key] = count
    return count
