"""An Algebra's pair-rule table read back against its rules.

The table stores three kinds of answer: None for a normal pair, the bare
scalar s of a swap a b = s b a, and a tuple of (scalar, letters) summands
for any other answer.  `pair_entries` expands a stored scalar back to the
rule's one summand, so every entry reads as the rule gave it, and
`check_pair_table` compares each entry with a fresh call of the rule.
"""

from hallforge import presented
from hallforge.scalars import SqrtScalar


def pair_entries(alg):
    """The (a, b, answer, stored) entries of alg's two-level pair table:
    `stored` as the table holds it, `answer` with a swap's scalar s
    expanded to ((s, (b, a)),)."""
    return [(a, b, res if res is None or type(res) is tuple
             else ((res, (b, a)),), res)
            for a, row in alg._pair_rules.items() for b, res in row.items()]


def check_pair_table(alg):
    """Assert that every entry of alg's pair table is its rule's answer
    now, stored as a bare scalar exactly when that answer is one summand
    whose letters are the pair reversed.  Returns the number of scalar
    entries."""
    reduce_pair = presented._REDUCERS[alg.family]
    swaps = 0
    for a, b, answer, stored in pair_entries(alg):
        fresh = reduce_pair(alg, a, b)
        fresh = None if fresh is None else tuple(fresh)
        swap = fresh is not None and len(fresh) == 1 \
            and fresh[0][1] == (b, a)
        assert isinstance(stored, SqrtScalar) == swap, (alg.tag, a, b)
        assert answer == fresh, (alg.tag, a, b, answer, fresh)
        swaps += swap
    return swaps
