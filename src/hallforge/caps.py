"""Enumeration budget shared by every exhaustive loop.

Each top-level operation that enumerates candidates runs under a cap on
its candidate visits, HALLFORGE_MAX_ENUM.  A `verify` run reads it once,
when `run_suite` starts and before it forks, and every operation of the
run, in its shard children too, takes that value.  Outside a run each
top-level operation reads it when it starts.  Most loops count against
the cap through a Budget; the rewrite driver counts in a local and raises
the same CapExceeded."""

import os

DEFAULT_MAX_ENUM = 10_000_000


class CapExceeded(Exception):
    """Raised when an enumeration would visit more candidates than allowed.

    `spent` is the visits counted when the operation was refused: those
    made so far plus, for an up-front refusal, the ones it asked for."""

    def __init__(self, op, limit, spent):
        super().__init__("enumeration cap exceeded in %s (spent %d, limit %d)"
                         % (op, spent, limit))
        self.op = op
        self.limit = limit
        self.spent = spent

    def __reduce__(self):
        return CapExceeded, (self.op, self.limit, self.spent)


def max_enum():
    raw = os.environ.get("HALLFORGE_MAX_ENUM")
    if not raw:
        return DEFAULT_MAX_ENUM
    try:
        val = int(raw)
    except ValueError:
        raise ValueError("HALLFORGE_MAX_ENUM must be an integer, got %r" % raw)
    if val <= 0:
        raise ValueError("HALLFORGE_MAX_ENUM must be positive, got %d" % val)
    return val


# the cap of the run in progress, or None outside a run
_run_limit = None


def current_limit():
    """The cap of an operation starting now: the run's, or outside a run
    HALLFORGE_MAX_ENUM read now."""
    return max_enum() if _run_limit is None else _run_limit


def fix_limit(limit):
    """Make `limit` the cap of every operation from now on (None: each
    reads the environment again); returns the value it replaces."""
    global _run_limit
    previous, _run_limit = _run_limit, limit
    return previous


class Budget:
    """Counts candidate visits for one logical operation."""

    __slots__ = ("op", "limit", "spent")

    def __init__(self, op, limit=None):
        self.op = op
        self.limit = current_limit() if limit is None else limit
        self.spent = 0

    def spend(self, n=1):
        self.spent += n
        if self.spent > self.limit:
            raise CapExceeded(self.op, self.limit, self.spent)

    def check_upfront(self, n):
        """Refuse an enumeration whose size is known to bust the cap."""
        if self.spent + n > self.limit:
            raise CapExceeded(self.op, self.limit, self.spent + n)
