"""Correctness oracles of the benchmark.

Each oracle takes plain values, so the self-tests can feed it a wrong
answer without touching hallforge.  Every check an oracle makes counts as
one attempted check; each one that fails counts as one failed check.
"""

import hashlib
import json


class Tally:
    """Attempted and failed checks of one run, with the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.fail(1, message)

    def fail(self, n, message):
        self.failed += n
        if len(self.messages) < 20:
            self.messages.append(message)


def report_digest(report):
    """sha256 of a suite report without its `timestamp`/`elapsed_ms`."""
    body = {k: v for k, v in report.items()
            if k not in ("timestamp", "elapsed_ms")}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def check_gate_report(tally, label, report, want_instances, want_digest):
    """Every instance passes with no cap hit, the instance count is the
    gate's, and the report is byte-identical to the pinned one."""
    tally.attempted += report["instances"]
    bad = report["instances"] - report["passes"]
    if bad or report["failures"] or report["cap_hits"]:
        tally.fail(max(bad, 1), "%s: %d failed, %d cap hits"
                   % (label, bad, report["cap_hits"]))
    tally.check(report["instances"] == want_instances,
                "%s: %d instances, gate pins %d"
                % (label, report["instances"], want_instances))
    digest = report_digest(report)
    tally.check(digest == want_digest,
                "%s: report digest %s, pinned %s" % (label, digest, want_digest))


def check_triple(tally, label, left, right, left_nf):
    """(xy)z == x(yz), and the normal form of the product is itself."""
    assoc = left == right
    idem = left_nf == left
    tally.check(assoc and idem, "%s: %s" % (
        label, "not associative" if not assoc else "normal form not idempotent"))


def orbit_identity(dimvec, arrows, p, auts, gl_order):
    """sum over classes M of |GL_d| / a_M == p^N (orbit counting).

    `auts` are the automorphism counts a_M of the classes found at
    `dimvec`; N is the number of arrow-matrix entries.  False if some a_M
    does not divide |GL_d|, since an orbit size is a whole number.
    """
    gl = 1
    for d in dimvec:
        gl *= gl_order(d, p)
    if any(a <= 0 or gl % a for a in auts):
        return False
    n_entries = sum(dimvec[s] * dimvec[t] for s, t in arrows)
    return sum(gl // a for a in auts) == p ** n_entries


def check_class_table(tally, label, dimvec, arrows, p, auts, want_classes,
                      gl_order):
    """Pinned class count plus the orbit-counting identity."""
    tally.attempted += len(auts)
    tally.check(len(auts) == want_classes, "%s: %d classes, pinned %d"
                % (label, len(auts), want_classes))
    tally.check(orbit_identity(dimvec, arrows, p, auts, gl_order),
                "%s: orbit sizes do not add up to p^N" % label)
