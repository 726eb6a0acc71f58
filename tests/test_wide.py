"""Wide windows as pinned verdicts: exact counts, zero failures, zero cap
hits and a wall-clock bound, in the shape of `test_acceptance`'s criteria,
numbered on from its eleven.  Each bound is set once, with margin, from
runs at threads=1, so it holds on a one-CPU machine too."""

from hallforge.suites import RunConfig, run_suite

from test_acceptance import THREADS, _criterion


def test_criterion_12_complexes_iso_idx_window_6():
    rep = run_suite(RunConfig(suite="bridgeland-derived", idx_window=6,
                              threads=THREADS))
    _criterion(12, "phi relations and round trips, idx_window 6", 30,
               [rep], [17819])
