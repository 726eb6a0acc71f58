"""The three workloads: their inputs, one verdict each, and its oracles.

A verdict is the unit the timed phase repeats: the 15 gate suite runs for
`gate`, one pass over the drawn triples for `rewrite`, the five class
tables for `classes`.  A request is the part of a verdict whose latency is
reported: one suite run, one triple check, one class table.

hallforge is called through module attributes (``presented.pmult``, not a
name imported from it), so a traced run sees the wrapped functions.
"""

import json
import random
import sys
from pathlib import Path

from hallforge import backend, exprs, fq, presented, quiver, suites

from oracles import check_class_table, check_gate_report, check_triple
from tracer import LAYERS

HERE = Path(__file__).resolve().parent


def memo_sizes(be):
    """Entries in the backend's memo tables and registered classes.

    These are private attributes; the package has no stats API yet.
    """
    memos = ("_hom", "_inj", "_hall", "_filt", "_subs", "_key_to_id")
    return (sum(len(getattr(be, name, ())) for name in memos),
            len(getattr(be, "_classes", ())))


class _Workload:
    name = None
    threads = 1
    checks_per_verdict = None
    # a gate or classes verdict takes 13-22 s; one sample per request is
    # too few on a machine whose speed drifts, so they run more than once
    # however short the run's seconds
    min_verdicts = 1

    def warm(self, tally):
        """Untimed work done in setup, after the inputs are made."""

    def trace_patches(self, tracer):
        """Extra wrapping a traced run of this workload needs."""

    def backends(self, tracer):
        """Backends whose memo tables the traced run reads off."""
        return tracer.backends


class Gate(_Workload):
    """The acceptance gate's 15 suite runs other than rewrite-sanity, with
    the instance counts `tests/test_acceptance.py` pins, at threads=2."""

    name = "gate"
    threads = 2
    min_verdicts = 2
    RUNS = (
        ("green", {}, 2401),
        ("bialgebra", {}, 1260),
        ("bialgebra", {"quiver": "a1", "q": 3}, 90),
        ("pairing", {}, 686),
        ("heis-oracle", {}, 147),
        ("kashaev", {}, 412),
        ("kappa", {"m": 0}, 2172),
        ("kappa", {"m": 4}, 1448),
        ("psi", {"m": 0}, 1086),
        ("psi", {"m": 4, "i": 1}, 362),
        ("bridgeland-derived", {}, 5051),
        ("varphi", {}, 1544),
        ("backend-oracle", {"quiver": "a1", "q": 2}, 155),
        ("backend-oracle", {"quiver": "a1", "q": 3}, 155),
        ("gradings", {}, 5983),
    )
    checks_per_verdict = sum(n for _, _, n in RUNS)

    def __init__(self, seed):
        del seed  # the gate's inputs are fixed
        pins = json.loads((HERE / "gate_pins.json").read_text())
        self.runs = []
        for suite, kw, count in self.RUNS:
            label = suite + "".join(" %s=%s" % kv for kv in sorted(kw.items()))
            cfg = suites.RunConfig(suite=suite, threads=self.threads, **kw)
            self.runs.append((label, cfg, count, pins.get(label)))

    def verdict(self, tally, request, latencies, clock):
        for label, cfg, count, digest in self.runs:
            t0 = clock()
            try:
                with request("request.gate"):
                    report = suites.run_suite(cfg)
            except Exception as exc:  # a crash is a failed verdict
                tally.attempted += count
                tally.fail(count, "%s: %r" % (label, exc))
                continue
            latencies.append(clock() - t0)
            check_gate_report(tally, label, report, count, digest)

    def trace_patches(self, tracer):
        # pool threads run each instance through this private helper; a
        # span there charges the instance glue to suites instead of nowhere
        tracer.patch(suites, "_run_one",
                     tracer.wrap(suites._run_one, "suites", "suites._run_one"))


class Rewrite(_Workload):
    """Seeded associativity/idempotence triples on a2 q=2 over seven
    presented algebras, against one backend warmed in setup."""

    name = "rewrite"
    TAGS = ("hd", "hhd", "dhm:0", "dhm:4", "dh", "dhtw", "dhce")
    PER_KIND = 200  # generator triples and random-word triples, per tag
    DIM_CAP = 3
    checks_per_verdict = len(TAGS) * 2 * PER_KIND

    def __init__(self, seed):
        self.be = backend.make_backend(quiver.preset("a2"), 2)
        rng = random.Random(seed)
        self.triples = []
        for tag in self.TAGS:
            alg = presented.algebra(tag, self.be)
            pool = self._pool(alg.family)
            for _ in range(self.PER_KIND):
                self.triples.append(
                    (alg, tuple((rng.choice(pool),) for _ in range(3))))
            for _ in range(self.PER_KIND):
                while True:
                    words = tuple(tuple(rng.choice(pool)
                                        for _ in range(rng.randint(1, 2)))
                                  for _ in range(3))
                    if self._dims_ok(words):
                        break
                self.triples.append((alg, words))

    def _pool(self, family):
        be = self.be
        objs = sorted((c for c in be.classes_within((2, 2))
                       if 0 < sum(be.class_dim(c)) <= 2),
                      key=lambda c: (sum(be.class_dim(c)), be.class_dim(c),
                                     be.class_name(c)))
        alphas = []
        for k in range(be.quiver.n):
            s = be.quiver.simple_class(k)
            alphas += [s, quiver.neg_class(s)]
        P = presented
        if family == "hd":
            return ([P.MuPlus(c) for c in objs] + [P.MuMinus(c) for c in objs]
                    + [P.KPlus(a) for a in alphas]
                    + [P.KMinus(a) for a in alphas])
        if family == "hhd":
            return ([P.NuPlus(c) for c in objs] + [P.NuMinus(c) for c in objs]
                    + [P.KcPlus(a) for a in alphas]
                    + [P.KcMinus(a) for a in alphas])
        if family == "dhm":
            return ([P.E(c, i) for i in (0, 1) for c in objs]
                    + [P.Kc(a, i) for i in (0, 1) for a in alphas])
        zs = [P.Zg(c, i) for i in (0, 1) for c in objs]
        if family == "dhce":
            return zs + [P.Kz(a, i) for i in (-1, 0) for a in alphas]
        return zs

    def _dims_ok(self, words):
        total = [0] * self.be.quiver.n
        for word in words:
            for letter in word:
                if not presented.is_torus(letter):
                    for k, d in enumerate(
                            self.be.class_dim(presented.letter_mid(letter))):
                        total[k] += d
        return max(total) <= self.DIM_CAP

    def _check(self, tally, alg, words, index):
        P = presented
        x, y, z = (P.FreeElt.word(self.be.p, w) for w in words)
        try:
            left = P.pmult(alg, P.pmult(alg, x, y), z)
            right = P.pmult(alg, x, P.pmult(alg, y, z))
            left_nf = P.normal_form(alg, left)
            exprs.render_elt(self.be, left)
            exprs.render_elt(self.be, right)
        except Exception as exc:  # a crash or a cap hit fails the check
            tally.attempted += 1
            tally.fail(1, "%s triple %d: %r" % (alg.tag, index, exc))
            return
        check_triple(tally, "%s triple %d" % (alg.tag, index),
                     left, right, left_nf)

    def warm(self, tally):
        for index, (alg, words) in enumerate(self.triples):
            self._check(tally, alg, words, index)

    def verdict(self, tally, request, latencies, clock):
        for index, (alg, words) in enumerate(self.triples):
            t0 = clock()
            with request("request.rewrite"):
                self._check(tally, alg, words, index)
            latencies.append(clock() - t0)

    def backends(self, tracer):
        return [self.be]


class Classes(_Workload):
    """Cold class tables: iso_classes then aut_count on every class, each
    case on a fresh backend.

    Runs by hand only; BENCHMARK.json does not declare it.  Its median
    request is always the a3 table, a 2 s request timed three times per
    run, and on a machine whose speed drifts by 15-25% over tens of
    seconds that median spread past any bound the benchmark may set.
    """

    name = "classes"
    min_verdicts = 3
    CASES = (
        ("a2", 2, (3, 3), 4),
        ("a2", 2, (4, 2), 3),
        ("a3", 2, (2, 2, 2), 10),
        ("kronecker", 2, (2, 2), 16),
        ("a2", 3, (2, 2), 3),
    )
    checks_per_verdict = sum(n for *_, n in CASES)

    def __init__(self, seed):
        del seed  # the cases are fixed
        self.cases = [(preset, q, dimvec, count, quiver.preset(preset))
                      for preset, q, dimvec, count in self.CASES]

    def verdict(self, tally, request, latencies, clock):
        for preset, q, dimvec, count, quiv in self.cases:
            label = "%s q=%d %s" % (preset, q, dimvec)
            t0 = clock()
            try:
                with request("request.classes"):
                    be = backend.make_backend(quiv, q)
                    auts = [be.aut_count(c) for c in be.iso_classes(dimvec)]
                    # freeing the memo tables is part of this request, not
                    # of the next one, which would rebind `be`
                    del be
            except Exception as exc:  # a crash is a failed verdict
                tally.attempted += count
                tally.fail(count, "%s: %r" % (label, exc))
                continue
            latencies.append(clock() - t0)
            check_class_table(tally, label, dimvec, quiv.arrows, q, auts,
                              count, fq.gl_order)


WORKLOADS = {w.name: w for w in (Gate, Rewrite, Classes)}


def trace_hooks():
    """Counters taken from results at a layer boundary."""
    return {
        "presented.normal_form":
            lambda tr, args, nf: tr.add("presented.nf_terms", len(nf.terms)),
        "exprs.render_elt":
            lambda tr, args, text: tr.add("exprs.render_chars", len(text)),
        "backend.make_backend":
            lambda tr, args, be: tr.backends.append(be),
    }


def install_tracing(tracer, workload):
    tracer.calibrate()
    loaded = [mod for name, mod in sorted(sys.modules.items())
              if name == "hallforge" or name.startswith("hallforge.")]
    tracer.install(loaded,
                   {layer: sys.modules["hallforge." + layer]
                    for layer in LAYERS},
                   trace_hooks())
    # the memo table says whether this call will enumerate
    tracer.time_cold_calls(
        backend.QuiverBackend, "iso_classes", "backend.iso_classes.cold_s",
        lambda be, dimvec: tuple(int(d) for d in dimvec)
        not in getattr(be, "_dimvec_classes", {}))
    workload.trace_patches(tracer)

