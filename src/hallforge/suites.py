"""Verification suites: ordered check fans folded into one JSON report.

Every suite's builder is a generator that expands a RunConfig into its
instances, in an order fixed by construction: plain `(relation, params,
check)` triples, where `params` is the JSON-ready dict the report shows
and `check()` returns `(ok, lhs, rhs)` with the compared values
unrendered (an element, a scalar, an int, or None for checks without
sides); a failing check may add a fourth value, a note saying why.
The builders that check defining relations (kashaev, kappa, psi,
bridgeland-derived, varphi, gradings) take their relation instances from
`presented.relation_window`, which reads them off the one relation table;
the five that check a map (all but gradings) get them from `_map_checks`,
which checks each instance as `partial(check_relation, hom, rel, prm)`.
`run_suite` fills in what a RunConfig leaves None: quiver a1 and max_dim
4 for `backend-oracle`, which compares a backend on a1 with the a1
closed forms and refuses any other quiver, and quiver a2 and max_dim 2
for every other suite.  A window is at least 0 wide: `run_suite` refuses
a negative max_dim or idx_window, which would pass with no instance.
`_run_one` runs one instance: it is the one place that catches a cap
hit and renders the sides, only for a failure.
`RunConfig.threads` (the CLI's `--threads`) is the shard count, capped at
the usable CPUs.  `run_suite` forks one child process per shard past the
first and runs shard 0 itself; every process pulls the whole instance
stream one instance at a time, runs those whose stream index is its shard
mod the shard count, and holds no list of instances.  The children send
their counts and failures back through pipes, and the failures are merged
in stream order.  Each process works on its own copy of the run's
backend, which a child inherits at the fork, so no backend is shared.
A run frees its backend when it returns or raises: every `Algebra`
holds its backend and the backend's `algebras` table holds the Algebras,
and `run_suite` clears that table in its `finally`, which breaks the
cycle, so reference counting frees the backend, its algebras and their
tables at once, not at a later full collection.  A run forks nothing
where the platform has no fork or the calling process runs another
thread.  It reads HALLFORGE_MAX_ENUM once, before it forks, and every
operation of the run, in every shard, is capped by that value (see
`caps`).  Two runs of one configuration produce the same report up to
the timestamp and elapsed_ms fields, whatever `threads` says.
"""

import dataclasses
import itertools
import os
import random
import threading
import time
from datetime import datetime, timezone
from functools import partial

from .backend import A1ClosedFormBackend, make_backend
from . import caps
from .caps import CapExceeded
from .exprs import render_any
from .hall import (basis, bialgebra_check, coassoc_check,
                   green_formula_check, pairing_coproduct_check,
                   pairing_product_check)
from .morphisms import (apply_hom, build_hom, check_relation,
                        double_monomials, rank_independence, tensor_apply)
from .presented import (INDEXED, TWO_SIDED, E, FreeElt, Kc, Kz, Zg,
                        algebra, d_quasi, grading_check, hd_cross_oracle,
                        is_torus, letter_mid, normal_form, pmult,
                        relation_instance, relation_window)
from .quiver import add_class, neg_class, quiver_from_arg

DEFAULT_SEED = 1729

SUITES = ("green", "bialgebra", "pairing", "heis-oracle", "kashaev",
          "kappa", "psi", "bridgeland-derived", "varphi", "gradings",
          "rewrite-sanity", "backend-oracle")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    suite: str
    quiver: str = None  # a1 for backend-oracle, a2 for every other suite
    q: int = 2
    m: int = 0
    i: int = None
    max_dim: int = None
    idx_window: int = 3
    threads: int = 1  # shard count, capped at the usable CPUs; >= 1
    seed: int = DEFAULT_SEED


# ---------------------------------------------------------------------------
# shared windows

def _objs(be, max_dim):
    bound = tuple(max_dim for _ in range(be.quiver.n))
    ids = [c for c in be.classes_within(bound)
           if sum(be.class_dim(c)) <= max_dim]
    return sorted(ids, key=lambda c: (sum(be.class_dim(c)),
                                      be.class_dim(c), be.class_name(c)))


def _alphas(be):
    out = [be.quiver.zero_class()]
    for k in range(be.quiver.n):
        s = be.quiver.simple_class(k)
        out.append(s)
        out.append(neg_class(s))
    return out


def _named(be, prm):
    out = {}
    for k, val in prm.items():
        if k in ("M", "N") and isinstance(val, int):
            out[k] = be.class_name(val)
        elif isinstance(val, tuple):
            out[k] = list(val)
        else:
            out[k] = val
    return out


def _map_checks(be, cfg, hom, label=None, w=0):
    """The checks that hom is a homomorphism: every defining relation of
    its source over cfg's window (objects to max_dim, every alpha, letter
    indices in -w..w) as partial(check_relation, hom, rel, prm), its
    params naming the map as label when one is given."""
    extra = {} if label is None else {"map": label}
    for rel, prm in relation_window(hom.source, _objs(be, cfg.max_dim),
                                    _alphas(be), w):
        yield (rel, _named(be, dict(prm, **extra)),
               partial(check_relation, hom, rel, prm))


# ---------------------------------------------------------------------------
# suite builders

def _build_green(be, cfg):
    objs = _objs(be, cfg.max_dim)
    for m, n, mp, np_ in itertools.product(objs, repeat=4):
        named = _named(be, {"M": m, "N": n})
        named["M'"] = be.class_name(mp)
        named["N'"] = be.class_name(np_)

        def fn(m=m, n=n, mp=mp, np_=np_):
            lhs, rhs, ok = green_formula_check(be, m, n, mp, np_)
            return ok, lhs, rhs

        yield "green", named, fn


def _build_bialgebra(be, cfg):
    objs = _objs(be, cfg.max_dim)
    alphas = _alphas(be)
    symbols = [(m, a) for m in objs for a in alphas]
    for m, a in symbols:
        named = {"M": be.class_name(m), "alpha": list(a)}

        def fn(m=m, a=a):
            return coassoc_check(basis(be, m, a)), None, None

        yield "coassoc", named, fn
    for (m, a), (n, b) in itertools.product(symbols, repeat=2):
        named = {"M": be.class_name(m), "alpha": list(a),
                 "N": be.class_name(n), "beta": list(b)}

        def fn(m=m, a=a, n=n, b=b):
            return (bialgebra_check(basis(be, m, a), basis(be, n, b)),
                    None, None)

        yield "comult-mult", named, fn


def _build_pairing(be, cfg):
    objs = _objs(be, cfg.max_dim)
    for rel, check in (("pair-product", pairing_product_check),
                       ("pair-coproduct", pairing_coproduct_check)):
        for x, y, z in itertools.product(objs, repeat=3):
            named = {"X": be.class_name(x), "Y": be.class_name(y),
                     "Z": be.class_name(z)}

            def fn(x=x, y=y, z=z, check=check):
                return (check(basis(be, x), basis(be, y), basis(be, z)),
                        None, None)

            yield rel, named, fn


def _build_heis_oracle(be, cfg):
    objs = _objs(be, cfg.max_dim)
    for side, rel in (("hd", "2.7"), ("hhd", "2.12")):
        alg = algebra(side, be)
        for m, n in itertools.product(objs, repeat=2):
            named = _named(be, {"M": m, "N": n, "side": side})

            def fn(alg=alg, rel=rel, m=m, n=n):
                got = normal_form(alg, relation_instance(
                    alg, rel, {"M": m, "N": n})[1])
                want = hd_cross_oracle(be, alg.tag, m, n)
                return got == want, got, want

            yield rel + "-oracle", named, fn
    dd = algebra("d", be)
    for m, n in itertools.product(objs, repeat=2):
        named = _named(be, {"M": m, "N": n})

        def fn(m=m, n=n):
            l13, r13 = relation_instance(dd, "2.13", {"M": m, "N": n})
            l18, r18 = relation_instance(dd, "2.18", {"M": m, "N": n})
            lhs, rhs = d_quasi(be, l13), d_quasi(be, r18)
            if lhs != rhs:
                return False, lhs, rhs
            lhs, rhs = d_quasi(be, r13), d_quasi(be, l18)
            return lhs == rhs, lhs, rhs

        yield "2.13~2.18", named, fn


def _build_kashaev(be, cfg):
    hom = build_hom(be, "I")
    yield from _map_checks(be, cfg, hom)
    objs = _objs(be, cfg.max_dim)
    dd = hom.source
    for m, n in itertools.product(objs, repeat=2):
        named = _named(be, {"M": m, "N": n})

        def fn(m=m, n=n):
            lhs, rhs = relation_instance(dd, "2.18", {"M": m, "N": n})
            le, re_ = relation_instance(dd, "2.18r", {"M": m, "N": n})
            scale = be.aut_count(m) * be.aut_count(n)
            want = lhs.scale(scale)
            if le != want:
                return False, le, want
            want = rhs.scale(scale)
            return re_ == want, re_, want

        yield "2.18~2.18r", named, fn

    monos = double_monomials(be, _alphas(be), objs, 20)

    def rank_fn():
        rank = rank_independence([apply_hom(hom, x) for x in monos])
        return rank == len(monos), rank, len(monos)

    yield "rank", {"count": len(monos)}, rank_fn


def _index_window(cfg):
    if cfg.i is not None:
        return [cfg.i]
    if cfg.m == 0:
        return [-1, 0, 1]
    return [1, cfg.m - 1]


def _build_kappa(be, cfg):
    for i in _index_window(cfg):
        for name in ("kappa", "kappaCheck"):
            yield from _map_checks(be, cfg, build_hom(be, name, i=i, m=cfg.m),
                                   "%s(%d,%d)" % (name, cfg.m, i))


def _build_psi(be, cfg):
    for i in _index_window(cfg):
        yield from _map_checks(be, cfg, build_hom(be, "psi", i=i, m=cfg.m),
                               "psi(%d,%d)" % (cfg.m, i))


def _build_bridgeland(be, cfg):
    w = cfg.idx_window
    hom = build_hom(be, "phi")
    inv = build_hom(be, "phiInv")
    yield from _map_checks(be, cfg, hom, w=w)
    objs_nz = [c for c in _objs(be, cfg.max_dim) if sum(be.class_dim(c)) > 0]
    alphas = _alphas(be)

    def roundtrip(first, second, letter):
        def fn():
            x = FreeElt.word(be.p, (letter,))
            got = apply_hom(second, apply_hom(first, x))
            want = normal_form(first.source, x)
            return got == want, got, want
        return fn

    for n in range(-w, w + 1):
        for m in objs_nz:
            yield ("roundtrip", _named(be, {"M": m, "i": n, "gen": "Z"}),
                   roundtrip(hom, inv, Zg(m, n)))
            yield ("roundtrip", _named(be, {"M": m, "i": n, "gen": "e"}),
                   roundtrip(inv, hom, E(m, n)))
        for a in alphas:
            yield ("roundtrip", _named(be, {"alpha": a, "i": n, "gen": "KZ"}),
                   roundtrip(hom, inv, Kz(a, n)))
            yield ("roundtrip", _named(be, {"alpha": a, "i": n, "gen": "k"}),
                   roundtrip(inv, hom, Kc(a, n)))


def _build_varphi(be, cfg):
    objs = _objs(be, cfg.max_dim)
    alphas = _alphas(be)
    idxs = [cfg.i] if cfg.i is not None else [-2, -1, 0, 1]
    inv = build_hom(be, "phiInv")
    gens = [("om", s, m) for s in (1, -1) for m in objs] + \
           [("KD", s, a) for s in (1, -1) for a in alphas]
    for i in idxs:
        hom = build_hom(be, "varphi", i=i)
        yield from _map_checks(be, cfg, hom, "varphi(%d)" % i)
        psi = build_hom(be, "psi", i=i, m=0)
        for letter in gens:
            named = _named(be, {"i": i, "gen": letter[0] +
                                ("+" if letter[1] > 0 else "-")})
            if isinstance(letter[2], int):
                named["M"] = be.class_name(letter[2])
            else:
                named["alpha"] = list(letter[2])

            def fn(hom=hom, psi=psi, letter=letter):
                x = FreeElt.word(be.p, (letter,))
                got = apply_hom(hom, x)
                want = tensor_apply(inv, inv, apply_hom(psi, x))
                return got == want, got, want

            yield "triangle", named, fn


def _build_gradings(be, cfg):
    objs = _objs(be, cfg.max_dim)
    alphas = _alphas(be)
    for fam in (*TWO_SIDED, "dhce"):
        alg = algebra(fam, be)
        for rel, prm in relation_window(alg, objs, alphas, cfg.idx_window):
            named = _named(be, dict(prm, algebra=fam))

            def fn(alg=alg, rel=rel, prm=prm):
                lhs, rhs = relation_instance(alg, rel, prm)
                try:
                    return grading_check(alg, lhs, rhs), lhs, rhs
                except ValueError as exc:  # an inhomogeneous side
                    return False, lhs, rhs, str(exc)

            yield rel, named, fn


def _module_pool(objs_nz, fam):
    if fam in TWO_SIDED:
        kind = TWO_SIDED[fam].module
        return [(kind, s, c) for s in (1, -1) for c in objs_nz]
    # dhm, dh, dhtw and dhce generate from letters at indices 0 and 1
    return [(INDEXED[fam].module, c, i) for i in (0, 1) for c in objs_nz]


def _torus_pool(alphas_nz, fam):
    if fam in TWO_SIDED:
        kind = TWO_SIDED[fam].torus
        return [(kind, s, a) for s in (1, -1) for a in alphas_nz]
    idxs = {"dhm": (0, 1), "dhce": (-1, 0)}.get(fam, ())
    return [(INDEXED[fam].torus, a, i) for i in idxs for a in alphas_nz]


def _dim_ok(be, letters, bound):
    total = be.quiver.zero_class()
    for letter in letters:
        if not is_torus(letter):
            total = add_class(total, be.class_dim(letter_mid(letter)))
    return all(t <= bound for t in total)


def _build_rewrite_sanity(be, cfg):
    objs_nz = [c for c in _objs(be, cfg.max_dim)
               if sum(be.class_dim(c)) > 0]
    alphas_nz = [a for a in _alphas(be) if any(a)]
    tags = ("hd", "hhd", "dhm:0", "dhm:4", "dh", "dhtw", "dhce")
    rng = random.Random(cfg.seed)

    def triple_fn(alg, x, y, z):
        def fn():
            left = pmult(alg, pmult(alg, x, y), z)
            right = pmult(alg, x, pmult(alg, y, z))
            if left != right:
                return False, left, right
            again = normal_form(alg, left)
            return again == left, left, again
        return fn

    for tag in tags:
        alg = algebra(tag, be)
        fam = alg.family
        pool = _module_pool(objs_nz, fam) + _torus_pool(alphas_nz, fam)
        if not pool:  # no letters at max_dim 0 on dh and dhtw: no triples
            continue
        # one-letter words are never mutated, so the triples share them
        singles = [FreeElt.word(be.p, (a,)) for a in pool]
        for idx, (x, y, z) in enumerate(
                itertools.product(singles, repeat=3)):
            yield ("assoc-gen", {"algebra": tag, "triple": idx},
                   triple_fn(alg, x, y, z))
        # random words: lengths <= 2, total dims capped so merged classes
        # stay inside the window the backend enumerates quickly
        for k in range(1000):
            while True:
                words = [tuple(rng.choice(pool)
                               for _ in range(rng.randint(1, 2)))
                         for _ in range(3)]
                if _dim_ok(be, [l for w_ in words for l in w_], 3):
                    break
            x, y, z = (FreeElt.word(be.p, w_) for w_ in words)
            yield ("assoc-rand", {"algebra": tag, "triple": 1000 + k},
                   triple_fn(alg, x, y, z))


def _build_backend_oracle(be, cfg):
    """The run's backend, on a1, against the closed forms."""
    closed = A1ClosedFormBackend(cfg.q)
    dmax = cfg.max_dim
    cids = {d: be.iso_classes((d,))[0] for d in range(dmax + 1)}
    for d in range(dmax + 1):
        def fn(d=d):
            got, want = be.aut_count(cids[d]), closed.aut_count(d)
            ok = len(be.iso_classes((d,))) == 1 and got == want
            return ok, got, want

        yield "aut", {"dim": d}, fn
    for a, b in itertools.product(range(dmax + 1), repeat=2):
        def fn(a=a, b=b):
            ok = be.hom_dim(cids[a], cids[b]) == closed.hom_dim(a, b) \
                and be.euler_form((a,), (b,)) == closed.euler_form(
                    (a,), (b,))
            return ok, None, None

        yield "hom-euler", {"A": a, "B": b}, fn
    for l, m, n in itertools.product(range(dmax + 1), repeat=3):
        def fn(l=l, m=m, n=n):
            got = be.hall_number(cids[l], cids[m], cids[n])
            want = closed.hall_number(l, m, n)
            return got == want, got, want

        yield "hall", {"L": l, "M": m, "N": n}, fn


_BUILDERS = {
    "green": _build_green,
    "bialgebra": _build_bialgebra,
    "pairing": _build_pairing,
    "heis-oracle": _build_heis_oracle,
    "kashaev": _build_kashaev,
    "kappa": _build_kappa,
    "psi": _build_psi,
    "bridgeland-derived": _build_bridgeland,
    "varphi": _build_varphi,
    "gradings": _build_gradings,
    "rewrite-sanity": _build_rewrite_sanity,
    "backend-oracle": _build_backend_oracle,
}


# ---------------------------------------------------------------------------
# runner

class _CapHit(dict):
    """The failure entry of a cap hit, the only kind counted in cap_hits."""

    __slots__ = ()


def _run_one(be, inst):
    """Run one (relation, params, check) instance: None when it passes,
    else its failure entry, whose sides are rendered here.  Its note is
    the cap message of a cap hit, the note a failing check returned, or
    ""."""
    rel, params, check = inst
    try:
        ok, lhs, rhs, *note = check()
    except CapExceeded as exc:
        return _CapHit(relation=rel, params=params, lhs="", rhs="",
                       note=str(exc))
    if ok:
        return None
    return {"relation": rel, "params": params, "lhs": render_any(be, lhs),
            "rhs": render_any(be, rhs), "note": note[0] if note else ""}


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shard_count(threads):
    """The number of processes a run with `threads` uses: `threads` capped
    at the usable CPUs, or one where the platform cannot fork or another
    thread runs (a forked child could inherit a lock that thread holds)."""
    if threads < 1:
        raise ValueError("threads must be at least 1, not %r" % (threads,))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(threads, _usable_cpus())


def _run_shard(be, insts, k, n):
    """Run the instances whose stream index is k mod n: the length of the
    stream and the (index, failure entry) pair of each that fails."""
    failures = []
    index = -1
    for index, inst in enumerate(insts):
        if index % n == k:
            failed = _run_one(be, inst)
            if failed is not None:
                failures.append((index, failed))
    return index + 1, failures


def _fork_shard(be, insts, k, n):
    """Fork a child that runs shard k and pickles its result, or the
    exception it raised, into a pipe: (pid, the pipe's read end)."""
    import pickle  # here, so a run that forks nothing never imports it

    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        # os._exit: the child runs no atexit hook, flushes no stdio buffer
        # it inherited and never returns into the parent's caller
        try:
            os.close(rfd)
            try:
                out = _run_shard(be, insts, k, n)
            except BaseException as exc:
                out = exc
            try:
                data = pickle.dumps(out)
                if isinstance(out, BaseException):
                    pickle.loads(data)  # the parent must be able to rebuild it
            except Exception:
                data = pickle.dumps(RuntimeError("shard %d raised %r"
                                                 % (k, out)))
            with open(wfd, "wb") as fh:
                fh.write(data)
        finally:
            os._exit(0)
    os.close(wfd)
    return pid, open(rfd, "rb")


def _child_result(k, pipe):
    import pickle

    data = pipe.read()
    if not data:
        raise RuntimeError("shard %d ended without a result" % k)
    out = pickle.loads(data)
    if isinstance(out, BaseException):
        raise out
    return out


def _run_shards(be, insts, n):
    """Run the stream `insts` as n shards, shards 1..n-1 in forked
    children, and return its length and its failures in stream order.
    Every child is reaped before this returns or raises."""
    children = []
    try:
        for k in range(1, n):
            children.append(_fork_shard(be, insts, k, n))
        results = [_run_shard(be, insts, 0, n)]
        results += [_child_result(k, pipe)
                    for k, (_, pipe) in enumerate(children, 1)]
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    counts = {count for count, _ in results}
    if len(counts) != 1:
        raise RuntimeError("shards saw streams of lengths %s" % sorted(counts))
    failures = sorted((f for _, fs in results for f in fs),
                      key=lambda f: f[0])
    return counts.pop(), [entry for _, entry in failures]


def run_suite(cfg):
    if cfg.suite not in SUITES:
        raise ValueError("unknown suite %r (choose from %s)"
                         % (cfg.suite, ", ".join(SUITES)))
    oracle = cfg.suite == "backend-oracle"
    if cfg.quiver is None:
        cfg = dataclasses.replace(cfg, quiver="a1" if oracle else "a2")
    if cfg.max_dim is None:
        cfg = dataclasses.replace(cfg, max_dim=4 if oracle else 2)
    if oracle and cfg.quiver != "a1":
        raise ValueError("backend-oracle compares the a1 closed forms and "
                         "runs on quiver a1 only, not %r" % (cfg.quiver,))
    if cfg.max_dim < 0 or cfg.idx_window < 0:
        raise ValueError("max_dim and idx_window must be at least 0, not "
                         "%r and %r" % (cfg.max_dim, cfg.idx_window))
    n = _shard_count(cfg.threads)
    t0 = time.monotonic()
    # one read of the cap for the whole run, before any child is forked
    outer = caps.fix_limit(caps.max_enum())
    be = None
    try:
        be = make_backend(quiver_from_arg(cfg.quiver), cfg.q)
        count, failures = _run_shards(be, _BUILDERS[cfg.suite](be, cfg), n)
    finally:
        caps.fix_limit(outer)
        if be is not None:
            # each Algebra holds `be`: breaking the cycle here lets
            # reference counting free the run's tables as it returns
            be.algebras.clear()
    params = {"max_dim": cfg.max_dim, "m": cfg.m, "i": cfg.i,
              "idx_window": cfg.idx_window, "seed": cfg.seed}
    return {
        "suite": cfg.suite,
        "quiver": cfg.quiver,
        "q": cfg.q,
        "params": params,
        "instances": count,
        "passes": count - len(failures),
        "failures": failures,
        "cap_hits": sum(isinstance(f, _CapHit) for f in failures),
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def exit_code(report):
    if report["cap_hits"]:
        return 3
    return 0 if not report["failures"] else 1
