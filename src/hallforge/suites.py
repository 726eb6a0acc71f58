"""Verification suites: ordered check fans folded into one JSON report.

Every suite expands a RunConfig into a list of instances whose order is
fixed by construction, runs them in that order on the calling thread, and
aggregates pass/fail counts.  `RunConfig.threads` (the CLI's `--threads`)
is accepted but ignored: the checks are pure Python under one interpreter
lock, and a thread pool over them measured slower than one thread.  Two
runs of one configuration produce the same report up to the timestamp and
elapsed_ms fields, whatever `threads` says.
"""

import itertools
import random
import time
from dataclasses import dataclass
from datetime import datetime, timezone

from .backend import A1ClosedFormBackend, make_backend
from .caps import CapExceeded
from .exprs import render_elt
from .hall import (basis, bialgebra_check, coassoc_check,
                   green_formula_check, pairing_coproduct_check,
                   pairing_product_check)
from .morphisms import (CheckReport, apply_hom, build_hom, check_relation,
                        double_monomials, rank_independence, tensor_apply)
from .presented import (E, FreeElt, Kc, KPlus, KMinus, KcPlus, KcMinus,
                        Kz, MuPlus, MuMinus, NuPlus, NuMinus, Zg, algebra,
                        d_quasi, grading_check, hd_cross, hd_cross_oracle,
                        normal_form, pmult, relation_instance)
from .quiver import neg_class, quiver_from_arg
from .scalars import render_scalar

DEFAULT_SEED = 1729

SUITES = ("green", "bialgebra", "pairing", "heis-oracle", "kashaev",
          "kappa", "psi", "bridgeland-derived", "varphi", "gradings",
          "rewrite-sanity", "backend-oracle")


@dataclass(frozen=True)
class RunConfig:
    suite: str
    quiver: str = "a2"
    q: int = 2
    m: int = 0
    i: int = None
    max_dim: int = None
    idx_window: int = 3
    alphas: tuple = None
    threads: int = 1  # accepted for compatibility; instances run sequentially
    seed: int = DEFAULT_SEED
    out: str = None


class _Inst:
    __slots__ = ("rel", "params", "fn")

    def __init__(self, rel, params, fn):
        self.rel = rel
        self.params = params
        self.fn = fn


# ---------------------------------------------------------------------------
# shared windows

def _objs(be, max_dim):
    bound = tuple(max_dim for _ in range(be.quiver.n))
    ids = [c for c in be.classes_within(bound)
           if sum(be.class_dim(c)) <= max_dim]
    return sorted(ids, key=lambda c: (sum(be.class_dim(c)),
                                      be.class_dim(c), be.class_name(c)))


def _alphas(be, cfg):
    if cfg.alphas is not None:
        return [tuple(a) for a in cfg.alphas]
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


def _plain(map_name, rel, named, ok, sides=None, note=""):
    """`sides` returns the rendered (lhs, rhs); it is called only when the
    check fails, so passing instances render nothing."""
    rep = CheckReport(map_name, rel, named, ok, note=note)
    if not ok and sides is not None:
        rep.lhs, rep.rhs = sides()
    return rep


# relation/variant tables per two-sided source presentation
_FAMILY_RELS = {
    "hd": ("2.3", "2.4", "2.5", "2.6", "2.7", ("K-mu+", "K+mu-")),
    "hhd": ("2.8", "2.9", "2.10", "2.11", "2.12", ("Kc+nu-", "Kc-nu+")),
    "d": ("2.14", "2.15", "2.16", "2.17", "2.18", ("K-om+", "K+om-")),
}


def _family_relation_params(objs, alphas, family):
    merge, kmod, ktor, kcross, cross, variants = _FAMILY_RELS[family]
    out = []
    for sign in (1, -1):
        for m, n in itertools.product(objs, repeat=2):
            out.append((merge, {"sign": sign, "M": m, "N": n}))
    for sign in (1, -1):
        for a in alphas:
            for m in objs:
                out.append((kmod, {"sign": sign, "alpha": a, "M": m}))
    for sign in (1, -1):
        for a, b in itertools.product(alphas, repeat=2):
            out.append((ktor, {"variant": "merge", "sign": sign,
                               "alpha": a, "beta": b}))
    for a, b in itertools.product(alphas, repeat=2):
        out.append((ktor, {"variant": "cross", "alpha": a, "beta": b}))
    for var in variants:
        for a in alphas:
            for m in objs:
                out.append((kcross, {"variant": var, "alpha": a, "M": m}))
    for m, n in itertools.product(objs, repeat=2):
        out.append((cross, {"M": m, "N": n}))
    return out


def _dhce_relation_params(objs, alphas, w):
    # index pairs outside a relation's stated domain are not instances of
    # it (adjacent K pairs belong to 4.11, same-level to 4.10), so the
    # windows below enumerate only the legal combinations
    idxs = list(range(-w, w + 1))
    out = []
    for i in idxs:
        for a, b in itertools.product(alphas, repeat=2):
            out.append(("4.10", {"variant": "KK", "alpha": a,
                                 "beta": b, "i": i}))
        for a in alphas:
            for m in objs:
                out.append(("4.10", {"variant": "KZ", "alpha": a,
                                     "M": m, "i": i}))
    for i, j in itertools.product(idxs, repeat=2):
        if i == j + 1 or abs(i - j) > 1:
            for a, b in itertools.product(alphas, repeat=2):
                out.append(("4.11", {"alpha": a, "beta": b, "i": i, "j": j}))
    for i in range(-w, w):
        for a in alphas:
            for m in objs:
                out.append(("4.12", {"alpha": a, "M": m, "i": i}))
    for i in range(-w + 1, w + 1):
        for a in alphas:
            for m in objs:
                out.append(("4.13", {"alpha": a, "M": m, "i": i}))
    for i, j in itertools.product(idxs, repeat=2):
        if abs(i - j) > 1:
            for a in alphas:
                for m in objs:
                    out.append(("4.14", {"alpha": a, "M": m,
                                         "i": i, "j": j}))
    for i in idxs:
        for m, n in itertools.product(objs, repeat=2):
            out.append(("4.15", {"M": m, "N": n, "i": i}))
    for i in range(-w, w):
        for m, n in itertools.product(objs, repeat=2):
            out.append(("4.16", {"M": m, "N": n, "i": i}))
    for i, j in itertools.product(idxs, repeat=2):
        if abs(i - j) > 1:
            for m, n in itertools.product(objs, repeat=2):
                out.append(("4.17", {"M": m, "N": n, "i": i, "j": j}))
    return out


def _morph_insts(be, h, pairs, extra=None):
    insts = []
    for rel, prm in pairs:
        named = _named(be, dict(prm, **(extra or {})))

        def fn(h=h, rel=rel, prm=prm, named=named):
            rep = check_relation(h, rel, prm)
            rep.params = named
            return rep

        insts.append(_Inst(rel, named, fn))
    return insts


# ---------------------------------------------------------------------------
# suite builders

def _build_green(be, cfg):
    objs = _objs(be, cfg.max_dim)
    insts = []
    for m, n, mp, np_ in itertools.product(objs, repeat=4):
        named = _named(be, {"M": m, "N": n})
        named["M'"] = be.class_name(mp)
        named["N'"] = be.class_name(np_)

        def fn(m=m, n=n, mp=mp, np_=np_, named=named):
            lhs, rhs, ok = green_formula_check(be, m, n, mp, np_)
            return _plain("green", "green", named, ok,
                          lambda: (render_scalar(lhs), render_scalar(rhs)))

        insts.append(_Inst("green", named, fn))
    return insts


def _build_bialgebra(be, cfg):
    objs = _objs(be, cfg.max_dim)
    alphas = _alphas(be, cfg)
    symbols = [(m, a) for m in objs for a in alphas]
    insts = []
    for m, a in symbols:
        named = {"M": be.class_name(m), "alpha": list(a)}

        def fn(m=m, a=a, named=named):
            ok = coassoc_check(basis(be, m, a))
            return _plain("bialgebra", "coassoc", named, ok)

        insts.append(_Inst("coassoc", named, fn))
    for (m, a), (n, b) in itertools.product(symbols, repeat=2):
        named = {"M": be.class_name(m), "alpha": list(a),
                 "N": be.class_name(n), "beta": list(b)}

        def fn(m=m, a=a, n=n, b=b, named=named):
            ok = bialgebra_check(basis(be, m, a), basis(be, n, b))
            return _plain("bialgebra", "comult-mult", named, ok)

        insts.append(_Inst("comult-mult", named, fn))
    return insts


def _build_pairing(be, cfg):
    objs = _objs(be, cfg.max_dim)
    insts = []
    for rel, check in (("pair-product", pairing_product_check),
                       ("pair-coproduct", pairing_coproduct_check)):
        for x, y, z in itertools.product(objs, repeat=3):
            named = {"X": be.class_name(x), "Y": be.class_name(y),
                     "Z": be.class_name(z)}

            def fn(x=x, y=y, z=z, rel=rel, check=check, named=named):
                ok = check(basis(be, x), basis(be, y), basis(be, z))
                return _plain("pairing", rel, named, ok)

            insts.append(_Inst(rel, named, fn))
    return insts


def _build_heis_oracle(be, cfg):
    objs = _objs(be, cfg.max_dim)
    insts = []
    for side, rel in (("hd", "2.7-oracle"), ("hhd", "2.12-oracle")):
        for m, n in itertools.product(objs, repeat=2):
            named = _named(be, {"M": m, "N": n, "side": side})

            def fn(side=side, m=m, n=n, rel=rel, named=named):
                got = hd_cross(be, side, m, n)
                want = hd_cross_oracle(be, side, m, n)
                return _plain("heis-oracle", rel, named, got == want,
                              lambda: (render_elt(be, got),
                                       render_elt(be, want)))

            insts.append(_Inst(rel, named, fn))
    dd = algebra("d", be)
    for m, n in itertools.product(objs, repeat=2):
        named = _named(be, {"M": m, "N": n})

        def fn(m=m, n=n, named=named):
            l13, r13 = relation_instance(dd, "2.13", {"M": m, "N": n})
            l18, r18 = relation_instance(dd, "2.18", {"M": m, "N": n})
            ok = (d_quasi(be, l13) == d_quasi(be, r18)
                  and d_quasi(be, r13) == d_quasi(be, l18))
            return _plain("heis-oracle", "2.13~2.18", named, ok,
                          lambda: (render_elt(be, d_quasi(be, l13)),
                                   render_elt(be, d_quasi(be, r18))))

        insts.append(_Inst("2.13~2.18", named, fn))
    return insts


def _build_kashaev(be, cfg):
    objs = _objs(be, cfg.max_dim)
    alphas = _alphas(be, cfg)
    hom = build_hom(be, "I")
    insts = _morph_insts(be, hom,
                         _family_relation_params(objs, alphas, "d"))
    dd = algebra("d", be)
    for m, n in itertools.product(objs, repeat=2):
        named = _named(be, {"M": m, "N": n})

        def fn(m=m, n=n, named=named):
            lhs, rhs = relation_instance(dd, "2.18", {"M": m, "N": n})
            le, re_ = relation_instance(dd, "2.18r", {"M": m, "N": n})
            scale = be.aut_count(m) * be.aut_count(n)
            ok = le == lhs.scale(scale) and re_ == rhs.scale(scale)
            return _plain("kashaev", "2.18~2.18r", named, ok,
                          lambda: (render_elt(be, le),
                                   render_elt(be, lhs.scale(scale))))

        insts.append(_Inst("2.18~2.18r", named, fn))

    def rank_fn(hom=hom, alphas=alphas, objs=objs):
        monos = double_monomials(be, alphas, objs, 20)
        rank = rank_independence([apply_hom(hom, x) for x in monos])
        return _plain("kashaev", "rank", {"count": 20}, rank == len(monos),
                      note="rank %d of %d" % (rank, len(monos)))

    insts.append(_Inst("rank", {"count": 20}, rank_fn))
    return insts


def _index_window(cfg):
    if cfg.i is not None:
        return [cfg.i]
    if cfg.m == 0:
        return [-1, 0, 1]
    return [1, cfg.m - 1]


def _build_kappa(be, cfg):
    objs = _objs(be, cfg.max_dim)
    alphas = _alphas(be, cfg)
    insts = []
    for i in _index_window(cfg):
        for name, family in (("kappa", "hd"), ("kappaCheck", "hhd")):
            hom = build_hom(be, name, i=i, m=cfg.m)
            pairs = _family_relation_params(objs, alphas, family)
            insts.extend(_morph_insts(be, hom, pairs,
                                      extra={"map": "%s(%d,%d)"
                                             % (name, cfg.m, i)}))
    return insts


def _build_psi(be, cfg):
    objs = _objs(be, cfg.max_dim)
    alphas = _alphas(be, cfg)
    insts = []
    for i in _index_window(cfg):
        hom = build_hom(be, "psi", i=i, m=cfg.m)
        pairs = _family_relation_params(objs, alphas, "d")
        insts.extend(_morph_insts(be, hom, pairs,
                                  extra={"map": "psi(%d,%d)" % (cfg.m, i)}))
    return insts


def _build_bridgeland(be, cfg):
    objs = _objs(be, cfg.max_dim)
    alphas = _alphas(be, cfg)
    w = cfg.idx_window
    hom = build_hom(be, "phi")
    inv = build_hom(be, "phiInv")
    insts = _morph_insts(be, hom, _dhce_relation_params(objs, alphas, w))
    dhce = algebra("dhce", be)
    dhm0 = algebra("dhm:0", be)
    objs_nz = [c for c in objs if sum(be.class_dim(c)) > 0]

    def roundtrip(first, second, alg, letter, named):
        def fn():
            x = FreeElt.word(be.p, (letter,))
            got = apply_hom(second, apply_hom(first, x))
            want = normal_form(alg, x)
            return _plain("bridgeland-derived", "roundtrip", named,
                          got == want,
                          lambda: (render_elt(be, got), render_elt(be, want)))
        return fn

    for n in range(-w, w + 1):
        for m in objs_nz:
            named = _named(be, {"M": m, "i": n, "gen": "Z"})
            insts.append(_Inst("roundtrip", named,
                               roundtrip(hom, inv, dhce, Zg(m, n), named)))
            named2 = _named(be, {"M": m, "i": n, "gen": "e"})
            insts.append(_Inst("roundtrip", named2,
                               roundtrip(inv, hom, dhm0, E(m, n), named2)))
        for a in alphas:
            named = _named(be, {"alpha": a, "i": n, "gen": "KZ"})
            insts.append(_Inst("roundtrip", named,
                               roundtrip(hom, inv, dhce, Kz(a, n), named)))
            named2 = _named(be, {"alpha": a, "i": n, "gen": "k"})
            insts.append(_Inst("roundtrip", named2,
                               roundtrip(inv, hom, dhm0, Kc(a, n), named2)))
    return insts


def _build_varphi(be, cfg):
    objs = _objs(be, cfg.max_dim)
    alphas = _alphas(be, cfg)
    idxs = [cfg.i] if cfg.i is not None else [-2, -1, 0, 1]
    inv = build_hom(be, "phiInv")
    insts = []
    for i in idxs:
        hom = build_hom(be, "varphi", i=i)
        pairs = _family_relation_params(objs, alphas, "d")
        insts.extend(_morph_insts(be, hom, pairs,
                                  extra={"map": "varphi(%d)" % i}))
        psi = build_hom(be, "psi", i=i, m=0)
        gens = [("om", s, m) for s in (1, -1) for m in objs] + \
               [("KD", s, a) for s in (1, -1) for a in alphas]
        for letter in gens:
            named = _named(be, {"i": i, "gen": letter[0] +
                                ("+" if letter[1] > 0 else "-")})
            if isinstance(letter[2], int):
                named["M"] = be.class_name(letter[2])
            else:
                named["alpha"] = list(letter[2])

            def fn(hom=hom, psi=psi, letter=letter, named=named):
                x = FreeElt.word(be.p, (letter,))
                got = apply_hom(hom, x)
                want = tensor_apply(inv, inv, apply_hom(psi, x))
                return _plain("varphi", "triangle", named, got == want)

            insts.append(_Inst("triangle", named, fn))
    return insts


def _build_gradings(be, cfg):
    objs = _objs(be, cfg.max_dim)
    alphas = _alphas(be, cfg)
    insts = []
    batches = [(fam, _family_relation_params(objs, alphas, fam))
               for fam in ("hd", "hhd", "d")]
    batches.append(("dhce", _dhce_relation_params(objs, alphas,
                                                  cfg.idx_window)))
    for fam, pairs in batches:
        alg = algebra(fam, be)
        for rel, prm in pairs:
            named = _named(be, dict(prm, algebra=fam))

            def fn(alg=alg, rel=rel, prm=prm, named=named):
                lhs, rhs = relation_instance(alg, rel, prm)
                try:
                    ok, note = grading_check(alg, lhs, rhs), ""
                except ValueError as exc:
                    ok, note = False, str(exc)
                return _plain("gradings", rel, named, ok,
                              lambda: (render_elt(be, lhs),
                                       render_elt(be, rhs)),
                              note=note)

            insts.append(_Inst(rel, named, fn))
    return insts


def _module_pool(objs_nz, fam):
    if fam == "hd":
        return [MuPlus(c) for c in objs_nz] + [MuMinus(c) for c in objs_nz]
    if fam == "hhd":
        return [NuPlus(c) for c in objs_nz] + [NuMinus(c) for c in objs_nz]
    if fam == "dhm":
        idxs = (0, 1)
        return [E(c, i) for i in idxs for c in objs_nz]
    # dh, dhtw, dhce all generate from complex letters
    return [Zg(c, i) for i in (0, 1) for c in objs_nz]


def _torus_pool(alphas_nz, fam):
    if fam == "hd":
        return [KPlus(a) for a in alphas_nz] + [KMinus(a) for a in alphas_nz]
    if fam == "hhd":
        return [KcPlus(a) for a in alphas_nz] + \
               [KcMinus(a) for a in alphas_nz]
    if fam == "dhm":
        return [Kc(a, i) for i in (0, 1) for a in alphas_nz]
    if fam == "dhce":
        return [Kz(a, i) for i in (-1, 0) for a in alphas_nz]
    return []


def _dim_ok(be, letters, bound):
    total = be.quiver.zero_class()
    for letter in letters:
        mid = letter[2] if letter[0] in ("mu", "nu", "om") else \
            (letter[1] if letter[0] in ("e", "Z") else None)
        if mid is not None:
            total = tuple(t + d for t, d in
                          zip(total, be.class_dim(mid)))
    return all(t <= bound for t in total)


def _build_rewrite_sanity(be, cfg):
    objs_nz = [c for c in _objs(be, cfg.max_dim)
               if sum(be.class_dim(c)) > 0]
    alphas_nz = [a for a in _alphas(be, cfg) if any(a)]
    tags = ("hd", "hhd", "dhm:0", "dhm:4", "dh", "dhtw", "dhce")
    rng = random.Random(cfg.seed)
    insts = []

    def triple_fn(alg, x, y, z, rel, named):
        def fn():
            left = pmult(alg, pmult(alg, x, y), z)
            right = pmult(alg, x, pmult(alg, y, z))
            idem = normal_form(alg, left) == left
            ok = left == right and idem
            note = "" if idem else "normal form not idempotent"
            return _plain("rewrite-sanity", rel, named, ok,
                          lambda: (render_elt(be, left),
                                   render_elt(be, right)),
                          note=note)
        return fn

    for tag in tags:
        alg = algebra(tag, be)
        fam = alg.family
        pool = _module_pool(objs_nz, fam) + _torus_pool(alphas_nz, fam)
        for idx, (a, b, c) in enumerate(
                itertools.product(pool, repeat=3)):
            named = {"algebra": tag, "triple": idx}
            fn = triple_fn(alg, FreeElt.word(be.p, (a,)),
                           FreeElt.word(be.p, (b,)),
                           FreeElt.word(be.p, (c,)), "assoc-gen", named)
            insts.append(_Inst("assoc-gen", named, fn))
        # random words: lengths <= 2, total dims capped so merged classes
        # stay inside the window the backend enumerates quickly
        for k in range(1000):
            while True:
                words = [tuple(rng.choice(pool)
                               for _ in range(rng.randint(1, 2)))
                         for _ in range(3)]
                if _dim_ok(be, [l for w_ in words for l in w_], 3):
                    break
            named = {"algebra": tag, "triple": 1000 + k}
            x, y, z = (FreeElt.word(be.p, w_) for w_ in words)
            insts.append(_Inst("assoc-rand", named,
                               triple_fn(alg, x, y, z, "assoc-rand",
                                         named)))
    return insts


def _build_backend_oracle(be, cfg):
    q = cfg.q
    brute = make_backend("a1", q)
    closed = A1ClosedFormBackend(q)
    dmax = cfg.max_dim
    cids = {d: brute.iso_classes((d,))[0] for d in range(dmax + 1)}
    insts = []
    for d in range(dmax + 1):
        named = {"dim": d}

        def fn(d=d, named=named):
            n_classes = len(brute.iso_classes((d,)))
            ok = n_classes == 1 and \
                brute.aut_count(cids[d]) == closed.aut_count(d)
            return _plain("backend-oracle", "aut", named, ok,
                          lambda: (str(brute.aut_count(cids[d])),
                                   str(closed.aut_count(d))))

        insts.append(_Inst("aut", named, fn))
    for a, b in itertools.product(range(dmax + 1), repeat=2):
        named = {"A": a, "B": b}

        def fn(a=a, b=b, named=named):
            ok = brute.hom_dim(cids[a], cids[b]) == closed.hom_dim(a, b) \
                and brute.euler_form((a,), (b,)) == closed.euler_form(
                    (a,), (b,))
            return _plain("backend-oracle", "hom-euler", named, ok)

        insts.append(_Inst("hom-euler", named, fn))
    for l, m, n in itertools.product(range(dmax + 1), repeat=3):
        named = {"L": l, "M": m, "N": n}

        def fn(l=l, m=m, n=n, named=named):
            got = brute.hall_number(cids[l], cids[m], cids[n])
            want = closed.hall_number(l, m, n)
            return _plain("backend-oracle", "hall", named, got == want,
                          lambda: (str(got), str(want)))

        insts.append(_Inst("hall", named, fn))
    return insts


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

def _run_one(inst):
    try:
        return inst.fn()
    except CapExceeded as exc:
        return CheckReport("suite", inst.rel, inst.params, False,
                           cap_hit=True, note=str(exc))


def run_suite(cfg):
    if cfg.suite not in SUITES:
        raise ValueError("unknown suite %r (choose from %s)"
                         % (cfg.suite, ", ".join(SUITES)))
    t0 = time.monotonic()
    be = make_backend(quiver_from_arg(cfg.quiver), cfg.q)
    if cfg.max_dim is None:
        default_dim = 4 if cfg.suite == "backend-oracle" else 2
        cfg = RunConfig(**dict(_cfg_dict(cfg), max_dim=default_dim))
    instances = _BUILDERS[cfg.suite](be, cfg)
    results = [_run_one(inst) for inst in instances]
    params = {"max_dim": cfg.max_dim, "m": cfg.m, "i": cfg.i,
              "idx_window": cfg.idx_window, "seed": cfg.seed}
    if cfg.alphas is not None:
        params["alphas"] = [list(a) for a in cfg.alphas]
    return {
        "suite": cfg.suite,
        "quiver": cfg.quiver,
        "q": cfg.q,
        "params": params,
        "instances": len(results),
        "passes": sum(1 for r in results if r.passed),
        "failures": [r.as_failure_dict() for r in results if not r.passed],
        "cap_hits": sum(1 for r in results if r.cap_hit),
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _cfg_dict(cfg):
    return {name: getattr(cfg, name)
            for name in cfg.__dataclass_fields__}


def exit_code(report):
    if report["cap_hits"]:
        return 3
    return 0 if not report["failures"] else 1
