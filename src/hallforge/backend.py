"""Counting backend for categories of quiver representations over F_p.

Everything the algebra layers consume lives here: isoclass registries,
Hall numbers g^L_{MN}, automorphism counts a_M and Euler forms.  All
counting is exact, by enumeration over the finite field guarded by the
enumeration budget.  Isomorphism is decided by the rank invariant on
quivers that are disjoint unions of linearly oriented paths (see
`path_chains`) and by the injection-count sieve on every other quiver;
automorphism counts always come from the sieve.  The subobjects of a
class representative are enumerated as combos of per-vertex subspaces.
On a path quiver the classes of each subobject and its quotient are read
off the combo as rank keys, with no Rep built for either; on any other
quiver both are built as Reps (`subobject_pairs`) and classified.

Once classified, an object is a class id, and every table is keyed by
class ids: a_M, hom dimensions and injection counts of class pairs, the
subobject table {(M, N): g^L_{MN}} of each class L, the product terms
(L, g^L_{MN}) of each pair (M, N) and the Euler form of each dimvec pair
are computed once and read by id from then on.  A Rep that is not a
registered class representative (a scan candidate, a quotient being
classified, an argument from outside) gets its counts computed and
nothing stored; only its class id is remembered, on a quiver that is not
a path quiver.  A suite run shards its instances over forked processes
(`--threads` is the shard count), each with its own copy of the backend,
so nothing in the package calls a backend from more than one thread and
the memo tables are plain dicts with no lock.
"""

import itertools
import json
from collections import namedtuple

from .caps import Budget
from .fq import (apply, enumerate_subspaces, gaussian_binomial, gl_order,
                 in_rowspace, reduce_against, row_rank, rowspace_coords)
from .quiver import add_class, preset
from .scalars import is_prime


class Rep(namedtuple("Rep", "dims maps")):
    """A representation: one F_p space per vertex, one matrix per arrow.

    dims is a tuple of ints, and maps[a] is the matrix of arrow a: s -> t,
    a tuple of dims[t] row tuples of length dims[s] with entries reduced
    mod p, acting on column vectors (see `fq`).  A Rep is its own key: two
    are equal exactly when their dims and matrices are.  Rep itself checks
    nothing: build a Rep from outside input with `QuiverBackend.rep` or
    `rep_from_json`, which reduce the entries and raise ValueError for a
    wrong shape.
    """

    __slots__ = ()

    def is_zero(self):
        return not any(self.dims)


def _zero_maps(quiver, dims):
    return tuple(((0,) * dims[s],) * dims[t] for s, t in quiver.arrows)


def path_chains(quiver):
    """The arrows of each maximal path, in path order, when every vertex has
    at most one incoming and at most one outgoing arrow; otherwise None.

    Such a quiver (quivers are acyclic) is a disjoint union of linearly
    oriented type-A paths, and a representation's isoclass is fixed by its
    dimension vector and the ranks of the composites f_j ... f_i of
    consecutive arrows: these determine the multiplicity of every interval
    module (Gabriel 1972; Abeasis & Del Fra 1980), the "rank invariant" of
    persistence (Carlsson & Zomorodian 2009)."""
    n = quiver.n
    indeg, out = [0] * n, [None] * n
    for idx, (s, t) in enumerate(quiver.arrows):
        if out[s] is not None or indeg[t]:
            return None
        out[s] = idx
        indeg[t] = 1
    chains = []
    for v in range(n):
        if indeg[v] or out[v] is None:
            continue
        chain = []
        while out[v] is not None:
            chain.append(out[v])
            v = quiver.arrows[out[v]][1]
        chains.append(tuple(chain))
    return tuple(chains)


def _json_int(x, what):
    """x if it is a JSON integer; a ValueError naming `what` otherwise."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError("rep file: %s must be an integer, not %r" % (what, x))
    return x


def _check_prime(p):
    """A ValueError unless the field size p is prime."""
    if not is_prime(p):
        raise ValueError("field size must be prime, not %r" % (p,))


class EnumerationError(ArithmeticError):
    """An isoclass table failed the orbit-counting identity."""


class QuiverBackend:
    """Brute-force backend over a fixed quiver and prime field.

    The isoclass registry lists the classes of each dimension vector in
    the order a scan of the arrow assignments first meets them (see
    `iso_classes`), so the classes within a dimvec, and their names
    X{d}#j, are reproducible no matter which representation gets
    classified first.  Global integer ids are handed out as classes are
    registered, across dimvecs, in whatever order the computation asks
    for them; their numbering is not stable across versions, and nothing
    sorts or renders by raw id.  Every memo table is keyed by class ids
    (or dimvecs); a Rep that is not registered is counted but never
    stored, except as a key of the classification memo.  Memo tables fill
    lazily without locking: not safe to share across threads.  A field
    size p that is not prime raises ValueError.
    """

    def __init__(self, quiver, p):
        _check_prime(p)
        self.quiver = quiver
        self.p = p
        self.q = p
        self._classes = []
        # Rep -> id: each registered representative and, on a quiver that
        # is not a path quiver, each Rep classified
        self._key_to_id = {}
        self._dimvec_classes = {}
        # id -> S<k> or X{d}#j, one entry per class of an enumerated dimvec
        self._names = {}
        self._chains = path_chains(quiver)
        # class-id tables: (dims, rank invariant) -> id on a path quiver,
        # (M id, N id) -> dim Hom(M, N) and #Inj(M, N), L id ->
        # {(M id, N id): g^L_{MN}}, (M id, N id) -> ((L id, g^L_{MN}), ...),
        # and (x, y) -> <x, y> by dimvec pair
        self._rank_to_id = {}
        self._hom = {}
        self._inj = {}
        self._sub_tables = {}
        self._products = {}
        self._euler = {}
        # presented algebras over this backend by tag, see presented.algebra
        self.algebras = {}
        # the class-level rows of the Hall sums, keyed ("product", M id,
        # N id), ("coproduct", L id) and ("gamma", M id, N id, mirrored):
        # at most 3 C^2 + C rows over C classes, see the hall module
        self.hall_rows = {}
        self._register(self.zero_rep())

    # -- construction -------------------------------------------------

    def zero_rep(self):
        dims = (0,) * self.quiver.n
        return Rep(dims, _zero_maps(self.quiver, dims))

    def simple_rep(self, k):
        dims = self.quiver.simple_class(k)
        return Rep(dims, _zero_maps(self.quiver, dims))

    def rep(self, dims, maps):
        """The Rep with dimension vector dims and one matrix per arrow in
        maps, each a sequence of rows of integers, reduced mod p here.
        Raises ValueError for a dims of the wrong length or with a negative
        entry, for a matrix count other than the arrow count, and for a
        matrix of arrow s -> t that is not dims[t] rows of dims[s] entries.
        """
        arrows = self.quiver.arrows
        dims, maps = tuple(int(d) for d in dims), tuple(maps)
        if len(dims) != self.quiver.n or any(d < 0 for d in dims):
            raise ValueError("dimension vector %s needs %d nonnegative "
                             "entries" % (dims, self.quiver.n))
        if len(maps) != len(arrows):
            raise ValueError("%d matrices for %d arrows"
                             % (len(maps), len(arrows)))
        reduced = []
        for a, ((s, t), rows) in enumerate(zip(arrows, maps)):
            m = tuple(tuple(int(x) % self.p for x in r) for r in rows)
            if len(m) != dims[t] or any(len(r) != dims[s] for r in m):
                raise ValueError("arrow %d needs a %dx%d matrix"
                                 % (a, dims[t], dims[s]))
            reduced.append(m)
        return Rep(dims, tuple(reduced))

    def rep_from_json(self, data):
        """{"dims": {"1":1,"2":1}, "maps": {"0": [[1]]}, "p": 2}

        The top level, "dims" and "maps" must be JSON objects, every matrix
        a list of lists, and p, every dimension and every matrix entry a
        JSON integer (true and false are not); an arrow missing from "maps"
        is zero.  The Rep is built by `rep`, which checks the shapes.
        Anything else raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("rep file must hold a JSON object, not %s"
                             % type(data).__name__)
        if _json_int(data.get("p", self.p), "p") != self.p:
            raise ValueError("rep file prime differs from backend prime")
        given = data.get("dims", {})
        raw = data.get("maps", {})
        for what, value in (("dims", given), ("maps", raw)):
            if not isinstance(value, dict):
                raise ValueError("rep file %r must be a JSON object" % what)
        for v in self.quiver.vertices:
            if v not in given:
                raise ValueError("rep file has no dimension for vertex %r"
                                 % (v,))
        dims = tuple(_json_int(given[v], "the dimension of vertex %r" % (v,))
                     for v in self.quiver.vertices)
        if any(d < 0 for d in dims):
            raise ValueError("rep file has a negative dimension")
        unknown = set(raw) - {str(a) for a in range(len(self.quiver.arrows))}
        if unknown:
            raise ValueError("rep file maps unknown arrows %s"
                             % ", ".join(sorted(unknown)))
        maps = []
        for a, (s, t) in enumerate(self.quiver.arrows):
            rows = raw.get(str(a))
            if rows is None:
                rows = [[0] * dims[s]] * dims[t]
            if not (isinstance(rows, list)
                    and all(isinstance(r, list) for r in rows)):
                raise ValueError("arrow %d needs a %dx%d matrix"
                                 % (a, dims[t], dims[s]))
            for r in rows:
                for x in r:
                    _json_int(x, "an entry of arrow %d" % a)
            maps.append(rows)
        return self.rep(dims, maps)

    def load_rep(self, path):
        with open(path) as fh:
            return self.rep_from_json(json.load(fh))

    # -- registry -----------------------------------------------------

    def _register(self, rep):
        cid = len(self._classes)
        self._classes.append(rep)
        self._key_to_id[rep] = cid
        if self._chains is not None:
            self._rank_to_id[self._rank_key(rep)] = cid
        return cid

    def iso_classes(self, dimvec):
        """All isoclass ids of the given dimension vector, fixed order.

        Scans the p^N arrow assignments (N arrow-matrix entries) in
        `itertools.product` order and keeps each one not isomorphic to a
        class already found.  On a path quiver a candidate is one rank
        key, looked up in the (dims, ranks) -> id table, and no Rep is
        built for a rejected one; on any other quiver its quotient classes
        are counted once and it is sieved against each class found (see
        `_sieve_class`), with nothing stored for it.  By orbit
        counting, the classes M at d satisfy sum_M |GL_d| / a_M = p^N with
        |GL_d| = prod_i |GL_{d_i}(F_p)|, so the scan stops as soon as the
        orbits found cover the space: the classes and their order are
        those of a full scan.  An orbit count that does not divide |GL_d|,
        or orbits that overshoot p^N or fall short of it after a full
        scan, raise EnumerationError.

        Calling aut_count during the scan builds the subobject table of
        each new class, classifying its subobjects and quotients, which can
        enumerate smaller dimvecs earlier than a scan without it would;
        that changes the global ids, never the order within a dimvec.
        A dimvec of wrong length or with a negative entry raises ValueError.
        """
        dimvec = tuple(int(d) for d in dimvec)
        got = self._dimvec_classes.get(dimvec)
        if got is not None:
            return list(got)
        quiver, p = self.quiver, self.p
        if len(dimvec) != quiver.n or any(d < 0 for d in dimvec):
            raise ValueError(f"dimension vector {dimvec} needs {quiver.n} "
                             f"nonnegative entries")
        slots = [(dimvec[t] * dimvec[s]) for s, t in quiver.arrows]
        total = sum(slots)
        space = p ** total
        budget = Budget("iso_classes")
        budget.check_upfront(space)
        group = 1
        for d in dimvec:
            group *= gl_order(d, p)
        found = []
        covered = 0
        for assign in itertools.product(range(p), repeat=total):
            budget.spend()
            maps = []
            pos = 0
            for (s, t), n_ent in zip(quiver.arrows, slots):
                chunk = assign[pos:pos + n_ent]
                pos += n_ent
                maps.append(tuple(chunk[r * dimvec[s]:(r + 1) * dimvec[s]]
                                  for r in range(dimvec[t])))
            cand = Rep(dimvec, tuple(maps))
            if self._chains is not None:
                if self._rank_to_id.get(self._rank_key(cand)) in found:
                    continue
            elif found and self._sieve_class(cand, found) is not None:
                continue
            cid = self._key_to_id.get(cand)
            if cid is None:
                cid = self._register(cand)
            found.append(cid)
            if space == 1:
                # one assignment, one class: its orbit is the whole space
                covered = 1
                break
            aut = self.aut_count(cid)
            orbit, rest = divmod(group, aut)
            if rest:
                raise EnumerationError(
                    f"a_M = {aut} does not divide |GL_{dimvec}| = {group}")
            covered += orbit
            if covered >= space:
                break
        if covered != space:
            raise EnumerationError(
                f"orbits of the {len(found)} classes at {dimvec} cover "
                f"{covered} of {space} arrow assignments")
        self._dimvec_classes[dimvec] = found
        if sum(dimvec) == 1:
            names = ["S%d" % (dimvec.index(1) + 1)] * len(found)
        else:
            prefix = "X{" + ",".join(str(d) for d in dimvec) + "}#"
            names = [prefix + str(j) for j in range(len(found))]
        self._names.update(zip(found, names))
        return list(found)

    def classify(self, rep):
        """IsoClassId of rep; same input class always gets the same id.

        The classes of rep's dimvec are enumerated first if needed.  On a
        path quiver the id is then a lookup of rep's rank invariant in a
        (dims, ranks) -> id table with one entry per registered class, so
        nothing is stored for rep.  On any other quiver rep is sieved
        against the classes in turn (see `_sieve_class`), and only the
        answer is remembered, in the Rep -> id classification memo."""
        if isinstance(rep, int):
            return rep
        cid = self._key_to_id.get(rep)
        if cid is not None:
            return cid
        if self._chains is not None:
            return self._rank_class(self._rank_key(rep))
        cid = self._sieve_class(rep, self.iso_classes(rep.dims))
        if cid is None:
            raise AssertionError("enumeration missed a class")  # unreachable
        self._key_to_id[rep] = cid
        return cid

    def _rank_class(self, rank_key):
        """The class id of a (dims, ranks) key on a path quiver, the classes
        of dims enumerated first if needed."""
        cid = self._rank_to_id.get(rank_key)
        if cid is None:
            self.iso_classes(rank_key[0])
            cid = self._rank_to_id.get(rank_key)
            if cid is None:
                raise AssertionError("enumeration missed a class")  # unreachable
        return cid

    def class_rep(self, cid):
        return self._classes[cid]

    def class_dim(self, cid):
        return self.class_rep(cid).dims

    def classes_within(self, dimvec):
        """Ids of all classes with dimvec componentwise at most the bound,
        in lexicographic dimvec order."""
        ranges = [range(d + 1) for d in dimvec]
        out = []
        for d in itertools.product(*ranges):
            out.extend(self.iso_classes(d))
        return out

    def class_name(self, cid):
        """S<k> for a class of dimension one at vertex k, otherwise
        X{d1,..,dn}#j with j the class's place in `iso_classes(d)`.

        A lookup in a table with one entry per class of each enumerated
        dimvec, filled when that dimvec's class list is fixed; a class
        whose dimvec is not enumerated yet has it enumerated first."""
        name = self._names.get(cid)
        if name is None:
            self.iso_classes(self.class_dim(cid))
            name = self._names[cid]
        return name

    def class_by_name(self, name):
        name = name.strip()
        if name.startswith("S"):
            k = int(name[1:]) - 1
            return self.classify(self.simple_rep(k))
        if name.startswith("X{"):
            body, _, idx = name[2:].partition("}#")
            dims = tuple(int(x) for x in body.split(","))
            ids = self.iso_classes(dims)
            j = int(idx)
            if not 0 <= j < len(ids):
                raise ValueError(f"{name}: only {len(ids)} classes at {dims}")
            return ids[j]
        raise ValueError(f"cannot parse object name {name!r}")

    def class_sort_key(self, cid):
        dims = self.class_dim(cid)
        return (sum(dims), dims, self.iso_classes(dims).index(cid))

    # -- linear algebra -----------------------------------------------

    def _coerce_rep(self, x):
        return self.class_rep(x) if isinstance(x, int) else x

    def _class_of(self, x):
        """x's class id, for a class id or a Rep in the Rep -> id table;
        the Rep x itself otherwise."""
        return x if isinstance(x, int) else self._key_to_id.get(x, x)

    def euler_form(self, x, y):
        """<x, y> for dimvec tuples x, y, memoized by the pair."""
        got = self._euler.get((x, y))
        if got is None:
            got = self._euler[(x, y)] = self.quiver.euler_form(x, y)
        return got

    def sym_euler(self, x, y):
        return self.euler_form(x, y) + self.euler_form(y, x)

    def _hom_system(self, a, b):
        """Constraint matrix for intertwiners phi: a -> b (phi_t f_a = f_b phi_s),
        as (unknown count, rows reduced mod p)."""
        quiver, p = self.quiver, self.p
        m, n = a.dims, b.dims
        offs = []
        total = 0
        for i in range(quiver.n):
            offs.append(total)
            total += n[i] * m[i]
        rows = []
        for idx, (s, t) in enumerate(quiver.arrows):
            fa, fb = a.maps[idx], b.maps[idx]
            for r in range(n[t]):
                for c in range(m[s]):
                    row = [0] * total
                    # (phi_t fa)[r,c] = sum_j phi_t[r,j] fa[j,c]
                    for j in range(m[t]):
                        row[offs[t] + r * m[t] + j] += fa[j][c]
                    # (fb phi_s)[r,c] = sum_j fb[r,j] phi_s[j,c]
                    for j in range(n[s]):
                        row[offs[s] + j * m[s] + c] -= fb[r][j]
                    rows.append(tuple(x % p for x in row))
        return total, rows

    def hom_dim(self, a, b):
        """dim Hom(a, b), memoized by (id, id) when both classes are known."""
        a, b = self._class_of(a), self._class_of(b)
        known = isinstance(a, int) and isinstance(b, int)
        got = self._hom.get((a, b)) if known else None
        if got is None:
            total, rows = self._hom_system(self._coerce_rep(a),
                                           self._coerce_rep(b))
            got = total - row_rank(rows, self.p)
            if known:
                self._hom[(a, b)] = got
        return got

    def ext_dim(self, a, b):
        a, b = self._coerce_rep(a), self._coerce_rep(b)
        return self.hom_dim(a, b) - self.euler_form(a.dims, b.dims)

    # -- subobjects ---------------------------------------------------

    def _subobject_combos(self, rep):
        """Each vertex's subspaces of rep (canonical RREF bases, by
        dimension then `enumerate_subspaces` order) and an iterator over
        the index tuples of the combos (U_v) closed under every arrow, in
        `itertools.product` order: rep's subobjects."""
        arrows, p = self.quiver.arrows, self.p
        budget = Budget("subobjects")
        per_vertex = []
        for d in rep.dims:
            bases = []
            for k in range(d + 1):
                bases.extend(enumerate_subspaces(d, k, p, budget))
            per_vertex.append(bases)
        # images[a][i]: arrow a applied to the basis of subspace i at its source
        images = [[[apply(f, row, p) for row in b] for b in per_vertex[s]]
                  for f, (s, t) in zip(rep.maps, arrows)]

        def closed():
            for combo in itertools.product(*(range(len(b)) for b in per_vertex)):
                budget.spend()
                if all(in_rowspace(v, per_vertex[t][combo[t]], p)
                       for a, (s, t) in enumerate(arrows)
                       for v in images[a][combo[s]]):
                    yield combo

        return per_vertex, closed()

    def subobject_pairs(self, rep):
        """All (sub, quotient) pairs of subrepresentations of rep, a class
        id or a Rep, with canonical bases, as Reps in subobject order;
        nothing is stored.  The subobject tables call it on quivers that
        are not path quivers, and the sieve of a Rep whose class is not
        known on any quiver; a path quiver's tables read their subobjects'
        classes off rank keys instead (see `_rank_key_table`)."""
        rep = self._coerce_rep(rep)
        per_vertex, combos = self._subobject_combos(rep)
        return [self._make_sub_quot(rep, [per_vertex[v][i]
                                          for v, i in enumerate(combo)])
                for combo in combos]

    def _make_sub_quot(self, rep, combo):
        quiver, p = self.quiver, self.p
        sub_dims = tuple(len(b) for b in combo)
        quot_dims = tuple(d - len(b) for d, b in zip(rep.dims, combo))
        nonpiv = []
        for i, b in enumerate(combo):
            pivots = {next(j for j, x in enumerate(row) if x) for row in b}
            nonpiv.append([c for c in range(rep.dims[i]) if c not in pivots])
        sub_maps, quot_maps = [], []
        for idx, (s, t) in enumerate(quiver.arrows):
            f = rep.maps[idx]
            # the images of the basis vectors, in coordinates: the columns
            cols = [rowspace_coords(apply(f, row, p), combo[t], p)
                    for row in combo[s]]
            sub_maps.append(tuple(zip(*cols)) if cols else ((),) * sub_dims[t])
            qcols = []
            for c in nonpiv[s]:
                red = reduce_against(tuple(r[c] for r in f), combo[t], p)
                qcols.append(tuple(red[j] for j in nonpiv[t]))
            quot_maps.append(tuple(zip(*qcols)) if qcols else ((),) * quot_dims[t])
        return Rep(sub_dims, tuple(sub_maps)), Rep(quot_dims, tuple(quot_maps))

    # -- counting -----------------------------------------------------

    def inj_count(self, a, b):
        """Number of injective homomorphisms a -> b, by the quotient sieve
        (see `_sieve`).  Memoized by (id, id) when both classes are known;
        for a Rep whose class is not known, computed and not stored.  When
        b is such a Rep, the counts into b of the quotient classes the
        sieve recurses into are kept for this call alone, so each class
        is counted once per call."""
        # a_M and the sieve's own recursion pass two class ids: one lookup
        got = self._inj.get((a, b))
        if got is not None:
            return got
        a, b = self._class_of(a), self._class_of(b)
        if not isinstance(b, int):
            return self._count_inj(a, b, {})
        got = self._inj.get((a, b))
        if got is None:
            got = self._count_inj(a, b)
            if isinstance(a, int):
                self._inj[(a, b)] = got
        return got

    def _count_inj(self, a, b, memo=None):
        """#Inj(a, b) by the sieve, with `memo` as in `_sieve`."""
        if any(x > y for x, y in zip(self._coerce_rep(a).dims,
                                     self._coerce_rep(b).dims)):
            return 0
        return self._sieve(a, self._quotients(a), b, memo)

    def _sieve(self, a, quots, b, memo=None):
        """#Inj(a, b) = p^hom(a,b) - sum over nonzero subobjects K of a of
        #Inj(a/K, b), with quots = `_quotients(a)`.  The counts #Inj(Q, b)
        come from `inj_count`, or, given a dict memo for a b whose class
        is not known, from memo, keyed by Q id and filled here."""
        total = self.p ** self.hom_dim(a, b)
        for qid, g in quots.items():
            if memo is None:
                n = self.inj_count(qid, b)
            else:
                n = memo.get(qid)
                if n is None:
                    n = memo[qid] = self._count_inj(qid, b, memo)
            total -= g * n
        return total

    def _quotients(self, a):
        """{Q id: the number of nonzero subobjects K of a with a/K in Q},
        read from the subobject table of a class id a; for a Rep a,
        counted over `subobject_pairs(a)` with each quotient classified (a
        quotient has smaller total dim than a, so this never re-enters an
        in-progress iso_classes(a.dims))."""
        if isinstance(a, int):
            terms = ((qid, g) for (qid, nid), g in self.subobject_table(a).items()
                     if not self._classes[nid].is_zero())
        else:
            terms = ((self.classify(quot), 1)
                     for sub, quot in self.subobject_pairs(a) if not sub.is_zero())
        quots = {}
        for qid, g in terms:
            quots[qid] = quots.get(qid, 0) + g
        return quots

    def _sieve_class(self, rep, cids):
        """The first of the classes cids, all of the Rep rep's dims, that
        rep has an injective homomorphism to, or None.  rep's quotient
        classes are counted once for all of cids; nothing is stored for rep."""
        quots = self._quotients(rep)
        return next((cid for cid in cids if self._sieve(rep, quots, cid) > 0),
                    None)

    def aut_count(self, m):
        """a_M = #Inj(M, M) by the quotient sieve."""
        return self.inj_count(m, m)

    def _composites(self, maps):
        """(s, t, rows) for each composite f_j ... f_i of consecutive arrows
        along each path of a path quiver (see `path_chains`), from the
        source s of f_i to the target t of f_j, in a fixed order.  maps
        holds one matrix per arrow as a tuple of rows (a Rep's maps), and so
        does rows."""
        p, arrows = self.p, self.quiver.arrows
        out = []
        for chain in self._chains:
            for i, first in enumerate(chain):
                s = arrows[first][0]
                comp = maps[first]
                out.append((s, arrows[first][1], comp))
                for idx in chain[i + 1:]:
                    cols = tuple(zip(*comp))
                    comp = tuple(tuple(sum(x * y for x, y in zip(r, c)) % p
                                       for c in cols) for r in maps[idx])
                    out.append((s, arrows[idx][1], comp))
        return out

    def _rank_invariant(self, maps):
        """Ranks of the `_composites` of maps, in their order."""
        return tuple(row_rank(rows, self.p) for _, _, rows in self._composites(maps))

    def _rank_key(self, rep):
        """(dims, rank invariant) of a Rep on a path quiver."""
        return rep.dims, self._rank_invariant(rep.maps)

    def is_iso(self, a, b):
        """Whether a and b, class ids or Reps, have equal dims and the same
        class (see `classify`)."""
        a, b = self._coerce_rep(a), self._coerce_rep(b)
        return a.dims == b.dims and self.classify(a) == self.classify(b)

    def subobject_table(self, big):
        """{(M id, N id): g^L_{MN}} for the class L of big, one entry per
        pair with g > 0, from a single pass over the subobjects X of L's
        representative, in subobject order, that classifies M = L/X and
        then N = X.  On a path quiver both are rank keys read off X's
        subspace combo (`_rank_key_table`); on any other quiver X and L/X
        are built as Reps by `subobject_pairs` and classified with the
        sieve.  Built once per class; do not mutate the returned dict."""
        lid = self.classify(big)
        table = self._sub_tables.get(lid)
        if table is None:
            if self._chains is not None:
                table = self._rank_key_table(self._classes[lid])
            else:
                table = {}
                for sub, quot in self.subobject_pairs(lid):
                    key = (self.classify(quot), self.classify(sub))
                    table[key] = table.get(key, 0) + 1
            self._sub_tables[lid] = table
        return table

    def _rank_key_table(self, rep):
        """rep's subobject table on a path quiver, with no Rep built per
        subobject.  For a composite F: s -> t of rep (see
        `_composites`) and a subobject with subspaces (U_v), the sub's rank
        along F is dim F(U_s) and the quotient's is dim(U_t + im F) -
        dim U_t; each is computed once per subspace of its vertex."""
        p = self.p
        per_vertex, combos = self._subobject_combos(rep)
        # per composite: its vertex and the rank at each subspace there
        subs, quots = [], []
        for s, t, rows in self._composites(rep.maps):
            cols = tuple(zip(*rows))
            subs.append((s, [row_rank([tuple(sum(x * y for x, y in zip(r, u)) % p
                                             for r in rows) for u in b], p)
                             for b in per_vertex[s]]))
            quots.append((t, [row_rank(b + cols, p) - len(b)
                              for b in per_vertex[t]]))
        sizes = [[len(b) for b in bases] for bases in per_vertex]
        table = {}
        # the only sub or quotient with rep's dims is rep itself, already
        # registered, so no lookup re-enters an in-progress iso_classes
        for combo in combos:
            sub_dims = tuple(sz[i] for sz, i in zip(sizes, combo))
            quot_dims = tuple(d - k for d, k in zip(rep.dims, sub_dims))
            key = (self._rank_class(
                       (quot_dims, tuple(r[combo[t]] for t, r in quots))),
                   self._rank_class(
                       (sub_dims, tuple(r[combo[s]] for s, r in subs))))
            table[key] = table.get(key, 0) + 1
        return table

    def hall_number(self, big, outer, inner):
        """g^L_{MN}: subobjects X of L with X iso to N and L/X iso to M,
        read from L's subobject table."""
        return self.subobject_table(big).get(
            (self.classify(outer), self.classify(inner)), 0)

    def product_terms(self, outer, inner):
        """((L id, g^L_{MN}), ...) over the classes L of dim M + dim N with
        g^L_{MN} > 0, in `iso_classes` order: the support of [M][N] with
        its Hall numbers.  Memoized by (M id, N id)."""
        mid, nid = self.classify(outer), self.classify(inner)
        got = self._products.get((mid, nid))
        if got is None:
            total = add_class(self.class_dim(mid), self.class_dim(nid))
            got = tuple((lid, g) for lid in self.iso_classes(total)
                        if (g := self.hall_number(lid, mid, nid)))
            self._products[(mid, nid)] = got
        return got


class A1ClosedFormBackend:
    """Closed-form oracle for the one-vertex quiver: subspace counts are
    Gaussian binomials and a_M is the general linear group order.  A field
    size p that is not prime raises ValueError."""

    def __init__(self, p):
        _check_prime(p)
        self.quiver = preset("a1")
        self.p = p
        self.q = p

    def iso_classes(self, dimvec):
        (d,) = dimvec
        return [d]

    def classify(self, rep):
        if isinstance(rep, int):
            return rep
        return rep.dims[0]

    def class_dim(self, cid):
        return (cid,)

    def euler_form(self, x, y):
        return x[0] * y[0]

    def sym_euler(self, x, y):
        return 2 * x[0] * y[0]

    def hom_dim(self, a, b):
        return self.classify(a) * self.classify(b)

    def aut_count(self, m):
        return gl_order(self.classify(m), self.q)

    def hall_number(self, big, outer, inner):
        l, m, n = self.classify(big), self.classify(outer), self.classify(inner)
        if m + n != l:
            return 0
        return gaussian_binomial(l, n, self.q)

    def is_iso(self, a, b):
        return self.classify(a) == self.classify(b)


def make_backend(quiver, p):
    if isinstance(quiver, str):
        quiver = preset(quiver)
    return QuiverBackend(quiver, p)
