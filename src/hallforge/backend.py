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

Every count takes class ids, and each fact is held in one table, filled
once and read by id from then on: the class of each class key (see
`QuiverBackend._class_key`), the injection count of each class pair (a_M
is #Inj(M, M)), the subobject table {(M, N): g^L_{MN}} of each class L,
the product terms (L, g^L_{MN}) of each pair (M, N) and the Euler form of
each dimvec pair.  A Hom dimension is computed where it is asked for.  A
Rep enters only where it is made (`rep`, `rep_from_json`), classified
(`classify`) or split into its subobjects (`subobject_pairs`).  Inside,
the sieve that classifies a scan candidate or a quotient works on the
Rep and stores nothing for it; only its class id is remembered, on a
quiver that is not a path quiver.  A suite run shards its instances over
forked processes (`--threads` is the shard count), each with its own copy
of the backend, so nothing in the package calls a backend from more than
one thread and the tables are plain dicts with no lock.

The backend interface, the attributes the other modules of the package
read off a backend, is `p`, `quiver`, `iso_classes`, `classes_within`,
`classify`, `load_rep`, `class_dim`, `class_name`, `class_by_name`,
`class_sort_key`, `euler_form`, `sym_euler`, `hom_dim`, `aut_count`,
`hall_number`, `subobject_table`, `product_terms`, `hall_rows` (the rows
of the hall module's sums) and `algebras` (the presented algebras over
the backend by tag); tests/test_lint.py fails on a read of any other.
"""

import itertools
import json
from collections import Counter, namedtuple

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
    wrong shape.  The backend counts by class id: pass a Rep to
    `QuiverBackend.classify` for its id.
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
    sorts or renders by raw id.  Every counting method takes class ids,
    and every memo table is keyed by them (or by dimvecs); a Rep is
    stored only as a registered representative or, on a quiver that is
    not a path quiver, as a key of the classification table.  Tables
    fill lazily without locking: not safe to share across threads.  A
    field size p that is not prime raises ValueError.
    """

    def __init__(self, quiver, p):
        _check_prime(p)
        self.quiver = quiver
        self.p = p
        self._chains = path_chains(quiver)
        # id -> representative, one entry per class
        self._classes = []
        # class key -> id (see `_class_key`): one entry per class on a path
        # quiver; elsewhere also one per Rep classified
        self._key_to_id = {}
        # dimvec -> its class ids in scan order, one entry per enumerated
        # dimvec
        self._dimvec_classes = {}
        # id -> S<k> or X{d}#j, one entry per class of an enumerated dimvec
        self._names = {}
        # (M id, N id) -> #Inj(M, N), at most C^2 over C classes
        self._inj = {}
        # L id -> {(M id, N id): g^L_{MN}}, one entry per class
        self._sub_tables = {}
        # (M id, N id) -> ((L id, g^L_{MN}), ...), at most C^2
        self._products = {}
        # (x, y) -> <x, y>, one entry per dimvec pair asked
        self._euler = {}
        # presented algebras over this backend by tag, see presented.algebra
        self.algebras = {}
        # the class-level rows of the Hall sums, keyed ("coproduct", L id)
        # and ("gamma", M id, N id): at most C^2 + C rows, see `hall`
        self.hall_rows = {}
        zero = self.zero_rep()
        self._register(zero, self._class_key(zero))

    # -- construction -------------------------------------------------

    def _dimvec(self, dimvec):
        """dimvec as a tuple of ints; a ValueError unless it has one
        nonnegative entry per vertex."""
        dimvec = tuple(int(d) for d in dimvec)
        if len(dimvec) != self.quiver.n or any(d < 0 for d in dimvec):
            raise ValueError("dimension vector %s needs %d nonnegative "
                             "entries" % (dimvec, self.quiver.n))
        return dimvec

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
        dims, maps = self._dimvec(dims), tuple(maps)
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

        "dims" gives each vertex's dimension under the vertex's name as a
        string.  The top level, "dims" and "maps" must be JSON objects,
        every matrix a list of lists, and p, every dimension and every
        matrix entry a JSON integer (true and false are not); an arrow
        missing from "maps" is zero.  The Rep is built by `rep`, which
        checks the shapes.
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
        # JSON object keys are strings, also for a quiver file's integer
        # vertices, whose string forms `Quiver` keeps distinct
        keys = [str(v) for v in self.quiver.vertices]
        for v in keys:
            if v not in given:
                raise ValueError("rep file has no dimension for vertex %r"
                                 % (v,))
        dims = tuple(_json_int(given[v], "the dimension of vertex %r" % (v,))
                     for v in keys)
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

    def _class_key(self, rep):
        """The key of rep in the classification table: (dims, rank
        invariant) on a path quiver, where it is the same for every Rep of
        a class, and rep itself on any other quiver."""
        if self._chains is None:
            return rep
        return rep.dims, self._rank_invariant(rep.maps)

    def _register(self, rep, key):
        cid = len(self._classes)
        self._classes.append(rep)
        self._key_to_id[key] = cid
        return cid

    def iso_classes(self, dimvec):
        """All isoclass ids of the given dimension vector, fixed order.

        Scans the p^N arrow assignments (N arrow-matrix entries) in
        `itertools.product` order and keeps each one not isomorphic to a
        class already found.  On a path quiver a candidate is one rank
        key, looked up in the classification table, and nothing is stored
        for a rejected one; on any other quiver its quotient classes
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
        got = self._dimvec_classes.get(tuple(dimvec))
        if got is not None:
            return list(got)
        dimvec = self._dimvec(dimvec)
        quiver, p = self.quiver, self.p
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
            key = self._class_key(cand)
            if self._chains is not None:
                if self._key_to_id.get(key) in found:
                    continue
            elif found and self._sieve_class(cand, found) is not None:
                continue
            cid = self._key_to_id.get(key)
            if cid is None:
                cid = self._register(cand, key)
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
        path quiver the id is then a lookup of rep's rank key in the
        classification table, which has one entry per class, so nothing is
        stored for rep.  On any other quiver rep is sieved against the
        classes in turn (see `_sieve_class`), and only the answer is
        remembered, under rep in the same table."""
        key = self._class_key(rep)
        cid = self._key_to_id.get(key)
        if cid is not None:
            return cid
        if self._chains is not None:
            return self._rank_class(key)
        cid = self._sieve_class(rep, self.iso_classes(rep.dims))
        if cid is None:
            raise AssertionError("enumeration missed a class")  # unreachable
        self._key_to_id[key] = cid
        return cid

    def _rank_class(self, key):
        """The class id of a (dims, ranks) key on a path quiver, the classes
        of dims enumerated first if needed."""
        cid = self._key_to_id.get(key)
        if cid is None:
            self.iso_classes(key[0])
            cid = self._key_to_id.get(key)
            if cid is None:
                raise AssertionError("enumeration missed a class")  # unreachable
        return cid

    def class_rep(self, cid):
        return self._classes[cid]

    def class_dim(self, cid):
        return self.class_rep(cid).dims

    def classes_within(self, dimvec):
        """Ids of all classes with dimvec componentwise at most the bound,
        in lexicographic dimvec order.  A bound of wrong length or with a
        negative entry raises ValueError."""
        ranges = [range(d + 1) for d in self._dimvec(dimvec)]
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

    def _rep_hom_dim(self, a, b):
        """dim Hom(a, b) for Reps a, b."""
        total, rows = self._hom_system(a, b)
        return total - row_rank(rows, self.p)

    def hom_dim(self, a, b):
        """dim Hom(a, b) for class ids a, b, computed on each call: the
        injection counts, which read it, are memoized instead."""
        return self._rep_hom_dim(self._classes[a], self._classes[b])

    def ext_dim(self, a, b):
        """dim Ext^1(a, b) for class ids a, b: dim Hom - <dim a, dim b>."""
        return self.hom_dim(a, b) - self.euler_form(self.class_dim(a),
                                                    self.class_dim(b))

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
        """All (sub, quotient) pairs of subrepresentations of the Rep rep,
        with canonical bases, as Reps in subobject order; nothing is
        stored.  The subobject tables call it on quivers that are not path
        quivers, and the sieve of a Rep being classified on any quiver; a
        path quiver's tables read their subobjects' classes off rank keys
        instead (see `_rank_key_table`)."""
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
        """Number of injective homomorphisms a -> b for class ids a, b, by
        the quotient sieve (see `_sieve`), memoized by the pair."""
        got = self._inj.get((a, b))
        if got is None:
            if any(x > y for x, y in zip(self.class_dim(a),
                                         self.class_dim(b))):
                got = 0
            else:
                quots = Counter()
                for (qid, nid), g in self.subobject_table(a).items():
                    if not self._classes[nid].is_zero():
                        quots[qid] += g
                got = self._sieve(self.hom_dim(a, b), quots, b)
            self._inj[(a, b)] = got
        return got

    def _sieve(self, hom, quots, b):
        """#Inj(A, b) for an object A and a class id b of no smaller dims,
        given hom = dim Hom(A, b) and quots {Q id: the number of nonzero
        subobjects K of A with A/K in Q}: p^hom minus the sum over those K
        of #Inj(A/K, b)."""
        total = self.p ** hom
        for qid, g in quots.items():
            total -= g * self.inj_count(qid, b)
        return total

    def _sieve_class(self, rep, cids):
        """The first of the classes cids, all of the Rep rep's dims, that
        rep has an injective homomorphism to, or None.  rep's quotients
        are classified once for all of cids, over `subobject_pairs(rep)` (a
        quotient by a nonzero K has smaller total dim than rep, so this
        never re-enters an in-progress iso_classes(rep.dims)); nothing is
        stored for rep."""
        quots = Counter(self.classify(quot)
                        for sub, quot in self.subobject_pairs(rep)
                        if not sub.is_zero())
        return next((cid for cid in cids
                     if self._sieve(self._rep_hom_dim(rep, self._classes[cid]),
                                    quots, cid) > 0), None)

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

    def subobject_table(self, lid):
        """{(M id, N id): g^L_{MN}} for the class id L, one entry per
        pair with g > 0, from a single pass over the subobjects X of L's
        representative, in subobject order, that classifies M = L/X and
        then N = X.  On a path quiver both are rank keys read off X's
        subspace combo (`_rank_key_table`); on any other quiver X and L/X
        are built as Reps by `subobject_pairs` and classified with the
        sieve.  Built once per class; do not mutate the returned dict."""
        table = self._sub_tables.get(lid)
        if table is None:
            if self._chains is not None:
                table = self._rank_key_table(self._classes[lid])
            else:
                table = {}
                for sub, quot in self.subobject_pairs(self._classes[lid]):
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

    def hall_number(self, lid, mid, nid):
        """g^L_{MN} for class ids L, M, N: subobjects X of L with X iso to
        N and L/X iso to M, read from L's subobject table."""
        return self.subobject_table(lid).get((mid, nid), 0)

    def product_terms(self, mid, nid):
        """((L id, g^L_{MN}), ...) over the classes L of dim M + dim N with
        g^L_{MN} > 0, in `iso_classes` order: the support of [M][N] with
        its Hall numbers, for class ids M, N.  Memoized by the pair."""
        got = self._products.get((mid, nid))
        if got is None:
            total = add_class(self.class_dim(mid), self.class_dim(nid))
            got = tuple((lid, g) for lid in self.iso_classes(total)
                        if (g := self.hall_number(lid, mid, nid)))
            self._products[(mid, nid)] = got
        return got


class A1ClosedFormBackend:
    """Closed-form oracle for the one-vertex quiver: subspace counts are
    Gaussian binomials and a_M is the general linear group order.  It
    implements the counts the `backend-oracle` suite compares with a
    `QuiverBackend` on a1 (`aut_count`, `hom_dim`, `euler_form`,
    `hall_number`), plus `iso_classes` and `p`.  The class of dimension d
    has id d, and the counts take ids, as on `QuiverBackend`.  A field
    size p that is not prime raises ValueError."""

    def __init__(self, p):
        _check_prime(p)
        self.p = p

    def iso_classes(self, dimvec):
        (d,) = dimvec
        return [d]

    def euler_form(self, x, y):
        return x[0] * y[0]

    def hom_dim(self, a, b):
        return a * b

    def aut_count(self, m):
        return gl_order(m, self.p)

    def hall_number(self, l, m, n):
        if m + n != l:
            return 0
        return gaussian_binomial(l, n, self.p)


def make_backend(quiver, p):
    if isinstance(quiver, str):
        quiver = preset(quiver)
    return QuiverBackend(quiver, p)
