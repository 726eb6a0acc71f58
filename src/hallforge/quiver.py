"""Acyclic quivers, their Grothendieck lattice, and the Euler form."""

import json


class Quiver:
    """Finite quiver with named vertices and a list of arrows.

    Arrows are stored as (source_index, target_index) pairs.  The
    constructor rejects directed cycles: the path algebra must be
    finite-dimensional and hereditary for everything downstream.  It also
    rejects vertex names whose string forms collide, such as 1 and "1": a
    rep file names each vertex as a JSON object key, which is a string.
    """

    __slots__ = ("vertices", "arrows", "name")

    def __init__(self, vertices, arrows, name="custom"):
        vertices = tuple(vertices)
        if len({str(v) for v in vertices}) != len(vertices):
            raise ValueError("vertex names must be unique as strings: %s"
                             % ", ".join(map(repr, vertices)))
        index = {v: i for i, v in enumerate(vertices)}
        resolved = []
        for s, t in arrows:
            if s not in index or t not in index:
                raise ValueError(f"arrow ({s!r},{t!r}) uses unknown vertex")
            resolved.append((index[s], index[t]))
        self.vertices = vertices
        self.arrows = tuple(resolved)
        self.name = name
        if self._has_cycle():
            raise ValueError("quiver has a directed cycle")

    def _has_cycle(self):
        n = len(self.vertices)
        indeg = [0] * n
        adj = [[] for _ in range(n)]
        for s, t in self.arrows:
            indeg[t] += 1
            adj[s].append(t)
        queue = [i for i in range(n) if indeg[i] == 0]
        seen = 0
        while queue:
            u = queue.pop()
            seen += 1
            for w in adj[u]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return seen != n

    @property
    def n(self):
        return len(self.vertices)

    def zero_class(self):
        return (0,) * self.n

    def simple_class(self, k):
        """Class of the k-th simple (0-based vertex index)."""
        if not 0 <= k < self.n:
            raise ValueError(f"no vertex {k}")
        return tuple(1 if i == k else 0 for i in range(self.n))

    def euler_form(self, x, y):
        """<x,y> = sum x_i y_i - sum over arrows s->t of x_s y_t."""
        if len(x) != self.n or len(y) != self.n:
            raise ValueError("class length does not match vertex count")
        total = sum(a * b for a, b in zip(x, y))
        for s, t in self.arrows:
            total -= x[s] * y[t]
        return total

    def sym_euler(self, x, y):
        return self.euler_form(x, y) + self.euler_form(y, x)

    def __eq__(self, other):
        return (isinstance(other, Quiver)
                and self.vertices == other.vertices
                and self.arrows == other.arrows)

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver({self.name}, |V|={self.n}, |A|={len(self.arrows)})"


def preset(name):
    if name == "a1":
        return Quiver(("1",), (), name="a1")
    if name == "a2":
        return Quiver(("1", "2"), (("1", "2"),), name="a2")
    if name == "a3":
        return Quiver(("1", "2", "3"), (("1", "2"), ("2", "3")), name="a3")
    if name == "kronecker":
        return Quiver(("1", "2"), (("1", "2"), ("1", "2")), name="kronecker")
    raise ValueError(f"unknown quiver preset {name!r}")


PRESETS = ("a1", "a2", "a3", "kronecker")


def load_quiver(path):
    """Read {"vertices": [...], "arrows": [{"from":..,"to":..}]} from JSON.
    The vertices are unique strings or integers, and each arrow is an
    object whose "from" and "to" are vertices; "arrows" may be left out.
    Raises ValueError for a file that cannot be read, is not JSON or has
    another shape."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError("cannot read quiver file %r (%s)"
                         % (path, exc.strerror or exc))
    if not isinstance(data, dict) or not isinstance(data.get("vertices"), list):
        raise ValueError("quiver file %r must hold an object with a "
                         "\"vertices\" list" % (path,))
    arrows = data.get("arrows", [])
    if not (isinstance(arrows, list) and all(
            isinstance(a, dict) and "from" in a and "to" in a for a in arrows)):
        raise ValueError("quiver file %r: \"arrows\" must be a list of "
                         "objects with \"from\" and \"to\"" % (path,))
    ends = [a[k] for a in arrows for k in ("from", "to")]
    if any(isinstance(v, bool) or not isinstance(v, (str, int))
           for v in data["vertices"] + ends):
        raise ValueError("quiver file %r: every vertex must be a string or "
                         "an integer" % (path,))
    return Quiver(data["vertices"], [(a["from"], a["to"]) for a in arrows],
                  name=str(path))


def quiver_from_arg(spec_str):
    """Resolve a CLI argument: preset name or path to a JSON file."""
    if spec_str in PRESETS:
        return preset(spec_str)
    return load_quiver(spec_str)


def add_class(x, y):
    return tuple(a + b for a, b in zip(x, y))


def sub_class(x, y):
    return tuple(a - b for a, b in zip(x, y))


def neg_class(x):
    return tuple(-a for a in x)
