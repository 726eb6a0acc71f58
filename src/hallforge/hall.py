"""Extended Ringel-Hall bialgebra: twisted product, torus elements K_a,
comultiplication, Green's pairing, gamma coefficients, Green's formula."""

from fractions import Fraction

from .quiver import add_class, sub_class
from .scalars import SqrtScalar, render_scalar, vpow


def _vp(be, n):
    return vpow(n, be.q)


def aut_scalar(be, cid):
    return SqrtScalar.of(be.aut_count(cid), be.q)


class HallElt:
    """Finite linear combination of basis symbols [M]K_alpha."""

    __slots__ = ("be", "terms")

    def __init__(self, be, terms=None):
        self.be = be
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if not c.is_zero():
                    self.terms[key] = c

    @staticmethod
    def unit(be):
        return HallElt.basis(be, 0, None)

    @staticmethod
    def basis(be, mid, alpha=None, coeff=None):
        alpha = be.quiver.zero_class() if alpha is None else tuple(alpha)
        coeff = SqrtScalar.one(be.q) if coeff is None else coeff
        return HallElt(be, {(mid, alpha): coeff})

    @staticmethod
    def torus(be, alpha):
        return HallElt.basis(be, 0, alpha)

    def _spawn(self, terms):
        return HallElt(self.be, terms)

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            out[key] = c if s is None else s + c
        return self._spawn(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, SqrtScalar.zero(self.be.q))
            out[key] = s - c
        return self._spawn(out)

    def scale(self, c):
        return self._spawn({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, HallElt):
            return hmult(self, other)
        return self.scale(other if isinstance(other, SqrtScalar)
                          else SqrtScalar.of(other, self.be.q))

    def __rmul__(self, other):
        return self.scale(SqrtScalar.of(other, self.be.q))

    def __eq__(self, other):
        return isinstance(other, HallElt) and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        be = self.be
        return sorted(self.terms.items(),
                      key=lambda kv: (be.class_sort_key(kv[0][0]), kv[0][1]))

    def __repr__(self):
        return f"HallElt({render_hall(self)})"


class HallTensorElt:
    """Finite sum of pure tensors of basis symbols, two legs."""

    __slots__ = ("be", "terms")

    def __init__(self, be, terms=None):
        self.be = be
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if not c.is_zero():
                    self.terms[key] = c

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            out[key] = c if s is None else s + c
        return HallTensorElt(self.be, out)

    def __eq__(self, other):
        return isinstance(other, HallTensorElt) and self.terms == other.terms

    def is_zero(self):
        return not self.terms


def hmult(x, y):
    """[M]K_a [N]K_b = v^{(a,N)} v^{<M,N>} sum_L g^L_{MN} [L] K_{a+b}."""
    be = x.be
    assert be is y.be, "elements use different backends"
    out = {}
    for (mid, alpha), cx in x.terms.items():
        mhat = be.class_dim(mid)
        for (nid, beta), cy in y.terms.items():
            nhat = be.class_dim(nid)
            base = cx * cy * _vp(be, be.sym_euler(alpha, nhat)
                                 + be.euler_form(mhat, nhat))
            gamma_cls = add_class(alpha, beta)
            for lid, g in be.product_terms(mid, nid):
                key = (lid, gamma_cls)
                add = base * g
                s = out.get(key)
                out[key] = add if s is None else s + add
    return HallElt(be, out)


def comult(x):
    """Delta([L]K_a) = sum v^{<M,N>} (a_M a_N / a_L) g^L_{MN}
    [M]K_{N+a} (x) [N]K_a, one term per (M, N) in L's subobject table."""
    be = x.be
    out = {}
    for (lid, alpha), c in x.terms.items():
        c_over_a_l = c / be.aut_count(lid)
        for (mid, nid), g in be.subobject_table(lid).items():
            mhat, nhat = be.class_dim(mid), be.class_dim(nid)
            coeff = c_over_a_l * _vp(be, be.euler_form(mhat, nhat)) \
                * (g * be.aut_count(mid) * be.aut_count(nid))
            key = ((mid, add_class(nhat, alpha)), (nid, alpha))
            s = out.get(key)
            out[key] = coeff if s is None else s + coeff
    return HallTensorElt(be, out)


def green_pairing(x, y):
    """phi_0([M]K_a, [N]K_b) = delta_{MN} v^{(a,b)} / a_M, bilinear."""
    be = x.be
    total = SqrtScalar.zero(be.q)
    for (mid, alpha), cx in x.terms.items():
        for (nid, beta), cy in y.terms.items():
            if mid != nid:
                continue
            total = total + cx * cy * _vp(be, be.sym_euler(alpha, beta)) \
                / be.aut_count(mid)
    return total


def gamma(be, m, n, x, y):
    """gamma^{XY}_{MN} = (a_X a_Y / a_M a_N) sum_L a_L g^M_{LX} g^N_{YL};
    rational, zero unless the class of M-X equals that of N-Y."""
    diff = sub_class(be.class_dim(m), be.class_dim(x))
    if diff != sub_class(be.class_dim(n), be.class_dim(y)):
        return SqrtScalar.zero(be.q)
    if any(d < 0 for d in diff):
        return SqrtScalar.zero(be.q)
    acc = 0
    for (lid, sub), g1 in be.subobject_table(m).items():
        if sub != x:
            continue
        g2 = be.hall_number(n, y, lid)
        if g2:
            acc += be.aut_count(lid) * g1 * g2
    return SqrtScalar.of(
        Fraction(acc * be.aut_count(x) * be.aut_count(y),
                 be.aut_count(m) * be.aut_count(n)), be.q)


def green_formula_check(be, m, n, mp, np_):
    """Both sides of the product-coproduct compatibility count:
    lhs = a_M a_N a_M' a_N' sum_L g^L_{MN} g^L_{M'N'} / a_L,
    rhs = sum q^{-<A,B'>} g^M_{AA'} g^N_{BB'} g^{M'}_{AB} g^{N'}_{A'B'}
          a_A a_A' a_B a_B'."""
    m, n, mp, np_ = (be.classify(z) for z in (m, n, mp, np_))
    q = be.q
    total = add_class(be.class_dim(m), be.class_dim(n))
    lhs = SqrtScalar.zero(q)
    if total == add_class(be.class_dim(mp), be.class_dim(np_)):
        # sum of g1 g2 / a_L as one int fraction num / den
        num, den = 0, 1
        for lid, g1 in be.product_terms(m, n):
            g2 = be.hall_number(lid, mp, np_)
            if g2:
                a_l = be.aut_count(lid)
                num, den = num * a_l + g1 * g2 * den, den * a_l
        num *= be.aut_count(m) * be.aut_count(n) \
            * be.aut_count(mp) * be.aut_count(np_)
        lhs = SqrtScalar.of(Fraction(num, den), q)
    rhs = SqrtScalar.zero(q)
    table_n = be.subobject_table(n)
    for (a_cls, ap_cls), g_m in be.subobject_table(m).items():
        for (b_cls, bp_cls), g_n in table_n.items():
            g_mp = be.hall_number(mp, a_cls, b_cls)
            if not g_mp:
                continue
            g_np = be.hall_number(np_, ap_cls, bp_cls)
            if not g_np:
                continue
            weight = be.aut_count(a_cls) * be.aut_count(ap_cls) \
                * be.aut_count(b_cls) * be.aut_count(bp_cls) \
                * g_m * g_n * g_mp * g_np
            factor = _vp(be, -2 * be.euler_form(be.class_dim(a_cls),
                                                be.class_dim(bp_cls)))
            rhs = rhs + factor * weight
    return lhs, rhs, lhs == rhs


# -- bialgebra checks ------------------------------------------------

def tensor_hmult(xt, yt):
    """Componentwise product on the tensor square."""
    be = xt.be
    out = HallTensorElt(be)
    for (l1, l2), cx in xt.terms.items():
        for (r1, r2), cy in yt.terms.items():
            left = hmult(HallElt(be, {l1: cx}), HallElt(be, {r1: cy}))
            right = hmult(HallElt.basis(be, *l2), HallElt.basis(be, *r2))
            for k1, c1 in left.terms.items():
                for k2, c2 in right.terms.items():
                    key = (k1, k2)
                    c = c1 * c2
                    s = out.terms.get(key)
                    out.terms[key] = c if s is None else s + c
    out.terms = {k: v for k, v in out.terms.items() if not v.is_zero()}
    return out


def coassoc_check(x):
    """(Delta x id) Delta = (id x Delta) Delta, expanded to triples."""
    be = x.be
    left, right = {}, {}
    for (k1, k2), c in comult(x).terms.items():
        for (j1, j2), d in comult(HallElt(be, {k1: c})).terms.items():
            key = (j1, j2, k2)
            s = left.get(key)
            left[key] = d if s is None else s + d
        for (j1, j2), d in comult(HallElt(be, {k2: c})).terms.items():
            key = (k1, j1, j2)
            s = right.get(key)
            right[key] = d if s is None else s + d
    left = {k: v for k, v in left.items() if not v.is_zero()}
    right = {k: v for k, v in right.items() if not v.is_zero()}
    return left == right


def bialgebra_check(x, y):
    """Delta(xy) = Delta(x) Delta(y) with the componentwise tensor product."""
    return comult(hmult(x, y)) == tensor_hmult(comult(x), comult(y))


def pairing_product_check(x, y, z):
    """phi_0(xy, z) = sum phi_0(x, z_(1)) phi_0(y, z_(2))."""
    be = x.be
    lhs = green_pairing(hmult(x, y), z)
    rhs = SqrtScalar.zero(be.q)
    for (k1, k2), c in comult(z).terms.items():
        rhs = rhs + c * green_pairing(x, HallElt.basis(be, *k1)) \
            * green_pairing(y, HallElt.basis(be, *k2))
    return lhs == rhs


def pairing_coproduct_check(x, y, z):
    """phi_0(x, yz) = sum phi_0(x_(1), y) phi_0(x_(2), z)."""
    be = x.be
    lhs = green_pairing(x, hmult(y, z))
    rhs = SqrtScalar.zero(be.q)
    for (k1, k2), c in comult(x).terms.items():
        rhs = rhs + c * green_pairing(HallElt.basis(be, *k1), y) \
            * green_pairing(HallElt.basis(be, *k2), z)
    return lhs == rhs


# -- rendering -------------------------------------------------------

def _render_basis(be, mid, alpha):
    parts = []
    if mid != 0:
        parts.append(f"[{be.class_name(mid)}]")
    if any(alpha):
        parts.append("K{(" + ",".join(str(a) for a in alpha) + ")}")
    return "".join(parts) or "1"


def render_hall(x):
    if not x.terms:
        return "0"
    chunks = []
    for (mid, alpha), c in x.sorted_terms():
        sym = _render_basis(x.be, mid, alpha)
        cs = render_scalar(c)
        if sym == "1":
            chunks.append(cs)
        elif cs == "1":
            chunks.append(sym)
        else:
            chunks.append(f"{cs} * {sym}")
    return " + ".join(chunks)
