"""Extended Ringel-Hall bialgebra: twisted product, torus elements K_a,
comultiplication, Green's pairing, gamma coefficients, Green's formula.

An element is a `Lin` of basis symbols (mid, alpha) for [M]K_alpha,
labelled by its backend; its coproduct is a `Lin` of symbol pairs labelled
(backend, backend)."""

from fractions import Fraction

from .quiver import add_class, sub_class
from .scalars import Lin, SqrtScalar, accumulate, render_scalar, vpow


def _vp(be, n):
    return vpow(n, be.q)


def aut_scalar(be, cid):
    return SqrtScalar.of(be.aut_count(cid), be.q)


def _elt(be, terms):
    """A Hall element: a Lin of (mid, alpha) symbols labelled by `be`."""
    return Lin(be.q, terms, be)


def basis(be, mid, alpha=None, coeff=None):
    """coeff * [M]K_alpha, K_0 when alpha is None, coefficient 1 by default."""
    alpha = be.quiver.zero_class() if alpha is None else tuple(alpha)
    coeff = SqrtScalar.one(be.q) if coeff is None else coeff
    return _elt(be, {(mid, alpha): coeff})


def torus(be, alpha):
    return basis(be, 0, alpha)


def unit(be):
    return basis(be, 0)


def hmult(x, y):
    """[M]K_a [N]K_b = v^{(a,N)} v^{<M,N>} sum_L g^L_{MN} [L] K_{a+b}."""
    be = x.label
    if y.label is not be:
        raise ValueError("elements use different backends")
    out = {}
    for (mid, alpha), cx in x.terms.items():
        mhat = be.class_dim(mid)
        for (nid, beta), cy in y.terms.items():
            nhat = be.class_dim(nid)
            base = cx * cy * _vp(be, be.sym_euler(alpha, nhat)
                                 + be.euler_form(mhat, nhat))
            gamma_cls = add_class(alpha, beta)
            for lid, g in be.product_terms(mid, nid):
                accumulate(out, (lid, gamma_cls), base * g)
    return _elt(be, out)


def comult(x):
    """Delta([L]K_a) = sum v^{<M,N>} (a_M a_N / a_L) g^L_{MN}
    [M]K_{N+a} (x) [N]K_a, one term per (M, N) in L's subobject table."""
    be = x.label
    out = {}
    for (lid, alpha), c in x.terms.items():
        c_over_a_l = c / be.aut_count(lid)
        for (mid, nid), g in be.subobject_table(lid).items():
            mhat, nhat = be.class_dim(mid), be.class_dim(nid)
            coeff = c_over_a_l * _vp(be, be.euler_form(mhat, nhat)) \
                * (g * be.aut_count(mid) * be.aut_count(nid))
            accumulate(out, ((mid, add_class(nhat, alpha)), (nid, alpha)),
                       coeff)
    return Lin(be.q, out, (be, be))


def green_pairing(x, y):
    """phi_0([M]K_a, [N]K_b) = delta_{MN} v^{(a,b)} / a_M, bilinear."""
    be = x.label
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
    be = xt.label[0]
    out = {}
    for (l1, l2), cx in xt.terms.items():
        for (r1, r2), cy in yt.terms.items():
            left = hmult(_elt(be, {l1: cx}), _elt(be, {r1: cy}))
            right = hmult(basis(be, *l2), basis(be, *r2))
            for k1, c1 in left.terms.items():
                for k2, c2 in right.terms.items():
                    accumulate(out, (k1, k2), c1 * c2)
    return Lin(be.q, out, xt.label)


def coassoc_check(x):
    """(Delta x id) Delta = (id x Delta) Delta, expanded to triples."""
    be = x.label
    left, right = {}, {}
    for (k1, k2), c in comult(x).terms.items():
        for (j1, j2), d in comult(_elt(be, {k1: c})).terms.items():
            accumulate(left, (j1, j2, k2), d)
        for (j1, j2), d in comult(_elt(be, {k2: c})).terms.items():
            accumulate(right, (k1, j1, j2), d)
    return Lin(be.q, left) == Lin(be.q, right)


def bialgebra_check(x, y):
    """Delta(xy) = Delta(x) Delta(y) with the componentwise tensor product."""
    return comult(hmult(x, y)) == tensor_hmult(comult(x), comult(y))


def pairing_product_check(x, y, z):
    """phi_0(xy, z) = sum phi_0(x, z_(1)) phi_0(y, z_(2))."""
    be = x.label
    lhs = green_pairing(hmult(x, y), z)
    rhs = SqrtScalar.zero(be.q)
    for (k1, k2), c in comult(z).terms.items():
        rhs = rhs + c * green_pairing(x, basis(be, *k1)) \
            * green_pairing(y, basis(be, *k2))
    return lhs == rhs


def pairing_coproduct_check(x, y, z):
    """phi_0(x, yz) = sum phi_0(x_(1), y) phi_0(x_(2), z)."""
    be = x.label
    lhs = green_pairing(x, hmult(y, z))
    rhs = SqrtScalar.zero(be.q)
    for (k1, k2), c in comult(x).terms.items():
        rhs = rhs + c * green_pairing(basis(be, *k1), y) \
            * green_pairing(basis(be, *k2), z)
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
    be = x.label
    chunks = []
    for (mid, alpha), c in sorted(
            x.terms.items(),
            key=lambda kv: (be.class_sort_key(kv[0][0]), kv[0][1])):
        sym = _render_basis(be, mid, alpha)
        cs = render_scalar(c)
        if sym == "1":
            chunks.append(cs)
        elif cs == "1":
            chunks.append(sym)
        else:
            chunks.append(f"{cs} * {sym}")
    return " + ".join(chunks)
