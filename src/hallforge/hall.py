"""Extended Ringel-Hall bialgebra: twisted product, torus elements K_a,
comultiplication, Green's pairing, gamma coefficients, Green's formula.

An element is a `Lin` of basis symbols (mid, alpha) for [M]K_alpha,
labelled by its backend; its coproduct is a `Lin` of symbol pairs labelled
(backend, backend).

Two class-level Hall sums feed every coproduct and crossing the package
forms, and each is built once per class or class pair as a row of the
backend's table `be.hall_rows`, freed with the backend:

- `coproduct_row(L)`: the terms of Delta([L]); `comult` and the maps out
  of the double (`morphisms._double_map`) read it;
- `gamma_row(M, N)`: the nonzero gamma^{XY}_{MN} over
  `cross_support(M, N)`, behind every crossing relation of the presented
  algebras, which read the mirrored sum of (M, N) off the row of (N, M).

The table holds at most C^2 + C rows over C classes.  The product reads
the backend's product terms of (M, N) and scales them by v^<M^,N^> where
it is formed."""

from fractions import Fraction

from .quiver import add_class, sub_class
from .scalars import Lin, SqrtScalar, accumulate, vpow


def _vp(be, n):
    return vpow(n, be.p)


def _elt(be, terms):
    """A Hall element: a Lin of (mid, alpha) symbols labelled by `be`."""
    return Lin(be.p, terms, be)


def basis(be, mid, alpha=None, coeff=None):
    """coeff * [M]K_alpha, K_0 when alpha is None, coefficient 1 by default."""
    alpha = be.quiver.zero_class() if alpha is None else tuple(alpha)
    coeff = SqrtScalar.one(be.p) if coeff is None else coeff
    return _elt(be, {(mid, alpha): coeff})


def unit(be):
    return basis(be, 0)


def _symbol_product(be, out, left, right, c):
    """out += c [M]K_a [N]K_b, for the symbols left = (M, a), right =
    (N, b), one key per class L; `out` is a dict of terms."""
    (mid, alpha), (nid, beta) = left, right
    nhat = be.class_dim(nid)
    base = c * _vp(be, be.sym_euler(alpha, nhat)
                   + be.euler_form(be.class_dim(mid), nhat))
    gamma_cls = add_class(alpha, beta)
    for lid, g in be.product_terms(mid, nid):
        accumulate(out, (lid, gamma_cls), base * g)


def hmult(x, y):
    """[M]K_a [N]K_b = v^{(a,N)} v^{<M,N>} sum_L g^L_{MN} [L] K_{a+b}."""
    be = x.label
    if y.label is not be:
        raise ValueError("elements use different backends")
    out = {}
    for left, cx in x.terms.items():
        for right, cy in y.terms.items():
            _symbol_product(be, out, left, right, cx * cy)
    return Lin.owned(be.p, out, be)


def coproduct_row(be, lid):
    """The terms (M, N, N^, v^{<M,N>} (a_M a_N / a_L) g^L_{MN}) of
    Delta([L]), in L's subobject table order: built once per class and
    held in `be.hall_rows`."""
    key = ("coproduct", lid)
    row = be.hall_rows.get(key)
    if row is None:
        a_l = be.aut_count(lid)
        terms = []
        for (mid, nid), g in be.subobject_table(lid).items():
            mhat, nhat = be.class_dim(mid), be.class_dim(nid)
            weight = Fraction(g * be.aut_count(mid) * be.aut_count(nid), a_l)
            terms.append((mid, nid, nhat,
                          _vp(be, be.euler_form(mhat, nhat)) * weight))
        row = be.hall_rows[key] = tuple(terms)
    return row


def comult(x):
    """Delta([L]K_a) = sum v^{<M,N>} (a_M a_N / a_L) g^L_{MN}
    [M]K_{N+a} (x) [N]K_a, one term per (M, N) in L's subobject table."""
    be = x.label
    out = {}
    for (lid, alpha), c in x.terms.items():
        for mid, nid, nhat, coeff in coproduct_row(be, lid):
            accumulate(out, ((mid, add_class(nhat, alpha)), (nid, alpha)),
                       c * coeff)
    return Lin.owned(be.p, out, (be, be))


def green_pairing(x, y):
    """phi_0([M]K_a, [N]K_b) = delta_{MN} v^{(a,b)} / a_M, bilinear."""
    be = x.label
    total = SqrtScalar.zero(be.p)
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
        return SqrtScalar.zero(be.p)
    if any(d < 0 for d in diff):
        return SqrtScalar.zero(be.p)
    acc = 0
    for (lid, sub), g1 in be.subobject_table(m).items():
        if sub != x:
            continue
        g2 = be.hall_number(n, y, lid)
        if g2:
            acc += be.aut_count(lid) * g1 * g2
    return SqrtScalar.of(
        Fraction(acc * be.aut_count(x) * be.aut_count(y),
                 be.aut_count(m) * be.aut_count(n)), be.p)


def cross_support(be, M, N):
    """(X, Y, X^, Y^, L^) with L^ = M^ - X^ = N^ - Y^ over nonneg dimvecs."""
    mh, nh = be.class_dim(M), be.class_dim(N)
    for X in be.classes_within(mh):
        xh = be.class_dim(X)
        lh = sub_class(mh, xh)
        yh = sub_class(nh, lh)
        if any(c < 0 for c in yh):
            continue
        for Y in be.iso_classes(yh):
            yield X, Y, xh, yh, lh


def gamma_row(be, M, N):
    """The terms (gamma(M, N, X, Y), X, Y, X^, Y^, L^) over
    `cross_support(M, N)`, in its order, where gamma is nonzero.  Built
    once per (M, N) and held in `be.hall_rows`."""
    key = ("gamma", M, N)
    row = be.hall_rows.get(key)
    if row is None:
        terms = []
        for X, Y, xh, yh, lh in cross_support(be, M, N):
            gam = gamma(be, M, N, X, Y)
            if not gam.is_zero():
                terms.append((gam, X, Y, xh, yh, lh))
        row = be.hall_rows[key] = tuple(terms)
    return row


def green_formula_check(be, m, n, mp, np_):
    """Both sides of the product-coproduct compatibility count:
    lhs = a_M a_N a_M' a_N' sum_L g^L_{MN} g^L_{M'N'} / a_L,
    rhs = sum q^{-<A,B'>} g^M_{AA'} g^N_{BB'} g^{M'}_{AB} g^{N'}_{A'B'}
          a_A a_A' a_B a_B'."""
    q = be.p
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
    one = SqrtScalar.one(be.p)
    out = {}
    for (l1, l2), cx in xt.terms.items():
        for (r1, r2), cy in yt.terms.items():
            left, right = {}, {}
            _symbol_product(be, left, l1, r1, cx * cy)
            _symbol_product(be, right, l2, r2, one)
            for k1, c1 in left.items():
                for k2, c2 in right.items():
                    accumulate(out, (k1, k2), c1 * c2)
    return Lin.owned(be.p, out, xt.label)


def coassoc_check(x):
    """(Delta x id) Delta = (id x Delta) Delta, expanded to triples."""
    be = x.label
    left, right = {}, {}
    for (k1, k2), c in comult(x).terms.items():
        for (j1, j2), d in comult(_elt(be, {k1: c})).terms.items():
            accumulate(left, (j1, j2, k2), d)
        for (j1, j2), d in comult(_elt(be, {k2: c})).terms.items():
            accumulate(right, (k1, j1, j2), d)
    return Lin(be.p, left) == Lin(be.p, right)


def bialgebra_check(x, y):
    """Delta(xy) = Delta(x) Delta(y) with the componentwise tensor product."""
    return comult(hmult(x, y)) == tensor_hmult(comult(x), comult(y))


def pairing_product_check(x, y, z):
    """phi_0(xy, z) = sum phi_0(x, z_(1)) phi_0(y, z_(2))."""
    be = x.label
    lhs = green_pairing(hmult(x, y), z)
    rhs = SqrtScalar.zero(be.p)
    for (k1, k2), c in comult(z).terms.items():
        rhs = rhs + c * green_pairing(x, basis(be, *k1)) \
            * green_pairing(y, basis(be, *k2))
    return lhs == rhs


def pairing_coproduct_check(x, y, z):
    """phi_0(x, yz) = sum phi_0(x_(1), y) phi_0(x_(2), z)."""
    be = x.label
    lhs = green_pairing(x, hmult(y, z))
    rhs = SqrtScalar.zero(be.p)
    for (k1, k2), c in comult(x).terms.items():
        rhs = rhs + c * green_pairing(basis(be, *k1), y) \
            * green_pairing(basis(be, *k2), z)
    return lhs == rhs

