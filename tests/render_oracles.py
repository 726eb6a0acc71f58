"""Two-pass reference renderers, for checking `exprs` and `render_scalar`.

Each one builds the text the slow way: a class name by finding the class
in a copy of its dimension vector's class list, a scalar from the two
Fraction parts `a` and `b`, and an element by sorting its words on their
rendered text and then rendering every word a second time for the body.
"""

from hallforge.presented import is_torus


def ref_class_name(be, cid):
    dims = be.class_dim(cid)
    if sum(dims) == 1:
        return "S%d" % (dims.index(1) + 1)
    j = list(be.iso_classes(dims)).index(cid)
    return "X{" + ",".join(str(d) for d in dims) + "}#" + str(j)


def _ref_fraction(r):
    if r.denominator == 1:
        return str(r.numerator)
    return "%d/%d" % (r.numerator, r.denominator)


def _ref_vpower(r, q):
    """k with r = q^k (k integer, any sign), or None."""
    if r <= 0:
        return None
    if r == 1:
        return 0
    k = 0
    if r.denominator == 1:
        n = r.numerator
        while n % q == 0:
            n //= q
            k += 1
        return k if n == 1 else None
    if r.numerator == 1:
        n = r.denominator
        while n % q == 0:
            n //= q
            k -= 1
        return k if n == 1 else None
    return None


def ref_render(x):
    """Text of a scalar read off its Fraction parts x.a, x.b and x.q; any
    object with those attributes will do."""
    if x.b == 0:
        k = _ref_vpower(x.a, x.q)
        if k is not None and k != 0:
            return "v^%d" % (2 * k)
        k = _ref_vpower(-x.a, x.q)
        if k is not None and k != 0:
            return "-v^%d" % (2 * k)
        return _ref_fraction(x.a)
    if x.a == 0:
        k = _ref_vpower(x.b, x.q)
        if k is not None:
            e = 2 * k + 1
            return "v" if e == 1 else "v^%d" % e
        k = _ref_vpower(-x.b, x.q)
        if k is not None:
            e = 2 * k + 1
            return "-v" if e == 1 else "-v^%d" % e
        return "%s * v" % _ref_fraction(x.b)
    bpart = "%s * v" % _ref_fraction(abs(x.b)) if abs(x.b) != 1 else "v"
    sign = "+" if x.b > 0 else "-"
    return "(%s %s %s)" % (_ref_fraction(x.a), sign, bpart)


def ref_render_letter(be, letter):
    kind = letter[0]
    if kind in ("e", "Z"):
        return "%s[%s;%d]" % (kind, ref_class_name(be, letter[1]), letter[2])
    if kind in ("k", "KZ"):
        return "%s[(%s);%d]" % (kind, ",".join(str(x) for x in letter[1]),
                                letter[2])
    name = kind + ("+" if letter[1] > 0 else "-")
    if is_torus(letter):
        return "%s[(%s)]" % (name, ",".join(str(x) for x in letter[2]))
    return "%s[%s]" % (name, ref_class_name(be, letter[2]))


def ref_render_word(be, word):
    return " ".join(ref_render_letter(be, letter) for letter in word)


def _ref_piece(body, coeff):
    s = ref_render(coeff)
    if not body:
        return s
    if s == "1":
        return body
    if s == "-1":
        return "-" + body
    return "%s %s" % (s, body)


def _ref_join(pieces):
    if not pieces:
        return "0"
    out = pieces[0]
    for p in pieces[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def ref_render_elt(be, x):
    words = sorted(x.terms,
                   key=lambda w: (-len(w), ref_render_word(be, w)))
    return _ref_join([_ref_piece(ref_render_word(be, w), x.terms[w])
                      for w in words])


def ref_render_tensor(be, x):
    def leg(w):
        return ref_render_word(be, w) if w else "1"

    keys = sorted(x.terms, key=lambda k: (-len(k[0]) - len(k[1]),
                                          leg(k[0]), leg(k[1])))
    return _ref_join([_ref_piece("%s (x) %s" % (leg(lw), leg(rw)),
                                 x.terms[(lw, rw)]) for lw, rw in keys])
