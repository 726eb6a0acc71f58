"""Expression text layer: parsing CLI expressions and rendering elements.

Grammar:
    expr   := term (('+' | '-') term)*
    term   := factor (('*' factor) | factor)*      # juxtaposition multiplies
    factor := '-' factor | rational | vpower | atom | '(' expr ')'
    atom   := name '[' arg (';' int)? ']'

Torus atoms take a class tuple argument "(1,0)"; module atoms take an
object name: S<k>, X{d1,...,dn}#j, or @file (a rep JSON to classify).
Rationals render as p/r, v-powers as v^k; no decimals anywhere.
"""

from fractions import Fraction

from .presented import INDEXED, TWO_SIDED, FreeElt, algebra
from .scalars import SqrtScalar, render_scalar, vpow


class ExprError(ValueError):
    """Parse-time failure; position is 1-based into the source text."""

    def __init__(self, message, position):
        super().__init__("%s at position %d" % (message, position))
        self.position = position


# name -> (letter kind, sign or None, takes torus class, takes index), read
# off the presentations' rows: a two-sided kind takes a sign suffix
_ATOMS = {
    **{kind + mark: (kind, s, torus, False)
       for row in TWO_SIDED.values()
       for kind, torus in ((row.module, False), (row.torus, True))
       for mark, s in (("+", 1), ("-", -1))},
    **{kind: (kind, None, torus, True)
       for row in INDEXED.values()
       for kind, torus in ((row.module, False), (row.torus, True)) if kind},
}

# atom names, longest first so the tokenizer can scan greedily
_ATOM_NAMES = sorted(_ATOMS, key=len, reverse=True)


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def here(self):
        """1-based position of the next meaningful character."""
        self.skip_ws()
        return self.pos + 1

    def take(self, ch):
        if self.peek() != ch:
            raise ExprError("expected %r" % ch, self.here())
        self.pos += 1

    def tries(self, word):
        self.skip_ws()
        if self.text.startswith(word, self.pos):
            self.pos += len(word)
            return True
        return False

    def integer(self, signed=True):
        self.skip_ws()
        start = self.pos
        if signed and self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ExprError("expected an integer", start + 1)
        return int(self.text[start:self.pos])


class _Parser:
    def __init__(self, text, alg):
        self.sc = _Scanner(text)
        self.alg = alg
        self.be = alg.be

    def parse(self):
        out = self.expr()
        self.sc.skip_ws()
        if self.sc.pos != len(self.sc.text):
            raise ExprError("unexpected %r" % self.sc.peek(), self.sc.here())
        return out

    def expr(self):
        out = self.term()
        while True:
            if self.sc.tries("+"):
                out = out + self.term()
            elif self.sc.peek() == "-":
                self.sc.take("-")
                out = out - self.term()
            else:
                return out

    def term(self):
        out = self.factor()
        while True:
            if self.sc.tries("*"):
                out = out * self.factor()
                continue
            ch = self.sc.peek()
            # juxtaposition: anything that can start a factor multiplies
            if ch.isdigit() or ch == "(" or ch.isalpha():
                out = out * self.factor()
                continue
            return out

    def factor(self):
        ch = self.sc.peek()
        if ch == "-":
            self.sc.take("-")
            return self.factor().scale(SqrtScalar.of(Fraction(-1), self.alg.q))
        if ch == "(":
            open_pos = self.sc.here()
            self.sc.take("(")
            try:
                out = self.expr()
                self.sc.take(")")
            except ExprError as exc:
                if exc.position > len(self.sc.text):
                    raise ExprError("unclosed '('", open_pos) from None
                raise
            return out
        if ch.isdigit():
            return self.rational()
        if ch == "":
            raise ExprError("unexpected end of input", self.sc.here())
        return self.vpow_or_atom()

    def rational(self):
        num = self.sc.integer(signed=False)
        if self.sc.tries("/"):
            pos = self.sc.here()
            den = self.sc.integer(signed=False)
            if den == 0:
                raise ExprError("zero denominator", pos)
            value = Fraction(num, den)
        else:
            value = Fraction(num)
        return FreeElt.word(self.alg.q, (),
                            SqrtScalar.of(value, self.alg.q))

    def vpow_or_atom(self):
        pos = self.sc.here()
        for name in _ATOM_NAMES:
            if self.sc.tries(name):
                return self.atom(name, pos)
        if self.sc.tries("v"):
            k = self.sc.integer() if self.sc.tries("^") else 1
            return FreeElt.word(self.alg.q, (), vpow(k, self.alg.q))
        raise ExprError("expected a scalar, atom, or '('", pos)

    def atom(self, name, pos):
        kind, sign, torus, indexed = _ATOMS[name]
        self.sc.take("[")
        if torus:
            arg = self.class_tuple()
        else:
            arg = self.object_ref()
        idx = None
        if self.sc.tries(";"):
            idx = self.sc.integer()
        if (idx is not None) != indexed:
            raise ExprError("atom %s %s an index" %
                            (name, "requires" if indexed else "does not take"),
                            pos)
        self.sc.take("]")
        if indexed:
            letter = (kind, arg, idx)
        else:
            letter = (kind, sign, arg)
        try:
            letter = self.alg.canon_letter(letter)
        except ValueError as exc:
            raise ExprError(str(exc), pos) from None
        return FreeElt.word(self.alg.q, (letter,))

    def class_tuple(self):
        self.sc.take("(")
        vals = [self.sc.integer()]
        while self.sc.tries(","):
            vals.append(self.sc.integer())
        self.sc.take(")")
        if len(vals) != self.be.quiver.n:
            raise ExprError("class tuple needs %d entries" % self.be.quiver.n,
                            self.sc.here())
        return tuple(vals)

    def object_ref(self):
        ch = self.sc.peek()
        pos = self.sc.here()
        if ch == "S":
            self.sc.take("S")
            k = self.sc.integer(signed=False)
            return self._lookup("S%d" % k, pos)
        if ch == "X":
            self.sc.take("X")
            self.sc.take("{")
            dims = [self.sc.integer(signed=False)]
            while self.sc.tries(","):
                dims.append(self.sc.integer(signed=False))
            self.sc.take("}")
            self.sc.take("#")
            j = self.sc.integer(signed=False)
            name = "X{" + ",".join(str(d) for d in dims) + "}#%d" % j
            return self._lookup(name, pos)
        if ch == "@":
            self.sc.take("@")
            start = self.sc.pos
            while (self.sc.pos < len(self.sc.text)
                   and self.sc.text[self.sc.pos] not in ";]"):
                self.sc.pos += 1
            path = self.sc.text[start:self.sc.pos].strip()
            try:
                return self.be.classify(self.be.load_rep(path))
            except (OSError, ValueError, KeyError) as exc:
                raise ExprError("cannot load rep %r (%s)" % (path, exc),
                                pos) from None
        raise ExprError("expected an object name", pos)

    def _lookup(self, name, pos):
        try:
            return self.be.class_by_name(name)
        except (ValueError, KeyError, IndexError):
            raise ExprError("unknown object %r" % name, pos) from None


def parse_expr(text, alg, be=None):
    """Parse text to a free element (a `Lin` labelled None) over the given
    algebra (tag or Algebra)."""
    if isinstance(alg, str):
        alg = algebra(alg, be)
    return _Parser(text, alg).parse()


# ---------------------------------------------------------------------------
# rendering

# letter kind -> (takes torus class, takes index)
_KINDS = {kind: (torus, indexed)
          for kind, _, torus, indexed in _ATOMS.values()}


def render_letter(be, letter):
    kind, x, y = letter
    torus, indexed = _KINDS[kind]
    if indexed:  # (kind, class, index)
        name, arg, tail = kind, x, ";%d" % y
    else:  # (kind, sign, class)
        name, arg, tail = kind + ("+" if x > 0 else "-"), y, ""
    if torus:
        text = "(%s)" % ",".join(str(c) for c in arg)
    else:
        text = be.class_name(arg)
    return "%s[%s%s]" % (name, text, tail)


def render_word(be, word):
    return " ".join(render_letter(be, letter) for letter in word)


def _term_piece(body, coeff):
    """One term: the coefficient times the rendered body ("" for none)."""
    s = render_scalar(coeff)
    if not body:
        return s
    if s == "1":
        return body
    if s == "-1":
        return "-" + body
    return "%s %s" % (s, body)


def _join_terms(pieces):
    if not pieces:
        return "0"
    out = pieces[0]
    for p in pieces[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


def _sorted_pieces(rendered):
    """Join (sort key, body, coeff) triples in key order; equal keys keep
    their order."""
    rendered.sort(key=lambda t: t[0])
    return _join_terms([_term_piece(body, c) for _, body, c in rendered])


def render_elt(be, x):
    """Deterministic text form of a free element or a normal form: longer
    words first, then by text; each word is rendered once."""
    rendered = []
    for w, c in x.terms.items():
        body = render_word(be, w)
        rendered.append(((-len(w), body), body, c))
    return _sorted_pieces(rendered)


def render_tensor(be, x):
    """Text form of a tensor-square element; for reports only (not
    parseable)."""
    rendered = []
    for (lw, rw), c in x.terms.items():
        left = render_word(be, lw) if lw else "1"
        right = render_word(be, rw) if rw else "1"
        rendered.append(((-len(lw) - len(rw), left, right),
                         "%s (x) %s" % (left, right), c))
    return _sorted_pieces(rendered)


def render_any(be, x):
    """Text of a compared value: an element (tensor squares included), a
    scalar, an int, or "" for None."""
    if x is None:
        return ""
    if isinstance(x, SqrtScalar):
        return render_scalar(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x.label, tuple):
        return render_tensor(be, x)
    return render_elt(be, x)
