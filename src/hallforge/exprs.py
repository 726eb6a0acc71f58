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

from .presented import FreeElt, algebra, is_torus
from .scalars import SqrtScalar, render_scalar, vpow


class ExprError(ValueError):
    """Parse-time failure; position is 1-based into the source text."""

    def __init__(self, message, position):
        super().__init__("%s at position %d" % (message, position))
        self.position = position


# atom names, longest first so the tokenizer can scan greedily
_ATOM_NAMES = ("mu+", "mu-", "nu+", "nu-", "om+", "om-",
               "Kc+", "Kc-", "KD+", "KD-", "KZ", "K+", "K-",
               "Z", "e", "k")

# name -> (letter kind, sign or None, takes torus class, takes index)
_ATOMS = {
    "mu+": ("mu", 1, False, False),
    "mu-": ("mu", -1, False, False),
    "K+": ("K", 1, True, False),
    "K-": ("K", -1, True, False),
    "nu+": ("nu", 1, False, False),
    "nu-": ("nu", -1, False, False),
    "Kc+": ("Kc", 1, True, False),
    "Kc-": ("Kc", -1, True, False),
    "e": ("e", None, False, True),
    "k": ("k", None, True, True),
    "Z": ("Z", None, False, True),
    "KZ": ("KZ", None, True, True),
    "om+": ("om", 1, False, False),
    "om-": ("om", -1, False, False),
    "KD+": ("KD", 1, True, False),
    "KD-": ("KD", -1, True, False),
}


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
        if kind in ("e", "Z"):
            letter = (kind, arg, idx)
        elif kind in ("k", "KZ"):
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

def render_letter(be, letter):
    kind = letter[0]
    if kind in ("e", "Z"):
        return "%s[%s;%d]" % (kind, be.class_name(letter[1]), letter[2])
    if kind in ("k", "KZ"):
        return "%s[(%s);%d]" % (kind, ",".join(str(x) for x in letter[1]),
                                letter[2])
    if is_torus(letter):
        name = kind + ("+" if letter[1] > 0 else "-")
        return "%s[(%s)]" % (name, ",".join(str(x) for x in letter[2]))
    name = kind + ("+" if letter[1] > 0 else "-")
    return "%s[%s]" % (name, be.class_name(letter[2]))


def render_word(be, word):
    return " ".join(render_letter(be, letter) for letter in word)


def _term_piece(be, word, coeff):
    s = render_scalar(coeff)
    if not word:
        return s
    body = render_word(be, word)
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


def _word_order(be, word):
    return (-len(word), render_word(be, word))


def render_elt(be, x):
    """Deterministic text form of a free element or a normal form."""
    words = sorted(x.terms, key=lambda w: _word_order(be, w))
    return _join_terms([_term_piece(be, w, x.terms[w]) for w in words])


def render_tensor(be, x):
    """Text form of a tensor-square element; for reports only (not
    parseable)."""
    if x.is_zero():
        return "0"

    def leg(w):
        return render_word(be, w) if w else "1"

    keys = sorted(x.terms, key=lambda k: (-len(k[0]) - len(k[1]),
                                          leg(k[0]), leg(k[1])))
    pieces = []
    for lw, rw in keys:
        body = "%s (x) %s" % (leg(lw), leg(rw))
        s = render_scalar(x.terms[(lw, rw)])
        if s == "1":
            pieces.append(body)
        elif s == "-1":
            pieces.append("-" + body)
        else:
            pieces.append("%s %s" % (s, body))
    return _join_terms(pieces)


def render_any(be, x):
    if isinstance(x.label, tuple):
        return render_tensor(be, x)
    return render_elt(be, x)
