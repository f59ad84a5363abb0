"""Parsing, printing, JSON serialization, and built-in constants.

Surface grammar (whitespace separates factors, juxtaposition multiplies):

    expr     := ['-'] term (('+'|'-') term)*
    term     := coeff | [coeff] factor+
    factor   := 'I' | 'S' digits ['*']
    coeff    := rational ['g' '^' sint] | 'g' '^' sint
    rational := int ['/' posint]

'S121' is the composite isometry S_1 S_2 S_1 and 'S121*' its adjoint;
letters are single digits, so n <= 9.  A bare coefficient is a multiple
of I, which is how the zero element prints ("0").
"""

import json
import re
from fractions import Fraction
from functools import lru_cache

from .algebra import Element

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<word>S\d+)"
    r"|(?P<num>\d+)"
    r"|(?P<star>\*)"
    r"|(?P<ident>I)"
    r"|(?P<g>g)"
    r"|(?P<caret>\^)"
    r"|(?P<slash>/)"
    r"|(?P<plus>\+)"
    r"|(?P<minus>-)"
)


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text, n):
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = n
        self.end = len(text)

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self, kind=None):
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of input", self.end)
        k, v, p = self.tokens[self.i]
        if kind is not None and k != kind:
            raise ParseError(f"expected {kind}, found {v!r}", p)
        self.i += 1
        return k, v, p

    def parse(self):
        raw = []
        sign = 1
        if self.peek() == "minus":
            self.take()
            sign = -1
        elif self.peek() == "plus":
            self.take()
        raw.extend(self.term(sign))
        while self.i < len(self.tokens):
            k, v, p = self.take()
            if k == "plus":
                raw.extend(self.term(1))
            elif k == "minus":
                raw.extend(self.term(-1))
            else:
                raise ParseError(f"expected '+' or '-', found {v!r}", p)
        return Element(self.n, raw)

    def term(self, sign):
        q, gpow = self.coeff()
        # factor checks the letters; a product of words is one word or zero
        x, start = Element(self.n, {((), ()): {0: 1}}, _normal=True), self.i
        while self.peek() in ("word", "ident"):
            x = x * Element(self.n, {self.factor(): {0: 1}}, _normal=True)
        if q is None:
            if self.i == start:
                k, v, p = self.tokens[self.i] if self.i < len(self.tokens) else (None, "end of input", self.end)
                raise ParseError(f"expected a coefficient or a factor, found {v!r}", p)
            q = 1
            gpow = 0
        return [(t, {gpow: sign * q}) for t in x.terms] if q else []

    def coeff(self):
        """Leading coefficient of a term, or (None, 0) if absent."""
        q = None
        gpow = 0
        if self.peek() == "num":
            _, v, _ = self.take()
            q = int(v)
            if self.peek() == "slash":
                self.take()
                _, d, p = self.take("num")
                if int(d) == 0:
                    raise ParseError("zero denominator", p)
                q = Fraction(q, int(d))
        if self.peek() == "g":
            self.take()
            self.take("caret")
            gpow = self.sint()
            if q is None:
                q = 1
        return q, gpow

    def sint(self):
        sign = 1
        if self.peek() == "minus":
            self.take()
            sign = -1
        elif self.peek() == "plus":
            self.take()
        _, v, _ = self.take("num")
        return sign * int(v)

    def factor(self):
        k, v, p = self.take()
        if k == "ident":
            return ((), ())
        assert k == "word"
        letters = tuple(int(ch) for ch in v[1:])
        for letter in letters:
            if not 1 <= letter <= self.n:
                raise ParseError(f"letter {letter} out of range for n={self.n}", p)
        if self.peek() == "star":
            self.take()
            return ((), letters)
        return (letters, ())


def parse(text, n=2):
    """Parse an expression into a normalized Element over O_n."""
    return _Parser(text, n).parse()


def render(x):
    """Canonical text form; parse(render(x)) == x.

    Each value prints from its numerator and denominator (ints carry
    them too), its sign read once; each term's word text is built once.
    """
    if not x.terms:
        return "0"
    chunks = []
    for (a, b), c in x.sorted_terms():
        if a:
            word = "S" + "".join(map(str, a)) + (" S" + "".join(map(str, b)) + "*" if b else "")
        else:
            word = "S" + "".join(map(str, b)) + "*" if b else "I"
        for gpow in sorted(c):
            q = c[gpow]
            num, den = q.numerator, q.denominator
            if num < 0:
                sign, num = " - ", -num
            else:
                sign = " + "
            scalar = f"{num}/{den} " if den != 1 else f"{num} " if num != 1 else ""
            chunks.append(f"{sign}{scalar}g^{gpow} {word}" if gpow else f"{sign}{scalar}{word}")
    text = "".join(chunks)
    return text[3:] if text[1] == "+" else "-" + text[3:]


# ---------------------------------------------------------------------------
# JSON round trip

def to_json(x):
    terms = []
    for (a, b), c in x.sorted_terms():
        coeff = [[m, c[m].numerator, c[m].denominator] for m in sorted(c)]
        terms.append({"alpha": list(a), "beta": list(b), "coeff": coeff})
    return json.dumps({"n": x.n, "terms": terms}, sort_keys=True, separators=(",", ":"))


def _schema_error(msg):
    raise ValueError(f"schema violation: {msg}")


def from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        _schema_error(f"not valid JSON ({e})")
    if not isinstance(doc, dict) or set(doc) != {"n", "terms"}:
        _schema_error("top level must be an object with keys 'n' and 'terms'")
    n = doc["n"]
    if not isinstance(n, int):
        _schema_error("'n' must be an integer")
    if not isinstance(doc["terms"], list):
        _schema_error("'terms' must be a list")
    raw = []
    for entry in doc["terms"]:
        if not isinstance(entry, dict) or set(entry) != {"alpha", "beta", "coeff"}:
            _schema_error("each term must have exactly the keys alpha/beta/coeff")
        for key in ("alpha", "beta"):
            if not isinstance(entry[key], list) or not all(type(i) is int for i in entry[key]):
                _schema_error(f"'{key}' must be a list of integers")
        if not isinstance(entry["coeff"], list):
            _schema_error("'coeff' must be a list of [gpow, num, den] triples")
        c = {}
        for triple in entry["coeff"]:
            if (not isinstance(triple, list) or len(triple) != 3
                    or not all(type(v) is int for v in triple)):
                _schema_error("each coefficient must be a [gpow, num, den] integer triple")
            m, num, den = triple
            if den <= 0:
                _schema_error("coefficient denominator must be positive")
            q = Fraction(num, den)
            if q:
                c[m] = c.get(m, 0) + q
        raw.append(((tuple(entry["alpha"]), tuple(entry["beta"])), c))
    return Element(n, raw)


# ---------------------------------------------------------------------------
# Built-in constants: an explicit pair (u_cp, v_cp) with v_cp a fixed point
# of Ad u_cp o shift, and the product w_cp = v_cp * u_cp that the decision
# procedure certifies as core-preserving despite w_cp not lying in the core.
#
# Each pair (alpha, beta) below stands for S_alpha S_beta*; e.g. ("122", "11")
# is S_1 S_2 S_2 S_1* S_1*.  When reading a product of starred generators
# right-off a page, remember S_a* S_b* S_c* = (S_cba)*: the beta letters are
# the starred letters in reverse order.

_U_PAIRS = (
    ("111", "111"),
    ("1211", "1121"),
    ("1221", "1122"),
    ("2111", "1211"),
    ("1212", "1212"),
    ("221", "122"),
    ("112", "211"),
    ("2121", "2121"),
    ("1222", "2122"),
    ("2112", "2211"),
    ("2122", "2212"),
    ("222", "222"),
)

_V_PAIRS = (
    ("122", "11"),
    ("111", "121"),
    ("211", "122"),
    ("22", "211"),
    ("112", "212"),
    ("121", "221"),
    ("212", "222"),
)

CONSTANT_NAMES = ("u_cp", "v_cp", "w_cp")

# Expected overlap-graph data for w_cp (class names are the sorted
# distinct beta-tails, labels their common degree).  Verification
# compares engine output against this table and reports any mismatch.
W_CP_OVERLAP = {
    "labels": {"11": 1, "121": 0, "122": 0, "211": -1, "212": 0, "22": 0},
    "edges": (
        ("11", "122"),
        ("121", "11"),
        ("122", "211"),
        ("211", "22"),
        ("212", "11"),
        ("22", "121"),
        ("22", "212"),
    ),
}


def _from_pairs(pairs):
    raw = [((tuple(int(ch) for ch in a), tuple(int(ch) for ch in b)), 1) for a, b in pairs]
    return Element(2, raw)


@lru_cache(maxsize=None)
def constant(name):
    """Built-in named element (u_cp, v_cp, or w_cp), defined over n=2."""
    if name == "u_cp":
        return _from_pairs(_U_PAIRS)
    if name == "v_cp":
        return _from_pairs(_V_PAIRS)
    if name == "w_cp":
        return constant("v_cp") * constant("u_cp")
    raise ValueError(f"unknown constant {name!r}; known: {', '.join(CONSTANT_NAMES)}")


def resolve(text, n=2):
    """Parse an expression, resolving '@name' to a built-in constant."""
    text = text.strip()
    if text.startswith("@"):
        x = constant(text[1:])
        if x.n != n:
            raise ValueError(f"constant {text} is defined over n={x.n}, not n={n}")
        return x
    return parse(text, n)
