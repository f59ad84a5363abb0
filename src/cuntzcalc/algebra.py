"""Exact arithmetic for the word algebra of the Cuntz algebra O_n.

O_n is generated by n isometries S_1, ..., S_n with sum_i S_i S_i* = I.
Every product of generators and adjoints collapses to a single word
S_alpha S_beta* for two multi-indices alpha, beta (finite tuples over
{1..n}; the empty tuple is the identity).  This module implements the
dense *-subalgebra spanned by such words, with coefficients in the
Laurent ring Q[g, g^-1].  The formal variable g stands for the gauge
phase e^{it}: an element with g-coefficients is a family parameterized
by t, and polynomial identities in g are equivalent to "for all t"
statements because the characters e^{itm} are linearly independent.

Representation:
    multi-index    tuple of ints in 1..n, () = empty index
    word term      pair (alpha, beta) meaning S_alpha S_beta*
    coefficient    dict {gpow: int | Fraction}, no zero values stored;
                   integral values are stored as int, and no other type
                   (float, bool) is accepted
    Element        dict {(alpha, beta): coefficient} in canonical form

A Fraction product costs tens of int products, so the hot loops
(endo.is_unitary, endo.agreement, endo.lambda_apply and decide's defect
test) run on integral forms: X = d x with int coefficients and the least
d > 0 (_integral), scaled back to rationals (_over) only where a value
leaves them.  An x with int coefficients is its own integral form.

Canonical form: the coarsest cylinder presentation.  The root of a
word (alpha, beta) is the pair left after stripping the common trailing
letters, alpha = alpha0 gamma and beta = beta0 gamma, so that
S_alpha S_beta* = S_alpha0 P_gamma S_beta0* with P_gamma = S_gamma S_gamma*.
The terms under one root sum to S_alpha0 f S_beta0*, where f is a step
function on infinite words: the value of the projections P_gamma is
carried by the cylinder [gamma] of words that start with gamma.  The
Cuntz relation only splits or joins cylinders, so f is an invariant of
the element.  The stored form keeps, under each root, the maximal
cylinders on which f is constant and nonzero (_cylinders: one walk over
the sorted tails with a stack of open trie nodes, a loop that the
recursion depth does not bound).  No two
terms under one root nest, and no complete n-family of siblings with
equal coefficients is left, so two Elements are equal in O_n exactly
when their term dicts coincide.  I + S_1^k S_1^k* is stored as
(n-1)k + 1 terms.

Product: (S_p S_q*)(S_r S_s*) is nonzero only when one of the inner
indices q, r is a prefix of the other; then it is S_{p t} S_s* if
r = q t, and S_p S_{s t}* if q = r t.  So the product of two Elements
never tries all pairs of terms.  It files each term of the right factor
once, at the node of its alpha in a letter trie whose nodes also list
the entries below them (_inner_index).  Each beta q of the left factor
walks down the trie past the alphas that are proper prefixes of q and
reads those that extend q off the node where q ends: exactly the
surviving pairs, for one dict step per letter and one per pair (_probe).
This walk is the one place where the rule is applied.  A caller that
multiplies by the same right factor many times keeps its index:
endo.agreement (the right factor v), endo.word_images (each factor
u S_j) and intertwine.intertwiner_space (each (u S_c)*).  A
factor equal to the identity is not multiplied at all: the other factor
is returned as it is.  Coefficient dicts may be shared between Elements
and are never mutated in place.  The coefficient helpers never add into
a missing key: a new key takes its value as it is, and the product of
two one-entry dicts is the one product of their values.

n (an int in 2..9, as letters are digits), letters and gauge powers
(ints) are checked once, where they enter from outside: by Element(n,
raw), through it by word, the parser and from_json, and by Element.zero
and identity (n only).  Products, sums, shift and left_inverse build
their terms from words of existing Elements and normalise them unchecked.

Shift: prefixing one letter i to both indices of every term of a
canonical x keeps the tails under each root, except where a root index
is empty: then i may move into the tail, and the new root collects the
tails of one old root, each prefixed by i (for the root ((), ()), those
of all n prefixes, which join back only where f is constant).  So
shift(x) is built already canonical.  The one exception is the scalar
term ((), ()): its n images S_i S_i* contract back to I, so it is kept
as it is.

Blocks: level_blocks(q, k) cuts q into the blocks S_a* q S_b over level-k
words, padding each term only until both of its indices reach length k.
The blocks of a canonical q are canonical, so two blocks are equal
exactly when their dicts are.  Since S_i* shift(z) S_j = delta_ij z, x
lies in the range of the shift iff its level-1 blocks vanish off the
diagonal and its n diagonal blocks are equal; that block is the
preimage (shift_preimage, applied once per level by phi_preimage).  The
mean of the n diagonal blocks is the left inverse (1/n) sum_i S_i* x S_i
of the shift (diagonal_mean).
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm


class ContextMismatch(ValueError):
    """Raised when two Elements over different n are combined."""


def _check_n(n):
    if not isinstance(n, int) or not 2 <= n <= 9:
        raise ValueError(f"number of generators must be an int in 2..9, got {n!r}")


def _check_level(k, name):
    """Refuse a depth or level other than an int >= 0: True would count
    as 1, and a float would fail later inside range()."""
    if type(k) is not int:
        raise ValueError(f"{name} must be an int, got {k!r}")
    if k < 0:
        raise ValueError(f"{name} must be >= 0, got {k}")


def _check_powers(powers):
    for m in powers:
        if type(m) is not int:
            raise ValueError(f"gauge powers must be ints, got {m!r}")


# ---------------------------------------------------------------------------
# Laurent coefficients: dict {gpow: int | Fraction}, zero values never
# stored.  Integral values are ints, so integral inputs are computed in
# int arithmetic; Fraction(1) == 1 and both hash alike, so term dicts
# compare and hash the same either way.

def _exact(q):
    """q as a coefficient value: an int when integral, else a Fraction.

    Any other type (float, bool, str, ...) raises ValueError: a float
    would enter as its binary expansion, and True as 1.
    """
    if type(q) is int:
        return q
    if not isinstance(q, Fraction):
        raise ValueError(f"coefficients must be ints or Fractions, got {q!r}")
    return q.numerator if q.denominator == 1 else q


def _coeff(q=1, gpow=0):
    q = _exact(q)
    return {gpow: q} if q else {}


def _cadd(a, b):
    # a new key takes b's value as it is: 0 + Fraction goes through
    # Fraction's reverse-operator dispatch
    out = dict(a)
    for m, q in b.items():
        s = out.get(m)
        if s is None:
            out[m] = q
        else:
            s += q
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _cmul(a, b):
    # the unit fast path shares the other dict; coefficients are never mutated
    if _is_unit_coeff(a):
        return b
    if _is_unit_coeff(b):
        return a
    if len(a) == 1 and len(b) == 1:
        # a product of two nonzero values is nonzero
        (ma, qa), = a.items()
        (mb, qb), = b.items()
        return {ma + mb: qa * qb}
    out = {}
    for ma, qa in a.items():
        for mb, qb in b.items():
            m = ma + mb
            p = qa * qb
            s = out.get(m)
            if s is None:
                out[m] = p
            else:
                s += p
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def _cconj(a):
    # adjoint on coefficients: g^m -> g^-m, rationals are real
    return {-m: q for m, q in a.items()}


def _cneg(a):
    return {m: -q for m, q in a.items()}


def _is_unit_coeff(a):
    # against the int 1, Fraction.__eq__ takes its fast path
    return len(a) == 1 and a.get(0) == 1


# ---------------------------------------------------------------------------
# Words

def word_degree(t):
    return len(t[0]) - len(t[1])


def _check_letters(n, idx):
    for letter in idx:
        if type(letter) is not int:
            raise ValueError(f"letters must be ints, got {letter!r}")
        if not 1 <= letter <= n:
            raise ValueError(f"letter {letter} out of range for n={n}")


def _normal_form(n, raw):
    """Canonical term dict from an iterable of ((alpha, beta), coeffdict).

    Groups the terms by root (see the module docstring); a diagonal
    word S_a S_a* goes straight to the root ((), ()) with tail a.  A root
    with one tail is already coarsest, the others go through _cylinders.
    """
    roots = {}
    for t, c in raw:
        if not c:
            continue
        a, b = t
        tail = ()
        if a == b:
            t, tail = ((), ()), a
        elif a and b and a[-1] == b[-1]:
            la, lb = len(a), len(b)
            m = 1
            while m < la and m < lb and a[-1 - m] == b[-1 - m]:
                m += 1
            t, tail = (a[:la - m], b[:lb - m]), a[la - m:]
        tails = roots.setdefault(t, {})
        prev = tails.get(tail)
        tails[tail] = _cadd(prev, c) if prev else c
    out = {}
    for (a, b), tails in roots.items():
        for tail, c in _cylinders(n, tails) if len(tails) > 1 else tails.items():
            if c:
                out[(a + tail, b + tail)] = c
    return out


def _cylinders(n, tails):
    """Maximal cylinders of f = sum_t tails[t] [t], as (gamma, value)
    for each largest [gamma] on which f is constant and nonzero.

    One walk over the sorted tails, in which a prefix comes just before
    its extensions, keeps a stack of the open nodes of their trie: each
    node holds its prefix, the sum of the tails above and at it, and the
    values of its closed children by letter.  A node closes when the
    next tail leaves its subtree.  A child that is no prefix of a tail
    carries its parent's sum, so a closed node is constant when its n
    children carry one value; otherwise it gives up its nonzero children
    as cylinders.
    """
    out = []
    stack = [((), tails.get(()) or {}, {})]
    # the final None closes every node, the root last
    for t in [*sorted(tails), None]:
        while stack and (t is None or t[:len(stack[-1][0])] != stack[-1][0]):
            v, value, kids = stack.pop()
            if kids:
                values = [kids.get(i, value) for i in range(1, n + 1)]
                value = values[0]
                if values.count(value) != n:
                    value = None
                    out.extend((v + (i,), x) for i, x in enumerate(values, 1) if x)
            if stack:
                stack[-1][2][v[-1]] = value
            elif value:
                out.append(((), value))
        if t:
            v, sums, _ = stack[-1]
            for m in range(len(v) + 1, len(t)):
                stack.append((t[:m], sums, {}))
            c = tails[t]
            stack.append((t, _cadd(sums, c) if c else sums, {}))
    return out


def _product_terms(xs, ys):
    """Raw surviving terms of xs * ys for term dicts xs, ys."""
    return _probe(_inner_index(ys), xs)


def _inner_index(terms):
    """Letter trie of a right factor's term dict by its alphas.  A node is
    (children by letter, here, below): each term (a, b, c) is stored once,
    in here at the node of a, and below lists every entry at or under the
    node.  Building costs one dict step and one append per letter."""
    root = ({}, [], [])
    for (a, b), c in terms.items():
        node, entry = root, (a, b, c)
        for letter in a:
            node[2].append(entry)
            node = node[0].get(letter) or node[0].setdefault(letter, ({}, [], []))
        node[1].append(entry)
        node[2].append(entry)
    return root


def _probe(index, terms):
    """Raw surviving terms of xs * ys, from the term dict terms of the
    left factor xs and the trie of ys.  Each beta q of xs walks down the
    trie: the here lists it passes before the end of q hold the alphas
    that are proper prefixes of q, the below list where q ends those that
    extend q.  One dict step per letter of q, one step per surviving pair."""
    raw = []
    for (p, q), c in terms.items():
        node = index
        for k, letter in enumerate(q):
            # q = r t for an indexed alpha r: S_p S_q* S_r S_s* = S_p S_{s t}*
            for _, s, ci in node[1]:
                raw.append(((p, s + q[k:]), _cmul(c, ci)))
            node = node[0].get(letter)
            if node is None:
                break
        else:
            # indexed alpha r = q t: S_p S_q* S_r S_s* = S_{p t} S_s*
            m = len(q)
            for r, s, ci in node[2]:
                raw.append(((p + r[m:], s), _cmul(c, ci)))
    return raw


# ---------------------------------------------------------------------------
# Elements

_IDENTITY_TERMS = {((), ()): {0: 1}}


def _canonical(n, raw):
    """Element from raw terms whose words come from checked Elements."""
    return Element(n, _normal_form(n, raw), _normal=True)


class Element:
    """A finite Q[g,g^-1]-linear combination of words, kept canonical."""

    __slots__ = ("n", "terms")

    def __init__(self, n, raw=(), _normal=False):
        if _normal:
            terms = raw if isinstance(raw, dict) else dict(raw)
        else:
            _check_n(n)
            pairs = raw.items() if isinstance(raw, dict) else raw
            checked = []
            for t, c in pairs:
                a, b = tuple(t[0]), tuple(t[1])
                _check_letters(n, a)
                _check_letters(n, b)
                if isinstance(c, dict):
                    c = {m: _exact(q) for m, q in c.items()}
                    c = {m: q for m, q in c.items() if q}
                else:
                    c = _coeff(c)
                _check_powers(c)
                checked.append(((a, b), c))
            terms = _normal_form(n, checked)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *_):
        raise AttributeError("Element is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n):
        _check_n(n)
        return Element(n, {}, _normal=True)

    @staticmethod
    def identity(n):
        _check_n(n)
        return Element(n, {((), ()): _coeff(1)}, _normal=True)

    @staticmethod
    def word(n, alpha, beta=(), coeff=1, gpow=0):
        return Element(n, [((tuple(alpha), tuple(beta)), _coeff(coeff, gpow))])

    @staticmethod
    def gen(n, i):
        """The generator S_i."""
        return Element.word(n, (i,))

    # -- basic predicates ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_identity(self):
        return self.terms == _IDENTITY_TERMS

    def degrees(self):
        return sorted({word_degree(t) for t in self.terms})

    def max_level(self):
        """Largest word length occurring (0 for scalars and zero)."""
        if not self.terms:
            return 0
        return max(max(len(a), len(b)) for a, b in self.terms)

    def sorted_terms(self):
        """Terms in the deterministic order (degree, beta, alpha)."""
        return sorted(self.terms.items(), key=lambda tc: (word_degree(tc[0]), tc[0][1], tc[0][0]))

    # -- arithmetic ---------------------------------------------------------

    def _require_same(self, other):
        if not isinstance(other, Element):
            raise TypeError(f"expected Element, got {type(other).__name__}")
        if self.n != other.n:
            raise ContextMismatch(f"mixed contexts n={self.n} and n={other.n}")

    def __add__(self, other):
        self._require_same(other)
        raw = list(self.terms.items()) + list(other.terms.items())
        return _canonical(self.n, raw)

    def __sub__(self, other):
        self._require_same(other)
        raw = list(self.terms.items()) + [(t, _cneg(c)) for t, c in other.terms.items()]
        return _canonical(self.n, raw)

    def __neg__(self):
        return Element(self.n, {t: _cneg(c) for t, c in self.terms.items()}, _normal=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_same(other)
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        return _canonical(self.n, _product_terms(self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, q, gpow=0):
        """Multiply by the scalar q * g^gpow."""
        _check_powers((gpow,))
        q = _exact(q)
        if not q:
            return Element.zero(self.n)
        terms = {t: {m + gpow: _exact(p * q) for m, p in c.items()} for t, c in self.terms.items()}
        return Element(self.n, terms, _normal=True)

    def adjoint(self):
        """Swap alpha and beta, conjugate coefficients (g^m -> g^-m)."""
        raw = {(b, a): _cconj(c) for (a, b), c in self.terms.items()}
        # canonical form is symmetric under the swap, so raw is already normal
        return Element(self.n, raw, _normal=True)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset((t, frozenset(c.items())) for t, c in self.terms.items())))

    def __repr__(self):
        from .exprio import render
        return f"<Element n={self.n} {render(self)}>"


# ---------------------------------------------------------------------------
# Integral forms: x = X / d with int coefficients in X and one int d > 0

def _integral(x):
    """(X, d) for the least d > 0 such that X = d x has int coefficients.

    An x with int coefficients only comes back as (x, 1) after one scan
    of its values, with no copy.
    """
    d = 1
    for c in x.terms.values():
        for q in c.values():
            if type(q) is not int and d % q.denominator:
                d = lcm(d, q.denominator)
    if d == 1:
        return x, 1
    terms = {t: {m: q * d if type(q) is int else q.numerator * (d // q.denominator)
                 for m, q in c.items()}
             for t, c in x.terms.items()}
    return Element(x.n, terms, _normal=True), d


def _reduced(x, d):
    """(X, e) with X / e = x / d and gcd(e, content of X) = 1, for an x
    with int coefficients and an int d > 0: the canonical such pair."""
    if d == 1:
        return x, 1
    g = d
    for c in x.terms.values():
        for q in c.values():
            g = gcd(g, q)
            if g == 1:
                return x, d
    terms = {t: {m: q // g for m, q in c.items()} for t, c in x.terms.items()}
    return Element(x.n, terms, _normal=True), d // g


def _over(terms, d):
    """The term dict terms / d, for int coefficients and an int d > 0."""
    if d == 1:
        return terms
    return {t: {m: _exact(Fraction(q, d)) for m, q in c.items()} for t, c in terms.items()}


# ---------------------------------------------------------------------------
# The canonical inner shift and its left inverse

def shift(x):
    """The canonical inner shift: x -> sum_i S_i x S_i*.

    Built already canonical: prefixing a letter keeps the cylinders
    under each root maximal (see the module docstring).  The scalar term
    stays as it is, since its n images would join back into I.
    """
    letters = [(i,) for i in range(1, x.n + 1)]
    terms = {}
    for (a, b), c in x.terms.items():
        if a or b:
            for i in letters:
                terms[(i + a, i + b)] = c
        else:
            terms[(a, b)] = c
    return Element(x.n, terms, _normal=True)


def left_inverse(x):
    """x -> (1/n) sum_i S_i* x S_i; undoes shift."""
    return diagonal_mean(x.n, level_blocks(x, 1))


# ---------------------------------------------------------------------------
# Subalgebra membership

def level_blocks(q, k):
    """The nonzero blocks S_a* q S_b of q over level-k words a, b.

    A block is a term dict, stored under (a, b).  Each term is padded
    only until both of its indices reach length k.  Padding keeps a
    term's root and splits its cylinder, so no two terms merge, and the
    blocks of the canonical q are canonical: two blocks are equal
    exactly when their dicts are.
    """
    blocks = {}
    for (al, be), c in q.terms.items():
        for rho in product(range(1, q.n + 1), repeat=max(k - len(al), k - len(be), 0)):
            a, b = al + rho, be + rho
            blocks.setdefault((a[:k], b[:k]), {})[(a[k:], b[k:])] = c
    return blocks


def shift_preimage(n, blocks):
    """z with shift(z) = x, from the level-1 blocks of x, or None."""
    if not blocks:
        return Element.zero(n)
    z = blocks.get(((1,), (1,)))
    if z is None or len(blocks) != n or any(blocks.get(((i,), (i,))) != z for i in range(2, n + 1)):
        return None
    return Element(n, z, _normal=True)


def diagonal_sum(n, blocks):
    """sum_i S_i* x S_i, from the level-1 blocks of x."""
    raw = [tc for i in range(1, n + 1) for tc in blocks.get(((i,), (i,)), {}).items()]
    return _canonical(n, raw)


def diagonal_mean(n, blocks):
    """(1/n) sum_i S_i* x S_i, from the level-1 blocks of x."""
    return diagonal_sum(n, blocks).scale(Fraction(1, n))


def phi_preimage(x, k=1):
    """Preimage under the k-fold shift if x lies in its range, else None.

    One level at a time, each a test of the level-1 blocks of x
    (shift_preimage); the test stops at the first level that fails.
    """
    _check_level(k, "k")
    for _ in range(k):
        x = shift_preimage(x.n, level_blocks(x, 1))
        if x is None:
            return None
    return x


def membership(x, target, k=None):
    """Membership of x in a named subalgebra.

    target "F"     gauge-invariant core: every term has degree 0
    target "Fk"    matrix subalgebra of level k: degree 0, word length <= k
    target "D"     diagonal: every term has alpha == beta
    target "phik"  range of the k-fold shift
    """
    if target == "F":
        return all(word_degree(t) == 0 for t in x.terms)
    if target == "Fk":
        _check_level(k, "the level k of target Fk")
        return membership(x, "F") and x.max_level() <= k
    if target == "D":
        return all(a == b for a, b in x.terms)
    if target == "phik":
        _check_level(k, "the level k of target phik")
        return phi_preimage(x, k) is not None
    raise ValueError(f"unknown membership target {target!r}")

