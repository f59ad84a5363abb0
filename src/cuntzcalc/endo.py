"""Gauge action, unitarity, and the endomorphisms attached to unitaries.

The shift and its left inverse (from algebra) are re-exported, and u_tower
and minimal_presentation kept, because bench/tracer.py looks them up here.

Every unitary u determines a unital *-endomorphism lambda mapping S_i to
u S_i.  On a word it acts as lambda(S_a S_b*) = lambda(S_a) lambda(S_b)*,
where lambda(S_a) = (u S_{a_1}) ... (u S_{a_k}) is evaluated from these
factors, prefix by prefix (word_images).  The same image equals
u_k S_a S_b* u_m* with the tower u_k = u phi(u) ... phi^{k-1}(u) (u_0 = I).

Every level-k question runs one recursion, agreement: z_0 = I,
y_k = w* z_{k-1} v, z_k = phi^-1(y_k).  The endomorphisms of v and w agree
on the level-k matrix units iff y_1, ..., y_k all lie in the shift's
range; with v = gauge(w) that is preservation of the core.  Above the
first failing level, which the recursion does not reach,
decide.matrix_unit_witness reads its witness from the images
lambda(S_a) = u_k S_a of word_images.  No engine code builds the tower,
which has about n^k terms.
"""

from dataclasses import dataclass, field

from .algebra import Element, _canonical, _check_powers, _cmul, _is_unit_coeff, _product_terms
from .algebra import level_blocks, shift_preimage, word_degree
# re-exported for bench/tracer.py, which wraps endo.shift and endo.left_inverse
from .algebra import left_inverse, shift  # noqa: F401


class NotSumOfWords(ValueError):
    """Element is not a coefficient-free double-partition sum of words."""


def gauge(x, power=1):
    """Gauge action: scale each term by g^(power * degree)."""
    _check_powers((power,))
    raw = {}
    for t, c in x.terms.items():
        d = word_degree(t) * power
        raw[t] = {m + d: q for m, q in c.items()} if d else c
    return Element(x.n, raw, _normal=True)


def is_unitary(x):
    """Exact check of x x* = x* x = I.

    Fast path: a sum of words with all coefficients 1 is unitary iff its
    alphas and betas each form a partition of unity (complete prefix-free
    families), which avoids the symbolic squaring.
    """
    pairs = _unit_coeff_pairs(x)
    if pairs is not None:
        alphas = [a for a, _ in pairs]
        betas = [b for _, b in pairs]
        if _is_partition_of_unity(x.n, alphas) and _is_partition_of_unity(x.n, betas):
            return True
    ident = Element.identity(x.n)
    xs = x.adjoint()
    return x * xs == ident and xs * x == ident


def _unit_coeff_pairs(x):
    """The sorted word pairs of x if all its coefficients are 1."""
    if all(_is_unit_coeff(c) for c in x.terms.values()):
        return sorted(x.terms)
    return None


def _is_partition_of_unity(n, idxs):
    """True iff {P_idx} sums to I: prefix-free and covering.

    In sorted order a word is followed at once by its extensions (and
    its duplicates), so checking adjacent pairs finds any prefix.
    """
    idxs = sorted(idxs)
    if any(b[:len(a)] == a for a, b in zip(idxs, idxs[1:])):
        return False
    top = max((len(a) for a in idxs), default=0)
    return sum(n ** (top - len(a)) for a in idxs) == n ** top


def minimal_presentation(x):
    """The minimal word presentation of x: a copy of its term dict.

    The stored canonical form is already the coarsest presentation, so
    nothing is contracted here.  Kept only for bench/tracer.py.
    """
    return dict(x.terms)


@dataclass(frozen=True)
class IndexPairSet:
    """Validated index-pair family J of a sum-of-words unitary.

    pairs is the family J; betas is J_2 = {beta}, in bijection with J;
    tails maps each beta to the index with its first letter removed.
    """

    n: int
    pairs: tuple
    betas: tuple = field(init=False)
    tails: dict = field(init=False)

    def __post_init__(self):
        betas = tuple(b for _, b in self.pairs)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "tails", {b: b[1:] for b in betas})

    def degrees(self):
        return sorted({len(a) - len(b) for a, b in self.pairs})


def sum_of_words_profile(x):
    """Validate x as a sum of words and return its IndexPairSet.

    Requires every coefficient of the canonical form to be exactly 1 (at
    gauge power 0) and both the alphas and the betas to form
    partitions of unity.
    """
    pairs = _unit_coeff_pairs(x)
    if pairs is None:
        raise NotSumOfWords("coefficients other than 1 remain in the minimal presentation")
    alphas = [a for a, _ in pairs]
    betas = [b for _, b in pairs]
    if not _is_partition_of_unity(x.n, alphas):
        raise NotSumOfWords("the alpha projections do not form a partition of unity")
    if not _is_partition_of_unity(x.n, betas):
        raise NotSumOfWords("the beta projections do not form a partition of unity")
    if pairs == [((), ())]:
        # identity: expand one level so every beta has a nonempty tail
        pairs = [((i,), (i,)) for i in range(1, x.n + 1)]
    return IndexPairSet(x.n, tuple(pairs))


# ---------------------------------------------------------------------------
# Towers and the endomorphism action

def u_tower(u, k, _cache=None):
    """u_k = u phi(u) ... phi^{k-1}(u), computed as u * shift(u_{k-1});
    the tests' reference for the tower, kept public for bench/tracer.py."""
    if k < 0:
        raise ValueError("tower index must be >= 0")
    if _cache is None:
        if not is_unitary(u):
            raise ValueError("tower base must be unitary")
        _cache = [Element.identity(u.n), u]
    while len(_cache) <= k:
        _cache.append(u * shift(_cache[-1]))
    return _cache[k]


def word_images(u):
    """a -> lambda(S_a) = (u S_{a_1}) ... (u S_{a_k}) for the endomorphism of u.

    Memoised by prefix: lambda(S_a) = lambda(S_{a[:-1]}) (u S_{a[-1]}), so
    the images of words that share prefixes cost one product per word.
    """
    n = u.n
    factors = {}
    images = {(): Element.identity(n)}

    def image(a):
        y = images.get(a)
        if y is None:
            j = a[-1]
            if j not in factors:
                factors[j] = u * Element.gen(n, j)
            y = images[a] = image(a[:-1]) * factors[j]
        return y

    return image


def lambda_apply(u, x, check_unitary=True):
    """Apply the endomorphism of u to x.

    Each term c S_a S_b* maps to c lambda(S_a) lambda(S_b)*, with the
    images of word_images; the terms of all images are normalised once,
    at the end.
    """
    u._require_same(x)
    if check_unitary and not is_unitary(u):
        raise ValueError("endomorphisms are attached to unitaries only")
    image = word_images(u)
    raw = []
    for (a, b), c in x.terms.items():
        for t, ct in _product_terms(image(a).terms, image(b).adjoint().terms):
            raw.append((t, _cmul(ct, c)))
    return _canonical(u.n, raw)


def agreement(w, v, depth):
    """The recursion y_k = w* z_{k-1} v, z_k = phi^-1(y_k) from z_0 = I.

    Yields (k, z_k, level-1 blocks of y_k) for k = 1..depth (>= 0) and
    stops after the first level whose y_k leaves the shift's range, where
    z_k is None.  w and v must be unitaries over the same n.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    ws = w.adjoint()
    z = Element.identity(w.n)
    for k in range(1, depth + 1):
        y = ws * z * v
        blocks = level_blocks(y, 1)
        z = shift_preimage(y.n, blocks)
        yield k, z, blocks
        if z is None:
            return

