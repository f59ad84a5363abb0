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
range; with v = gauge(w) that is preservation of the core.  It stops at
the first return to z_0 = I, from where every level passes.  Above the
first failing level, which the recursion does not reach,
decide.matrix_unit_witness reads its witness from the images
lambda(S_a) = u_k S_a of word_images.  No engine code builds the tower,
which has about n^k terms.
"""

from .algebra import Element, _canonical, _check_level, _check_powers, _cmul, _inner_index
from .algebra import _integral, _is_unit_coeff, _normal_form, _over, _probe, _product_terms
from .algebra import _reduced, level_blocks, shift_preimage, word_degree
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
    alphas and betas each form a partition of unity (_word_pairs), which
    avoids the symbolic squaring.  Otherwise the squares are taken in
    int arithmetic: with x = X / d (algebra._integral), the check is
    X X* = X* X = d^2 I.
    """
    try:
        _word_pairs(x)
    except NotSumOfWords:
        X, d = _integral(x)
        square = Element.identity(x.n).scale(d * d)
        Xs = X.adjoint()
        return X * Xs == square and Xs * X == square
    return True


def _word_pairs(x):
    """The sorted word pairs of x if x is a sum of words: all coefficients
    1, and the alphas and the betas each a partition of unity (complete
    prefix-free families); else raises NotSumOfWords."""
    if not all(_is_unit_coeff(c) for c in x.terms.values()):
        raise NotSumOfWords("coefficients other than 1 remain in the minimal presentation")
    pairs = sorted(x.terms)
    if not _is_partition_of_unity(x.n, [a for a, _ in pairs]):
        raise NotSumOfWords("the alpha projections do not form a partition of unity")
    if not _is_partition_of_unity(x.n, [b for _, b in pairs]):
        raise NotSumOfWords("the beta projections do not form a partition of unity")
    return pairs


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


def sum_of_words_profile(x):
    """Validate x as a sum of words and return its sorted (alpha, beta) pairs.

    Requires every coefficient of the canonical form to be exactly 1 (at
    gauge power 0) and both the alphas and the betas to form
    partitions of unity.
    """
    pairs = _word_pairs(x)
    if pairs == [((), ())]:
        # identity: expand one level so every beta has a nonempty tail
        return tuple(((i,), (i,)) for i in range(1, x.n + 1))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# Towers and the endomorphism action

def u_tower(u, k):
    """u_k = u phi(u) ... phi^{k-1}(u), computed as u * shift(u_{k-1});
    the tests' reference for the tower, kept public for bench/tracer.py."""
    _check_level(k, "tower index")
    if not is_unitary(u):
        raise ValueError("tower base must be unitary")
    tower = Element.identity(u.n)
    for _ in range(k):
        tower = u * shift(tower)
    return tower


def word_images(u):
    """a -> lambda(S_a) = (u S_{a_1}) ... (u S_{a_k}) for the endomorphism of u.

    Memoised by prefix: lambda(S_a) = lambda(S_{a[:-1]}) (u S_{a[-1]}), so
    the images of words that share prefixes cost one product per word.
    A word extends its longest memoised prefix in a loop, not a recursion.
    Each factor u S_j is formed and indexed once, on its first use; the
    image of a one-letter word is its factor, and each longer one probes
    the index of its last letter's factor with its prefix's image.
    """
    n = u.n
    factors = {}
    images = {(): Element.identity(n)}

    def image(a):
        m = len(a)
        while a[:m] not in images:
            m -= 1
        y = images[a[:m]]
        for k in range(m, len(a)):
            j = a[k]
            if j not in factors:
                f = _canonical(n, _product_terms(u.terms, {((j,), ()): {0: 1}}))
                factors[j] = f, _inner_index(f.terms)
            f, index = factors[j]
            # y = I at k = 0, where the image is the factor itself
            y = images[a[:k + 1]] = _canonical(n, _probe(index, y.terms)) if k else f
        return y

    return image


def lambda_apply(u, x, check_unitary=True):
    """Apply the endomorphism of u to x.

    Each term c S_a S_b* maps to c lambda(S_a) lambda(S_b)*, with the
    images of word_images; the terms of all images are normalised once,
    at the end.  The products run in int arithmetic: with u = U / D and
    x = X / e (algebra._integral), the images of U are
    D^|a| lambda(S_a), so a term c S_a S_b* of X is weighted by
    D^(top - |a| - |b|), top the largest |a| + |b|, and the sum is
    divided by e D^top once.
    """
    u._require_same(x)
    if check_unitary and not is_unitary(u):
        raise ValueError("endomorphisms are attached to unitaries only")
    U, D = _integral(u)
    X, e = _integral(x)
    image = word_images(U)
    top = max((len(a) + len(b) for a, b in X.terms), default=0)
    raw = []
    for (a, b), c in X.terms.items():
        f = D ** (top - len(a) - len(b))
        if f != 1:
            c = {m: q * f for m, q in c.items()}
        for t, ct in _product_terms(image(a).terms, image(b).adjoint().terms):
            raw.append((t, _cmul(ct, c)))
    return Element(u.n, _over(_normal_form(u.n, raw), e * D ** top), _normal=True)


def agreement(w, v, depth):
    """The recursion y_k = w* z_{k-1} v, z_k = phi^-1(y_k) from z_0 = I.

    Yields (k, z_k, None) for k = 1..depth (an int >= 0) and stops after
    the first level whose y_k leaves the shift's range, yielding
    (k, None, level-1 blocks of y_k) there.  It also stops after the
    first passing level with z_k = I, where the stream starts over, so
    every later level passes.  w and v must be unitaries over the same
    n.  v is the right factor at every level, so its index is built once
    per run.

    A return to z_0 = I is the only repeat the stream can make:
    x -> w* x v is injective because w and v are unitary, and phi is
    injective, so z_j = z_k with 0 < j < k would force z_(j-1) = z_(k-1).
    For v = w, as v = gauge(w) for a core w, that return comes at once:
    y_1 = w* w = I = phi(I), as w is unitary, so z_1 = I, and the stream
    yields (1, I, None) and stops before any product or index is made.

    The recursion runs in int arithmetic: on W = d_w w and V = d_v v
    (algebra._integral), with each state kept as Z_k / e_k, Z_k integral
    and gcd(e_k, content of Z_k) = 1.  The products, normal forms and
    blocks of W* Z_{k-1} V see ints only; the range test and the blocks'
    pattern do not change under a positive scale.  Rationals are made
    only where a value leaves: the yielded z_k and the failing blocks.
    """
    _check_level(depth, "depth")
    w._require_same(v)
    n = w.n
    W, dw = _integral(w)
    V, dv = _integral(v)
    if depth and V == W:
        # V = W means v = w (unitaries differ by no positive scale), so z_1 = I
        yield 1, Element.identity(n), None
        return
    Ws = W.adjoint()
    right = _inner_index(V.terms)
    z, e = Element.identity(n), 1  # z_{k-1} = z / e
    for k in range(1, depth + 1):
        s = dw * e * dv  # y_k = W* z V / s
        blocks = level_blocks(_canonical(n, _probe(right, (Ws * z).terms)), 1)
        z = shift_preimage(n, blocks)
        if z is None:
            yield k, None, {ab: _over(x, s) for ab, x in blocks.items()}
            return
        z, e = _reduced(z, s)
        yield k, z if e == 1 else Element(n, _over(z.terms, e), _normal=True), None
        if e == 1 and z.is_identity():
            return

