"""Self-intertwiners, bounded-level intertwiner spaces, perturbations
of an endomorphism that fix its action on the core, and coboundary
witnesses for gauge cocycles.

A self-intertwiner of the endomorphism of u is an x with
x = u shift(x) u*.  Perturbing u by such an x (on the left, or through
the shift on the right) changes the endomorphism away from the core but
not on it, which is the mechanism behind the main counterexample.

With T_j = u S_j, a Cuntz family for unitary u, u shift(x) u* is
sum_i T_i x T_i*, and x is a fixed point exactly when x T_j = T_j x for
every j (_commute).  So the fixed points in
Span_L = span{S_a S_b* : |a|, |b| <= L} are the relative commutant
lambda_u(O_n)' cap Span_L.

intertwiner_space finds that space as the kernel of the defect map
x -> T(x) - x, T(x) = u shift(x) u*.  On a spanning word it reads
T(S_a S_b*) = sum_i A_{ia} A_{ib}* with A_c = u S_c, so each factor A_c
is formed once.  Its adjoint, the right factor of a product, is indexed
by its alphas (algebra._inner_index) once, on its first probe, so that
each of the n products per word only probes that index with the betas
of A_{ia}, and the raw product terms go straight into sparse
coordinates, with no normal form.  T is a *-map, T(x*) = T(x)*, so only
the words with a <= b are mapped; the column of S_b S_a* is the adjoint
of the column of S_a S_b*, each row (d, beta, alpha) re-keyed to
(-d, alpha, beta).  One padding rule (_coordinates) serves the defects
and membership, and one pivot loop (_eliminate) extracts the kernel.  A
kernel vector is 1 at its own free column and 0 at every other, so a
member's coefficients are its coordinates there.  Every basis vector is
re-checked by the commutators in the Element arithmetic, which does not
use the defect map.

coboundary_witness matches the level-1 matrix units of w with those of
a core unitary U.  The matching sum_i (w S_i S_1* w*) V (S_1 S_i*) is
w shift(z) with z = S_1* w* V S_1, so U = w shift(z) and w* U = shift(z)
hold by construction.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .algebra import Element, _canonical, _check_level, _inner_index, _probe, membership
from .algebra import shift
from .endo import agreement, gauge, is_unitary


class PreconditionFailed(ValueError):
    pass


class ConstructionNotSupported(ValueError):
    """The witness construction needs a partial isometry with no exact
    representation over the rationals."""


def is_self_intertwiner(u, v):
    """Whether v = u shift(v) u*, i.e. v intertwines the endomorphism
    of u with itself."""
    if not is_unitary(u):
        raise ValueError("self-intertwiner test needs a unitary u")
    return _commute(u, (v,))


def _commute(u, xs):
    """Whether every x in xs commutes with each T_j = u S_j, which for
    unitary u says x = u shift(x) u*: if x = sum_i T_i x T_i*, then
    x T_j = sum_i T_i x T_i* T_j = T_j x, and conversely
    sum_i T_i x T_i* = x sum_i T_i T_i* = x."""
    ts = [u * Element.gen(u.n, j) for j in range(1, u.n + 1)]
    return all(x * t == t * x for x in xs for t in ts)


def agree_on_F(v, w, K):
    """Whether the endomorphisms of v and w agree on the core up to level K.

    Runs z_1 = phihat(w* v), z_{k+1} = phihat(w* z_k v) (endo.agreement);
    step k passes iff the argument lies in the shift's range, which is
    equivalent to the endomorphisms agreeing on all level-k matrix units.
    Returns (True, 0) or (False, first failing level).
    """
    if not is_unitary(v) or not is_unitary(w):
        raise ValueError("agreement check needs unitary inputs")
    for k, z, _ in agreement(w, v, K):
        if z is None:
            return False, k
    return True, 0


def perturb(u, v, order="left"):
    """v·u or u·shift(v) for a self-intertwiner v of the endomorphism of u.

    Either product has the same restriction to the core as u itself; the
    construction re-verifies that to level 3 before returning.  u and the
    product are each checked for unitarity once: a self-intertwiner that
    is not unitary, such as 2I, makes a product that is not unitary.
    """
    if order not in ("left", "shift_right"):
        raise ValueError(f"unknown order {order!r}")
    if not is_unitary(u):
        raise ValueError("perturb needs a unitary u")
    if not _commute(u, (v,)):
        raise PreconditionFailed("v is not a self-intertwiner of u")
    w = v * u if order == "left" else u * shift(v)
    if not is_unitary(w):
        raise ValueError("perturb needs a unitary v: the perturbed product is not unitary")
    for level, z, _ in agreement(w, u, 3):
        if z is None:
            raise RuntimeError(f"internal: perturbation broke core agreement at level {level}")
    return w


# ---------------------------------------------------------------------------
# bounded-level intertwiner spaces

def _span_profile(L):
    """Beta-length per degree of the spanning words of Span_L."""
    return {d: L - max(d, 0) for d in range(-L, L + 1)}


def _span_words(n, L):
    """Independent spanning words of Span_L = span{S_a S_b* : |a|,|b| <= L},
    stratified by degree: each degree-d stratum uses the maximal length
    profile, so the listed words form a linear basis."""
    return [(a, b) for d, lb in _span_profile(L).items()
            for a in product(range(1, n + 1), repeat=lb + d)
            for b in product(range(1, n + 1), repeat=lb)]


def _tails(n, m):
    """Padding tails: entry p lists the n^p words of length p, for p <= m."""
    return [list(product(range(1, n + 1), repeat=p)) for p in range(m + 1)]


def _coordinates(raw, lam, pads):
    """Sparse coordinates of the sum of raw terms at beta-lengths lam[d].

    The one padding rule: each term of degree d is padded by the Cuntz
    relation out to beta-length lam[d] with the tails pads[p] of length
    p, and raises ValueError if d is not in lam or its beta is longer.
    At one beta-length per degree the words are independent, so the
    summed, nonzero entries are the coordinates of the element itself.
    Rows are keyed (degree, beta, alpha).  Sums must be plain rationals
    (gauge degree zero); single raw terms may carry g-powers that cancel.
    """
    vec, twisted = {}, {}
    for (a, b), c in raw:
        d = len(a) - len(b)
        p = lam.get(d, -1) - len(b)
        if p < 0:
            raise ValueError(f"term of degree {d} and beta-length {len(b)} lies outside the window")
        for m, q in c.items():
            acc = twisted.setdefault(m, {}) if m else vec
            for rho in pads[p]:
                row = (d, b + rho, a + rho)
                acc[row] = acc.get(row, 0) + q
    if any(any(acc.values()) for acc in twisted.values()):
        raise ValueError("intertwiner spaces are computed over plain rationals")
    return {row: q for row, q in vec.items() if q}


def _scaled(vec, f):
    """Exact vec / f entrywise; inputs built with int coefficients stay exact."""
    if f == 1:
        return dict(vec)
    if f == -1:
        return {k: -q for k, q in vec.items()}
    f = Fraction(f)
    return {k: q / f for k, q in vec.items()}


def _axpy(dst, factor, src):
    for k, q in src.items():
        s = dst.get(k, 0) - factor * q
        if s:
            dst[k] = s
        else:
            dst.pop(k, None)


def _eliminate(pivots, vec, comb):
    """Reduce vec by pivots {lead: (rest, comb) / lead}, least key leading,
    carrying comb along; store vec's new pivot and return None, or return
    the combination that reduces vec to zero."""
    while vec:
        k = min(vec)
        f = vec.pop(k)
        if k not in pivots:
            pivots[k] = (_scaled(vec, f), _scaled(comb, f))
            return None
        pv, pc = pivots[k]
        _axpy(vec, f, pv)
        _axpy(comb, f, pc)
    return comb


@dataclass(frozen=True)
class SpanBasisReport:
    """Exact basis of {x in Span_L : x = u shift(x) u*}, the relative
    commutant lambda_u(O_n)' cap Span_L."""

    level: int
    dimension: int
    basis: tuple
    _words: tuple
    _free: tuple  # the free columns of _words, one per basis vector

    def coefficients_of(self, x):
        """Expansion coefficients of x over the basis, or None when x is
        not in the space: x's Span_L coordinates at the free columns,
        checked by exact reconstruction."""
        self.basis[0]._require_same(x)
        n, L = x.n, self.level
        try:
            vec = _coordinates(x.terms.items(), _span_profile(L), _tails(n, L))
        except ValueError:
            return None
        free = [self._words[j] for j in self._free]
        coeffs = [vec.get((len(a) - len(b), b, a), 0) for a, b in free]
        raw = [(t, {m: p * q for m, p in c.items()})
               for q, e in zip(coeffs, self.basis) if q for t, c in e.terms.items()]
        return coeffs if _canonical(n, raw) == x else None

    def contains(self, x):
        """Whether x lies in the space."""
        return self.coefficients_of(x) is not None


def intertwiner_space(u, L):
    """SpanBasisReport for lambda_u(O_n)' cap Span_L, the fixed points of
    T(x) = u shift(x) u* in Span_L.

    Exact rational null-space computation of the defect T(x) - x.  Each
    spanning word S_a S_b* with a <= b is mapped, as the raw terms of
    sum_i (u S_{ia})(u S_{ib})* and -S_a S_b*, from memoised factors
    u S_c, each adjoint indexed on its first use as a right factor.
    _coordinates pads the terms to the largest raw beta-length per
    degree, lam[d], and as T(x*) = T(x)*, lam[-d] = lam[d] + d and the
    column of S_b S_a* is that of S_a S_b* with each row (d, beta, alpha)
    re-keyed to (-d, alpha, beta), padded by the same tails.  _eliminate
    reduces the columns in the order of the spanning words; a column
    that reduces to zero is free, and its combination is a kernel vector
    (1 there, 0 at every other free column: what coefficients_of
    reads).  Each basis vector is re-verified to commute with every
    u S_j through Element products.  L must be an int >= 0.
    """
    if not is_unitary(u):
        raise ValueError("intertwiner spaces need a unitary u")
    _check_level(L, "level")
    n = u.n
    words = _span_words(n, L)
    factors, indices = {}, {}

    def factor(c):
        # u S_c
        x = factors.get(c)
        if x is None:
            x = factors[c] = u * Element.word(n, c)
        return x

    def index(c):
        # the index of (u S_c)*, built on its first probe
        f = indices.get(c)
        if f is None:
            f = indices[c] = _inner_index(factor(c).adjoint().terms)
        return f

    raws = {}
    for a, b in words:
        if a <= b:
            raw = [((a, b), {0: -1})]
            for i in range(1, n + 1):
                raw += _probe(index((i,) + b), factor((i,) + a).terms)
            raws[a, b] = raw

    lam = {}
    for raw in raws.values():
        for (a, b), _ in raw:
            d = len(a) - len(b)
            lam[d] = max(lam.get(d, 0), len(b))
    # the unmapped columns hold the adjoint terms: degree -d, beta-length + d
    for d in list(lam):
        lam[-d] = max(lam.get(-d, 0), lam[d] + d)
    pads = _tails(n, max(lam.values()))

    cols = {w: _coordinates(raw, lam, pads) for w, raw in raws.items()}
    for a, b in words:
        if (a, b) not in cols:
            # a > b: the adjoint of the column of S_b S_a*
            cols[a, b] = {(-d, alpha, beta): q for (d, beta, alpha), q in cols[b, a].items()}

    pivots = {}
    kernel = {}  # free column j -> kernel combination, with coefficient 1 at j
    for j, w in enumerate(words):
        comb = _eliminate(pivots, cols[w], {j: 1})
        if comb is not None:
            kernel[j] = comb

    basis = tuple(Element(n, [(words[kk], {0: q}) for kk, q in comb.items()])
                  for comb in kernel.values())
    if not _commute(u, basis):
        raise RuntimeError("internal: a kernel vector fails the fixed-point identity")
    return SpanBasisReport(L, len(basis), basis, tuple(words), tuple(kernel))


# ---------------------------------------------------------------------------
# coboundary witnesses

def coboundary_witness(w):
    """(U, z) with U a core unitary matching the endomorphism of w on
    level-1 matrix units and w* U = shift(z).

    It follows that phihat(w* gauge(w)) = z gauge(z*), exhibiting the
    level-1 gauge cocycle as a coboundary; the identity is re-verified
    symbolically before returning.

    Needs level-1 preservation.  A core w is its own U, with z = I.
    Otherwise U is the matrix-unit matching sum_i e_i1 V f_1i of
    f_ij = S_i S_j* with their images e_ij = w f_ij w*, where V is the
    lexicographically least partial isometry carrying f_11 onto e_11.
    As e_i1 V f_1i = w S_i (S_1* w* V S_1) S_i*, the sum collapses to
    U = w shift(z) with z = S_1* w* V S_1, so only e_11 is formed.  V
    is built over the rationals, which requires e_11 to be a 0/1
    diagonal (always the case for sums of words); otherwise the partial
    isometry may need irrational entries and ConstructionNotSupported
    is raised.
    """
    if not is_unitary(w):
        raise ValueError("coboundary witnesses need a unitary w")
    ((_, z1, _),) = agreement(w, gauge(w), 1)
    if z1 is None:
        raise PreconditionFailed("the endomorphism already leaves the core at level 1")
    n = w.n
    if membership(w, "F"):
        U, z = w, Element.identity(n)
    else:
        ws = w.adjoint()
        e11 = w * Element(n, {((1,), (1,)): {0: 1}}) * ws
        if not membership(e11, "D") or any(c != {0: 1} for c in e11.terms.values()):
            raise ConstructionNotSupported(
                "corner projection is not a 0/1 diagonal; a rational partial "
                "isometry onto it need not exist")
        m = e11.max_level()
        gammas = sorted(a + rho for a, _ in e11.terms
                        for rho in product(range(1, n + 1), repeat=m - len(a)))
        targets = sorted((1,) + rho for rho in product(range(1, n + 1), repeat=m - 1))
        if len(gammas) != len(targets):
            raise ConstructionNotSupported(
                f"corner projection has rank {len(gammas)} at level {m}, expected {len(targets)}")
        V = Element(n, [((g, t), {0: 1}) for g, t in zip(gammas, targets)])
        s1 = Element.gen(n, 1)
        z = s1.adjoint() * ws * V * s1
        U = w * shift(z)
        if not membership(U, "F") or not is_unitary(U):
            raise RuntimeError("internal: matched unitary is not a core unitary")
    if z1 != z * gauge(z.adjoint()):
        raise RuntimeError("internal: coboundary identity failed")
    return U, z
