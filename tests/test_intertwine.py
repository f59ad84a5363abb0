import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import cuntzcalc
from cuntzcalc.algebra import ContextMismatch, Element, membership, phi_preimage
from cuntzcalc.endo import (
    NotSumOfWords,
    gauge,
    is_unitary,
    lambda_apply,
    left_inverse,
    shift,
)
from cuntzcalc.exprio import from_json, resolve, to_json
from cuntzcalc.intertwine import (
    ConstructionNotSupported,
    PreconditionFailed,
    _span_words,
    agree_on_F,
    coboundary_witness,
    intertwiner_space,
    is_self_intertwiner,
    perturb,
)
from cuntzcalc.sampling import (
    level_words,
    random_permutation_unitary,
    random_sum_of_words_unitary,
)
from oracles import commutant_space, compose, normalizer_cocycle_check, rotation

BENCH = Path(__file__).resolve().parents[1] / "bench"

N = 2
I = Element.identity(N)
U_CP = resolve("@u_cp")
V_CP = resolve("@v_cp")
W_CP = resolve("@w_cp")
FLIP = resolve("S2 S1* + S1 S2*")
W0 = resolve("S1 S11* + S21 S12* + S22 S2*", 2)
ROT = resolve("3/5 S1 S1* + 4/5 S1 S2* - 4/5 S2 S1* + 3/5 S2 S2*", 2)


# -- fixed points ------------------------------------------------------------

def test_self_intertwiner_examples():
    assert is_self_intertwiner(U_CP, V_CP)
    assert is_self_intertwiner(U_CP, V_CP.adjoint())
    assert is_self_intertwiner(U_CP, I)
    assert not is_self_intertwiner(U_CP, FLIP)
    with pytest.raises(ValueError):
        is_self_intertwiner(Element.gen(N, 1), I)
    # the commutator test answers as the fixed-point identity it replaces
    us = U_CP.adjoint()
    for x in intertwiner_space(U_CP, 2).basis + (FLIP, V_CP * V_CP, V_CP + FLIP, W0):
        for y in (x, x.adjoint(), x.scale(3) - I):
            assert is_self_intertwiner(U_CP, y) == (U_CP * shift(y) * us == y)


def test_self_intertwiners_form_an_algebra():
    x, y = V_CP, V_CP.adjoint()
    for z in (x * y, x + y, x.scale(Fraction(2, 3)) - y, x * x):
        assert is_self_intertwiner(U_CP, z)


# -- agreement on the core ---------------------------------------------------

def test_agree_on_F():
    assert agree_on_F(U_CP, W_CP, 4) == (True, 0)
    assert agree_on_F(W_CP, U_CP, 4) == (True, 0)
    assert agree_on_F(U_CP, U_CP, 5) == (True, 0)
    assert agree_on_F(FLIP, I, 2) == (False, 1)
    with pytest.raises(ValueError):
        agree_on_F(Element.gen(N, 1), I, 1)
    # not an int: True would count as level 1, and 2.0 fail inside range()
    for level in (True, 2.0, 2.5, -1):
        with pytest.raises(ValueError, match="depth"):
            agree_on_F(W_CP, FLIP, level)


def brute_agreement(v, w, K):
    """agree_on_F by definition: both endomorphisms on every level-k unit."""
    for k in range(1, K + 1):
        idx = list(product(range(1, w.n + 1), repeat=k))
        for a in idx:
            for b in idx:
                e = Element(w.n, {(a, b): {0: 1}})
                if lambda_apply(v, e, False) != lambda_apply(w, e, False):
                    return False, k
    return True, 0


def test_agree_on_F_matches_brute_force():
    rng = random.Random(4242)
    levels = []
    for n, K, rounds in ((2, 3, 6), (3, 2, 3), (3, 3, 1)):
        for _ in range(rounds):
            w, v, c, b = (random_sum_of_words_unitary(n, rng, max_splits=2, max_len=2)
                          for _ in range(4))
            while phi_preimage(b) is not None:
                b = random_sum_of_words_unitary(n, rng, max_splits=2, max_len=2)
            # lambda_{phi^j(b)} fixes every level-j unit and, as b is not a
            # shift, moves a level-(j+1) one; composing with lambda_c keeps both
            pairs = [(v, w), (w * shift(b), w),
                     (compose(c, shift(b)), c), (compose(c, shift(shift(b))), c)]
            for x, y in pairs:
                if x == gauge(y):
                    continue
                want = brute_agreement(x, y, K)
                assert agree_on_F(x, y, K) == want
                levels.append(want[1])
    # first differences at levels 1, 2 and 3, and pairs that agree throughout
    assert levels.count(1) >= 5 and levels.count(2) >= 10 and levels.count(3) >= 5
    assert levels.count(0) >= 2


def test_perturb():
    w = perturb(U_CP, V_CP)
    assert w == W_CP
    # the fixed-point identity makes both orders the same element
    assert perturb(U_CP, V_CP, order="shift_right") == W_CP
    assert perturb(U_CP, I) == U_CP
    with pytest.raises(PreconditionFailed):
        perturb(U_CP, FLIP)
    with pytest.raises(ValueError):
        perturb(U_CP, V_CP, order="sideways")
    with pytest.raises(ValueError):
        perturb(Element.gen(N, 1), I)
    # 2 I commutes with everything, but the product is not unitary
    with pytest.raises(ValueError, match="unitary"):
        perturb(U_CP, I.scale(2))


def test_perturbations_keep_the_core_restriction():
    # v_cp has order 5; each of its powers I, v_cp, ..., v_cp^4 is a
    # self-intertwiner of u_cp, and both orders agree with u_cp on the core
    v = I
    for j in range(5):
        for order in ("left", "shift_right"):
            assert agree_on_F(perturb(U_CP, v, order), U_CP, 4) == (True, 0), (j, order)
        v = v * V_CP
    assert v == I


def test_perturb_checks_each_unitary_once(monkeypatch):
    seen = []

    def counted(x):
        seen.append(x)
        return is_unitary(x)
    monkeypatch.setattr(cuntzcalc.intertwine, "is_unitary", counted)
    for order in ("left", "shift_right"):
        seen.clear()
        assert perturb(U_CP, V_CP, order) == W_CP
        assert seen == [U_CP, W_CP]


def test_perturbed_symbols_disagree_outside_the_core():
    # w_cp acts like u_cp on the core but differs on a lone isometry
    from cuntzcalc.endo import lambda_apply
    s1 = Element.gen(N, 1)
    assert lambda_apply(W_CP, s1) != lambda_apply(U_CP, s1)
    e = Element.word(N, (1,), (1,))
    assert lambda_apply(W_CP, e) == lambda_apply(U_CP, e)


def test_normalizer_cocycle_check():
    for w in (FLIP, V_CP, W_CP, W0):
        assert normalizer_cocycle_check(w)
    with pytest.raises(NotSumOfWords):
        normalizer_cocycle_check(ROT)


# -- intertwiner spaces ------------------------------------------------------

def test_space_of_u_cp_at_level_3():
    rep = intertwiner_space(U_CP, 3)
    assert rep.level == 3
    assert rep.dimension == 21
    assert len(rep.basis) == 21
    assert rep.contains(V_CP)
    assert rep.contains(V_CP.adjoint())
    assert rep.contains(I)
    assert rep.contains(V_CP.scale(3) - I.scale(Fraction(1, 7)))
    # v*v is still a fixed point but its words outgrow the level-3 window
    assert is_self_intertwiner(U_CP, V_CP * V_CP)
    assert not rep.contains(V_CP * V_CP)
    assert not rep.contains(Element.gen(N, 1))
    assert not rep.contains(FLIP)
    noncore = [b for b in rep.basis if not membership(b, "F")]
    assert len(noncore) == 8


def test_space_coefficients_reconstruct():
    rep = intertwiner_space(U_CP, 2)
    assert rep.dimension == 5
    rng = random.Random(4)
    combo = Element.zero(N)
    for b in rep.basis:
        combo = combo + b.scale(Fraction(rng.randint(-3, 3)))
    coeffs = rep.coefficients_of(combo)
    rebuilt = Element.zero(N)
    for q, b in zip(coeffs, rep.basis):
        rebuilt = rebuilt + b.scale(q)
    assert rebuilt == combo
    assert is_self_intertwiner(U_CP, combo)
    assert rep.coefficients_of(Element.gen(N, 1)) is None
    assert rep.coefficients_of(Element.gen(N, 1).scale(1, gpow=2)) is None
    # outside the level-2 window: degree 3, and a degree-0 word too long
    assert rep.coefficients_of(resolve("S111", N)) is None
    assert rep.coefficients_of(resolve("S111 S111*", N)) is None


def test_space_membership_rejects_mixed_n():
    rep = intertwiner_space(U_CP, 1)
    for x in (Element(3, {((3,), (3,)): {0: 1}}), Element.identity(3)):
        with pytest.raises(ContextMismatch):
            rep.contains(x)
        with pytest.raises(ContextMismatch):
            rep.coefficients_of(x)


def test_space_indexes_only_the_probed_adjoints(monkeypatch):
    calls = []
    inner_index = cuntzcalc.intertwine._inner_index

    def counted(terms):
        calls.append(terms)
        return inner_index(terms)
    monkeypatch.setattr(cuntzcalc.intertwine, "_inner_index", counted)
    for u, level in ((U_CP, 3), (random_permutation_unitary(3, 2, random.Random(5)), 2)):
        calls.clear()
        intertwiner_space(u, level)
        # one index per right factor u S_(i b), for the words with a <= b
        right = {(i,) + b for a, b in _span_words(u.n, level) if a <= b
                 for i in range(1, u.n + 1)}
        assert len(calls) == len(right)


def test_space_degenerate_levels():
    assert intertwiner_space(U_CP, 0).dimension == 1
    assert intertwiner_space(I, 3).dimension == 1
    assert intertwiner_space(FLIP, 2).dimension == 1
    assert intertwiner_space(I, 0).basis == (I,)
    with pytest.raises(ValueError):
        intertwiner_space(Element.gen(N, 1), 1)
    with pytest.raises(ValueError):
        intertwiner_space(U_CP, -1)
    # not an int: True would pass as level 1, and 2.0 fail inside itertools
    for level in (True, 2.0):
        with pytest.raises(ValueError):
            intertwiner_space(U_CP, level)


def test_space_members_are_fixed_points_for_random_permutations():
    rng = random.Random(11)
    for _ in range(6):
        u = random_permutation_unitary(2, 2, rng)
        rep = intertwiner_space(u, 2)
        assert rep.dimension >= 1
        combo = Element.zero(N)
        for b in rep.basis:
            combo = combo + b.scale(Fraction(rng.randint(-2, 2)))
        assert is_self_intertwiner(u, combo)
        # unitary members keep the core restriction of u itself
        for b in rep.basis:
            if is_unitary(b):
                assert agree_on_F(u, u * shift(b), 3) == (True, 0)


def test_space_coefficients_stay_exact_for_int_inputs():
    # permutation unitaries carry int coefficients {0: 1}
    reps = [intertwiner_space(random_permutation_unitary(2, 2, random.Random(3)), 2)]
    rng = random.Random(12)
    for n, k, L in ((2, 2, 2), (2, 3, 2), (3, 1, 1), (3, 2, 1)):
        reps.append(intertwiner_space(random_permutation_unitary(n, k, rng), L))
    assert reps[0].basis[0] == I
    for rep in reps:
        for b in rep.basis:
            assert not any(isinstance(q, float) for c in b.terms.values() for q in c.values())
            assert from_json(to_json(b)) == b


def oracle_space(u, L):
    """(dimension, basis, leads) of the fixed points in Span_L, by definition.

    The defect of each spanning word e is u shift(e) u* - e formed as
    Elements, its coordinates are read at the canonical beta-length per
    degree, and sympy's exact rref over QQ gives the kernel: each free
    column j yields e_j minus the rref entries of column j at the pivot
    columns, all of which precede j.
    """
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    n = u.n
    words = _span_words(n, L)
    us = u.adjoint()
    defects = []
    for a, b in words:
        e = Element(n, {(a, b): {0: 1}})
        defects.append(u * shift(e) * us - e)
    lam = {}
    for x in defects:
        for a, b in x.terms:
            lam[len(a) - len(b)] = max(lam.get(len(a) - len(b), 0), len(b))
    rows = {}
    for j, x in enumerate(defects):
        for (a, b), c in x.terms.items():
            assert set(c) == {0}
            q = Fraction(c[0])
            d = len(a) - len(b)
            for rho in product(range(1, n + 1), repeat=lam[d] - len(b)):
                rows.setdefault((d, b + rho, a + rho), {})[j] = QQ(q.numerator, q.denominator)
    matrix = DomainMatrix(dict(enumerate(rows.values())), (len(rows), len(words)), QQ)
    rref, pivots = matrix.rref()
    entries = rref.to_dod()
    leads = {}
    for j in sorted(set(range(len(words))) - set(pivots)):
        leads[j] = {}
        for r, p in enumerate(pivots):
            q = entries.get(r, {}).get(j)
            if q:
                leads[j][p] = -Fraction(int(q.numerator), int(q.denominator))
    basis = tuple(Element(n, [(words[j], {0: 1})] + [(words[p], {0: q}) for p, q in comb.items()])
                  for j, comb in sorted(leads.items()))
    assert len(leads) == len(words) - matrix.rank()
    return len(leads), basis, leads


def test_space_matches_the_element_oracle():
    rng = random.Random(31)
    cases = [(random_permutation_unitary(n, k, rng), L)
             for n, k in ((2, 2), (2, 3), (3, 1), (3, 2)) for L in range(4)]
    cases += [(U_CP, L) for L in range(4)]
    cases += [(u, L) for u in (ROT, ROT * W_CP, I) for L in (0, 1, 2)]
    dims = []
    for u, L in cases:
        rep = intertwiner_space(u, L)
        dim, basis, leads = oracle_space(u, L)
        assert (rep.dimension, rep.basis, rep._free) == (dim, basis, tuple(leads))
        # each kernel vector is a fixed point, by the commutators
        assert all(is_self_intertwiner(u, b) for b in rep.basis)
        dims.append(dim)
        # a seeded integer combination reads back its integers
        coeffs = [rng.randint(-3, 3) for _ in basis]
        member = Element.zero(u.n)
        for q, b in zip(coeffs, basis):
            member = member + b.scale(q)
        assert rep.coefficients_of(member) == coeffs
        # the same entries at every free column, but off at a pivot column
        pivot_columns = sorted(set(range(len(rep._words))) - set(leads))
        if pivot_columns:
            a, b = rep._words[rng.choice(pivot_columns)]
            assert rep.coefficients_of(member + Element(u.n, {(a, b): {0: 1}})) is None
    # not only the scalars: u_cp reaches 21 at level 3
    assert max(dims) == 21


def flip_flop(n):
    """The permutation unitary sum_{i,j} S_ij S_ji*, whose space has
    dimension n^2 at levels 1 and 2."""
    return Element(n, [(((i, j), (j, i)), {0: 1})
                       for i in range(1, n + 1) for j in range(1, n + 1)])


def test_space_is_the_commutant_of_the_range(monkeypatch):
    # the fixed points are the x commuting with every u S_j, computed by a
    # reduction that shares no code with _coordinates or _eliminate
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    monkeypatch.setattr(run, "import_engine", lambda: cuntzcalc)
    strata = {}
    for item in run.setup("intertwine", 1)[1]:
        strata.setdefault((item.kind, item.level), (item.w, item.level))
    assert {L for kind, L in strata if kind == "u_cp"} == {3, 4}
    cases = list(strata.values()) + [(U_CP, L) for L in range(3)]
    three = random_permutation_unitary(3, 2, random.Random(189))
    cases += [(flip_flop(3), 2), (flip_flop(4), 1), (three, 2), (ROT, 2), (ROT, 3)]
    dims = []
    for u, L in cases:
        rep = intertwiner_space(u, L)
        dim, basis, free = commutant_space(u, L)
        assert (rep.dimension, rep._free) == (dim, free)
        assert [to_json(b) for b in rep.basis] == [to_json(b) for b in basis]
        # the space is closed under adjoints
        for b in rep.basis:
            assert rep.contains(b.adjoint())
        dims.append(dim)
    assert dims[-5:] == [9, 16, 5, 1, 1]
    assert 21 in dims and 25 in dims
    # and under products, which land in Span_2L
    low, high = intertwiner_space(U_CP, 2), intertwiner_space(U_CP, 4)
    assert all(high.contains(x * y) for x in low.basis for y in low.basis)


def test_space_needs_plain_rational_defects():
    # gauge(w_cp) moves words by g-powers that survive in the defect map
    for L in (1, 2):
        with pytest.raises(ValueError):
            intertwiner_space(gauge(W_CP), L)
    assert [intertwiner_space(gauge(U_CP), L).dimension for L in (0, 1, 2)] == [1, 1, 5]
    # u S_1 and u S_2 mix degrees over comparable inner indices, so the raw
    # terms of u S_i (u S_i)* carry g and 1/g; they cancel in u u* = I
    u = gauge(W0 * ROT)
    assert intertwiner_space(u, 0).dimension == 1
    with pytest.raises(ValueError):
        intertwiner_space(u, 1)
    g = I.scale(1, gpow=1)
    assert [intertwiner_space(g, L).dimension for L in (0, 1, 2)] == [1, 1, 1]
    assert [intertwiner_space(g * U_CP, L).dimension for L in (0, 1, 2)] == [1, 1, 5]


# -- coboundary form of the gauge cocycle ------------------------------------

def test_coboundary_witness_for_w_cp():
    U, z = coboundary_witness(W_CP)
    assert membership(U, "F")
    assert is_unitary(U)
    assert W_CP.adjoint() * U == shift(z)
    lhs = left_inverse(W_CP.adjoint() * gauge(W_CP))
    assert lhs == z * gauge(z.adjoint())


def test_coboundary_witness_core_inputs():
    U, z = coboundary_witness(FLIP)
    assert U == FLIP and z.is_identity()
    U, z = coboundary_witness(ROT)
    assert U == ROT and z.is_identity()


def test_coboundary_witness_refusals():
    with pytest.raises(PreconditionFailed):
        coboundary_witness(W0)
    with pytest.raises(ConstructionNotSupported):
        coboundary_witness(ROT * W_CP)
    with pytest.raises(ValueError):
        coboundary_witness(Element.gen(N, 1))


ANGLES = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)))


def core_unitary(n, k, rng):
    if rng.random() < 0.5:
        return random_permutation_unitary(n, k, rng)
    return rotation(n, *rng.sample(level_words(n, k), 2), *rng.choice(ANGLES))


def coboundary_corpus(rng, count):
    """count pairs: a sum of words (n = 2, 3, any degrees), then w_cp or its
    composition with a permutation unitary, moved by a core unitary on the
    left, on the right or through the shift, or by the gauge action."""
    for _ in range(count):
        n = rng.choice((2, 3))
        yield random_sum_of_words_unitary(n, rng, max_splits=3 if n == 2 else 2, max_len=3,
                                          degree_window=None)
        p = random_permutation_unitary(N, rng.randint(1, 2), rng)
        base = rng.choice((W_CP, compose(W_CP, p), compose(p, W_CP)))
        mode = rng.choice(("left", "right", "shift", "gauge"))
        if mode == "left":
            yield core_unitary(N, rng.randint(1, 2), rng) * base
        elif mode == "right":
            # a level-1 unitary on the right keeps level 1 in the core
            yield base * core_unitary(N, 1, rng)
        elif mode == "shift":
            yield base * shift(core_unitary(N, rng.randint(1, 2), rng))
        else:
            yield gauge(base, rng.choice((-1, 1, 2)))


def test_coboundary_witness_matches_level_one_units():
    refused, matched = {}, 0
    for w in coboundary_corpus(random.Random("coboundary"), 100):
        try:
            U, z = coboundary_witness(w)
        except ValueError as e:
            refused[type(e)] = refused.get(type(e), 0) + 1
            continue
        matched += not membership(w, "F")
        assert membership(U, "F") and is_unitary(U)
        us, ws = U.adjoint(), w.adjoint()
        for i, j in product(range(1, w.n + 1), repeat=2):
            f = Element.word(w.n, (i,), (j,))
            assert U * f * us == w * f * ws
        assert ws * U == shift(z)
        assert left_inverse(ws * gauge(w)) == z * gauge(z.adjoint())
    assert refused == {PreconditionFailed: 36, ConstructionNotSupported: 22}
    # the rest are core inputs, their own witnesses
    assert matched == 78
