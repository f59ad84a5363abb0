import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuntzcalc.algebra import ContextMismatch, Element, phi_preimage
from cuntzcalc.endo import (
    NotSumOfWords,
    _is_partition_of_unity,
    gauge,
    is_unitary,
    lambda_apply,
    left_inverse,
    minimal_presentation,
    shift,
    sum_of_words_profile,
    u_tower,
)
from cuntzcalc.exprio import constant, resolve
from cuntzcalc.sampling import random_permutation_unitary, random_prefix_code, \
    random_sum_of_words_unitary
from oracles import compose, n_covering_holds

N = 2
I = Element.identity(N)
S1 = Element.gen(N, 1)
S2 = Element.gen(N, 2)
FLIP = resolve("S2 S1* + S1 S2*", 2)
U_CP = constant("u_cp")
V_CP = constant("v_cp")
W_CP = constant("w_cp")
W0 = resolve("S1 S11* + S21 S12* + S22 S2*", 2)


def word(a, b=(), coeff=1, gpow=0):
    return Element.word(N, a, b, coeff, gpow)


indices = st.lists(st.integers(1, N), max_size=3).map(tuple)
terms = st.tuples(indices, indices,
                  st.integers(-3, 3).filter(bool),
                  st.integers(-2, 2))
elements = st.lists(terms, max_size=3).map(
    lambda ts: Element(N, [((a, b), {g: Fraction(q)}) for a, b, q, g in ts]))

SETTINGS = dict(max_examples=50, deadline=None, derandomize=True)


# -- shift -------------------------------------------------------------------

@settings(**SETTINGS)
@given(elements)
def test_shift_commutes_past_generators(x):
    sx = shift(x)
    assert S1 * x == sx * S1
    assert S2 * x == sx * S2


@settings(**SETTINGS)
@given(elements, elements)
def test_shift_is_multiplicative(x, y):
    assert shift(x * y) == shift(x) * shift(y)
    assert shift(x + y) == shift(x) + shift(y)


@settings(**SETTINGS)
@given(elements)
def test_left_inverse_recovers(x):
    assert left_inverse(shift(x)) == x


def test_shift_fixes_identity():
    assert shift(I) == I
    assert left_inverse(I) == I


def test_left_inverse_outside_range():
    # averaging compression: only the S_i* x S_i corners survive, over n
    assert left_inverse(S1) == S1.scale(Fraction(1, 2))
    assert left_inverse(word((1, 2), (1,))) == word((2,)).scale(Fraction(1, 2))
    assert left_inverse(word((1,), (2,))) == Element.zero(N)


# -- gauge action ------------------------------------------------------------

def test_gauge_grades_by_degree():
    assert gauge(S1) == word((1,), gpow=1)
    assert gauge(S1.adjoint()) == word((), (1,), gpow=-1)
    assert gauge(word((1,), (2,))) == word((1,), (2,))
    assert gauge(S1, power=3) == word((1,), gpow=3)


@settings(**SETTINGS)
@given(elements)
def test_gauge_inverse_and_adjoint(x):
    assert gauge(gauge(x), -1) == x
    assert gauge(x).adjoint() == gauge(x.adjoint())


@settings(**SETTINGS)
@given(elements, elements)
def test_gauge_is_multiplicative(x, y):
    assert gauge(x * y) == gauge(x) * gauge(y)


# -- unitarity ---------------------------------------------------------------

def test_is_unitary_cases():
    assert is_unitary(I)
    assert is_unitary(FLIP)
    assert is_unitary(U_CP)
    assert is_unitary(V_CP)
    assert is_unitary(W_CP)
    assert is_unitary(W0)
    assert is_unitary(I.scale(1, gpow=1))
    assert not is_unitary(S1)
    assert not is_unitary(I.scale(Fraction(1, 2)))
    assert not is_unitary(S1 * S2.adjoint())
    # rational rotation: unitary without being a sum of words
    c, s = Fraction(3, 5), Fraction(4, 5)
    rot = word((1,), (1,), c) + word((1,), (2,), s) \
        + word((2,), (1,), -s) + word((2,), (2,), c)
    assert is_unitary(rot)


# -- minimal presentation ----------------------------------------------------

def test_minimal_presentation_contracts():
    expanded = Element(N, {((1, 1), (1, 1)): {0: Fraction(1)},
                           ((1, 2), (1, 2)): {0: Fraction(1)}})
    ident = minimal_presentation(sum((word(a, a) for a in
                                      itertools.product((1, 2), repeat=2)),
                                     Element.zero(N)))
    assert ident == {((), ()): {0: Fraction(1)}}
    assert minimal_presentation(expanded) == {((1,), (1,)): {0: Fraction(1)}}
    # reconstruction gives back the same element
    x = U_CP
    assert Element(N, minimal_presentation(x)) == x
    assert len(minimal_presentation(U_CP)) == 12


def test_sum_of_words_profile():
    prof = sum_of_words_profile(W0)
    assert prof == (((1,), (1, 1)), ((2, 1), (1, 2)), ((2, 2), (2,)))
    assert sorted({len(a) - len(b) for a, b in prof}) == [-1, 0, 1]
    assert n_covering_holds(2, prof)
    # one word given split across levels profiles as the same family
    split = resolve("S11 S111* + S12 S112* + S21 S12* + S22 S2*", 2)
    assert sum_of_words_profile(split) == prof
    # halves recombine to the identity, which profiles at level 1
    agg = sum_of_words_profile(I.scale(Fraction(1, 2)) + I.scale(Fraction(1, 2)))
    assert agg == (((1,), (1,)), ((2,), (2,)))
    with pytest.raises(NotSumOfWords):
        sum_of_words_profile(I.scale(Fraction(1, 2)))
    with pytest.raises(NotSumOfWords):
        sum_of_words_profile(S1)
    c, s = Fraction(3, 5), Fraction(4, 5)
    rot = word((1,), (1,), c) + word((1,), (2,), s) \
        + word((2,), (1,), -s) + word((2,), (2,), c)
    with pytest.raises(NotSumOfWords):
        sum_of_words_profile(rot)


def _pairwise_partition_of_unity(n, idxs):
    """The previous definition: pairwise prefix scan, then covering."""
    if len(set(idxs)) != len(idxs):
        return False
    for i, a in enumerate(idxs):
        for b in idxs[i + 1:]:
            m = min(len(a), len(b))
            if a[:m] == b[:m]:
                return False
    top = max((len(a) for a in idxs), default=0)
    return sum(n ** (top - len(a)) for a in idxs) == n ** top


def test_partition_of_unity_matches_pairwise_oracle():
    rng = random.Random(8)
    verdicts = set()
    for n in (2, 3, 4):
        for _ in range(150):
            code = random_prefix_code(n, rng, rng.randint(0, 6))
            a = rng.choice(code)
            spoilt = [code, code + [a], code[1:], code + [a + (1,)], code + [a[:-1]],
                      [b for b in code if b != a] + [a + (i,) for i in range(1, n)]]
            # an extension of a in place of a word one letter longer
            # keeps the covering sum
            spoilt += [[b for b in code if b != d] + [a + (1,)]
                       for d in code if len(d) == len(a) + 1][:1]
            for idxs in spoilt:
                rng.shuffle(idxs)
                want = _pairwise_partition_of_unity(n, idxs)
                assert _is_partition_of_unity(n, idxs) == want
                verdicts.add(want)
    assert verdicts == {True, False}


# -- towers and endomorphisms ------------------------------------------------

def test_u_tower_recursion():
    for u in (FLIP, W0, W_CP):
        assert u_tower(u, 0) == I
        t1 = u_tower(u, 1)
        assert t1 == u
        t3 = u_tower(u, 3)
        assert t3 == u * shift(u_tower(u, 2))
        assert t3 == u_tower(u, 2) * shift(shift(u))
    assert u_tower(I, 5) == I
    for k in (True, 2.0, -1):
        with pytest.raises(ValueError, match="tower index"):
            u_tower(W0, k)
    with pytest.raises(ValueError, match="tower base must be unitary"):
        u_tower(S1, 2)


def test_lambda_on_generators():
    assert lambda_apply(FLIP, S1) == S2
    assert lambda_apply(FLIP, S2) == S1
    assert lambda_apply(I, W0) == W0
    assert lambda_apply(W0, I) == I


def tower_lambda(u, x):
    """lambda_u(x) as u_k S_a S_b* u_m* with the tower u_k = u shift(u_{k-1})."""
    towers = [Element.identity(u.n)]

    def tower(k):
        while len(towers) <= k:
            towers.append(u * shift(towers[-1]))
        return towers[k]

    out = Element.zero(u.n)
    for (a, b), c in x.terms.items():
        out = out + tower(len(a)) * Element(u.n, {(a, b): c}) * tower(len(b)).adjoint()
    return out


def random_argument(rng, n, size, max_len):
    """Words of mixed lengths with rational and g-power coefficients."""
    raw = []
    for _ in range(size):
        alpha = tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_len)))
        beta = tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_len)))
        c = {rng.randint(-2, 2): Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
             for _ in range(rng.randint(1, 2))}
        raw.append(((alpha, beta), c))
    return Element(n, raw)


def test_lambda_matches_tower_oracle():
    rng = random.Random(7)
    rotation = "3/5 S1 S1* + 4/5 S1 S2* - 4/5 S2 S1* + 3/5 S2 S2*"
    non_unitary = {2: "S1 S2* + 2 S21 + 1/2 g^1 S2 S11*", 3: "S3 S1* + S12", 4: "S4 + 1/3 S13 S2*"}
    wide = 0
    for n, max_len in ((2, 4), (3, 3), (4, 2)):
        letters = " + ".join(f"S{i} S{i}*" for i in range(3, n + 1))
        us = [resolve(rotation + (" + " + letters if letters else ""), n)]
        for window in ((-1, 0, 1), None):
            us += [random_sum_of_words_unitary(n, rng, max_splits=3, max_len=3, degree_window=window)
                   for _ in range(3)]
        wide += sum(any(abs(d) > 1 for d in u.degrees()) for u in us)
        one, zero = Element.identity(n), Element.zero(n)
        for u in us:
            assert lambda_apply(u, zero) == zero
            assert lambda_apply(u, one) == one
            for _ in range(4):
                x = random_argument(rng, n, rng.randint(1, 5), max_len)
                assert lambda_apply(u, x) == tower_lambda(u, x)
        v = resolve(non_unitary[n], n)
        assert not is_unitary(v)
        for _ in range(4):
            x = random_argument(rng, n, rng.randint(1, 5), max_len)
            assert lambda_apply(v, x, check_unitary=False) == tower_lambda(v, x)
        with pytest.raises(ContextMismatch):
            lambda_apply(us[0], Element.gen(2 if n > 2 else 3, 1))
    assert wide > 0


def test_lambda_on_a_word_longer_than_the_recursion_limit():
    # the images extend their memoised prefixes in a loop, not a recursion
    y = lambda_apply(U_CP, word((1,) * 550))
    assert lambda_apply(U_CP, word((1,) * 1100)) == y * y


def test_lambda_requires_unitary():
    with pytest.raises(ValueError):
        lambda_apply(S1, S1)
    # explicit opt-out skips the check
    lambda_apply(S1, I, check_unitary=False)


@settings(**SETTINGS)
@given(elements, elements)
def test_lambda_is_multiplicative(x, y):
    u = W0
    assert lambda_apply(u, x * y) == lambda_apply(u, x) * lambda_apply(u, y)
    assert lambda_apply(u, x.adjoint()) == lambda_apply(u, x).adjoint()


@settings(**SETTINGS)
@given(elements)
def test_lambda_gauge_covariance(x):
    # conjugating the symbol by the gauge action twists the argument
    for u in (FLIP, W0):
        assert lambda_apply(gauge(u), x) == \
            gauge(lambda_apply(u, gauge(x, -1)))


@settings(**SETTINGS)
@given(elements)
def test_compose_matches_composition(x):
    for u, v in ((FLIP, W0), (W0, FLIP), (W_CP, W_CP)):
        w = compose(u, v)
        assert lambda_apply(w, x) == lambda_apply(u, lambda_apply(v, x))


def test_compose_unit_laws():
    for u in (FLIP, W0, W_CP):
        assert compose(I, u) == u
        assert compose(u, I) == u


# -- the level-k recursion ---------------------------------------------------

def test_agreement_indexes_its_right_factor_once_per_run(monkeypatch):
    import cuntzcalc.endo as endo
    from cuntzcalc.decide import cocycle_run

    calls = []
    inner_index = endo._inner_index

    def counted(terms):
        calls.append(terms)
        return inner_index(terms)
    monkeypatch.setattr(endo, "_inner_index", counted)
    cocycles, _ = cocycle_run(W_CP, 16)
    assert len(cocycles) > 1 and calls == [gauge(W_CP).terms]
    perm = random_permutation_unitary(2, 3, random.Random(5))
    for w, v, k in ((W_CP, gauge(W_CP), 5), (W0, gauge(W0), 3), (W0, FLIP, 3), (FLIP, FLIP, 4),
                    (perm, gauge(perm), 6)):
        calls.clear()
        levels = list(endo.agreement(w, v, k))
        if v == w:
            # y_1 = w* w = I, so the run stops at level 1 before it indexes v
            assert calls == [] and levels == [(1, I, None)]
        else:
            assert calls == [v.terms]
        # the levels of the recursion written with two products
        ws, z = w.adjoint(), I
        for _, zk, _ in levels:
            z = phi_preimage(ws * z * v)
            assert zk == z


def test_lambda_apply_indexes_each_factor_once_and_a_core_run_probes_nothing(monkeypatch):
    import cuntzcalc.algebra as algebra
    import cuntzcalc.endo as endo
    from cuntzcalc.decide import matrix_unit_witness

    a, b = (1, 2, 2, 1, 1, 2, 1, 2), (2, 2, 1, 1, 2, 1, 1, 1)
    right = endo.word_images(W_CP)(b).adjoint()
    indexed, probed = [], []
    inner_index, probe = algebra._inner_index, algebra._probe

    def counted_index(terms):
        indexed.append(terms)
        return inner_index(terms)

    def counted_probe(index, terms):
        probed.append(terms)
        return probe(index, terms)
    for module in (algebra, endo):
        monkeypatch.setattr(module, "_inner_index", counted_index)
        monkeypatch.setattr(module, "_probe", counted_probe)
    lambda_apply(W_CP, word(a, b))
    # forming u S_j indexes the one word S_j; then u S_j itself, and image(b)*
    assert [t for t in indexed if t not in (S1.terms, S2.terms)] == \
        [(W_CP * S1).terms, (W_CP * S2).terms, right.terms]
    perm = random_permutation_unitary(2, 4, random.Random(3))
    indexed.clear()
    probed.clear()
    assert matrix_unit_witness(perm, 8) is None
    assert list(endo.agreement(perm, gauge(perm), 8)) == [(1, I, None)]
    assert indexed == probed == []


# -- the n-covering identity of word pairs ------------------------------------

def test_index_pair_set_direct():
    assert not n_covering_holds(2, (((1, 1), (2, 2)),))
    assert n_covering_holds(2, sum_of_words_profile(FLIP))
