"""The int-arithmetic paths against plain rational products.

is_unitary, agreement and lambda_apply run on X = d x with int
coefficients and one denominator d (algebra._integral).  Their inputs
here mirror the benchmark's off-graph corpus: 3/5, 5/13 and 8/17
rotations in level-1 and level-2 planes, composed on the left, on the
right and through the shift with w_cp, w0 and a permutation unitary,
plus gauge-twisted diagonal phases and non-unitary scalings.  Each is
checked against a reference in tests/oracles.py that multiplies the
rational Elements as they are.  agreement stops at the first return to
z_0 = I, which the reference runs past, so it is checked against the
reference's levels up to there.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

import cuntzcalc.algebra as algebra
import cuntzcalc.endo as endo
from cuntzcalc.algebra import Element
from cuntzcalc.decide import UNDECIDED, decide_preserves
from cuntzcalc.endo import agreement, gauge, is_unitary, lambda_apply, shift
from cuntzcalc.exprio import constant, resolve
from cuntzcalc.sampling import random_permutation_unitary, random_prefix_code, \
    random_sum_of_words_unitary
from oracles import agreement_reference, lambda_reference, rotation, trie_entries
from oracles import unitary_reference

ANGLES = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
          (Fraction(8, 17), Fraction(15, 17)))
PLANES = ((((1,), (2,)),), (((1, 1), (2, 2)), ((1, 2), (2, 2)), ((1, 1), (2, 1))))
W0 = resolve("S1 S11* + S21 S12* + S22 S2*", 2)
# the one off-graph input the depth-16 cocycle route leaves UNDECIDED
UNDECIDED_ROTATION = rotation(2, (1, 1), (2, 2), *ANGLES[0]) * constant("w_cp")


def assert_exact(x):
    """Every coefficient is an int or a non-integral Fraction."""
    for c in x.terms.values():
        for q in c.values():
            assert type(q) is int or (type(q) is Fraction and q.denominator != 1), q


def unitaries(rng):
    """Seeded off-graph unitaries of n = 2, and two of n = 3."""
    bases = (constant("w_cp"), W0, random_permutation_unitary(2, 2, rng))
    out = []
    for base in bases:
        for cos, sin in ANGLES:
            for planes in PLANES:
                a, b = rng.sample(rng.choice(planes), 2)
                r = rotation(2, a, b, cos, sin)
                out += [r * base, base * r]
                if len(a) == 1:
                    out.append(base * shift(r))
    for _ in range(3):
        code = random_prefix_code(2, rng, rng.randint(1, 3), max_len=3)
        phase = Element(2, [((x, x), {rng.choice((-1, 0, 1)): rng.choice((-1, 1))}) for x in code])
        twisted = gauge(random_sum_of_words_unitary(2, rng, max_splits=2, max_len=2),
                        rng.choice((-1, 1, 2)))
        out += [phase * twisted, twisted * phase.scale(Fraction(-1))]
    r3 = rotation(3, (1,), (3,), *ANGLES[1])
    base3 = random_permutation_unitary(3, 1, rng)
    out += [r3 * base3, base3 * shift(r3)]
    return out


@pytest.fixture(scope="module")
def corpus():
    return unitaries(random.Random(2024))


def test_is_unitary_matches_the_rational_reference(corpus):
    half = Fraction(1, 2)
    others = [Element.identity(2).scale(Fraction(3, 5)),
              rotation(2, (1,), (2,), Fraction(3, 5), Fraction(3, 5)),
              corpus[0].scale(Fraction(-1)), corpus[1].scale(half) + corpus[1].scale(half),
              corpus[2] + Element.word(2, (1,), (1,), Fraction(1, 7))]
    for x in corpus + others:
        assert is_unitary(x) == unitary_reference(x)
    assert all(map(is_unitary, corpus))
    assert [is_unitary(x) for x in others] == [False, False, True, True, False]


def assert_matches_the_reference(w, v, depth):
    """agreement's levels are the reference's up to the first return to
    z_0 = I, where it stops; from there the reference passes on,
    repeating z_1, z_2, ... in order.  Returns the levels of both."""
    got, want = list(agreement(w, v, depth)), agreement_reference(w, v, depth)
    stop = len(got)
    assert got == want[:stop]
    assert not any(z is not None and z.is_identity() for _, z, _ in got[:-1])
    if stop < len(want):
        assert got[-1][1].is_identity()
        assert [z for _, z, _ in want[stop:]] == [z for _, z, _ in want[:len(want) - stop]]
    return got, want


def test_agreement_matches_the_rational_reference(corpus):
    rng = random.Random(5)
    pairs = [(w, gauge(w), 5) for w in corpus]
    pairs += [(w, rng.choice([v for v in corpus if v.n == w.n]), 3) for w in corpus[::4]]
    failing = 0
    for w, v, depth in pairs:
        got, _ = assert_matches_the_reference(w, v, depth)
        for _, z, blocks in got:
            if z is None:
                failing += 1
                for x in blocks.values():
                    assert_exact(Element(w.n, x, _normal=True))
            else:
                assert_exact(z)
    assert 0 < failing < len(pairs)


def test_lambda_apply_matches_the_term_by_term_images(corpus):
    rng = random.Random(9)
    for u in corpus[::3]:
        n = u.n
        a, b = rng.sample(range(1, n + 1), 2)
        for x in (Element.word(n, (1, n), (n,)), rotation(n, (a,), (b,), *rng.choice(ANGLES)),
                  Element(n, [(((1,), (1, 1)), {1: Fraction(2, 3), -1: 5}),
                              (((n,), ()), Fraction(-3, 4))])):
            y = lambda_apply(u, x)
            assert y == lambda_reference(u, x)
            assert_exact(y)


def test_products_of_the_recursion_and_the_unitarity_check_see_ints(monkeypatch):
    w = UNDECIDED_ROTATION
    assert decide_preserves(w).verdict == UNDECIDED
    seen = set()

    def recording(probe):
        def recorded(index, terms):
            seen.update(type(q) for c in terms.values() for q in c.values())
            seen.update(type(q) for _, _, c in trie_entries(index) for q in c.values())
            return probe(index, terms)
        return recorded
    monkeypatch.setattr(endo, "_probe", recording(endo._probe))
    monkeypatch.setattr(algebra, "_probe", recording(algebra._probe))
    assert len(list(agreement(w, gauge(w), 16))) == 16
    assert is_unitary(w)
    assert seen == {int}


def first_repeat(states):
    """(j, k) for the first k with z_k equal to an earlier z_j, or None;
    states are z_0 = I, z_1, ... (all passing)."""
    seen = {}
    for k, z in enumerate(states):
        if z in seen:
            return seen[z], k
        seen[z] = k
    return None


def test_the_first_repeat_of_the_plain_recursion_is_z0():
    """Random sums of words repeat at once or fail; the conjugates
    p w_cp phi(p*) by core unitaries p, against gauge(w) or against
    p u_cp phi(p*), return to I at level 5."""
    rng = random.Random(23)
    pairs = []
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        w = random_sum_of_words_unitary(n, rng, max_splits=2, max_len=3, degree_window=None)
        a, b = rng.sample(range(1, n + 1), 2)
        r = rotation(n, (a,), (b,), *rng.choice(ANGLES))
        for x in (w, r * w, w * shift(r)):
            other = random_sum_of_words_unitary(n, rng, max_splits=2, max_len=3,
                                                degree_window=None)
            pairs += [(x, gauge(x)), (x, other)]
    w_cp, u_cp = constant("w_cp"), constant("u_cp")
    for _ in range(4):
        p = random_permutation_unitary(2, rng.randint(1, 3), rng)
        r = rotation(2, *rng.choice(PLANES[1]), *rng.choice(ANGLES))
        for c in (p, r, p * r):
            x = c * w_cp * shift(c.adjoint())
            pairs += [(x, gauge(x)), (x, c * u_cp * shift(c.adjoint()))]
    periods = Counter()
    for w, v in pairs:
        levels, reference = assert_matches_the_reference(w, v, 8)
        states = [Element.identity(w.n)] + [z for _, z, _ in reference if z is not None]
        repeat = first_repeat(states)
        if repeat is not None:
            periods[repeat[1]] += 1
            assert repeat[0] == 0 and len(levels) == repeat[1]
    assert periods[1] > 20 and periods[5] == 24


def test_the_recursion_stops_at_the_return_to_the_identity():
    w = constant("w_cp")
    levels = list(agreement(w, gauge(w), 16))
    assert len(levels) == 5 and levels[-1][1].is_identity()
    p = random_permutation_unitary(2, 3, random.Random(1))
    assert [(k, z.is_identity()) for k, z, _ in agreement(p, gauge(p), 16)] == [(1, True)]
