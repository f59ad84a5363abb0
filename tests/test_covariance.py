"""Covariance of the cocycle route under core conjugation and relabeling.

For a core unitary v, w' = v w phi(v*) has lambda_{w'} = Ad v o lambda_w,
and Ad v maps the core onto itself, so w and w' fail on the same matrix
units.  The states of the recursion are conjugated along with w:
y'_k = phi(v) y_k phi(v*), so z'_k = v z_k v*, and a return to I on one
side is a return to I on the other.  So cocycle_run(w', d) and
cocycle_run(w, d) agree on verdict, depth, failing level and witness.
Relabeling the letters by a permutation pi conjugates the endomorphism
by the automorphism alpha_pi; it keeps the verdict and the failing
level, but not the lexicographically least witness.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cuntzcalc.algebra import Element
from cuntzcalc.decide import cocycle_run
from cuntzcalc.endo import gauge, shift
from cuntzcalc.exprio import constant, resolve
from cuntzcalc.sampling import level_words, random_permutation_unitary, random_prefix_code, \
    random_sum_of_words_unitary
from oracles import compose, rotation

SETTINGS = dict(max_examples=100, deadline=None, derandomize=True)
DEPTH = 8
ANGLES = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)))
W0 = "S1 S11* + S21 S12* + S22 S2*"


def sum_of_words(rng):
    n = rng.choice((2, 3, 4))
    window = rng.choice(((-1, 0, 1), None))
    return random_sum_of_words_unitary(n, rng, max_splits=3 if n == 2 else 2, max_len=3,
                                       degree_window=window)


def twisted_phase(rng):
    """A gauge-twisted diagonal phase times a sum of words, n = 2."""
    code = random_prefix_code(2, rng, rng.randint(1, 3), max_len=3)
    phase = Element(2, [((x, x), {rng.choice((-1, 0, 1)): rng.choice((-1, 1))}) for x in code])
    twisted = gauge(random_sum_of_words_unitary(2, rng, max_splits=2, max_len=2),
                    rng.choice((-1, 1, 2)))
    return phase * twisted if rng.random() < 0.5 else twisted * phase


def plane_rotation(n, rng):
    """A 3/5 or 5/13 rotation in a plane of two level-1 or level-2 words."""
    a, b = rng.sample(level_words(n, rng.choice((1, 2))), 2)
    return rotation(n, a, b, *rng.choice(ANGLES))


def rotated(rng):
    """A rotation composed with w_cp, w0 or a sum of words, n = 2."""
    base = rng.choice((constant("w_cp"), resolve(W0, 2),
                       random_sum_of_words_unitary(2, rng, max_splits=2, max_len=2)))
    mode = rng.choice(("left", "right", "shift"))
    if mode == "shift":
        # a level-1 rotation keeps every factor at level <= 2
        return base * shift(rotation(2, *rng.sample(level_words(2, 1), 2), *rng.choice(ANGLES)))
    r = plane_rotation(2, rng)
    return r * base if mode == "left" else base * r


def composed(rng):
    """The composition of the endomorphisms of w_cp and of a permutation
    unitary, in either order: it preserves the core, with period 5."""
    w, p = constant("w_cp"), random_permutation_unitary(2, rng.randint(1, 3), rng)
    return compose(w, p) if rng.random() < 0.5 else compose(p, w)


INPUTS = {"words": sum_of_words, "phase": twisted_phase, "rotated": rotated,
          "composed": composed}


def core_unitary(n, rng):
    """A permutation unitary of level 1-2, a rotation, or their product."""
    p = random_permutation_unitary(n, rng.randint(1, 2), rng)
    kind = rng.choice(("perm", "rotation", "both"))
    if kind == "perm":
        return p
    r = plane_rotation(n, rng)
    return r if kind == "rotation" else p * r


def outcome(report):
    return report.verdict, report.depth, report.failing_level, report.witness


@settings(**SETTINGS)
@given(st.sampled_from(sorted(INPUTS)), st.integers(0, 2 ** 32))
def test_core_conjugates_share_states_verdict_and_witness(kind, seed):
    rng = random.Random(seed)
    w = INPUTS[kind](rng)
    v = core_unitary(w.n, rng)
    w2 = v * w * shift(v.adjoint())
    states, report = cocycle_run(w, DEPTH)
    states2, report2 = cocycle_run(w2, DEPTH)
    assert outcome(report2) == outcome(report)
    assert report2.certificate.get("period") == report.certificate.get("period")
    vs = v.adjoint()
    assert states2 == [v * z * vs for z in states]


def relabeled(w, pi):
    """alpha_pi(w): the letter i becomes pi[i] in every word."""
    def sub(word):
        return tuple(pi[i] for i in word)
    return Element(w.n, {(sub(a), sub(b)): c for (a, b), c in w.terms.items()})


@settings(**SETTINGS)
@given(st.sampled_from(sorted(INPUTS)), st.integers(0, 2 ** 32))
def test_relabeled_letters_keep_verdict_and_failing_level(kind, seed):
    rng = random.Random(seed)
    w = INPUTS[kind](rng)
    letters = list(range(1, w.n + 1))
    pi = dict(zip(letters, rng.sample(letters, w.n)))
    report = cocycle_run(w, DEPTH)[1]
    report2 = cocycle_run(relabeled(w, pi), DEPTH)[1]
    assert (report2.verdict, report2.depth, report2.failing_level) == \
        (report.verdict, report.depth, report.failing_level)
