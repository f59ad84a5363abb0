"""Differential test of the level-k preservation test against brute force.

The oracle applies the endomorphism to every level-k matrix unit S_a S_b*
in lexicographic order of (a, b) and tests whether the image lies in the
core; it is exact but costs n^(2k) products per level.
"""

import random
from fractions import Fraction
from itertools import product

from cuntzcalc.algebra import Element, membership
from cuntzcalc.decide import (
    NOT_PRESERVES,
    UNDECIDED,
    DecisionReport,
    direct_check,
    matrix_unit_witness,
)
from cuntzcalc.endo import gauge, shift, u_tower
from cuntzcalc.exprio import render
from cuntzcalc.sampling import random_prefix_code, random_sum_of_words_unitary


def oracle_level_witness(w, k, towers):
    """(least failing level-k unit, its image), or (None, None)."""
    wk = u_tower(w, k, towers)
    wks = wk.adjoint()
    idx = list(product(range(1, w.n + 1), repeat=k))
    for a in idx:
        for b in idx:
            x = Element(w.n, {(a, b): {0: 1}})
            image = wk * x * wks
            if not membership(image, "F"):
                return x, image
    return None, None


def rotation(n, a, b, cos, sin):
    """Rational rotation in the plane of the equal-length words a, b."""
    raw = [((a, a), cos), ((a, b), -sin), ((b, a), sin), ((b, b), cos)]
    raw += [((x, x), 1) for x in product(range(1, n + 1), repeat=len(a)) if x not in (a, b)]
    return Element(n, raw)


def diagonal_phase(n, rng):
    code = random_prefix_code(n, rng, rng.randint(1, 2), max_len=2)
    return Element(n, [((x, x), {rng.choice((-1, 0, 1)): Fraction(rng.choice((-1, 1)))})
                       for x in code])


def corpus(rng):
    """(w, depth) over n = 2, 3, 4: unrestricted degrees, words shifted so
    they fail above level 1, rotations and gauge twists."""
    cases = []
    for n, depth, max_len, splits in ((2, 3, 3, 4), (3, 2, 2, 3), (4, 2, 2, 3)):
        def words():
            return random_sum_of_words_unitary(n, rng, max_splits=splits, max_len=max_len,
                                               degree_window=None)
        for _ in range(4):
            w = words()
            cases += [(w, depth), (shift(w), depth)]
            if depth > 2:
                cases.append((shift(shift(w)), depth))
        for cos, sin in ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13))):
            a, b = rng.sample(range(1, n + 1), 2)
            r = rotation(n, (a,), (b,), cos, sin)
            base = words()
            cases += [(r * base, depth), (base * r, depth), (base * shift(r), depth)]
        twisted = gauge(words(), rng.choice((-1, 1, 2)))
        cases += [(twisted, depth), (diagonal_phase(n, rng) * twisted, depth)]
    return cases


def test_level_test_matches_enumeration():
    rng = random.Random(31337)
    levels = []
    for w, depth in corpus(rng):
        towers = [Element.identity(w.n), w]
        want = DecisionReport(UNDECIDED, "direct", depth=depth,
                              certificate={"note": f"no violation up to level {depth}"})
        for k in range(1, depth + 1):
            x, image = oracle_level_witness(w, k, towers)
            assert matrix_unit_witness(w, k) == x, (render(w), k)
            if x is not None and want.verdict == UNDECIDED:
                want = DecisionReport(NOT_PRESERVES, "direct", depth=k, failing_level=k,
                                      witness=x, certificate={"image": render(image)})
        assert direct_check(w, depth).to_json_obj() == want.to_json_obj(), render(w)
        levels.append(want.failing_level)
    # the corpus reaches refutations above level 1, not only clean runs
    assert levels.count(1) >= 10 and levels.count(2) >= 3 and levels.count(3) >= 1
