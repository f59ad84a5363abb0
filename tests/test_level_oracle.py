"""Differential test of the level-k preservation test against brute force.

The oracle applies the endomorphism to every level-k matrix unit S_a S_b*
in lexicographic order of (a, b) and tests whether the image lies in the
core; it is exact but costs n^(2k) products per level.  The direct,
cocycle, graph and auto routes must all report its least failing unit,
and auto's off-graph refutations the enumeration's image of it.  Above
the first failing level, matrix_unit_witness must also match the least
failing unit read off the level-k blocks of the tower's w_k* gauge(w_k).
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from cuntzcalc.algebra import Element, level_blocks, membership
from cuntzcalc.decide import (
    NOT_PRESERVES,
    PRESERVES,
    UNDECIDED,
    DecisionReport,
    DegreeOutOfRange,
    IncompleteEdgeRule,
    decide_preserves,
    direct_check,
    matrix_unit_witness,
)
from cuntzcalc.endo import NotSumOfWords, gauge, shift, u_tower
from cuntzcalc.exprio import render, resolve
from cuntzcalc.sampling import random_prefix_code, random_sum_of_words_unitary
from oracles import rotation


def oracle_level_witness(w, k):
    """(least failing level-k unit, its image), or (None, None)."""
    wk = u_tower(w, k)
    wks = wk.adjoint()
    idx = list(product(range(1, w.n + 1), repeat=k))
    for a in idx:
        for b in idx:
            x = Element(w.n, {(a, b): {0: 1}})
            image = wk * x * wks
            if not membership(image, "F"):
                return x, image
    return None, None


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


@pytest.fixture(scope="module")
def enumerated():
    """(w, depth, per-level oracle results) over the seeded corpus."""
    out = []
    for w, depth in corpus(random.Random(31337)):
        out.append((w, depth, [oracle_level_witness(w, k) for k in range(1, depth + 1)]))
    return out


def first_failure(levels):
    """(level, unit, image) of the first failing level, or (0, None, None)."""
    for k, (x, image) in enumerate(levels, 1):
        if x is not None:
            return k, x, image
    return 0, None, None


def test_level_test_matches_enumeration(enumerated):
    failing = []
    for w, depth, levels in enumerated:
        for k, (x, _) in enumerate(levels, 1):
            assert matrix_unit_witness(w, k) == x, (render(w), k)
        k, x, image = first_failure(levels)
        if x is None:
            want = DecisionReport(UNDECIDED, "direct", depth=depth,
                                  certificate={"note": f"no violation up to level {depth}"})
        else:
            want = DecisionReport(NOT_PRESERVES, "direct", depth=k, failing_level=k,
                                  witness=x, certificate={"image": render(image)})
        assert direct_check(w, depth).to_json_obj() == want.to_json_obj(), render(w)
        failing.append(k)
    # the corpus reaches refutations above level 1, not only clean runs
    assert failing.count(1) >= 10 and failing.count(2) >= 3 and failing.count(3) >= 1


def test_routes_report_the_enumerated_witness(enumerated):
    graph_levels, auto_images = [], []
    for w, depth, levels in enumerated:
        k, x, image = first_failure(levels)
        r = decide_preserves(w, "cocycle", depth)
        if x is None:
            assert r.verdict in (PRESERVES, UNDECIDED), render(w)
        else:
            assert (r.verdict, r.failing_level, r.witness) == (NOT_PRESERVES, k, x), render(w)
        a = decide_preserves(w, "auto", depth)
        if x is None:
            assert a.verdict != NOT_PRESERVES or a.failing_level > depth, render(w)
        else:
            assert (a.verdict, a.failing_level, a.witness) == (NOT_PRESERVES, k, x), render(w)
            if a.method == "cocycle":
                assert a.certificate["image"] == render(image), render(w)
                auto_images.append(k)
        try:
            g = decide_preserves(w, "graph")
        except (NotSumOfWords, DegreeOutOfRange, IncompleteEdgeRule):
            continue
        if x is None:
            # the graph decides every level; the enumeration stops at depth
            assert g.verdict == PRESERVES or g.failing_level > depth, render(w)
        else:
            assert (g.verdict, g.failing_level, g.witness) == (NOT_PRESERVES, k, x), render(w)
        graph_levels.append(k)
    # the graph route reaches refutations at levels 1, 2 and 3 of the corpus
    assert graph_levels.count(1) >= 5 and graph_levels.count(2) >= 5
    assert graph_levels.count(3) >= 1
    # auto falls back to the cocycle route on the corpus's wide-degree words,
    # rotations and gauge twists; its refutations there are at level 1
    assert auto_images.count(1) >= 5


def tower_witness(w, k):
    """(least failing level-k unit, whether column 1^k fails) from the
    level-k blocks X_ab = S_a* q S_b of q = w_k* gauge(w_k), tower w_k.

    The image of S_a S_b* leaves the core iff column a or row b of the
    blocks has a nonzero off-diagonal block, or X_aa != X_bb.
    """
    wk = u_tower(w, k)
    blocks = level_blocks(wk.adjoint() * gauge(wk), k)
    one = (1,) * k
    if any(b == one != a for a, b in blocks):
        return Element(w.n, {(one, one): {0: 1}}), True
    ref = blocks.get((one, one), {})
    row = min(a for (a, b), x in blocks.items() if a != b or x != ref)
    return Element(w.n, {(one, row): {0: 1}}), False


def refuted_words(n, rng, count):
    """count seeded sums of words with unrestricted degrees that fail at level 1."""
    out = []
    while len(out) < count:
        w = random_sum_of_words_unitary(n, rng, max_splits=3, max_len=2, degree_window=None)
        if direct_check(w, 1).verdict == NOT_PRESERVES:
            out.append(w)
    return out


def test_witness_above_the_failing_level_matches_the_tower():
    rng = random.Random(2718)
    cases = []
    for n, top, count in ((2, 6, 3), (3, 4, 2)):
        for w in refuted_words(n, rng, count):
            cases += [(w, top), (shift(w), top), (shift(shift(w)), top),
                      (gauge(w, rng.choice((-1, 2))), top)]
    w_cp, w0 = resolve("@w_cp"), resolve("S1 S11* + S21 S12* + S22 S2*")
    # the tower of a rational rotation is dense: 0.6 s at level 4 with w_cp
    for cos, sin in ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13))):
        r = rotation(2, (1,), (2,), cos, sin)
        cases += [(r * w0, 4), (w0 * shift(r), 4), (r * w_cp, 3), (w_cp * shift(r), 3)]
    checked, columns, rows = 0, 0, 0
    for w, top in cases:
        report = direct_check(w, top)
        if report.verdict != NOT_PRESERVES:
            continue
        for k in range(report.failing_level + 1, top + 1):
            x, column = tower_witness(w, k)
            assert matrix_unit_witness(w, k) == x, (render(w), k)
            checked += 1
            columns += column
            # a row witness other than S_{1^k} S_{1^k}*
            rows += x != Element(w.n, {((1,) * k, (1,) * k): {0: 1}})
    assert checked >= 60 and columns >= 10 and rows >= 40
