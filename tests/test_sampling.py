import random

import pytest

from cuntzcalc.algebra import membership
from cuntzcalc.endo import sum_of_words_profile
from cuntzcalc.sampling import (
    level_words,
    permutation_unitary,
    random_prefix_code,
    random_sum_of_words_unitary,
)


def test_level_words_refuse_levels_that_are_not_ints():
    assert level_words(2, 0) == [()]
    assert level_words(3, 1) == [(1,), (2,), (3,)]
    for k in (True, 2.0, -1):
        with pytest.raises(ValueError, match="level k"):
            level_words(2, k)
        with pytest.raises(ValueError, match="level k"):
            permutation_unitary(2, k, [0, 1])
    for perm in ([0, 0], [1], [0, 1, 2], [1, 2]):
        with pytest.raises(ValueError, match="perm must be a permutation"):
            permutation_unitary(2, 1, perm)


def test_prefix_code_size_depends_on_the_splits_alone():
    # the two codes of a sum of words grow by the same splits, so they pair up
    rng = random.Random("prefix codes")
    for n, max_len in ((2, 1), (2, 3), (3, 2)):
        full = (n ** max_len - 1) // (n - 1)
        for splits in range(full + 3):
            code = random_prefix_code(n, rng, splits, max_len)
            assert len(code) == 1 + (n - 1) * min(splits, full)
            assert max(map(len, code)) <= max_len
    # past the full code every leaf is at max_len
    assert random_prefix_code(2, rng, 5, max_len=1) == [(1,), (2,)]


@pytest.mark.parametrize("window", [(-1, 0, 1), None])
def test_random_sums_of_words_are_unitary_and_keep_the_window(window):
    # sum_of_words_profile refuses anything but a unitary sum of words, and
    # the degrees +-1 show that not every draw fell back to a permutation
    rng = random.Random(f"sampling/{window}")
    degrees = set()
    for _ in range(40):
        w = random_sum_of_words_unitary(2, rng, degree_window=window)
        degrees |= {len(a) - len(b) for a, b in sum_of_words_profile(w)}
    assert {-1, 1} <= degrees
    assert window is None or degrees <= set(window)


def test_sum_of_words_falls_back_when_no_draw_hits_the_window():
    # a single-leaf code pairs () with (), of degree 0, never in the window
    w = random_sum_of_words_unitary(2, random.Random(7), max_splits=0, degree_window=(5,))
    assert membership(w, "F")
    assert {len(a) - len(b) for a, b in sum_of_words_profile(w)} == {0}
