import random

import pytest

from cuntzcalc.endo import sum_of_words_profile
from cuntzcalc.sampling import level_words, permutation_unitary, random_sum_of_words_unitary


def test_level_words_refuse_levels_that_are_not_ints():
    assert level_words(2, 0) == [()]
    assert level_words(3, 1) == [(1,), (2,), (3,)]
    for k in (True, 2.0, -1):
        with pytest.raises(ValueError, match="level k"):
            level_words(2, k)
        with pytest.raises(ValueError, match="level k"):
            permutation_unitary(2, k, [0, 1])


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
