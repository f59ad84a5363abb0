"""Seeded random generators for property tests and bounded search.

Everything takes an explicit random.Random so callers control
reproducibility; no module-level randomness.
"""

from itertools import product

from .algebra import Element, _check_level

# draws random_sum_of_words_unitary makes before it falls back
ATTEMPTS = 200


def level_words(n, k):
    """All length-k multi-indices over 1..n in lexicographic order."""
    _check_level(k, "level k")
    return [tuple(w) for w in product(range(1, n + 1), repeat=k)]


def permutation_unitary(n, k, perm):
    """The core unitary sending S_b to S_a for b the i-th level-k word
    and a the perm[i]-th; perm is a permutation of range(n**k)."""
    words = level_words(n, k)
    if sorted(perm) != list(range(len(words))):
        raise ValueError("perm must be a permutation of the level-k words")
    raw = [((words[perm[i]], words[i]), {0: 1}) for i in range(len(words))]
    return Element(n, raw)


def random_permutation_unitary(n, k, rng):
    perm = list(range(n ** k))
    rng.shuffle(perm)
    return permutation_unitary(n, k, perm)


def random_prefix_code(n, rng, splits, max_len=4):
    """Complete prefix code grown by the given number of leaf splits.

    May stop early when every leaf is already at max_len, so the caller
    must not assume the size is exactly 1 + splits*(n-1).
    """
    code = [()]
    for _ in range(splits):
        splittable = [i for i, w in enumerate(code) if len(w) < max_len]
        if not splittable:
            break
        i = rng.choice(splittable)
        w = code.pop(i)
        code.extend(w + (j,) for j in range(1, n + 1))
    return sorted(code)


def random_sum_of_words_unitary(n, rng, max_splits=3, max_len=4, degree_window=(-1, 0, 1)):
    """Random unitary sum of words: two equal-size complete prefix codes
    under a random pairing.

    When degree_window is given, pairings with a length difference
    outside it are rejected and redrawn; falls back to a permutation
    unitary if the window cannot be hit within ATTEMPTS draws.
    """
    for _ in range(ATTEMPTS):
        splits = rng.randint(0, max_splits)
        left = random_prefix_code(n, rng, splits, max_len)
        right = random_prefix_code(n, rng, splits, max_len)
        if len(left) != len(right):
            continue
        perm = list(range(len(right)))
        rng.shuffle(perm)
        pairs = [(left[perm[i]], right[i]) for i in range(len(right))]
        if degree_window is not None and any(
                len(a) - len(b) not in degree_window for a, b in pairs):
            continue
        return Element(n, [(p, {0: 1}) for p in pairs])
    return random_permutation_unitary(n, rng.randint(1, 2), rng)

