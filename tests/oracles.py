"""Reference functions that only the tests call.

Each is a definition the engine does not need, kept here to check the
engine against: composition of endomorphisms, the gauge expectation, the
n-covering identity of a sum-of-words profile, diagonality of the level-1
gauge cocycle, and random labeled digraphs for the path-condition search.
"""

from cuntzcalc.algebra import Element, _canonical, membership, word_degree
from cuntzcalc.decide import OverlapGraph
from cuntzcalc.endo import gauge, is_unitary, lambda_apply, sum_of_words_profile


def compose(u, v):
    """The unitary whose endomorphism is (endomorphism of u) o (of v)."""
    for name, y in (("u", u), ("v", v)):
        if not is_unitary(y):
            raise ValueError(f"compose needs unitary inputs; {name} is not")
    return lambda_apply(u, v, check_unitary=False) * u


def gauge_expectation(x):
    """Keep the degree-0 terms, coefficients restricted to the g^0 part."""
    raw = {}
    for t, c in x.terms.items():
        if word_degree(t) == 0 and 0 in c:
            raw[t] = {0: c[0]}
    return _canonical(x.n, raw.items())


def n_covering_holds(profile):
    """sum_beta P_{beta-tilde} == n * I as an exact Element identity."""
    total = Element.zero(profile.n)
    for b in profile.betas:
        t = profile.tails[b]
        total = total + Element.word(profile.n, t, t)
    return total == Element.identity(profile.n).scale(profile.n)


def normalizer_cocycle_check(w):
    """Whether w* gauge(w) is diagonal; holds for every sum of words."""
    sum_of_words_profile(w)
    return membership(w.adjoint() * gauge(w), "D")


def random_labeled_digraph(rng, max_vertices=8, edge_prob=0.3,
                           labels=(-1, 0, 1)):
    """Arbitrary labeled digraph wrapped as an OverlapGraph, for
    exercising the path-condition search away from algebra inputs."""
    count = rng.randint(1, max_vertices)
    names = [f"v{i}" for i in range(count)]
    label = {v: rng.choice(labels) for v in names}
    edges = tuple(sorted((a, b) for a in names for b in names
                         if rng.random() < edge_prob))
    classes = {v: () for v in names}
    return OverlapGraph(2, classes, label, edges)
