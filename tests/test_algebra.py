import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cuntzcalc.algebra import (
    ContextMismatch,
    Element,
    _cadd,
    _canonical,
    _cconj,
    _cmul,
    _cneg,
    _cylinders,
    _inner_index,
    _probe,
    _product_terms,
    diagonal_mean,
    left_inverse,
    level_blocks,
    membership,
    phi_preimage,
    shift,
    word_degree,
)
from cuntzcalc.endo import gauge, lambda_apply
from cuntzcalc.exprio import constant, from_json, parse, render, to_json
from cuntzcalc.intertwine import intertwiner_space
from cuntzcalc.sampling import random_permutation_unitary
from oracles import cylinders, gauge_expectation, trie_entries, word_mul

N = 2
I = Element.identity(N)
ZERO = Element.zero(N)
S1 = Element.gen(N, 1)
S2 = Element.gen(N, 2)


def word(a, b=(), coeff=1, gpow=0):
    return Element.word(N, a, b, coeff, gpow)


indices = st.lists(st.integers(1, N), max_size=4).map(tuple)
terms = st.tuples(indices, indices,
                  st.integers(-3, 3).filter(bool),
                  st.integers(-2, 2))
elements = st.lists(terms, max_size=4).map(
    lambda ts: Element(N, [((a, b), {g: Fraction(q)}) for a, b, q, g in ts]))
small_elements = st.lists(terms, max_size=2).map(
    lambda ts: Element(N, [((a, b), {g: Fraction(q)}) for a, b, q, g in ts]))

SETTINGS = dict(max_examples=60, deadline=None, derandomize=True)


# -- word level --------------------------------------------------------------

def test_word_mul_cases():
    # S_b* S_c collapses by prefix comparison
    assert word_mul(((1,), (1, 2)), ((2,), ())) is None
    assert word_mul(((1,), (1, 2)), ((1,), ())) == ((1,), (2,))
    assert word_mul(((1,), (1, 2)), ((1, 2), ())) == ((1,), ())
    assert word_mul(((1,), (1, 2)), ((1, 2, 2), ())) == ((1, 2), ())
    assert word_mul(((1,), ()), ((2,), (1,))) == ((1, 2), (1,))
    assert word_mul(((), (1,)), ((2,), ())) is None


def test_word_degree():
    assert word_degree(((1, 2), (1,))) == 1
    assert word_degree(((), ())) == 0


# -- the product against an all-pairs oracle --------------------------------

def all_pairs_product(x, y):
    """x * y by trying every pair of words, as the definition reads."""
    raw = []
    for tx, cx in x.terms.items():
        for ty, cy in y.terms.items():
            t = word_mul(tx, ty)
            if t is None:
                continue
            c = {}
            for mx, qx in cx.items():
                for my, qy in cy.items():
                    c[mx + my] = c.get(mx + my, 0) + qx * qy
            raw.append((t, {m: q for m, q in c.items() if q}))
    return Element(x.n, raw)


def random_element(rng, n, size):
    """size words of lengths 0-4 with Laurent or unit coefficients."""
    raw = []
    for _ in range(size):
        alpha = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4)))
        beta = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4)))
        if rng.random() < 0.3:
            c = {0: Fraction(1)}
        else:
            c = {rng.randint(-2, 2): Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 2))}
        raw.append(((alpha, beta), c))
    return Element(n, raw)


def test_product_matches_all_pairs_oracle():
    rng = random.Random(11)
    shapes = set()
    for n in (2, 3, 4):
        one, zero = Element.identity(n), Element.zero(n)
        for _ in range(80):
            x = random_element(rng, n, rng.randint(1, 9))
            y = random_element(rng, n, rng.randint(1, 9))
            shapes.add((len(x.terms) > len(y.terms)) - (len(x.terms) < len(y.terms)))
            assert x * y == all_pairs_product(x, y)
            assert x * x.adjoint() == all_pairs_product(x, x.adjoint())
            assert x * one == one * x == x
            assert (x * zero).is_zero() and (zero * x).is_zero()
    assert shapes == {-1, 0, 1}


def random_terms(rng, n, size):
    """A term dict of size random words, not in canonical form."""
    terms = {}
    while len(terms) < size:
        alpha = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4)))
        beta = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 4)))
        terms[(alpha, beta)] = {rng.randint(-1, 1): rng.choice((1, -2, Fraction(1, 3)))}
    return terms


def raw_multiset(raw):
    return Counter((t, frozenset(c.items())) for t, c in raw)


def test_reused_index_matches_product_and_all_pairs_oracle():
    rng = random.Random(13)
    shapes = Counter()
    for n in (2, 3):
        for trial in range(40):
            # the empty index, an 8-term one, then random sizes
            fixed = random_terms(rng, n, (0, 8)[trial] if trial < 2 else rng.randint(1, 8))
            index = _inner_index(fixed)
            y = Element(n, fixed)
            # the same index, probed by left factors of 1 term, 8 terms and a random size
            for size in (1, 8, rng.randint(1, 8)):
                other = random_terms(rng, n, size)
                x = Element(n, other)
                raw = _probe(index, other)  # other * fixed
                assert raw_multiset(raw) == raw_multiset(_product_terms(other, fixed))
                assert _canonical(n, raw) == all_pairs_product(x, y)
                assert _canonical(n, _product_terms(fixed, other)) == all_pairs_product(y, x)
                shapes[len(other), len(fixed)] += 1
    assert shapes[1, 0] and shapes[8, 0] and shapes[1, 8]


def test_trie_stores_each_term_once_at_the_node_of_its_alpha():
    rng = random.Random(17)
    empty_alphas = 0
    for n in (2, 3):
        for size in (0, 1, 8, 30):
            terms = random_terms(rng, n, size)
            empty_alphas += sum(not a for a, _ in terms)
            index = _inner_index(terms)
            assert len(trie_entries(index)) == len(terms)
            for (a, b), c in terms.items():
                node = index
                for letter in a:
                    node = node[0][letter]
                assert (a, b, c) in node[1]
            # each node's below list holds the very entries stored at or under it
            stack = [index]
            while stack:
                node = stack.pop()
                assert sorted(map(id, node[2])) == sorted(map(id, trie_entries(node)))
                stack.extend(node[0].values())
    assert empty_alphas


def test_chain_product_matches_all_pairs_oracle():
    # each level-9 word's empty beta ends at the root, above a 1000-letter unbranched chain
    n = 2
    words = Element(n, {(a, ()): {0: 1} for a in product((1, 2), repeat=9)})
    chain = Element.word(n, (1,) * 1000, (2,))
    assert len(words.terms) == 512
    assert words * chain == all_pairs_product(words, chain)
    assert chain.adjoint() * words.adjoint() == all_pairs_product(chain.adjoint(), words.adjoint())


@pytest.mark.parametrize("n", (2, 3))
def test_long_word_product(n):
    # a product costs the letters of its words, not their squares
    one = Element.identity(n)
    p = Element.word(n, (1,) * 1000, (1,) * 1000)
    x = one + p
    assert len(x.terms) == (n - 1) * 1000 + 1
    assert len(trie_entries(_inner_index(x.terms))) == len(x.terms)
    assert x * x == one + p.scale(3)


def test_large_tower_product_is_unitary():
    from cuntzcalc.endo import u_tower
    from cuntzcalc.exprio import constant

    w10 = u_tower(constant("w_cp"), 10)
    assert len(w10.terms) == 6144
    assert (w10.adjoint() * w10).is_identity()
    assert (w10 * w10.adjoint()).is_identity()


# -- the shift against the normalising constructor --------------------------

def test_shift_matches_normalising_oracle():
    rng = random.Random(5)
    scalars = 0
    for n in (2, 3, 4):
        for _ in range(40):
            x = random_element(rng, n, rng.randint(0, 8))
            if rng.random() < 0.4:
                # the scalar term is canonical only alone in degree 0
                x = Element(n, {t: c for t, c in x.terms.items() if word_degree(t)})
                x = x + Element.identity(n).scale(Fraction(rng.randint(1, 5), 3), rng.randint(-2, 2))
            scalars += ((), ()) in x.terms
            oracle = Element(n, [(((i,) + a, (i,) + b), c)
                                 for (a, b), c in x.terms.items() for i in range(1, n + 1)])
            assert shift(x).terms == oracle.terms
            assert left_inverse(shift(x)) == x
    assert scalars >= 20


# -- canonical form ----------------------------------------------------------

def test_cuntz_relation():
    assert S1 * S1.adjoint() + S2 * S2.adjoint() == I
    assert S1.adjoint() * S1 == I
    assert S1.adjoint() * S2 == ZERO


def test_expansion_identified():
    # one-step expanded presentation normalizes to the same element
    coarse = word((1,), (2,))
    fine = word((1, 1), (2, 1)) + word((1, 2), (2, 2))
    assert coarse == fine
    assert coarse.terms == fine.terms
    # mixed levels: only the maximal cylinders of each value are kept
    mixed = word((1,), (2,)) + word((1, 1), (2, 1))
    assert mixed.terms == {((1, 1), (2, 1)): {0: 2}, ((1, 2), (2, 2)): {0: 1}}


def test_contraction_collapses_complete_families():
    assert word((1, 1), (1, 1)) + word((1, 2), (1, 2)) == word((1,), (1,))
    total = sum((word((i, j), (i, j)) for i in (1, 2) for j in (1, 2)), ZERO)
    assert total == I
    assert total.is_identity()
    # a family completed across levels contracts all the way up
    assert (word((1,), (1,)) + word((2, 1), (2, 1)) + word((2, 2), (2, 2))).is_identity()


def test_partial_family_stays_expanded():
    x = word((1, 1), (1, 1), coeff=Fraction(1, 2), gpow=-1) \
        + word((1, 2), (1, 2)) \
        + word((2,), (2,), gpow=1)
    assert x.max_level() == 2
    assert len(x.terms) == 3  # P_2 stays one cylinder; {S11, S12} stays uncontracted
    assert sorted(x.degrees()) == [0]


@st.composite
def tail_sets(draw):
    """(n, tails) for _cylinders: n = 2..4, up to 8 tails of length 0..4,
    values with g-powers or emptied by cancellation, and sometimes a
    complete family of siblings with one value."""
    n = draw(st.integers(2, 4))
    tail = st.lists(st.integers(1, n), max_size=4).map(tuple)
    value = st.one_of(st.just({}), st.just({0: 1, 1: -1}),
                      st.builds(lambda m, q: {m: q}, st.integers(-2, 2),
                                st.sampled_from([1, -1, 2, Fraction(1, 2)])))
    tails = draw(st.dictionaries(tail, value, max_size=8))
    if draw(st.booleans()):
        parent = draw(st.lists(st.integers(1, n), max_size=3).map(tuple))
        tails.update(dict.fromkeys([parent + (i,) for i in range(1, n + 1)], draw(value)))
    return n, tails


def cylinder_set(pairs):
    return sorted((gamma, sorted(c.items())) for gamma, c in pairs)


@settings(**SETTINGS)
@given(tail_sets())
def test_cylinders_match_the_two_pass_reference(nt):
    n, tails = nt
    assert cylinder_set(_cylinders(n, tails)) == cylinder_set(cylinders(n, tails))


def test_mixed_degree_groups_are_independent():
    x = word((1,)) + word((1,), (2, 1))
    assert sorted(x.degrees()) == [-1, 1]
    assert x.max_level() == 2


# -- the coarsest form against the uniform-level oracle ----------------------
#
# The previous canonical form, kept as the reference: every degree group
# expanded to one beta-length, contracted as a whole group, and then
# re-contracted family by family.

def _uniform_normal_form(n, raw):
    """Canonical term dict from an iterable of ((alpha, beta), coeffdict)."""
    groups = {}
    for t, c in raw:
        if not c:
            continue
        groups.setdefault(word_degree(t), []).append((t, c))
    out = {}
    for items in groups.values():
        target = max(len(t[1]) for t, _ in items)
        acc = {}
        for (a, b), c in items:
            grow = target - len(b)
            if grow == 0:
                tails = ((),)
            else:
                tails = product(range(1, n + 1), repeat=grow)
            for suf in tails:
                key = (a + suf, b + suf)
                prev = acc.get(key)
                acc[key] = _cadd(prev, c) if prev else dict(c)
        acc = {t: c for t, c in acc.items() if c}
        while acc:
            contracted = _contract_group(n, acc)
            if contracted is None:
                break
            acc = contracted
        out.update(acc)
    return out


def _contract_group(n, acc):
    """One whole-group contraction step, or None if not applicable."""
    fams = {}
    for (a, b), c in acc.items():
        if not a or not b or a[-1] != b[-1]:
            return None
        fams.setdefault((a[:-1], b[:-1]), {})[a[-1]] = c
    out = {}
    for parent, fam in fams.items():
        if len(fam) != n:
            return None
        ref = fam[1] if 1 in fam else None
        if ref is None or any(fam[i] != ref for i in range(2, n + 1)):
            return None
        out[parent] = ref
    return out


def _greedy_presentation(x):
    """Term dict of x with greedy family contraction applied termwise."""
    terms = dict(x.terms)
    while True:
        fams = {}
        for (a, b) in terms:
            if a and b and a[-1] == b[-1]:
                fams.setdefault((a[:-1], b[:-1]), []).append((a, b))
        changed = False
        for parent, children in fams.items():
            if len(children) != x.n:
                continue
            ref = terms.get(children[0])
            if ref is None or any(terms.get(ch) != ref for ch in children[1:]):
                continue
            if parent in terms:
                # a parent already present would collide; leave this family
                continue
            for ch in children:
                del terms[ch]
            terms[parent] = ref
            changed = True
        if not changed:
            return terms


def reference_terms(n, raw):
    return _greedy_presentation(Element(n, _uniform_normal_form(n, raw), _normal=True))


def random_raw(rng, n, top):
    """Raw terms of lengths 0..top, some as complete equal families (one
    member split again, the parent term added with another coefficient
    or its negative)."""
    raw = []
    for _ in range(rng.randint(0, 5)):
        a = tuple(rng.randint(1, n) for _ in range(rng.randint(0, top)))
        b = tuple(rng.randint(1, n) for _ in range(rng.randint(0, top)))
        c = {rng.randint(-1, 1): Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))}
        if rng.random() < 0.5:
            family = [(a + (i,), b + (i,)) for i in range(1, n + 1)]
            if rng.random() < 0.5:
                a2, b2 = family.pop(rng.randrange(n))
                family += [(a2 + (i,), b2 + (i,)) for i in range(1, n + 1)]
            raw += [(t, c) for t in family]
            if rng.random() < 0.5:
                raw.append(((a, b), _cneg(c) if rng.random() < 0.5 else {0: 1}))
        else:
            raw.append(((a, b), c))
    return raw


def raw_product(xs, ys):
    return [(t, _cmul(cx, cy)) for tx, cx in xs for ty, cy in ys
            if (t := word_mul(tx, ty)) is not None]


def test_terms_match_the_uniform_level_oracle():
    rng = random.Random(15)
    shapes = Counter()
    for n, top in ((2, 3), (3, 2), (4, 2)):
        for _ in range(120):
            xs, ys = random_raw(rng, n, top), random_raw(rng, n, top)
            x, y = Element(n, xs), Element(n, ys)
            cases = [(x, xs), (y, ys), (x * y, raw_product(xs, ys)), (x + y, xs + ys),
                     (x - y, xs + [(t, _cneg(c)) for t, c in ys]),
                     (x.adjoint(), [((b, a), _cconj(c)) for (a, b), c in xs])]
            for z, raw in cases:
                assert z.terms == reference_terms(n, raw)
                assert parse(render(z), n) == z
                assert from_json(to_json(z)) == z
                levels = {(word_degree(t), len(t[1])) for t in z.terms}
                shapes["mixed"] += len(levels) > len({d for d, _ in levels})
                for k in (1, 2):
                    for block in level_blocks(z, k).values():
                        assert _canonical(n, block.items()).terms == block
    assert shapes["mixed"] > 100


@pytest.mark.parametrize("k", [16, 30, 1500])
def test_projection_plus_identity_stays_k_plus_one_terms(k):
    # deeper than the recursion limit at k = 1500; 2^k terms when expanded
    p = word((1,) * k, (1,) * k)
    x = I + p
    assert len(x.terms) == k + 1
    steps = {(1,) * j + (2,): {0: 1} for j in range(k)}
    assert x.terms == {**{(a, a): c for a, c in steps.items()}, ((1,) * k, (1,) * k): {0: 2}}
    if k <= 30:
        start = time.perf_counter()
        square = x * x
        assert time.perf_counter() - start < 1
        assert square == I + p.scale(3)


def test_zero_and_subtraction():
    x = word((1, 2), (2,), coeff=3, gpow=1)
    assert (x - x).is_zero()
    assert x + ZERO == x
    assert -x + x == ZERO


def test_letter_validation_and_context():
    with pytest.raises(ValueError):
        Element(N, {((3,), ()): {0: 1}})
    # n is checked where it enters, by every public constructor
    for n in (1, 10, "2", 2.0):
        for make in (lambda: Element(n, {}), lambda: Element(n, {((1,), ()): {0: 1}}),
                     lambda: Element.zero(n), lambda: Element.identity(n),
                     lambda: Element.word(n, (1,)), lambda: Element.gen(n, 1)):
            with pytest.raises(ValueError, match="number of generators"):
                make()
    # both ends of 2..9 are valid
    for n in (2, 9):
        assert Element.gen(n, n).adjoint() * Element.gen(n, n) == Element.identity(n)
    with pytest.raises(ContextMismatch):
        S1 + Element.gen(3, 1)
    with pytest.raises(TypeError, match="expected Element, got int"):
        S1 + 1
    with pytest.raises(AttributeError, match="immutable"):
        S1.n = 3


def test_gauge_powers_must_be_ints():
    # a float, bool or str power renders as g^0.5 or g^True, which parse rejects
    for bad in (0.5, True, "1"):
        for make in (lambda: Element(N, {((1,), (1,)): {bad: 1}}),
                     lambda: Element.word(N, (1,), gpow=bad),
                     lambda: S1.scale(1, bad), lambda: gauge(S1, bad)):
            with pytest.raises(ValueError, match="gauge powers"):
                make()


def test_coefficients_must_be_ints_or_fractions():
    # 0.1 would enter as 3602879701896397/36028797018963968 and True as 1
    for bad in (0.1, 0.5, 0.0, True, False, "1"):
        for make in (lambda: Element(N, {((1,), (2,)): bad}),
                     lambda: Element(N, {((1,), (2,)): {0: bad}}),
                     lambda: Element(N, [(((1,), (2,)), {1: bad})]),
                     lambda: Element.word(N, (1,), (2,), bad),
                     lambda: I.scale(bad), lambda: word((1,), (2,)).scale(bad, 1)):
            with pytest.raises(ValueError, match="ints or Fractions"):
                make()
    assert Element(N, {((1,), (2,)): {0: 0, 1: Fraction(0)}}) == Element.zero(N)


def test_scale_by_a_gauge_power():
    assert word((1,), (2,)).scale(3, gpow=1) == word((1,), (2,), coeff=3, gpow=1)
    assert word((1,), (2,), gpow=-1).scale(Fraction(1, 2), gpow=2) == word((1,), (2,), Fraction(1, 2), 1)


def test_integral_forms():
    from cuntzcalc.algebra import _integral, _over, _reduced
    x = word((1,), (2,), 4) + word((2,), (), -6, 1)
    assert _integral(x) == (x, 1) and _integral(x)[0] is x
    y = x.scale(Fraction(1, 6)) + word((1,), (1,), Fraction(3, 4))
    X, d = _integral(y)
    assert d == 12 and X == y.scale(12) and X.terms[((1,), (1,))] == {0: 9}
    assert _reduced(x, 4) == (x.scale(Fraction(1, 2)), 2)
    assert _reduced(x, 3) == (x, 3)
    assert _reduced(Element.zero(N), 5) == (Element.zero(N), 1)
    assert Element(N, _over(X.terms, d), _normal=True) == y
    assert _over(x.terms, 1) is x.terms


def test_scalar_interface():
    x = word((1,), (2,))
    assert 2 * x == x + x
    assert x * 2 == x + x
    assert x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)) == x
    assert x.scale(1, gpow=2).scale(1, gpow=-2) == x
    # a float is no exact scalar, and no other type equals an Element
    with pytest.raises(TypeError):
        0.5 * x
    assert x != "S1 S2*" and not x == 1


def test_repr_is_stable():
    x = word((1,), (2,)) + word((2,))
    assert repr(x) == repr(Element(N, dict(x.terms)))


# -- shift and preimages -----------------------------------------------------

def test_phi_preimage_roundtrip():
    from cuntzcalc.endo import shift
    x = word((1, 2), (2,), coeff=2) + word((1,), gpow=1)
    assert phi_preimage(shift(x), 1) == x
    assert phi_preimage(shift(shift(x)), 2) == x
    assert phi_preimage(S1, 1) is None
    assert phi_preimage(I, 3) == I
    # x is not a shift, so the second level of shift(x) fails
    assert phi_preimage(x) is None
    assert phi_preimage(shift(x), 2) is None
    assert membership(shift(x), "phik", 2) is False
    # not an int: True would count as 1, and 2.0 fail inside range()
    for k in (True, 2.0, 2.5, -1):
        with pytest.raises(ValueError, match="k must be"):
            phi_preimage(shift(x), k)


def word_by_word_left_inverse(x):
    """(1/n) sum_i S_i* x S_i, word by word, as the definition reads."""
    n = x.n
    raw = []
    for t, c in x.terms.items():
        for i in range(1, n + 1):
            t1 = word_mul(((), (i,)), t)
            t2 = None if t1 is None else word_mul(t1, ((i,), ()))
            if t2 is not None:
                raw.append((t2, {m: q * Fraction(1, n) for m, q in c.items()}))
    return Element(n, raw)


def test_diagonal_mean_matches_word_by_word_oracle():
    rng = random.Random(29)
    for n in (2, 3, 4):
        one = Element.identity(n)
        for _ in range(30):
            z = random_element(rng, n, rng.randint(0, 7 - n))
            off = Element.gen(n, 1) * random_element(rng, n, 1) * Element.gen(n, n).adjoint()
            for x in (z, shift(z), shift(z) + off, z + one.scale(Fraction(2, 3), 1)):
                want = word_by_word_left_inverse(x)
                assert diagonal_mean(n, level_blocks(x, 1)) == want
                assert left_inverse(x) == want


def left_inverse_preimage(x, k):
    """phi_preimage by its definition: unshift, and check that shift undoes it."""
    for _ in range(k):
        y = word_by_word_left_inverse(x)
        if shift(y) != x:
            return None
        x = y
    return x


def test_phi_preimage_matches_left_inverse_oracle():
    rng = random.Random(23)
    inside = outside = 0
    for n in (2, 3, 4):
        one = Element.identity(n)
        xs = [Element.zero(n), one, one.scale(Fraction(-2, 3), 1)]
        for _ in range(25):
            # fewer terms for larger n: mixed lengths expand to n^4 words
            z = random_element(rng, n, rng.randint(0, 7 - n))
            if rng.random() < 0.25:
                # a lone scalar term, with a g-power coefficient
                z = one.scale(Fraction(rng.randint(1, 5), 3), rng.randint(-2, 2))
            # shift(z) spoiled by one off-diagonal block, or in one diagonal block
            i, j = rng.sample(range(1, n + 1), 2)
            e = random_element(rng, n, 1)
            si, sj = Element.gen(n, i), Element.gen(n, j)
            off = shift(z) + si * e * sj.adjoint()
            diag = shift(z) + si * e * si.adjoint()
            xs += [z, shift(z), shift(shift(z)), shift(shift(shift(z))),
                   off, diag, shift(off), shift(diag)]
        for x in xs:
            for k in range(4):
                want = left_inverse_preimage(x, k)
                assert phi_preimage(x, k) == want, (x, k)
                if k and x.max_level():
                    inside += want is not None
                    outside += want is None
    assert inside >= 300 and outside >= 800


def test_membership_basics():
    p1 = word((1,), (1,))
    assert membership(p1, "D")
    assert membership(p1, "F")
    assert membership(p1, "Fk", 1)
    assert not membership(S1, "F")
    assert not membership(word((1,), (2,)), "D")
    from cuntzcalc.endo import shift
    assert membership(shift(word((1,), (2,))), "phik", 1)
    assert not membership(word((1,), (2,)), "phik", 1)
    with pytest.raises(ValueError):
        membership(p1, "Fk")
    with pytest.raises(ValueError):
        membership(p1, "phik")
    with pytest.raises(ValueError):
        membership(p1, "bogus")
    # not an int: Fk would compare against a float, phik fail inside range()
    for target in ("Fk", "phik"):
        for k in (True, 1.0, 1.5, -1):
            with pytest.raises(ValueError, match=f"target {target}"):
                membership(p1, target, k)
    # level 0: the scalars, and every x lies in the range of phi^0
    assert membership(I.scale(3), "Fk", 0) and not membership(p1, "Fk", 0)
    assert membership(S1, "phik", 0)


def test_gauge_expectation():
    x = word((1,), (1,), gpow=2) + word((1,), ()) + word((2,), (2,))
    assert gauge_expectation(x) == word((2,), (2,))
    assert gauge_expectation(I) == I


# -- algebra axioms (property suite) ----------------------------------------

@settings(**SETTINGS)
@given(small_elements, small_elements, small_elements)
def test_mul_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@settings(**SETTINGS)
@given(small_elements, small_elements, small_elements)
def test_mul_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (y + z) * x == y * x + z * x


@settings(**SETTINGS)
@given(elements, elements)
def test_add_commutative(x, y):
    assert x + y == y + x


@settings(**SETTINGS)
@given(small_elements, small_elements)
def test_adjoint_antimultiplicative(x, y):
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()


@settings(**SETTINGS)
@given(elements)
def test_adjoint_involution(x):
    assert x.adjoint().adjoint() == x


@settings(**SETTINGS)
@given(elements)
def test_normal_form_idempotent(x):
    assert Element(N, [(t, dict(c)) for t, c in x.terms.items()]) == x


@settings(**SETTINGS)
@given(elements, elements)
def test_equality_iff_zero_difference(x, y):
    assert (x == y) == (x - y).is_zero()
    if x == y:
        assert hash(x) == hash(y)


# -- coefficients: integral values are ints ---------------------------------

def coefficient_values(x):
    return [q for c in x.terms.values() for q in c.values()]


def assert_int_coefficients(x):
    """Every coefficient of x is a nonzero int (no float, no integral Fraction)."""
    for q in coefficient_values(x):
        assert type(q) is int and q, (render(x), q)


int_terms = st.lists(st.tuples(indices, indices, st.integers(-3, 3), st.integers(-2, 2)),
                     max_size=5)


@settings(**SETTINGS)
@given(int_terms)
def test_int_and_fraction_coefficients_build_the_same_element(ts):
    by_dict = [Element(N, [((a, b), {g: f(q)}) for a, b, q, g in ts]) for f in (int, Fraction)]
    by_scalar = [Element(N, [((a, b), f(q)) for a, b, q, _ in ts]) for f in (int, Fraction)]
    for x, y in (by_dict, by_scalar):
        assert x == y and hash(x) == hash(y)
        assert render(x) == render(y) and to_json(x) == to_json(y)
        assert_int_coefficients(x)
        assert_int_coefficients(y)
    x = by_dict[0]
    assert x.scale(Fraction(4, 2)) == x.scale(2)
    assert_int_coefficients(x.scale(Fraction(4, 2)))
    assert_int_coefficients(x.scale(Fraction(3, 2)).scale(Fraction(2, 3)))


def test_integral_inputs_stay_int():
    rng = random.Random(31)
    assert_int_coefficients(parse("4/2 S1 - 3 g^2 S2* + I"))
    assert_int_coefficients(Element.word(N, (1,), (2,), Fraction(6, 3)))
    assert type(parse("1/2 S1").terms[((1,), ())][0]) is Fraction
    for n in (2, 3):
        us = [random_permutation_unitary(n, k, rng) for k in (1, 2)]
        if n == 2:
            us.append(constant("u_cp"))
        for _ in range(15):
            x = Element(n, [((a, b), {g: q}) for (a, b), c in random_element(rng, n, 4).terms.items()
                            for g, q in c.items() if q.denominator == 1])
            y = Element(n, [(t, {0: rng.choice((1, -2))}) for t in random_element(rng, n, 3).terms])
            u = rng.choice(us)
            for z in (x, x * y, y * x, x + y, x - y, x.adjoint(), shift(x), gauge(x, 2),
                      left_inverse(shift(x)), lambda_apply(u, x), lambda_apply(u, y)):
                assert_int_coefficients(z)
    for u, level in ((random_permutation_unitary(2, 2, rng), 2), (random_permutation_unitary(3, 1, rng), 2),
                     (constant("u_cp"), 3)):
        space = intertwiner_space(u, level)
        for b in space.basis:
            assert_int_coefficients(b)


# -- coefficient helpers against a naive reference ---------------------------

def naive_cadd(a, b):
    out = {}
    for c in (a, b):
        for m, q in c.items():
            out[m] = out.get(m, 0) + q
    return {m: q for m, q in out.items() if q}


def naive_cmul(a, b):
    out = {}
    for ma, qa in a.items():
        for mb, qb in b.items():
            out[ma + mb] = out.get(ma + mb, 0) + qa * qb
    return {m: q for m, q in out.items() if q}


nonzero_values = st.one_of(
    st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4)).filter(bool)
laurent = st.dictionaries(st.integers(-2, 2), nonzero_values, max_size=4)


@st.composite
def laurent_pairs(draw):
    """Two Laurent dicts; b may cancel some of a's entries exactly, and
    (1 + q g)(1 - q g) cancels its g term."""
    a, b = draw(laurent), draw(laurent)
    for m in draw(st.lists(st.sampled_from(sorted(a)), unique=True)) if a else ():
        b[m] = -a[m]
    if draw(st.booleans()):
        q = draw(nonzero_values)
        a, b = {0: 1, 1: q}, {0: 1, 1: -q}
    return a, b


@settings(**SETTINGS)
@given(laurent_pairs())
def test_coefficient_helpers_match_naive_reference(ab):
    a, b = ab
    before = (dict(a), dict(b))
    for helper, naive in ((_cadd, naive_cadd), (_cmul, naive_cmul)):
        got = helper(a, b)
        assert got == naive(a, b)
        assert all(got.values()), got
        assert (a, b) == before


def test_coefficient_helpers_cancel_exactly():
    half = Fraction(1, 2)
    assert _cadd({0: half, 1: 2}, {0: -half}) == {1: 2}
    assert _cmul({0: 1, 1: half}, {0: 1, 1: -half}) == {0: 1, 2: -half * half}
    assert _cmul({0: 2, 1: 1}, {-1: 2, 0: -1}) == {-1: 4, 1: -1}


# -- products with the identity ----------------------------------------------

def test_identity_factors_are_returned_as_they_are():
    rng = random.Random(19)
    for n in (2, 3):
        one = Element.identity(n)
        for _ in range(20):
            x = random_element(rng, n, rng.randint(0, 4))
            assert x * one is x and one * x is x
            assert x * one == x and one * x == x
    with pytest.raises(ContextMismatch):
        Element.identity(2) * Element.identity(3)


def test_scalar_multiple_of_identity_takes_the_general_product(monkeypatch):
    import cuntzcalc.algebra as algebra

    calls = []
    product_terms = algebra._product_terms

    def counted(xs, ys):
        calls.append(1)
        return product_terms(xs, ys)
    monkeypatch.setattr(algebra, "_product_terms", counted)
    x = word((1,), (2,), Fraction(1, 3), 1) + word((2, 1))
    two = I.scale(2)
    assert not two.is_identity()
    assert x * two == x.scale(2) and two * x == x.scale(2)
    assert len(calls) == 2
