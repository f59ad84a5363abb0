from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuntzcalc.algebra import Element
from cuntzcalc.endo import is_unitary
from cuntzcalc.exprio import (
    CONSTANT_NAMES,
    ParseError,
    constant,
    from_json,
    parse,
    render,
    resolve,
    to_json,
)
from oracles import render as render_reference

N = 2


def word(a, b=(), coeff=1, gpow=0):
    return Element.word(N, a, b, coeff, gpow)


indices = st.lists(st.integers(1, N), max_size=4).map(tuple)
terms = st.tuples(indices, indices,
                  st.integers(-3, 3).filter(bool),
                  st.integers(-2, 2))
elements = st.lists(terms, max_size=4).map(
    lambda ts: Element(N, [((a, b), {g: Fraction(q)}) for a, b, q, g in ts]))

SETTINGS = dict(max_examples=80, deadline=None, derandomize=True)


# -- parsing -----------------------------------------------------------------

def test_parse_basic_forms():
    assert parse("I") == Element.identity(N)
    assert parse("0") == Element.zero(N)
    assert parse("S1") == Element.gen(N, 1)
    assert parse("S12*") == word((), (1, 2))
    assert parse("S1 S2*") == word((1,), (2,))
    assert parse("2 S1 S2*") == word((1,), (2,), coeff=2)
    assert parse("1/2 g^-1 I") == word((), (), Fraction(1, 2), -1)
    assert parse("g^3") == word((), (), 1, 3)
    assert parse("-S1 + S1") == Element.zero(N)
    assert parse("3/4") == word((), (), Fraction(3, 4))


def test_parse_juxtaposition_multiplies():
    # adjacent factors compose as operators, including collapses to zero
    assert parse("S1 S2") == word((1, 2))
    assert parse("S1* S2*") == word((), (2, 1))
    assert parse("S1* S1") == Element.identity(N)
    assert parse("S1* S2") == Element.zero(N)
    assert parse("S12* S1") == word((), (2,))
    assert parse("I S1 I") == word((1,))


def test_parse_respects_n():
    parse("S3", n=3)
    with pytest.raises(ParseError):
        parse("S3", n=2)
    with pytest.raises(ValueError):
        parse("S1", n=1)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse("S1 ? S2")
    assert e.value.pos == 3
    with pytest.raises(ParseError):
        parse("S1 +")
    with pytest.raises(ParseError):
        parse("1/0 I")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("g")  # exponent is mandatory
    # a token of the wrong kind, and a term followed by neither '+' nor '-'
    with pytest.raises(ParseError, match="expected caret, found 'S1'") as e:
        parse("g S1")
    assert e.value.pos == 2
    with pytest.raises(ParseError, match="expected '[+]' or '-', found '2'") as e:
        parse("S1 2")
    assert e.value.pos == 3
    # a leading '+' on the expression or on an exponent is dropped
    assert parse("+S1 - S2") == parse("S1 - S2")
    assert parse("g^+1 S1") == parse("g^1 S1")
    # the star may be spaced off; it still binds to the preceding word
    assert parse("S1 * S1") == Element.identity(N)


# -- rendering ---------------------------------------------------------------

def test_render_canonical_shapes():
    assert render(Element.zero(N)) == "0"
    assert render(Element.identity(N)) == "I"
    assert render(word((1,), (2,), -1)) == "-S1 S2*"
    assert render(word(()) + word((1, 1), (1, 1))) == "2 S11 S11* + S12 S12* + S2 S2*"
    assert render(word((), (), Fraction(1, 2), 1) + word((1, 2))) == \
        "1/2 g^1 I + S12"
    x = word((2,), (1,)) - word((1,), (2,), 3)
    assert render(x) == "S2 S1* - 3 S1 S2*"


@st.composite
def printed_elements(draw):
    """Elements over n = 2..4 with int, Fraction and negative values and
    g-powers, among them I, pure S_a and pure S_b* terms."""
    n = draw(st.integers(2, 4))
    idx = st.lists(st.integers(1, n), max_size=3).map(tuple)
    value = st.one_of(st.integers(-12, 12).filter(bool),
                      st.fractions(max_denominator=9).filter(bool))
    shapes = st.one_of(st.tuples(idx, idx), st.tuples(idx, st.just(())),
                       st.tuples(st.just(()), idx), st.just(((), ())))
    raw = draw(st.lists(st.tuples(shapes, st.dictionaries(st.integers(-3, 3), value, max_size=2)),
                        max_size=5))
    return Element(n, raw)


@settings(**SETTINGS)
@given(printed_elements())
def test_render_matches_the_fraction_operator_reference(x):
    # a product of rationals can store an integral Fraction, which prints as an int
    for z in (x, x.adjoint(), x * x.adjoint()):
        assert render(z) == render_reference(z)


@settings(**SETTINGS)
@given(elements)
def test_parse_render_roundtrip(x):
    assert parse(render(x)) == x


# -- json --------------------------------------------------------------------

@settings(**SETTINGS)
@given(elements)
def test_json_roundtrip(x):
    y = from_json(to_json(x))
    assert y == x
    assert to_json(y) == to_json(x)


def test_json_schema_violations():
    good = to_json(word((1,), (2,)))
    for bad in (
        "[1,2]",
        '{"n": 2}',
        '{"n": "2", "terms": []}',
        '{"n": 2, "terms": [{"alpha": [1], "beta": [2]}]}',
        '{"n": 2, "terms": [{"alpha": [1], "beta": [2], "coeff": [[0, 1]]}]}',
        '{"n": 2, "terms": [{"alpha": [1], "beta": [2], "coeff": [[0, 1, 0]]}]}',
        '{"n": 2, "terms": [{"alpha": ["1"], "beta": [2], "coeff": [[0, 1, 1]]}]}',
        "not json at all",
        '{"n": 2, "terms": {}}',
        '{"n": 2, "terms": [{"alpha": [1], "beta": [2], "coeff": 1}]}',
    ):
        with pytest.raises(ValueError, match="schema violation"):
            from_json(bad)
    assert from_json(good) == word((1,), (2,))


def test_out_of_range_letters_rejected_at_every_boundary():
    # products, sums and shifts skip the letter check, so every way in checks
    for letter in (0, 3):
        with pytest.raises(ValueError, match="out of range"):
            Element(N, {((1, letter), (2,)): {0: 1}})
        with pytest.raises(ValueError, match="out of range"):
            Element(N, [(((1,), (letter,)), 1)])
        with pytest.raises(ValueError, match="out of range"):
            Element.word(N, (letter,))
        with pytest.raises(ValueError, match="out of range"):
            Element.word(N, (), (2, letter))
        text = ('{"n": 2, "terms": [{"alpha": [1], "beta": [%d], '
                '"coeff": [[0, 1, 1]]}]}' % letter)
        with pytest.raises(ValueError, match="out of range"):
            from_json(text)
    for text in ("S3", "S1 S13*", "S1 + S23 S1*"):
        with pytest.raises(ParseError):
            parse(text, n=2)
        with pytest.raises(ParseError):
            resolve(text, n=2)
    # the parser words it as the Element boundary does; 0 is below the range
    for text in ("S0", "S102", "S3"):
        with pytest.raises(ParseError, match=r"letter [03] out of range for n=2"):
            parse(text, n=2)


def test_letters_that_are_not_ints_rejected():
    # True == 1 == 1.0, so a letter check by value alone lets these through
    for letter in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="letters must be ints"):
            Element(N, {((letter,), (2,)): {0: 1}})
        with pytest.raises(ValueError, match="letters must be ints"):
            Element(N, [(((1,), (2, letter)), 1)])
    for letter in ("true", "1.0", '"1"'):
        text = ('{"n": 2, "terms": [{"alpha": [%s], "beta": [2], '
                '"coeff": [[0, 1, 1]]}]}' % letter)
        with pytest.raises(ValueError, match="list of integers"):
            from_json(text)


def test_coefficient_triples_that_are_not_ints_rejected():
    # JSON true is a Python int, so an isinstance check reads it as 1
    for triple in ("[0, true, true]", "[0, 1, true]", "[true, 1, 1]", "[0, 1.0, 1]", '[0, "1", 1]'):
        text = ('{"n": 2, "terms": [{"alpha": [1], "beta": [2], '
                '"coeff": [%s]}]}' % triple)
        with pytest.raises(ValueError, match="integer triple"):
            from_json(text)


def test_json_merges_duplicate_powers():
    text = ('{"n": 2, "terms": [{"alpha": [], "beta": [], '
            '"coeff": [[0, 1, 2], [0, 1, 2]]}]}')
    assert from_json(text) == Element.identity(N)


# -- constants ---------------------------------------------------------------

def test_constants_are_unitary_and_related():
    u, v, w = (constant(s) for s in CONSTANT_NAMES)
    assert is_unitary(u) and is_unitary(v) and is_unitary(w)
    assert w == v * u
    assert u.adjoint() * u == Element.identity(N)


def test_resolve():
    assert resolve("@u_cp") == constant("u_cp")
    assert resolve(" @w_cp ") == constant("w_cp")
    assert resolve("S1 S2*") == parse("S1 S2*")
    with pytest.raises(ValueError):
        resolve("@nope")
    with pytest.raises(ValueError):
        resolve("@u_cp", n=3)
