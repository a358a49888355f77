import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nnquery.core import (
    BOT,
    Vocabulary,
    WeightedStructure,
    format_rational,
    lifted_compare,
    rational,
)
from nnquery.fosum import eval_weight_term, parse_fosum
from nnquery.network import graph_vocabulary
from nnquery.query import parse_query

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10**4)

# weight constants a, b, c take the given values; u is undefined
VOCAB = Vocabulary(weights={"a": 0, "b": 0, "c": 0, "u": 0})


def ev(text, **values):
    """The lifted value of the weight term ``text``."""
    s = WeightedStructure(VOCAB, ("e",), weights={k: {(): v} for k, v in values.items()})
    return eval_weight_term(s, parse_fosum(text, VOCAB), {})


def test_rational_parsing_exact():
    assert rational("3/4") == Fraction(3, 4)
    assert rational("1.25") == Fraction(5, 4)
    assert rational("-2/6") == Fraction(-1, 3)
    assert rational(7) == Fraction(7)
    assert rational("  -0.5 ") == Fraction(-1, 2)


def test_rational_rejects_binary_floats():
    with pytest.raises(TypeError):
        rational(0.1)
    with pytest.raises(TypeError):
        rational(True)


def test_format_rational():
    assert format_rational(Fraction(3, 1)) == "3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"


def test_division_by_zero_is_bottom():
    assert ev("a / b", a=Fraction(1), b=Fraction(0)) is BOT
    assert ev("1 / 0") is BOT


def test_bottom_absorbs_all_ops_both_sides():
    x = Fraction(5, 3)
    for op in "+-*/":
        assert ev(f"a {op} u", a=x) is BOT
        assert ev(f"u {op} a", a=x) is BOT
    # even 0 · ⊥ is ⊥, not 0, and ⊥ − ⊥ does not cancel to 0
    assert ev("u * 0") is BOT
    assert ev("u - u") is BOT


def test_exact_arith():
    assert ev("a + b", a=Fraction(3, 2), b=Fraction(1, 2)) == Fraction(2)
    assert ev("a * b", a=Fraction(2, 3), b=Fraction(3, 2)) == Fraction(1)
    assert ev("a / b", a=Fraction(1), b=Fraction(3)) == Fraction(1, 3)


def test_compare_bottom_is_strictly_below_everything():
    assert lifted_compare(BOT, Fraction(-1000)) == "lt"
    assert lifted_compare(Fraction(-1000), BOT) == "gt"
    assert lifted_compare(BOT, BOT) == "eq"
    assert lifted_compare(Fraction(1, 3), Fraction(2, 6)) == "eq"


@given(rationals, rationals)
def test_compare_matches_fraction_order(a, b):
    want = "lt" if a < b else ("eq" if a == b else "gt")
    assert lifted_compare(a, b) == want


@given(rationals, rationals, rationals)
def test_arith_assoc_comm(a, b, c):
    for op in "+*":
        assert ev(f"a {op} b", a=a, b=b) == ev(f"b {op} a", a=a, b=b)
        assert ev(f"(a {op} b) {op} c", a=a, b=b, c=c) == ev(
            f"a {op} (b {op} c)", a=a, b=b, c=c
        )


@given(rationals)
def test_bottom_absorption_property(x):
    for op in "+-*/":
        assert ev(f"a {op} u", a=x) is BOT
        assert ev(f"u {op} a", a=x) is BOT


# Both languages read through one token cursor: a syntax error is at the
# offending character, or at len(text) when the text ends too early.
PARSE = {
    "query": lambda text: parse_query(text, 1),
    "fosum": lambda text: parse_fosum(text, graph_vocabulary(1)),
}


@pytest.mark.parametrize(
    "language, text, position",
    [
        ("query", "x > {1}", 4),  # '{' is no query token
        ("query", "exists x . F(x) >", 17),
        ("query", "max(x, 1 < 2", 9),
        ("query", "(x > 0", 6),  # a missing ')' is blamed on the end
        ("fosum", "exists x (E(x, out1) and b(x) < 1", 33),
        ("fosum", "b(in1) ; 1", 7),  # nor ';' an FO+SUM one
        ("fosum", "b(in1) < 1 and", 14),
        ("fosum", "b(in1 < 1", 6),
    ],
)
def test_syntax_error_positions_in_both_languages(language, text, position):
    with pytest.raises(ValueError) as err:
        PARSE[language](text)
    assert re.search(rf"\bposition {position}\b", str(err.value)), str(err.value)
    assert ("end of input" in str(err.value)) == (position == len(text))
