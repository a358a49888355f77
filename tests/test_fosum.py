import random
from fractions import Fraction

import pytest

from nnquery.core import BOT, Vocabulary, WeightedStructure
from nnquery.fosum import (
    FAnd,
    FCompare,
    FEqStd,
    FExists,
    FNot,
    FOr,
    FRel,
    Formula,
    ParseError,
    SVar,
    TIf,
    TRationalFunction,
    TSum,
    TWeight,
    eval_formula,
    eval_weight_term,
    free_variables,
    parse_fosum,
)
from nnquery.network import Network, Neuron, graph_vocabulary, to_structure

VOCAB = Vocabulary(
    relations={"E": 2, "P": 1},
    constants=("in1", "out1"),
    weights={"w": 2, "b": 1, "c": 0, "val1": 0},
)


def chain_structure(n=5):
    dom = tuple(f"e{i}" for i in range(n))
    return WeightedStructure(
        vocabulary=VOCAB,
        domain=dom,
        relations={
            "E": {(dom[i], dom[i + 1]) for i in range(n - 1)},
            "P": {(dom[0],), (dom[2],)},
        },
        constants={"in1": dom[0], "out1": dom[n - 1]},
        weights={
            "w": {(dom[0], dom[1]): Fraction(2), (dom[1], dom[2]): Fraction(-1, 2)},
            "b": {(dom[i],): Fraction(i) for i in range(n - 1)},  # b(e4) stays ⊥
            "c": {(): Fraction(-3, 2)},
            "val1": {(): Fraction(1, 4)},
        },
        weight_defaults={"w": Fraction(0), "b": BOT, "c": BOT, "val1": BOT},
    )


S = chain_structure()


def test_sum_over_tautology_counts_domain():
    t = parse_fosum("sum{x : x = x} 1", VOCAB)
    assert isinstance(t, TSum)
    assert eval_weight_term(S, t, {}) == Fraction(5)


def test_empty_sum_is_zero():
    t = parse_fosum("sum{x : not x = x} 1", VOCAB)
    assert eval_weight_term(S, t, {}) == Fraction(0)


def test_multi_variable_sum_is_product_enumeration():
    t = parse_fosum("sum{x, y : x = x and y = y} 1", VOCAB)
    assert eval_weight_term(S, t, {}) == Fraction(25)


def test_relu_idiom_parses_and_evaluates():
    t = parse_fosum("if c > 0 then c else 0", VOCAB)
    assert isinstance(t, TIf)
    assert eval_weight_term(S, t, {}) == Fraction(0)  # c = -3/2
    spos = chain_structure()
    spos.weights["c"][()] = Fraction(7, 3)
    assert eval_weight_term(spos, t, {}) == Fraction(7, 3)


def test_weight_apply_under_rational_function():
    t = parse_fosum("w(in1, u) * val1", VOCAB)
    assert isinstance(t, TRationalFunction)
    assert any(isinstance(sub, TWeight) for sub in t.subterms)
    assert eval_weight_term(S, t, {"u": "e1"}) == Fraction(2) * Fraction(1, 4)


def test_division_by_zero_term_is_bottom():
    t = parse_fosum("1/0", VOCAB)
    assert eval_weight_term(S, t, {}) is BOT


def test_cancellation_does_not_launder_bottom():
    t = parse_fosum("b(u) - b(u)", VOCAB)
    assert eval_weight_term(S, t, {"u": "e4"}) is BOT  # b(e4) = ⊥
    assert eval_weight_term(S, t, {"u": "e1"}) == Fraction(0)
    t0 = parse_fosum("0 * b(u)", VOCAB)
    assert eval_weight_term(S, t0, {"u": "e4"}) is BOT


def test_unbound_variable_is_a_value_error():
    t = parse_fosum("b(x)", VOCAB)
    with pytest.raises(ValueError, match="unbound variable 'x'"):
        eval_weight_term(S, t, {})
    with pytest.raises(ValueError, match="unbound variable 'x'"):
        eval_formula(S, parse_fosum("P(x)", VOCAB), {})


def test_symbol_missing_from_structure_is_a_value_error():
    # a term parsed over a 2-input vocabulary, evaluated on a 1-input net
    net = Network(1, (), (Neuron(Fraction(1), (Fraction(2),)),))
    s = to_structure(net, [Fraction(1)])
    vocab = graph_vocabulary(2)
    with pytest.raises(ValueError, match="unbound constant 'in2'"):
        eval_weight_term(s, parse_fosum("b(in2)", vocab), {})
    with pytest.raises(ValueError, match="unbound constant 'in2'"):
        eval_formula(s, parse_fosum("E(in2, out1)", vocab), {})
    with pytest.raises(ValueError, match="weight symbol 'val2'"):
        eval_weight_term(s, parse_fosum("val2", vocab), {})


def test_exists_edge_from_input():
    f = parse_fosum("exists x E(in1, x)", VOCAB)
    assert isinstance(f, FExists)
    assert eval_formula(S, f, {}) is True
    f2 = parse_fosum("exists x E(out1, x)", VOCAB)
    assert eval_formula(S, f2, {}) is False


def test_forall_and_connectives():
    assert eval_formula(S, parse_fosum("forall x (P(x) implies exists y E(x, y))", VOCAB), {})
    assert not eval_formula(S, parse_fosum("forall x P(x)", VOCAB), {})
    assert eval_formula(S, parse_fosum("not forall x P(x) and P(in1)", VOCAB), {})


def test_chains_of_one_connective_are_one_node():
    flat = parse_fosum("P(in1) and E(in1, out1) and P(out1)", VOCAB)
    assert isinstance(flat, FAnd) and len(flat.args) == 3
    assert parse_fosum("P(in1) and (E(in1, out1) and P(out1))", VOCAB) == flat
    # implication is lowered at parse: a implies b is (not a) or b
    implies = parse_fosum("P(in1) implies E(in1, out1) or P(out1)", VOCAB)
    assert implies == FOr((FNot(flat.args[0]), flat.args[1], flat.args[2]))


@pytest.mark.parametrize("op, last, want", [("and", "E(in1, out1)", False), ("or", "P(in1)", True)])
def test_long_flat_chains_parse_and_evaluate(shallow_stack, op, last, want):
    # parsing and evaluation recurse by nesting depth, not once per operand
    others = {"and": "P(in1)", "or": "E(in1, out1)"}[op]
    f = parse_fosum(f" {op} ".join([others] * 1499 + [last]), VOCAB)
    assert eval_formula(S, f, {}) is want
    assert free_variables(f) == set()
    assert len(f.args) == 1500


def test_weight_comparisons_use_lifted_order():
    # b(e4) is ⊥, which is strictly below every rational
    assert eval_formula(S, parse_fosum("b(u) < 0 - 100", VOCAB), {"u": "e4"})
    assert not eval_formula(S, parse_fosum("0 - 100 < b(u)", VOCAB), {"u": "e4"})
    assert eval_formula(S, parse_fosum("b(u) = bot", VOCAB), {"u": "e4"})
    assert eval_formula(S, parse_fosum("b(x) = b(y)", VOCAB), {"x": "e2", "y": "e2"})


def test_standard_vs_weight_equality_disambiguation():
    f = parse_fosum("x = in1", VOCAB)
    assert isinstance(f, FEqStd)
    assert eval_formula(S, f, {"x": "e0"})
    g = parse_fosum("c = val1", VOCAB)
    assert isinstance(g, FCompare)
    with pytest.raises(ParseError):
        parse_fosum("x = c", VOCAB)  # element term vs weight term
    with pytest.raises(ParseError):
        parse_fosum("x < y", VOCAB)  # no order on elements


def test_free_variables():
    t = parse_fosum("sum{x : E(x, y)} b(x)", VOCAB)
    assert free_variables(t) == {"y"}
    assert free_variables(parse_fosum("bot", VOCAB)) == set()
    t2 = parse_fosum("if P(z) then b(x) else 1", VOCAB)
    assert free_variables(t2) == {"z", "x"}


def test_variables_renamed_apart():
    t = parse_fosum("sum{x : exists x P(x)} 1", VOCAB)
    inner = t.guard
    assert isinstance(inner, FExists)
    assert inner.var not in t.variables
    assert free_variables(t) == set()


def test_renamed_binder_captures_no_free_variable():
    # the inner x is renamed apart under a name no input can spell, so the
    # free variable x__2 stays free
    f = parse_fosum("exists x (exists x E(x, x__2))", VOCAB)
    assert free_variables(f) == {"x__2"}
    g = parse_fosum("exists x (exists x (not x = x__2))", VOCAB)
    assert eval_formula(S, g, {"x__2": "e0"}) is True


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_fosum("E(in1)", VOCAB)  # arity mismatch
    with pytest.raises(ParseError):
        parse_fosum("Q(x)", VOCAB)  # unknown symbol
    with pytest.raises(ParseError):
        parse_fosum("sum{x : P(x)", VOCAB)  # unbalanced
    with pytest.raises(ParseError):
        parse_fosum("if P(in1) then 1", VOCAB)  # missing else
    with pytest.raises(ParseError):
        parse_fosum("w(b(x), y)", VOCAB)  # weight-term argument to a weight symbol
    # an error at the end of the text is at len(text), blanks included
    for text in ("exists", "b(in1) < 1 and", "b(in1) <   ", "sum{x : E(x, out1)} "):
        with pytest.raises(ParseError, match="found 'end of input'") as err:
            parse_fosum(text, VOCAB)
        assert err.value.pos == len(text)


# Input nested n levels deep, one kind of nesting each.
NESTED = {
    "paren term": lambda n: "(" * n + "1" + ")" * n,
    "paren formula": lambda n: "(" * n + "1 < 2" + ")" * n,
    "not": lambda n: "not " * n + "1 < 2",
    "exists": lambda n: "".join(f"exists v{i} " for i in range(n)) + "1 < 2",
    "implies": lambda n: "1 < 2 implies " * n + "1 < 2",
    "minus": lambda n: "-" * n + "1",
    "if": lambda n: "if 1 < 2 then " * n + "1" + " else 0" * n,
    "sum": lambda n: "sum{u : u = in1} " * 3 + "(" * n + "1" + ")" * n,
}


def test_deep_nesting_is_a_parse_error():
    # the recursive descent stops at a fixed depth, in the formula reading
    # and the term reading alike, instead of running out of Python stack
    for nested in NESTED.values():
        with pytest.raises(ParseError, match="nests deeper than 100 levels"):
            parse_fosum(nested(300), VOCAB)


def test_deepest_accepted_nesting_parses_and_evaluates():
    # the limit leaves the evaluator room on the stack at every kind of
    # nesting: the deepest input that parses also evaluates
    deepest = {"paren term": 99, "paren formula": 48, "minus": 99, "sum": 96}
    for kind, nested in NESTED.items():
        n = deepest.get(kind, 97)
        with pytest.raises(ParseError, match="nests deeper than"):
            parse_fosum(nested(n + 1), VOCAB)
        ast = parse_fosum(nested(n), VOCAB)
        sign = -1 if kind in ("not", "minus") and n % 2 else 1
        if isinstance(ast, Formula):
            assert eval_formula(S, ast, {}) is (sign == 1), kind
        else:
            assert eval_weight_term(S, ast, {}) == sign, kind


def test_sum_order_independence():
    t = parse_fosum("sum{x : x = x} b(x) + 0", VOCAB)
    base = eval_weight_term(chain_structure(4), t, {})
    s2 = chain_structure(4)
    s2.domain = tuple(reversed(s2.domain))
    assert eval_weight_term(s2, t, {}) == base


def _random_structure(rng):
    n = rng.randint(2, 4)
    dom = tuple(range(n))
    vocab = Vocabulary(relations={"E": 2, "P": 1}, constants=(), weights={"b": 1})
    return WeightedStructure(
        vocabulary=vocab,
        domain=dom,
        relations={
            "E": {(a, b) for a in dom for b in dom if rng.random() < 0.4},
            "P": {(a,) for a in dom if rng.random() < 0.5},
        },
        constants={},
        weights={"b": {(a,): Fraction(rng.randint(-3, 3)) for a in dom}},
        weight_defaults={"b": Fraction(0)},
    )


def _random_formula(rng, depth=2):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["P(x)", "E(x, x)", "b(x) < 1", "0 < b(x)", "exists y E(x, y)"])
    a, b = _random_formula(rng, depth - 1), _random_formula(rng, depth - 1)
    return rng.choice([f"({a}) and ({b})", f"({a}) or ({b})", f"not ({a})"])


def test_exists_sum_duality_on_random_pairs():
    # ∃x φ(x) holds iff sum{x : φ(x)} 1 is positive.
    rng = random.Random(20260816)
    vocab = Vocabulary(relations={"E": 2, "P": 1}, constants=(), weights={"b": 1})
    for _ in range(200):
        s = _random_structure(rng)
        phi = _random_formula(rng)
        f = parse_fosum(f"exists x ({phi})", vocab)
        t = parse_fosum(f"sum{{x : {phi}}} 1", vocab)
        count = eval_weight_term(s, t, {})
        assert eval_formula(s, f, {}) == (count > 0)
