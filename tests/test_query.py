"""Tests for query parsing, normalization, and geometric evaluation."""

import itertools
import random
import re
import time
from fractions import Fraction

import pytest

from nnquery.geometry import build_cd, canonicalize, make_arrangement
from nnquery.linprog import affine_eval
from nnquery.network import Network, Neuron
from nnquery.pwl import PwlFunction, pwl_eval, pwl_from_network
from nnquery.query import (
    CellSet,
    MBool,
    MFAtom,
    MPwl,
    PAnd,
    PNot,
    POr,
    QueryError,
    build_query_arrangement,
    complement,
    evaluate_query,
    normalize_ordered_prenex,
    parse_query,
    project_exists,
    select_cells_qfree,
    _matrix_nodes,
)
from oracles import (
    breakpoints_1d,
    oracle_cell_contains,
    oracle_forward,
    oracle_query,
    random_network,
    random_ordered_sentence,
)


@pytest.fixture
def relu_net():
    return Network(
        1,
        ((Neuron(Fraction(0), (Fraction(1),)),),),
        (Neuron(Fraction(0), (Fraction(1),)),),
    )


@pytest.fixture
def const_net():
    return Network(1, (), (Neuron(Fraction(7), (Fraction(0),)),))


def _atoms(matrix):
    return [n for n in _matrix_nodes(matrix) if isinstance(n, (MPwl, MFAtom))]


def _linear_atom(coeffs):
    """The comparison a_0 + Σ a_i·x_i > 0 as a matrix atom."""
    fn = PwlFunction(m=len(coeffs) - 1, breakplanes=(), polytopes=(("", coeffs),))
    return MPwl(fn, tuple(range(1, len(coeffs))), frozenset({1}))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class TestParse:
    def test_robustness_shape_parses(self):
        parse_query("forall x (abs(F(x) - F(a)) < d)", 1)

    def test_fixpoint_parses(self):
        parse_query("exists x (F(x) = x)", 1)

    def test_inline_f_parses(self):
        parse_query("F(x) > 0.9", 1)

    def test_syntax_error(self):
        with pytest.raises(QueryError):
            parse_query("exists x . (x > ", 1)

    def test_arity_error(self):
        with pytest.raises(QueryError, match="argument"):
            parse_query("F(x, y) = z", 1)

    def test_trailing_input_rejected(self):
        with pytest.raises(QueryError):
            parse_query("x > 0 y", 1)

    def test_reserved_names_rejected(self):
        with pytest.raises(QueryError, match="reserved"):
            parse_query("__x > 0", 1)

    def test_keyword_as_variable_rejected(self):
        with pytest.raises(QueryError):
            parse_query("abs > 0", 1)

    def test_quantifier_scope_is_maximal(self, relu_net):
        with_dot = evaluate_query(relu_net, "exists x . F(x) = x and x > 1")
        parenthesized = evaluate_query(relu_net, "exists x . (F(x) = x and x > 1)")
        assert with_dot.truth is parenthesized.truth is True

    def test_deep_nesting_is_a_query_error(self):
        # the recursive descent stops at a fixed depth instead of running
        # out of Python stack
        deep = (
            "(" * 400 + "x" + ")" * 400 + " > 0",
            "(" * 400 + "x > 0" + ")" * 400,
            "not " * 400 + "x > 0",
            "exists y . " * 400 + "x > 0",
            "abs(" * 400 + "x" + ")" * 400 + " > 0",
            "F(" * 400 + "x" + ")" * 400 + " > 0",
        )
        for text in deep:
            with pytest.raises(QueryError, match="nests deeper"):
                parse_query(text, 1)

    def test_hundred_levels_and_long_chains_parse(self):
        paren = parse_query("(" * 100 + "x" + ")" * 100 + " > 0", 1)
        assert paren == parse_query("x > 0", 1)
        formula = parse_query("(" * 100 + "x > 0" + ")" * 100, 1)
        assert formula == parse_query("x > 0", 1)
        parse_query("not " * 100 + "x > 0", 1)
        # '->' chains and unary minus are read iteratively: no depth limit
        assert parse_query("- " * 400 + "x > 0", 1) == parse_query("x > 0", 1)
        parse_query(" -> ".join(["x > 0"] * 400), 1)

    def test_implication_associates_to_the_right(self):
        assert parse_query("x > 0 -> x > 1 -> x > 2", 1) == parse_query(
            "x > 0 -> (x > 1 -> x > 2)", 1
        )
        assert parse_query("x > 0 -> x > 1 -> x > 2", 1) != parse_query(
            "(x > 0 -> x > 1) -> x > 2", 1
        )

    def test_chains_of_one_connective_are_one_node(self):
        flat = parse_query("x > 0 and x > 1 and x > 2", 1)
        assert isinstance(flat, PAnd) and len(flat.args) == 3
        assert parse_query("x > 0 and (x > 1 and x > 2)", 1) == flat
        assert parse_query("(x > 0 and x > 1) and x > 2", 1) == flat
        either = parse_query("x > 0 or (x > 1 and x > 2) or x > 3", 1)
        assert isinstance(either, POr) and len(either.args) == 3
        assert either.args[1] == parse_query("x > 1 and x > 2", 1)
        # a -> b -> c is one disjunction: not a or not b or c
        implies = parse_query("x > 0 -> x > 1 -> x > 2 or x > 3", 1)
        assert isinstance(implies, POr) and len(implies.args) == 4
        assert [type(a) for a in implies.args[:2]] == [PNot, PNot]

    def test_decimal_literal_is_exact(self):
        opq = normalize_ordered_prenex(parse_query("x > 0.9", 1))
        (atom,) = _atoms(opq.matrix)
        assert atom.fn.polytopes == (("", (Fraction(-9, 10), Fraction(1))),)
        assert atom.signs == {1}


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


class TestNormalize:
    def test_fixpoint_shape(self):
        # ∃x F(x)=x becomes two variables: the argument and a fresh result,
        # linked by F(x1)=x2 and the atom x2 − x1 = 0.
        opq = normalize_ordered_prenex(parse_query("exists x . F(x) = x", 1))
        assert len(opq.var_names) == 2
        assert opq.prefix == ("exists", "exists")
        fatoms = [n for n in _matrix_nodes(opq.matrix) if isinstance(n, MFAtom)]
        assert fatoms == [MFAtom(args=(1,), result=2)]
        (equality,) = [n for n in _matrix_nodes(opq.matrix) if isinstance(n, MPwl)]
        assert equality.vars == (1, 2) and equality.signs == {0}
        assert equality.fn.polytopes == (("", (Fraction(0), Fraction(-1), Fraction(1))),)

    def test_already_ordered_is_unchanged_up_to_renaming(self):
        opq = normalize_ordered_prenex(
            parse_query("exists x1 . exists x2 . (F(x1) = x2 and x1 - x2 = 0)", 1)
        )
        assert len(opq.var_names) == 2
        assert opq.prefix == ("exists", "exists")
        assert [n for n in _matrix_nodes(opq.matrix) if isinstance(n, MFAtom)] == [
            MFAtom(args=(1,), result=2)
        ]

    def test_abs_becomes_two_sided_case_split(self):
        # |x| < 1 holds exactly on the open interval (−1, 1): one atom whose
        # function |x| − 1 breaks at x = 0 into x − 1 (x ≥ 0) and −x − 1
        opq = normalize_ordered_prenex(parse_query("abs(x) < 1", 1))
        assert opq.free_vars == ("x",)
        (atom,) = _atoms(opq.matrix)
        assert opq.matrix == atom and atom.signs == {-1}
        assert atom.fn.breakplanes == ((0, 1),)
        assert dict(atom.fn.polytopes) == {"-": (-1, -1), "=": (-1, 1), "+": (-1, 1)}
        assert build_query_arrangement(None, opq).hyperplanes == ((0, 1), (1, 1), (-1, 1))

    def test_parameters_substitute_as_rationals(self):
        opq = normalize_ordered_prenex(
            parse_query("x > a", 1), parameters={"a": "3/2"}
        )
        (atom,) = _atoms(opq.matrix)
        assert atom.fn.polytopes == (("", (Fraction(-3, 2), Fraction(1))),)

    def test_quantified_variable_shadowing_parameter_rejected(self):
        with pytest.raises(QueryError, match="shadows"):
            normalize_ordered_prenex(
                parse_query("exists a . a > 0", 1), parameters={"a": 1}
            )

    def test_free_order_must_cover_free_variables(self):
        with pytest.raises(QueryError, match="not declared"):
            normalize_ordered_prenex(parse_query("x + y > 0", 1), free_order=["x"])

    def test_free_order_rejects_repeated_names(self):
        with pytest.raises(QueryError, match="declared twice: x"):
            normalize_ordered_prenex(parse_query("x > 0", 1), free_order=["x", "x"])

    def test_nonlinear_product_rejected(self, relu_net):
        with pytest.raises(QueryError, match="non-linear"):
            parse_query("x * y > 0", 1)
        # a product of two non-constant forms, sugar or F included, is
        # rejected as it is parsed
        for text in ("abs(x) * y > 0", "exists x . F(x) * x > 0"):
            with pytest.raises(QueryError, match="non-linear"):
                parse_query(text, 1)
        # a constant factor on sugar stays linear: |x − 1| < 3/2
        result = evaluate_query(relu_net, "2 * abs(x - 1) < 3")
        assert result.cells
        assert all(Fraction(-1, 2) < v["x"] < Fraction(5, 2) for _cid, v in result.cells)
        assert evaluate_query(
            relu_net, "forall x . (x > -0.5 and x < 2.5) -> 2 * abs(x - 1) < 3"
        ).truth is True

    def test_nonlinear_division_rejected(self):
        for text in ("1 / x > 0", "x / abs(y) > 0"):
            with pytest.raises(QueryError, match="non-linear"):
                parse_query(text, 1)

    def test_constant_sugar_divisor_folds(self, relu_net):
        plain = evaluate_query(relu_net, "x / 2 > 0")
        for text in ("x / abs(2) > 0", "x / max(1, 2) > 0", "x / min(2, 3) > 0"):
            assert parse_query(text, 1) == parse_query("x / 2 > 0", 1)
            assert evaluate_query(relu_net, text).cells == plain.cells

    def test_division_by_zero_rejected(self):
        for text in ("x / 0 > 1", "x / abs(0) > 0"):
            with pytest.raises(QueryError, match="division by zero"):
                parse_query(text, 1)

    def test_unordered_fatom_kept_in_place(self, relu_net):
        # the result variable is quantified before the argument; the f-atom
        # keeps both where the prefix puts them, with no fresh copies
        opq = normalize_ordered_prenex(parse_query("exists y . exists x . F(x) = y", 1))
        assert len(opq.var_names) == 2
        assert opq.prefix == ("exists", "exists")
        assert [n for n in _matrix_nodes(opq.matrix) if isinstance(n, MFAtom)] == [
            MFAtom(args=(2,), result=1)
        ]
        assert evaluate_query(relu_net, "exists y . exists x . F(x) = y").truth is True

    def test_shared_occurrences_get_one_result_variable(self):
        # F(x) appears twice; sharing keeps the variable count at three
        opq = normalize_ordered_prenex(
            parse_query("exists x . (F(x) > 0 and F(x) < 1)", 1)
        )
        assert len(opq.var_names) == 2

    def test_implication_compiles_away(self, relu_net):
        r = evaluate_query(relu_net, "forall x . (x > 1 -> F(x) > 0)")
        assert r.truth is True
        r = evaluate_query(relu_net, "forall x . (x > -1 -> F(x) > 0)")
        assert r.truth is False

    def test_free_variables_come_first(self):
        opq = normalize_ordered_prenex(parse_query("exists y . x + y > 0", 1))
        assert opq.free_vars == ("x",)
        assert opq.var_names[0] == "x"
        assert opq.prefix == ("exists",)

    def test_repeated_node_is_split_once(self):
        # abs(x) + y + abs(x) is the form 2·abs(x) + y, so x is split once:
        # the guard x = 0 and the planes 2x + y = 1 and −2x + y = 1
        planes = [
            build_query_arrangement(None, normalize_ordered_prenex(parse_query(t, 1))).hyperplanes
            for t in ("abs(x) + y + abs(x) < 1", "2 * abs(x) + y < 1")
        ]
        assert planes[0] == planes[1]
        assert len(planes[0]) == 3

    def test_abs_chain_builds_only_its_pieces(self):
        # k abs nodes over one variable: k breakplanes and at most k + 1
        # component planes in one atom, not one branch per sign pattern
        opq = normalize_ordered_prenex(parse_query(f"exists x . {_abs_chain(10)} < 30", 1))
        assert opq.prefix == ("exists",) and isinstance(opq.matrix, MPwl)
        assert len(build_query_arrangement(None, opq).hyperplanes) <= 21

    def test_long_abs_chain_evaluates_quickly(self, relu_net):
        # Σ |x − i| over i < 16 is 64 at least, on [7, 8]
        start = time.perf_counter()
        assert evaluate_query(relu_net, f"exists x . {_abs_chain(16)} < 64").truth is False
        assert evaluate_query(relu_net, f"exists x . {_abs_chain(16)} <= 64").truth is True
        assert time.perf_counter() - start < 2

    def test_zero_coefficient_drops_f(self):
        opq = normalize_ordered_prenex(parse_query("F(x) * 0 + x > 0", 1))
        assert opq.var_names == ("x",)
        assert not [n for n in _matrix_nodes(opq.matrix) if isinstance(n, MFAtom)]


def _abs_chain(k):
    return " + ".join(f"abs(x - {i})" for i in range(k))


# ---------------------------------------------------------------------------
# Arrangement assembly
# ---------------------------------------------------------------------------


class TestArrangement:
    def test_relu_contexts_in_two_variables(self, relu_net):
        # the breakplane at x1, and the graphs of both components at (x1, x2):
        # x2 = x1 for the identity and x2 = 0 for the zero component
        f = pwl_from_network(relu_net)
        opq = normalize_ordered_prenex(
            parse_query("exists x1 . exists x2 . F(x1) = x2", 1)
        )
        arr = build_query_arrangement(f, opq)
        expected = {
            (Fraction(0), Fraction(1), Fraction(0)),  # x1 = 0
            (Fraction(0), Fraction(0), Fraction(1)),  # x2 = 0
            (Fraction(0), Fraction(1), Fraction(-1)),  # x2 = x1
        }
        assert set(arr.hyperplanes) == expected

    def test_linear_function_gives_single_graph_plane(self):
        net = Network(1, (), (Neuron(Fraction(3), (Fraction(2),)),))
        f = pwl_from_network(net)
        opq = normalize_ordered_prenex(
            parse_query("exists x1 . exists x2 . F(x1) = x2", 1)
        )
        arr = build_query_arrangement(f, opq)
        assert len(arr.hyperplanes) == 1
        # x2 = 3 + 2 x1, canonicalized
        assert arr.hyperplanes[0] == (Fraction(3), Fraction(2), Fraction(-1))

    def test_duplicate_constraints_do_not_grow_arrangement(self):
        a = normalize_ordered_prenex(parse_query("x > 0 and y > 1", 1))
        b = normalize_ordered_prenex(parse_query("x > 0 and (y > 1 and x > 0)", 1))
        assert (
            build_query_arrangement(None, a).hyperplanes
            == build_query_arrangement(None, b).hyperplanes
        )

    def test_missing_function_rejected(self):
        opq = normalize_ordered_prenex(parse_query("exists x . F(x) = x", 1))
        with pytest.raises(ValueError, match="no function"):
            build_query_arrangement(None, opq)

    def test_only_the_applied_context_is_instantiated(self):
        # F(x1, x3) = x2 over a 2-input net: breakplanes at (x1, x3) and the
        # component graphs at ((x1, x3), x2), nothing at (x1, x2) or (x2, x3)
        net = Network(
            2,
            (
                (
                    Neuron(Fraction(1), (Fraction(1), Fraction(-1))),
                    Neuron(Fraction(0), (Fraction(1), Fraction(2))),
                ),
            ),
            (Neuron(Fraction(0), (Fraction(1), Fraction(-1))),),
        )
        f = pwl_from_network(net)
        components = {comp for _pos, comp in f.polytopes}
        assert len(f.breakplanes) == 2 and len(components) >= 2
        opq = normalize_ordered_prenex(
            parse_query("exists x1 . exists x2 . exists x3 . F(x1, x3) = x2", 2)
        )
        assert [n for n in _matrix_nodes(opq.matrix) if isinstance(n, MFAtom)] == [
            MFAtom(args=(1, 3), result=2)
        ]
        arr = build_query_arrangement(f, opq)
        breaks = [(h0, h1, Fraction(0), h2) for h0, h1, h2 in f.breakplanes]
        graphs = [(c0, c1, Fraction(-1), c2) for c0, c1, c2 in components]
        expected = make_arrangement(3, breaks + graphs).hyperplanes
        assert set(arr.hyperplanes) == set(expected)
        assert len(arr.hyperplanes) == len(expected)
        elsewhere = [(h0, h1, h2, Fraction(0)) for h0, h1, h2 in f.breakplanes]
        elsewhere += [(h0, Fraction(0), h1, h2) for h0, h1, h2 in f.breakplanes]
        assert not {canonicalize(h) for h in elsewhere} & set(arr.hyperplanes)


# The sentences that analysis.robustness_check and counterfactual_explain
# build, pinned plane by plane: a change to the normal form that moves the
# benchmark's decompositions shows here.

_NET_1IN = Network(
    1,
    ((Neuron(Fraction(-1), (Fraction(2),)), Neuron(Fraction(1, 2), (Fraction(-1),))),),
    (Neuron(Fraction(1, 4), (Fraction(1), Fraction(-3, 2))),),
)
_NET_2IN = Network(
    2,
    ((Neuron(Fraction(1), (Fraction(1), Fraction(-2))),),),
    (Neuron(Fraction(0), (Fraction(3, 2),)),),
)


def _robustness_planes(net, a, metric):
    f = pwl_from_network(net)
    xs = [f"x{j}" for j in range(1, net.inputs + 1)]
    anchors = [f"pa{j}" for j in range(1, net.inputs + 1)]
    params = dict(zip(anchors, a))
    params.update(pc=pwl_eval(f, a), peps=Fraction(3, 4), pdelta=Fraction(1, 2))
    sentence = (
        " ".join(f"forall {x} ." for x in xs)
        + f" (dist_{metric}({', '.join(xs)}; {', '.join(anchors)}) < peps"
        + f" -> abs(F({', '.join(xs)}) - pc) < pdelta)"
    )
    q = normalize_ordered_prenex(parse_query(sentence, net.inputs), parameters=params)
    return build_query_arrangement(f, q).hyperplanes


def _counterfactual_planes(net, box):
    f = pwl_from_network(net)
    xs = [f"x{j}" for j in range(1, net.inputs + 1)]
    params = {"pthr": Fraction(1, 2)}
    parts = [f"F({', '.join(xs)}) = z", "z > pthr"]
    for j, (lo, hi) in enumerate(box, start=1):
        params.update({f"plo{j}": lo, f"phi{j}": hi})
        parts += [f"x{j} >= plo{j}", f"x{j} <= phi{j}"]
    q = normalize_ordered_prenex(
        parse_query(" and ".join(parts), net.inputs), parameters=params, free_order=xs + ["z"]
    )
    return build_query_arrangement(f, q).hyperplanes


def test_benchmark_query_shapes_are_pinned():
    # each robustness block: the planes in the order built, then the same
    # set as the 2^k case split of abs/min/max gave it
    a1 = (Fraction(1, 2),)
    for metric in ("linf", "l1"):
        one_in = _robustness_planes(_NET_1IN, a1, metric)
        assert one_in == (
            (-1, 2, 0), (1, 4, 0), (-5, 4, 0), (-1, 0, 4), (1, 0, 4), (-3, 0, 4),
            (-1, 3, -2), (-3, 8, -4),
        )
        assert set(one_in) == {
            (-1, 2, 0), (-5, 4, 0), (1, 4, 0), (-1, 0, 4), (-3, 0, 4), (1, 0, 4),
            (-1, 3, -2), (-3, 8, -4),
        }
    a2 = (Fraction(1, 4), Fraction(-1, 2))
    linf = _robustness_planes(_NET_2IN, a2, "linf")
    assert linf == (
        (-1, 4, 0, 0), (1, 0, 2, 0), (-3, 4, -4, 0), (1, 4, 4, 0), (5, 0, 4, 0),
        (1, 2, 0, 0), (-1, 0, 4, 0), (-1, 1, 0, 0), (-27, 0, 0, 8), (-23, 0, 0, 8),
        (-31, 0, 0, 8), (1, 1, -2, 0), (3, 3, -6, -2), (0, 0, 0, 1),
    )
    assert set(linf) == {
        (-1, 4, 0, 0), (1, 0, 2, 0), (-3, 4, -4, 0), (-1, 1, 0, 0), (-1, 0, 4, 0),
        (1, 4, 4, 0), (5, 0, 4, 0), (1, 2, 0, 0), (-27, 0, 0, 8), (-31, 0, 0, 8),
        (-23, 0, 0, 8), (1, 1, -2, 0), (3, 3, -6, -2), (0, 0, 0, 1),
    }
    l1 = _robustness_planes(_NET_2IN, a2, "l1")
    assert l1 == (
        (-1, 4, 0, 0), (1, 0, 2, 0), (1, 1, 1, 0), (0, 1, -1, 0), (-3, 2, -2, 0),
        (-1, 2, 2, 0), (-27, 0, 0, 8), (-23, 0, 0, 8), (-31, 0, 0, 8), (1, 1, -2, 0),
        (3, 3, -6, -2), (0, 0, 0, 1),
    )
    assert set(l1) == {
        (-1, 4, 0, 0), (1, 0, 2, 0), (-1, 2, 2, 0), (-3, 2, -2, 0), (0, 1, -1, 0),
        (1, 1, 1, 0), (-27, 0, 0, 8), (-31, 0, 0, 8), (-23, 0, 0, 8), (1, 1, -2, 0),
        (3, 3, -6, -2), (0, 0, 0, 1),
    }
    assert _counterfactual_planes(_NET_1IN, [(-2, 2)]) == (
        (-1, 0, 2), (2, 1, 0), (-2, 1, 0), (-1, 2, 0), (-1, 3, -2), (-1, 0, 4), (-3, 8, -4),
    )
    assert _counterfactual_planes(_NET_2IN, [(-2, 2), (-1, 1)]) == (
        (-1, 0, 0, 2), (2, 1, 0, 0), (-2, 1, 0, 0), (1, 0, 1, 0), (-1, 0, 1, 0),
        (1, 1, -2, 0), (3, 3, -6, -2), (0, 0, 0, 1),
    )


# ---------------------------------------------------------------------------
# Cell selection and set operations
# ---------------------------------------------------------------------------


class TestSelection:
    def test_positive_side_of_a_single_plane(self):
        arr = make_arrangement(1, [(Fraction(0), Fraction(1))])
        cd = build_cd(arr)
        s = select_cells_qfree(cd, None, _linear_atom((Fraction(0), Fraction(1))))
        picked = [cd.index[cid] for cid in s.ids]
        assert len(picked) == 1 and picked[0].sample[0] > 0

    def test_tautology_selects_every_cell(self):
        arr = make_arrangement(1, [(Fraction(0), Fraction(1))])
        cd = build_cd(arr)
        atom = _linear_atom((Fraction(0), Fraction(1)))
        tautology = PNot(PAnd((atom, PNot(atom))))
        s = select_cells_qfree(cd, None, tautology)
        assert s.ids == frozenset(c.id for c in cd.levels[1])

    def test_relu_graph_cells_satisfy_the_function(self, relu_net):
        f = pwl_from_network(relu_net)
        opq = normalize_ordered_prenex(
            parse_query("exists x1 . exists x2 . F(x1) = x2", 1)
        )
        arr = build_query_arrangement(f, opq)
        cd = build_cd(arr)
        s = select_cells_qfree(cd, f, opq.matrix)
        assert s.ids
        for cid in s.ids:
            sx, sy = cd.index[cid].sample
            assert pwl_eval(f, [sx]) == sy
        for c in cd.levels[2]:
            if c.id not in s.ids:
                sx, sy = c.sample
                assert pwl_eval(f, [sx]) != sy

    def test_incompatible_decomposition_rejected(self):
        cd = build_cd(make_arrangement(1, [(Fraction(0), Fraction(1))]))
        with pytest.raises(ValueError, match="not compatible"):
            select_cells_qfree(cd, None, _linear_atom((Fraction(-1), Fraction(1))))

    def test_incompatible_decomposition_rejected_for_f_atoms(self, relu_net):
        # F(x1) = x2 needs the breakplane x1 = 0 and both graphs, x2 = 0 and
        # x2 = x1; a decomposition missing either kind is refused
        f = pwl_from_network(relu_net)
        opq = normalize_ordered_prenex(parse_query("exists x1 . exists x2 . F(x1) = x2", 1))
        for planes in ([(0, 1, 0)], [(0, 0, 1), (0, 1, -1)]):
            cd = build_cd(make_arrangement(2, planes))
            with pytest.raises(ValueError, match="not compatible"):
                select_cells_qfree(cd, f, opq.matrix)

    def test_selection_matches_sample_evaluation(self):
        # stack-read selection against the matrix decided by arithmetic at
        # every cell's sample, over random normalized matrices with and
        # without F, f-atoms in any variable order included
        rng = random.Random(12)
        flipped = 0
        for trial in range(36):
            if trial % 3 == 0:
                d, f = rng.randint(1, 3), None
                text, _prefix, _tree = random_ordered_sentence(
                    rng, d, 1, rng.randint(1, 4), with_f=False
                )
                m = 1
            elif trial % 3 == 1:
                d, m = rng.randint(2, 3), 1
                f = pwl_from_network(random_network(rng, 1, 2, max_width=2))
                text, _prefix, _tree = _permuted_sentence(rng, d, m, rng.randint(1, 3))
            else:
                d, m = 3, 2
                f = pwl_from_network(random_network(rng, 2, 2, max_width=1))
                text, _prefix, _tree = _permuted_sentence(rng, d, m, rng.randint(1, 3))
            opq = normalize_ordered_prenex(parse_query(text, m))
            flipped += any(  # a negative leading coefficient
                isinstance(n, MPwl) and next(a for a in n.fn.polytopes[0][1][1:] if a) < 0
                for n in _matrix_nodes(opq.matrix)
            )
            cd = build_cd(build_query_arrangement(f, opq))
            want = {
                c.id for c in cd.levels[d] if _sample_satisfies(f, opq.matrix, c.sample)
            }
            assert select_cells_qfree(cd, f, opq.matrix).ids == want, text
        assert flipped >= 12

    def test_project_exists_collects_bases(self):
        arr = make_arrangement(2, [(Fraction(0), Fraction(1), Fraction(0))])
        cd = build_cd(arr)
        full = CellSet(2, frozenset(c.id for c in cd.levels[2]))
        assert project_exists(cd, full).ids == frozenset(
            c.id for c in cd.levels[1]
        )

    def test_complement_within_level(self):
        arr = make_arrangement(1, [(Fraction(0), Fraction(1))])
        cd = build_cd(arr)
        s = CellSet(1, frozenset([cd.levels[1][0].id]))
        c = complement(cd, s)
        assert c.ids | s.ids == frozenset(x.id for x in cd.levels[1])
        assert not (c.ids & s.ids)


# ---------------------------------------------------------------------------
# End-to-end evaluation
# ---------------------------------------------------------------------------


class TestEvaluate:
    @pytest.mark.parametrize(
        "prefix, op, last, want",
        [
            ("exists x .", "and", "x < 2", False),
            ("forall x .", "or", "x < 2", True),
            ("forall x .", "->", "x > 3", True),
            ("forall x .", "->", "x > 5", False),
        ],
    )
    def test_long_flat_chains_evaluate(self, relu_net, shallow_stack, prefix, op, last, want):
        # every walk over the formula recurses by nesting depth, not once
        # per atom of a chain
        atoms = [f"x > {k % 5}" for k in range(1499)]
        text = f"{prefix} " + f" {op} ".join([*atoms, last])
        assert evaluate_query(relu_net, text).truth is want

    def test_totality(self, relu_net):
        assert evaluate_query(relu_net, "forall x . exists y . F(x) = y").truth is True

    def test_fixpoint_above_one_on_relu(self, relu_net):
        assert (
            evaluate_query(relu_net, "exists x . (F(x) = x and x > 1)").truth is True
        )

    def test_fixpoint_above_one_on_constant_zero(self):
        zero = Network(1, (), (Neuron(Fraction(0), (Fraction(0),)),))
        assert evaluate_query(zero, "exists x . (F(x) = x and x > 1)").truth is False

    def test_constant_network_is_robust(self, const_net):
        r = evaluate_query(
            const_net,
            "forall x . (abs(F(x) - F(a)) < d)",
            parameters={"a": 3, "d": Fraction(1, 2)},
        )
        assert r.truth is True

    def test_variable_free_query(self, relu_net):
        assert evaluate_query(relu_net, "1 > 0").truth is True
        assert evaluate_query(relu_net, "1 < 0").truth is False
        assert evaluate_query(relu_net, "not (1 = 0)").truth is True

    def test_accepts_pwl_subject(self, relu_net):
        f = pwl_from_network(relu_net)
        assert evaluate_query(f, "exists x . (F(x) = x and x > 1)").truth is True

    def test_open_interval_cells(self, relu_net):
        r = evaluate_query(relu_net, "abs(x) < 1")
        assert r.truth is None and r.free_vars == ("x",)
        samples = sorted(s["x"] for _cid, s in r.cells)
        assert samples == [Fraction(-1, 2), Fraction(0), Fraction(1, 2)]

    def test_open_query_with_f(self, relu_net):
        r = evaluate_query(relu_net, "F(x) > 1/2")
        assert r.cells
        for _cid, s in r.cells:
            assert oracle_forward(relu_net, [s["x"]])[0] > Fraction(1, 2)

    def test_negation_duality(self):
        rng = random.Random(424242)
        for _ in range(10):
            net = random_network(rng, 1, 2, max_width=2)
            text, _p, _m = random_ordered_sentence(
                rng, rng.randint(1, 2), 1, rng.randint(1, 3), with_f=True
            )
            inner = evaluate_query(net, text).truth
            outer = evaluate_query(net, f"not ({text})").truth
            assert outer is (not inner)

    def test_image_query_covers_the_range(self):
        # F(x) = −1/2 + relu(x − 1) + relu(1 − 2x) takes exactly the values
        # ≥ −1/2; the f-atom's result x is bound before its argument y
        net = Network(
            1,
            (
                (
                    Neuron(Fraction(-1), (Fraction(1),)),
                    Neuron(Fraction(1), (Fraction(-2),)),
                ),
            ),
            (Neuron(Fraction(-1, 2), (Fraction(1), Fraction(1))),),
        )
        text = "exists y . F(y) = x"
        r = evaluate_query(net, text)
        assert r.free_vars == ("x",)
        f = pwl_from_network(net)
        cd = build_cd(build_query_arrangement(f, normalize_ordered_prenex(parse_query(text, 1))))
        # the cells at level 1 partition the line; the section at −1/2 and
        # every cell right of it are selected, nothing left of it
        assert any(
            c.kind == "section" and c.sample == (Fraction(-1, 2),) for c in cd.levels[1]
        )
        selected = {cid for cid, _s in r.cells}
        assert selected == {c.id for c in cd.levels[1] if c.sample[0] >= Fraction(-1, 2)}

    def test_agrees_with_quantifier_elimination_oracle(self):
        rng = random.Random(20260816)
        for trial in range(36):
            kind = trial % 3
            if kind == 0:
                d = rng.randint(1, 3)
                text, prefix, matrix = random_ordered_sentence(
                    rng, d, 1, rng.randint(1, 4), with_f=False
                )
                net = random_network(rng, 1, 1)
                pwl = None
            elif kind == 1:
                d = rng.randint(2, 3)
                net = random_network(rng, 1, 2, max_width=2)
                pwl = pwl_from_network(net)
                text, prefix, matrix = random_ordered_sentence(
                    rng, d, 1, rng.randint(1, 3), with_f=True
                )
            else:
                net = random_network(rng, 2, 2, max_width=1)
                pwl = pwl_from_network(net)
                text, prefix, matrix = random_ordered_sentence(
                    rng, 3, 2, rng.randint(1, 3), with_f=True
                )
            got = evaluate_query(net, text).truth
            want = oracle_query(pwl, prefix, matrix, len(prefix))
            assert got == want, text

    def test_unordered_contexts_agree_with_oracle(self):
        # f-atoms in any variable order, a result bound before its
        # arguments included, against Fourier–Motzkin elimination
        rng = random.Random(8)
        result_first = 0
        for trial in range(24):
            if trial % 2 == 0:
                d, m = rng.randint(2, 3), 1
                net = random_network(rng, 1, 2, max_width=2)
            else:
                d, m = 3, 2
                net = random_network(rng, 2, 2, max_width=1)
            text, prefix, matrix = _permuted_sentence(rng, d, m, rng.randint(1, 3))
            result_first += any(j < max(gs) for gs, j in _fatoms(matrix))
            got = evaluate_query(net, text).truth
            want = oracle_query(pwl_from_network(net), prefix, matrix, d)
            assert got == want, text
        assert result_first >= 12


def _sample_satisfies(f, matrix, sample) -> bool:
    """Reference for cell selection: the matrix decided by arithmetic at one
    sample point."""
    if isinstance(matrix, MBool):
        return matrix.value
    if isinstance(matrix, MPwl):
        value = pwl_eval(matrix.fn, [sample[g - 1] for g in matrix.vars])
        return (value > 0) - (value < 0) in matrix.signs
    if isinstance(matrix, MFAtom):
        proj = tuple(sample[g - 1] for g in matrix.args)
        return affine_eval(f.component_at(proj), proj) == sample[matrix.result - 1]
    if isinstance(matrix, PNot):
        return not _sample_satisfies(f, matrix.body, sample)
    if isinstance(matrix, PAnd):
        return all(_sample_satisfies(f, sub, sample) for sub in matrix.args)
    if isinstance(matrix, POr):
        return any(_sample_satisfies(f, sub, sample) for sub in matrix.args)
    raise TypeError(f"unexpected matrix node: {matrix!r}")


def _permuted_sentence(rng, d, m, n_atoms):
    """A random_ordered_sentence whose matrix variables are renamed by a
    random permutation, so f-atom contexts come in any order."""
    text, prefix, matrix = random_ordered_sentence(rng, d, m, n_atoms, with_f=True)
    perm = [0] + rng.sample(range(1, d + 1), d)
    head = "".join(f"{q} x{i} . " for i, q in enumerate(prefix, start=1))
    assert text.startswith(head)
    body = re.sub(r"x(\d+)", lambda mt: f"x{perm[int(mt.group(1))]}", text[len(head):])

    def rename(t):
        if t[0] == "lin":
            coeffs = [t[1][0]] + [None] * d
            for i in range(1, d + 1):
                coeffs[perm[i]] = t[1][i]
            return ("lin", tuple(coeffs), t[2])
        if t[0] == "f":
            return ("f", tuple(perm[g] for g in t[1]), perm[t[2]])
        return (t[0],) + tuple(rename(sub) for sub in t[1:])

    return head + body, prefix, rename(matrix)


def _fatoms(tree):
    if tree[0] == "f":
        return [(tree[1], tree[2])]
    if tree[0] == "lin":
        return []
    return [a for sub in tree[1:] for a in _fatoms(sub)]


# ---------------------------------------------------------------------------
# Open queries with one free variable: full solution-set equivalence
# ---------------------------------------------------------------------------


def _random_open_query(rng):
    """A one-free-variable condition over F(x) and x, with a pointwise
    reference evaluator."""
    atoms = []
    for _ in range(rng.randint(1, 3)):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        rel = rng.choice(("<", "<=", ">", ">=", "="))
        if rng.random() < 0.6:
            atoms.append((f"F(x) {rel} {c}", "F", rel, c))
        else:
            atoms.append((f"x {rel} {c}", "x", rel, c))
    op = rng.choice((" and ", " or "))
    text = op.join(f"({a[0]})" for a in atoms)

    def predicate(net, v):
        def check(kind, rel, c):
            val = oracle_forward(net, [v])[0] if kind == "F" else v
            return {
                "<": val < c,
                "<=": val <= c,
                ">": val > c,
                ">=": val >= c,
                "=": val == c,
            }[rel]

        results = [check(k, r, c) for _t, k, r, c in atoms]
        return all(results) if op == " and " else any(results)

    critical = [c for _t, _k, _r, c in atoms]
    return text, predicate, critical


def _solution_changepoints(net, critical):
    """Candidate points where any atom's truth can change: constraint
    constants, function breakpoints, and piecewise solutions of F(x)=c."""
    pts = set(critical)
    lo, hi = Fraction(-100), Fraction(100)
    breaks = breakpoints_1d(net, lo, hi)
    pts.update(breaks)
    knots = [lo] + breaks + [hi]
    segments = list(zip(knots, knots[1:]))
    for i, (a, b) in enumerate(segments):
        fa, fb = oracle_forward(net, [a])[0], oracle_forward(net, [b])[0]
        if fa == fb:
            continue
        slope = (fb - fa) / (b - a)
        for c in critical:
            root = a + (c - fa) / slope
            inside = a <= root <= b
            extends_left = i == 0 and root < a
            extends_right = i == len(segments) - 1 and root > b
            if inside or extends_left or extends_right:
                pts.add(root)
    return sorted(pts)


class TestOpenQuerySolutionSets:
    def test_returned_cells_match_pointwise_predicate(self):
        rng = random.Random(777)
        for _ in range(10):
            net = random_network(rng, 1, 2, max_width=2)
            text, predicate, critical = _random_open_query(rng)
            ast = parse_query(text, 1)
            opq = normalize_ordered_prenex(ast)
            f = pwl_from_network(net)
            arr = build_query_arrangement(f, opq)
            cd = build_cd(arr)
            s = select_cells_qfree(cd, f, opq.matrix)
            for q in reversed(opq.prefix):
                if q == "exists":
                    s = project_exists(cd, s)
                else:
                    s = complement(cd, project_exists(cd, complement(cd, s)))
            assert s.level == 1
            cells = [cd.index[cid] for cid in s.ids]

            def covered(v):
                return any(oracle_cell_contains(cd.index, c, [v]) for c in cells)

            pts = _solution_changepoints(net, critical)
            probes = set(pts)
            probes.update((a + b) / 2 for a, b in zip(pts, pts[1:]))
            if pts:
                probes.add(pts[0] - 1)
                probes.add(pts[-1] + 1)
            else:
                probes.add(Fraction(0))
            for v in sorted(probes):
                assert covered(v) == predicate(net, v), (text, v)


# ---------------------------------------------------------------------------
# Sugar: abs/min/max/dist against their sugar-free equivalents
# ---------------------------------------------------------------------------


def _random_linear(rng, vs):
    """A random linear expression over the variables, as query text."""
    terms = [f"{rng.choice(('1', '2', '1/2', '-1', '-3/2'))} * {v}" for v in vs]
    return " + ".join([*rng.sample(terms, rng.randint(1, len(terms))), rng.choice("0123")])


def _random_sugar(rng, vs, depth=0):
    """A sugar tree: ('lin', text), ('abs', s), ('min' or 'max', s, s), or
    ('dist_linf' or 'dist_l1', ((u, p), ...)) over linear coordinates.  At
    the top it is sometimes one of the nested pieces abs(max(…)),
    min(abs(…), …) and abs(dist_*(…))."""
    sugar = ["abs", "min", "max", "dist_linf", "dist_l1"]
    nested = ["abs max", "min abs", "abs dist"] if depth == 0 else []
    kind = "lin" if depth == 2 else rng.choice(sugar + nested + ["lin"] * (2 * depth))
    if kind == "lin":
        return ("lin", _random_linear(rng, vs))
    if kind == "abs max":
        return ("abs", ("max", _random_sugar(rng, vs, 1), _random_sugar(rng, vs, 1)))
    if kind == "min abs":
        return ("min", ("abs", _random_sugar(rng, vs, 1)), _random_sugar(rng, vs, 1))
    if kind == "abs dist":
        return ("abs", _random_dist(rng, vs, rng.choice(("dist_linf", "dist_l1"))))
    if kind == "abs":
        return ("abs", _random_sugar(rng, vs, depth + 1))
    if kind in ("min", "max"):
        return (kind, _random_sugar(rng, vs, depth + 1), _random_sugar(rng, vs, depth + 1))
    return _random_dist(rng, vs, kind)


def _random_dist(rng, vs, kind):
    n = rng.randint(1, 2)
    return (kind, tuple((_random_linear(rng, vs), _random_linear(rng, vs)) for _ in range(n)))


def _sugar_text(s):
    if s[0] == "lin":
        return s[1]
    if s[0] == "abs":
        return f"abs({_sugar_text(s[1])})"
    if s[0] in ("min", "max"):
        return f"{s[0]}({_sugar_text(s[1])}, {_sugar_text(s[2])})"
    us, ps = zip(*s[1])
    return f"{s[0]}({', '.join(us)}; {', '.join(ps)})"


def _sugar_free(s, rel, c):
    """The text of s rel c (rel '<' or '>') with no abs, min, max or dist."""
    every = " and " if rel == "<" else " or "
    if s[0] == "lin":
        return f"{s[1]} {rel} {c}"
    if s[0] == "abs":  # |e| < c iff e < c and e > -c; |e| > c iff e > c or e < -c
        flip = ">" if rel == "<" else "<"
        return f"({_sugar_free(s[1], rel, c)}){every}({_sugar_free(s[1], flip, f'-1 * ({c})')})"
    if s[0] in ("min", "max"):  # max(a, b) < c iff a < c and b < c, and dually
        join = every if s[0] == "max" else (" or " if rel == "<" else " and ")
        return join.join(f"({_sugar_free(x, rel, c)})" for x in s[1:])
    diffs = [f"1 * ({u} - ({p}))" for u, p in s[1]]
    if s[0] == "dist_linf":  # the largest |u_i - p_i|
        return every.join(f"({_sugar_free(('abs', ('lin', d)), rel, c)})" for d in diffs)
    # dist_l1: |u_1 - p_1| + |u_2 - p_2| < c iff every signed sum is below c
    return every.join(
        " + ".join(f"{sign}{d}" for sign, d in zip(signs, diffs)) + f" {rel} {c}"
        for signs in itertools.product(("", "-"), repeat=len(diffs))
    )


def test_sugar_agrees_with_its_sugar_free_equivalent(relu_net):
    rng = random.Random(20261019)
    truths = []
    for _ in range(60):
        vs = rng.sample(["x", "y"], rng.randint(1, 2))
        prefix = "".join(f"{rng.choice(('exists', 'forall'))} {v} . " for v in vs)
        sugared, plain = [], []
        for _ in range(rng.randint(1, 2)):
            s, rel, c = _random_sugar(rng, vs), rng.choice("<>"), _random_linear(rng, vs)
            mirrored = rng.random() < 0.5  # c > s is s < c, with the sugar on the right
            other = "<" if rel == ">" else ">"
            text = f"{c} {other} {_sugar_text(s)}" if mirrored else f"{_sugar_text(s)} {rel} {c}"
            sugared.append(f"({text})")
            plain.append(f"({_sugar_free(s, rel, c)})")
        join = rng.choice((" and ", " or "))
        got = evaluate_query(relu_net, prefix + "(" + join.join(sugared) + ")").truth
        want = evaluate_query(relu_net, prefix + "(" + join.join(plain) + ")").truth
        assert got == want, (prefix, sugared, plain)
        truths.append(got)
    assert 15 <= truths.count(True) <= 45


def test_open_sugar_queries_agree_with_their_sugar_free_equivalents(relu_net):
    # open queries in x and y: every sample cell of either side satisfies
    # the other side's query at that point
    rng = random.Random(20261021)
    answered = 0
    for _ in range(24):
        vs = rng.sample(["x", "y"], rng.randint(1, 2))
        s, rel, c = _random_sugar(rng, vs), rng.choice("<>"), _random_linear(rng, vs)
        sides = (f"{_sugar_text(s)} {rel} {c}", _sugar_free(s, rel, c))
        for one, other in (sides, sides[::-1]):
            cells = evaluate_query(relu_net, one, free_order=sorted(vs)).cells
            answered += bool(cells)
            for _cid, sample in cells:
                assert evaluate_query(relu_net, other, parameters=sample).truth, (one, sample)
    assert answered >= 24


def test_zero_denominator_parameter_is_a_value_error(relu_net):
    with pytest.raises(ValueError, match="zero denominator"):
        evaluate_query(relu_net, "F(x) > p", parameters={"p": "1/0"})
