"""Tests for exact piecewise-linear extraction and its stage operations."""

import random
from fractions import Fraction

import pytest

from nnquery import pwl
from nnquery.geometry import build_cd, canonicalize, make_arrangement
from nnquery.linprog import affine_eval
from nnquery.network import Network, Neuron, NeuronId, forward, load_network
from nnquery.pwl import (
    PwlFunction,
    graph_sign,
    init_inputs,
    lift_graph,
    pwl_eval,
    pwl_from_json,
    pwl_from_network,
    pwl_restrict,
    pwl_to_json,
    relu_stage,
    scale_stage,
    sign_position,
    sum_stage,
    value_gap,
)

from oracles import (
    hidden_preactivations,
    oracle_forward,
    oracle_pwl_proper,
    random_network,
    random_point,
    random_rational,
)

F = Fraction


def relu_net():
    # f(x) = ReLU(x)
    return Network(
        inputs=1,
        hidden=[[Neuron(F(0), (F(1),))]],
        outputs=[Neuron(F(0), (F(1),))],
    )


def abs_net():
    # f(x) = ReLU(x) + ReLU(−x) = |x|
    return Network(
        inputs=1,
        hidden=[[Neuron(F(0), (F(1),)), Neuron(F(0), (F(-1),))]],
        outputs=[Neuron(F(0), (F(1), F(1)))],
    )


class TestStages:
    def test_init_inputs(self):
        xs = init_inputs(2)
        assert len(xs) == 2
        assert xs[0].breakplanes == ()
        assert xs[0].polytopes == (("", (F(0), F(1), F(0))),)
        assert pwl_eval(xs[1], (5, 7)) == 7

    def test_scale_keeps_planes_even_for_zero(self):
        f = relu_stage(init_inputs(1)[0])
        g = scale_stage(f, 0)
        assert g.breakplanes == f.breakplanes
        assert all(all(a == 0 for a in comp) for _p, comp in g.polytopes)

    def test_sum_requires_matching_dimensions(self):
        with pytest.raises(ValueError):
            sum_stage([init_inputs(1)[0], init_inputs(2)[0]])
        with pytest.raises(ValueError):
            sum_stage([])

    def test_relu_of_coordinate(self):
        f = relu_stage(init_inputs(1)[0])
        assert f.breakplanes == ((F(0), F(1)),)
        assert dict(f.polytopes) == {
            "-": (F(0), F(0)),
            "=": (F(0), F(0)),
            "+": (F(0), F(1)),
        }

    def test_relu_of_constant_needs_no_plane(self):
        one = PwlFunction(m=1, breakplanes=(), polytopes=(("", (F(3), F(0))),))
        assert relu_stage(one).polytopes == (("", (F(3), F(0))),)
        neg = PwlFunction(m=1, breakplanes=(), polytopes=(("", (F(-3), F(0))),))
        assert relu_stage(neg).polytopes == (("", (F(0), F(0))),)
        zero = PwlFunction(m=1, breakplanes=(), polytopes=(("", (F(0), F(0))),))
        assert relu_stage(zero).polytopes == (("", (F(0), F(0))),)


class TestExtraction:
    def test_relu_network(self):
        f = pwl_from_network(relu_net())
        assert f.breakplanes == ((F(0), F(1)),)
        assert dict(f.polytopes) == {
            "-": (F(0), F(0)),
            "=": (F(0), F(0)),
            "+": (F(0), F(1)),
        }

    def test_abs_network(self):
        f = pwl_from_network(abs_net())
        assert f.breakplanes == ((F(0), F(1)),)
        assert dict(f.polytopes) == {
            "-": (F(0), F(-1)),
            "=": (F(0), F(0)),
            "+": (F(0), F(1)),
        }

    def test_affine_network_single_polytope(self):
        net = load_network(
            '{"inputs": 2, "hidden": [], "outputs": [{"bias": "1/2", "weights": ["2", "-3"]}]}'
        )
        f = pwl_from_network(net)
        assert f.breakplanes == ()
        assert f.polytopes == (("", (F(1, 2), F(2), F(-3))),)

    def test_hidden_target_is_post_activation(self):
        net = abs_net()
        f = pwl_from_network(net, "h1_2")  # ReLU(−x)
        for x in (-3, -1, 0, 2):
            pre = hidden_preactivations(net, [x])[0][1]
            assert pwl_eval(f, (x,)) == max(pre, 0)

    def test_invalid_targets(self):
        net = relu_net()
        with pytest.raises(ValueError):
            pwl_from_network(net, "in1")
        with pytest.raises(ValueError):
            pwl_from_network(net, "h2_1")
        with pytest.raises(ValueError):
            pwl_from_network(net, "out2")

    def test_matches_forward_on_random_networks(self):
        rng = random.Random(20260816)
        for _ in range(12):
            m = rng.randint(1, 2)
            depth = rng.randint(1, 3)
            net = random_network(rng, m, depth, max_width=2)
            f = pwl_from_network(net)
            assert f.m == m
            for _ in range(8):
                x = random_point(rng, m)
                assert pwl_eval(f, x) == forward(net, x)[0]

    def test_extracted_functions_are_proper(self):
        rng = random.Random(7)
        for _ in range(6):
            net = random_network(rng, rng.randint(1, 2), rng.randint(1, 2), max_width=2)
            assert oracle_pwl_proper(pwl_from_network(net))


def reference_extraction(net, target):
    """The value at ``target`` composed stage by stage from the public PWL
    algebra: every neuron sums its scaled inputs and applies one ReLU stage,
    the output sums the last layer's values."""
    funcs = init_inputs(net.inputs)
    for k, layer in enumerate(net.hidden, start=1):
        new = []
        for j, neuron in enumerate(layer, start=1):
            pre = sum_stage(
                [scale_stage(f, w) for f, w in zip(funcs, neuron.weights, strict=True)],
                neuron.bias,
            )
            post = relu_stage(pre)
            if target == NeuronId("hidden", j, k):
                return post
            new.append(post)
        funcs = new
    neuron = net.outputs[target.index - 1]
    return sum_stage(
        [scale_stage(f, w) for f, w in zip(funcs, neuron.weights, strict=True)], neuron.bias
    )


def every_target(net):
    yield NeuronId("output", 1, net.depth)
    for k, layer in enumerate(net.hidden, start=1):
        for j in range(1, len(layer) + 1):
            yield NeuronId("hidden", j, k)


# a prime past 2^64, so denominators leave the machine word
BIG = 2**64 + 13


def reference_nets():
    """Seeded random nets with 1-3 inputs and 1-3 hidden layers, one with a
    zero weight and one with a neuron whose pre-activation is constant, then
    nets that stress the integer scaling of the hidden layers: coprime prime
    denominators of 1,000-10,000 and one past 2^64, four hidden layers, zero
    weights past the first layer and negative output weights."""
    rng = random.Random(20261020)
    for m in (1, 2, 3):
        for hidden in (1, 2, 3):
            for _ in range(4 if m < 3 else 2):
                yield random_network(rng, m, hidden + 1, max_width=2)
    yield Network(
        inputs=2,
        hidden=[
            [Neuron(F(1, 2), (F(1), F(0))), Neuron(F(-1), (F(2), F(-1)))],
            [Neuron(F(0), (F(0), F(3))), Neuron(F(1), (F(-1), F(1)))],
        ],
        outputs=[Neuron(F(1, 3), (F(1), F(0)))],
    )
    # the second hidden layer's first neuron ignores the first layer: its
    # pre-activation is the constant 2 on every position, and the second
    # one is the constant -1
    yield Network(
        inputs=1,
        hidden=[
            [Neuron(F(0), (F(1),)), Neuron(F(1), (F(-1),))],
            [Neuron(F(2), (F(0), F(0))), Neuron(F(-1), (F(0), F(0))), Neuron(F(0), (F(1), F(2)))],
        ],
        outputs=[Neuron(F(0), (F(1), F(1), F(-1)))],
    )
    yield Network(
        inputs=2,
        hidden=[
            [
                Neuron(F(3, 1009), (F(7, 4999), F(-5, 7919))),
                Neuron(F(-2, 9973), (F(11, 1013), F(1, BIG))),
            ],
            [
                Neuron(F(1, 2003), (F(-13, 6007), F(17, 1009))),
                Neuron(F(5, 7919), (F(2, 9967), F(-3, 4999))),
            ],
        ],
        outputs=[Neuron(F(1, 9973), (F(-7, 2003), F(3, 1013)))],
    )
    yield Network(
        inputs=1,
        hidden=[
            [Neuron(F(1, 1009), (F(3, 7919),)), Neuron(F(-1, 4999), (F(-2, 9973),))],
            [
                Neuron(F(1, 1013), (F(5, 2003), F(-7, 6007))),
                Neuron(F(-3, 9967), (F(2, 1009), F(11, BIG))),
            ],
            [
                Neuron(F(2, 4999), (F(-1, 7919), F(13, 1013))),
                Neuron(F(1, 6007), (F(7, 9973), F(3, 2003))),
            ],
            [
                Neuron(F(-1, 9967), (F(17, 1009), F(-5, 4999))),
                Neuron(F(3, 7919), (F(2, 1013), F(1, 6007))),
            ],
        ],
        outputs=[Neuron(F(0), (F(-3, 2003), F(-1, 9973)))],
    )
    # zero weights in the second layer and the output, and a neuron whose
    # bias and weights are all zero, so its scale is free
    yield Network(
        inputs=2,
        hidden=[
            [Neuron(F(1, 2), (F(1, 3), F(-2, 5))), Neuron(F(-1, 7), (F(3, 4), F(1, 6)))],
            [
                Neuron(F(1, 5), (F(0), F(2, 3))),
                Neuron(F(0), (F(-1, 2), F(0))),
                Neuron(F(0), (F(0), F(0))),
            ],
            [Neuron(F(2, 3), (F(-1), F(0), F(4))), Neuron(F(-1, 3), (F(1, 2), F(3), F(0)))],
        ],
        outputs=[Neuron(F(1, 3), (F(0), F(-5, 2)))],
    )


def on_plane(h, x):
    """The point x moved onto the plane h along its last coordinate with a
    nonzero coefficient."""
    k = max(j for j in range(1, len(h)) if h[j])
    x = list(x)
    x[k - 1] = F(0)
    x[k - 1] = -affine_eval(h, x) / h[k]
    return x


def reading_points(rng, f):
    """Random points with small denominators, two with denominators past
    2^64, and one on each breakplane."""
    xs = [random_point(rng, f.m) for _ in range(6)]
    xs += [[F(rng.randint(-5 * BIG, 5 * BIG), BIG) for _ in range(f.m)] for _ in range(2)]
    return xs + [on_plane(h, random_point(rng, f.m)) for h in f.breakplanes]


class TestLayerExtraction:
    def test_matches_the_oracle_forward_pass(self):
        rng = random.Random(20261021)
        for net in reference_nets():
            for target in every_target(net):
                f = pwl_from_network(net, target)
                for x in reading_points(rng, f):
                    if target.role == "output":
                        want = oracle_forward(net, x)[target.index - 1]
                    else:
                        pre = hidden_preactivations(net, x)[target.layer - 1][target.index - 1]
                        want = max(pre, 0)
                    assert pwl_eval(f, x) == want, (net, target, x)

    def test_equals_the_stage_by_stage_composition(self):
        for net in reference_nets():
            for target in every_target(net):
                got = pwl_from_network(net, target)
                want = reference_extraction(net, target)
                assert got.breakplanes == want.breakplanes, (net, target)
                assert got.polytopes == want.polytopes, (net, target)

    def test_one_decomposition_per_hidden_layer(self, monkeypatch):
        calls = []

        def counting(arr, *args, **kwargs):
            calls.append(arr.d)
            return build_cd(arr, *args, **kwargs)

        monkeypatch.setattr(pwl, "build_cd", counting)
        for net in reference_nets():
            calls.clear()
            pwl_from_network(net)
            assert len(calls) <= len(net.hidden), net
            for k, layer in enumerate(net.hidden, start=1):
                calls.clear()
                pwl_from_network(net, NeuronId("hidden", len(layer), k))
                assert len(calls) <= k, (net, k)


class TestEval:
    def test_sign_position_matches_affine_eval(self):
        # positions are read in integers over a common denominator; the
        # points mix denominators of 1, 8 and past 2^64, and half of them
        # lie exactly on a plane
        rng = random.Random(20261022)
        dens = (1, 8, BIG, 3 * BIG, 2**80 + 23)
        for _ in range(300):
            m = rng.randint(1, 3)
            planes = [
                canonicalize([*(random_rational(rng) for _ in range(m)), random_rational(rng) or 1])
                for _ in range(rng.randint(1, 4))
            ]
            x = [F(rng.randint(-5 * den, 5 * den), den) for den in rng.choices(dens, k=m)]
            on = rng.randrange(2 * len(planes))
            if on < len(planes):
                x = on_plane(planes[on], x)
            want = "".join(
                "+" if v > 0 else "-" if v < 0 else "=" for v in (affine_eval(h, x) for h in planes)
            )
            assert on >= len(planes) or want[on] == "="
            assert sign_position(planes, x) == want, (planes, x)
        assert sign_position(((0, 1), (-3, 2)), [3]) == "++"  # int coordinates
        assert sign_position(((F(-3, 2), F(1)),), [F(3, 2)]) == "="  # Fraction planes

    def test_eval_dimension_check(self):
        f = pwl_from_network(relu_net())
        with pytest.raises(ValueError):
            pwl_eval(f, (1, 2))

    def test_eval_missing_position_reports_improper(self):
        f = pwl_from_network(relu_net())
        broken = PwlFunction(
            m=1, breakplanes=f.breakplanes, polytopes=tuple(f.polytopes[:2])
        )
        with pytest.raises(ValueError, match="not proper"):
            # the dropped polytope is '+'
            pwl_eval(broken, (1,))


class TestProperCheck:
    def test_missing_position_fails(self):
        f = pwl_from_network(relu_net())
        broken = PwlFunction(m=1, breakplanes=f.breakplanes, polytopes=f.polytopes[:2])
        assert oracle_pwl_proper(broken) is False

    def test_duplicate_position_fails(self):
        f = pwl_from_network(relu_net())
        dup = PwlFunction(
            m=1, breakplanes=f.breakplanes, polytopes=f.polytopes + (f.polytopes[0],)
        )
        assert oracle_pwl_proper(dup) is False

    def test_unrealizable_position_fails(self):
        # two identical planes cannot have opposite signs — a position list
        # over one plane pretending to be over two distinct ones
        planes = ((F(0), F(1)), (F(-1), F(1)))  # x = 0, x = 1
        polys = (
            ("--", (F(0), F(0))),
            ("-=", (F(0), F(0))),  # x = 1 with x < 0: infeasible
            ("-+", (F(0), F(0))),
            ("=-", (F(0), F(0))),
            ("+-", (F(0), F(0))),
            ("+=", (F(0), F(0))),
            ("++", (F(0), F(0))),
        )
        f = PwlFunction(m=1, breakplanes=planes, polytopes=polys)
        assert oracle_pwl_proper(f) is False

    def test_discontinuity_fails(self):
        planes = ((F(0), F(1)),)
        polys = (
            ("-", (F(0), F(0))),
            ("=", (F(0), F(0))),
            ("+", (F(1), F(1))),  # jumps to 1 across x = 0
        )
        f = PwlFunction(m=1, breakplanes=planes, polytopes=polys)
        assert oracle_pwl_proper(f) is False

    def test_discontinuity_on_section_only(self):
        # continuous on each side but the '=' component disagrees
        planes = ((F(0), F(1)),)
        polys = (
            ("-", (F(0), F(0))),
            ("=", (F(5), F(0))),
            ("+", (F(0), F(1))),
        )
        f = PwlFunction(m=1, breakplanes=planes, polytopes=polys)
        assert oracle_pwl_proper(f) is False

    def test_discontinuity_at_a_vertex_with_no_one_flip_neighbour(self):
        # x1, x2 and x1 + x2 meet only at the origin: every position one '='
        # flip away from '===' is infeasible, so the jump is seen only by
        # comparing '===' with the pieces whose closure holds it
        net = Network(
            inputs=2,
            hidden=[
                [
                    Neuron(F(0), (F(1), F(0))),
                    Neuron(F(0), (F(0), F(1))),
                    Neuron(F(0), (F(1), F(1))),
                ]
            ],
            outputs=[Neuron(F(0), (F(1), F(1), F(1)))],
        )
        f = pwl_from_network(net)
        assert oracle_pwl_proper(f)
        polys = tuple(
            (pos, (comp[0] + F(1, 3),) + comp[1:] if pos == "===" else comp)
            for pos, comp in f.polytopes
        )
        shifted = PwlFunction(m=2, breakplanes=f.breakplanes, polytopes=polys)
        assert pwl_eval(shifted, (0, 0)) == F(1, 3)
        assert oracle_pwl_proper(shifted) is False


class TestGraphSign:
    # F's argument indices, result index, dimension and the depths of the
    # random nets: F(x1) = x2, F(x2) = x1 and F(x1, x3) = x2 (a depth-3
    # 2-input net can lift to millions of cells in R^3)
    ATOMS = (((1,), 2, 2, (2, 3)), ((2,), 1, 2, (2, 3)), ((1, 3), 2, 3, (2, 2)))

    def test_stack_read_sign_matches_arithmetic(self):
        rng = random.Random(20261018)
        for args, result, d, depths in self.ATOMS:
            for _ in range(6):
                net = random_network(rng, len(args), rng.randint(*depths), max_width=3)
                f = pwl_from_network(net)
                gap = value_gap(f)
                cd = build_cd(make_arrangement(d, lift_graph(gap, (*args, result), d)))
                sign = graph_sign(cd, gap, (*args, result))
                for cell in cd.levels[d]:
                    x = cell.sample
                    gap = pwl_eval(f, [x[g - 1] for g in args]) - x[result - 1]
                    assert sign(cell.id) == (gap > 0) - (gap < 0), (args, result, x)


    def test_constant_component_has_constant_sign(self):
        # max(x2, 1) − 2 read at x2 of R^2: the piece x2 < 1 is the constant
        # −1, which places no plane and is negative on every cell
        fn = PwlFunction(
            m=1,
            breakplanes=((-1, 1),),
            polytopes=(("-", (F(-1), F(0))), ("=", (F(-2), F(1))), ("+", (F(-2), F(1)))),
        )
        planes = lift_graph(fn, (2,), 2)
        assert planes == [(-1, 0, 1), (F(-2), 0, F(1))]
        cd = build_cd(make_arrangement(2, planes))
        sign = graph_sign(cd, fn, (2,))
        for cell in cd.levels[2]:
            value = pwl_eval(fn, [cell.sample[1]])
            assert sign(cell.id) == (value > 0) - (value < 0)


class TestRestriction:
    def test_simple_restriction(self):
        # f(x1,x2) = ReLU(x1 + x2), fix x2 = 1 → ReLU(x1 + 1)
        net = Network(
            inputs=2,
            hidden=[[Neuron(F(0), (F(1), F(1)))]],
            outputs=[Neuron(F(0), (F(1),))],
        )
        f = pwl_from_network(net)
        g = pwl_restrict(f, {2: 1})
        assert g.m == 1
        assert g.breakplanes == ((F(1), F(1)),)
        for x in (-5, -1, Fraction(-1, 2), 0, 3):
            assert pwl_eval(g, (x,)) == max(x + 1, 0)

    def test_collapsing_planes_produce_no_ghosts(self):
        # f(x,y) = ReLU(x−y) + ReLU(x+y); at y = 0 both planes collapse to x = 0
        net = Network(
            inputs=2,
            hidden=[[Neuron(F(0), (F(1), F(-1))), Neuron(F(0), (F(1), F(1)))]],
            outputs=[Neuron(F(0), (F(1), F(1)))],
        )
        f = pwl_from_network(net)
        g = pwl_restrict(f, {2: 0})
        assert g.breakplanes == ((F(0), F(1)),)
        assert len(g.polytopes) == 3  # syntactic substitution would keep ghosts
        for x in (-2, 0, 1, Fraction(7, 3)):
            assert pwl_eval(g, (x,)) == 2 * max(x, 0)
        assert oracle_pwl_proper(g)

    def test_constant_plane_prunes_sides(self):
        # f(x,y) = ReLU(y): fixing y = 2 leaves the constant function 2
        net = Network(
            inputs=2,
            hidden=[[Neuron(F(0), (F(0), F(1)))]],
            outputs=[Neuron(F(0), (F(1),))],
        )
        f = pwl_from_network(net)
        g = pwl_restrict(f, {2: 2})
        assert g.breakplanes == ()
        assert g.polytopes == (("", (F(2), F(0))),)

    def test_restriction_with_sign_flip(self):
        # plane x1 − 2·x2 = 0; fixing x1 = −1 gives −1 − 2·x2 = 0, whose
        # canonical form flips orientation — signs must still be consistent
        net = Network(
            inputs=2,
            hidden=[[Neuron(F(0), (F(1), F(-2)))]],
            outputs=[Neuron(F(0), (F(1),))],
        )
        f = pwl_from_network(net)
        g = pwl_restrict(f, {1: -1})
        for y in (-3, Fraction(-1, 2), 0, 4):
            assert pwl_eval(g, (y,)) == max(-1 - 2 * y, 0)
        assert oracle_pwl_proper(g)

    def test_full_restriction_rejected(self):
        f = pwl_from_network(relu_net())
        with pytest.raises(ValueError, match="empty remaining dimension"):
            pwl_restrict(f, {1: 0})

    def test_bad_index_rejected(self):
        f = pwl_from_network(relu_net())
        with pytest.raises(ValueError):
            pwl_restrict(f, {2: 0})

    def test_restriction_agrees_with_forward(self):
        rng = random.Random(31)
        for _ in range(6):
            net = random_network(rng, 2, rng.randint(2, 3), max_width=2)
            f = pwl_from_network(net)
            v = random_point(rng, 1)[0]
            g = pwl_restrict(f, {1: v})
            for _ in range(6):
                y = random_point(rng, 1)[0]
                assert pwl_eval(g, (y,)) == forward(net, [v, y])[0]


class TestSerialization:
    def test_round_trip(self):
        f = pwl_from_network(abs_net())
        g = pwl_from_json(pwl_to_json(f))
        assert g == f

    def test_round_trip_random(self):
        rng = random.Random(5)
        net = random_network(rng, 2, 2, max_width=2)
        f = pwl_from_network(net)
        assert pwl_from_json(pwl_to_json(f)) == f

    def test_reversed_breakplane_keeps_its_sides(self):
        # ReLU(−x), written over the plane −x = 0, which loads as x = 0
        f = pwl_from_json(
            '{"inputs": 1, "breakplanes": [["0", "-1"]], "polytopes": ['
            '{"position": "+", "component": ["0", "-1"]},'
            '{"position": "=", "component": ["0", "0"]},'
            '{"position": "-", "component": ["0", "0"]}]}'
        )
        assert f.breakplanes == ((0, 1),)
        assert pwl_eval(f, [-2]) == 2
        assert pwl_eval(f, [3]) == 0

    @pytest.mark.parametrize(
        "inputs, planes, position, component",
        [
            ("1", '["0", "1", "5"]', "+", '["0", "1"]'),
            ("1", '["0", "1"], ["0", "-2"]', "++", '["0", "1"]'),
            ("1", '["0", "1"]', "0", '["0", "1"]'),
            ("1", '["0", "1"]', "+", '["0", true]'),
            ("1", '["0", "1"]', "+", '["0", null]'),
            ("true", '["0", "1"]', "+", '["0", "1"]'),
        ],
        ids=["plane-too-long", "plane-twice", "bad-position", "bool-entry", "null-entry", "bool-inputs"],
    )
    def test_malformed_entry_rejected(self, inputs, planes, position, component):
        doc = (
            f'{{"inputs": {inputs}, "breakplanes": [{planes}],'
            f' "polytopes": [{{"position": "{position}", "component": {component}}}]}}'
        )
        with pytest.raises(ValueError):
            pwl_from_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            "[]",
            '"f"',
            "{}",
            '{"breakplanes": [], "polytopes": []}',
            '{"inputs": 1, "polytopes": []}',
            '{"inputs": 1, "breakplanes": []}',
            '{"inputs": 1, "breakplanes": [], "polytopes": [{"component": ["0", "1"]}]}',
            '{"inputs": 1, "breakplanes": [], "polytopes": [{"position": ""}]}',
        ],
        ids=[
            "array", "string", "empty", "no-inputs", "no-breakplanes", "no-polytopes",
            "no-position", "no-component",
        ],
    )
    def test_missing_structure_rejected(self, doc):
        with pytest.raises(ValueError):
            pwl_from_json(doc)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            pwl_from_json('{"inputs": 0, "breakplanes": [], "polytopes": []}')
        with pytest.raises(ValueError):
            pwl_from_json(
                '{"inputs": 1, "breakplanes": [["0", "1"]],'
                ' "polytopes": [{"position": "++", "component": ["0", "1"]}]}'
            )
