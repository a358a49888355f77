import json
import random
from fractions import Fraction

import pytest

from nnquery.core import BOT
from nnquery.fosum import eval_weight_term
from nnquery.network import (
    Network,
    Neuron,
    NeuronId,
    build_eval_term,
    build_sawtooth,
    forward,
    load_network,
    network_to_json,
    to_structure,
    useless_neurons,
)
from oracles import hidden_preactivations, oracle_forward, random_network, random_point

RELU_NET = json.dumps(
    {
        "inputs": 1,
        "hidden": [[{"bias": "0", "weights": ["1"]}]],
        "outputs": [{"bias": "0", "weights": ["1"]}],
    }
)


def test_load_and_forward_relu():
    net = load_network(RELU_NET)
    assert forward(net, [Fraction(-2)]) == [Fraction(0)]
    assert forward(net, [Fraction(3)]) == [Fraction(3)]


def test_constant_network():
    net = load_network(
        json.dumps(
            {
                "inputs": 2,
                "hidden": [[{"bias": "0", "weights": ["0", "0"]}]],
                "outputs": [{"bias": "5/2", "weights": ["0"]}],
            }
        )
    )
    assert forward(net, [Fraction(9), Fraction(-4)]) == [Fraction(5, 2)]


def test_forward_dimension_mismatch():
    net = load_network(RELU_NET)
    with pytest.raises(ValueError):
        forward(net, [Fraction(1), Fraction(2)])


def test_load_rejects_binary_floats():
    bad = '{"inputs": 1, "hidden": [], "outputs": [{"bias": 0.25, "weights": []}]}'
    with pytest.raises(ValueError):
        load_network(bad)


def test_load_rejects_bad_rational():
    bad = json.dumps(
        {"inputs": 1, "hidden": [], "outputs": [{"bias": "x+y", "weights": ["1"]}]}
    )
    with pytest.raises(Exception):
        load_network(bad)


@pytest.mark.parametrize("bad", [True, None, ["1"], {"p": 1}])
def test_load_rejects_non_rational_json_value(bad):
    for neuron in ({"bias": bad, "weights": ["1"]}, {"bias": "0", "weights": [bad]}):
        doc = json.dumps({"inputs": 1, "hidden": [], "outputs": [neuron]})
        with pytest.raises(ValueError, match="output neuron 1"):
            load_network(doc)


def test_load_rejects_non_layered_edge():
    bad = json.dumps(
        {
            "inputs": 1,
            "hidden": [
                [{"bias": "0", "weights": ["1"]}],
                [{"bias": "0", "weights": {"in1": "1"}}],
            ],
            "outputs": [{"bias": "0", "weights": ["1"]}],
        }
    )
    with pytest.raises(ValueError, match="non-layered"):
        load_network(bad)


def test_load_rejects_input_bias():
    bad = json.dumps(
        {
            "inputs": [{"bias": "1"}],
            "hidden": [],
            "outputs": [{"bias": "0", "weights": []}],
        }
    )
    with pytest.raises(ValueError, match="bias"):
        load_network(bad)


def test_sparse_weights_mean_missing_edges_are_zero():
    net = load_network(
        json.dumps(
            {
                "inputs": 2,
                "hidden": [[{"bias": "0", "weights": {"in2": "3"}}]],
                "outputs": [{"bias": "0", "weights": {"h1_1": "1"}}],
            }
        )
    )
    assert net.hidden[0][0].weights == (Fraction(0), Fraction(3))
    assert forward(net, [Fraction(100), Fraction(1)]) == [Fraction(3)]


def test_json_round_trip():
    rng = random.Random(7)
    for _ in range(10):
        net = random_network(rng, rng.randint(1, 3), rng.randint(1, 3))
        again = load_network(json.dumps(network_to_json(net)))
        assert again == net


def test_forward_matches_independent_oracle():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 3)
        net = random_network(rng, m, rng.randint(1, 4))
        x = random_point(rng, m)
        assert forward(net, x) == oracle_forward(net, x)


def test_to_structure_shape():
    net = load_network(RELU_NET)
    s = to_structure(net)
    assert s.domain == ("in1", "h1_1", "out1")
    assert s.rel("E", ("in1", "h1_1"))
    assert s.rel("E", ("h1_1", "out1"))
    assert not s.rel("E", ("out1", "in1"))
    assert s.weight("w", ("out1", "in1")) == Fraction(0)  # no edge → weight 0
    assert s.weight("b", ("in1",)) is BOT  # inputs carry no bias
    assert s.weight("b", ("h1_1",)) == Fraction(0)


@pytest.mark.parametrize("vals", [[], [Fraction(1), Fraction(2)]])
def test_to_structure_rejects_wrong_number_of_values(vals):
    net = load_network(RELU_NET)
    with pytest.raises(ValueError, match=f"expected 1 input values, got {len(vals)}"):
        to_structure(net, vals)


def test_zero_denominator_in_a_model_is_a_value_error():
    doc = json.loads(RELU_NET)
    doc["hidden"][0][0]["bias"] = "1/0"
    with pytest.raises(ValueError, match="zero denominator"):
        load_network(json.dumps(doc))


def test_layer_ids_number_the_output_layer_by_depth():
    net = load_network(RELU_NET)
    layers = [[str(u) for u in net.layer_ids(k)] for k in range(net.depth + 1)]
    assert layers == [["in1"], ["h1_1"], ["out1"]]
    for k in (-1, net.depth + 1):
        with pytest.raises(ValueError, match="no layer"):
            net.layer_ids(k)


def test_affine_eval_term_depth_one():
    term = build_eval_term(2, 1, 1)
    net = load_network(
        json.dumps(
            {
                "inputs": 2,
                "hidden": [],
                "outputs": [{"bias": "1/2", "weights": ["2", "-3"]}],
            }
        )
    )
    s = to_structure(net, [Fraction(1), Fraction(1, 3)])
    got = eval_weight_term(s, term, {})
    assert got == Fraction(1, 2) + 2 * Fraction(1) - 3 * Fraction(1, 3)


def test_eval_term_equals_forward_on_random_nets():
    rng = random.Random(13)
    for _ in range(24):
        m = rng.randint(1, 3)
        depth = rng.randint(1, 3)
        net = random_network(rng, m, depth)
        term = build_eval_term(m, depth, 1)
        for _ in range(3):
            x = random_point(rng, m)
            s = to_structure(net, x)
            assert eval_weight_term(s, term, {}) == forward(net, x)[0]


def test_forward_linear_on_activation_constant_segments():
    rng = random.Random(17)
    checked = 0
    while checked < 12:
        m = rng.randint(1, 3)
        net = random_network(rng, m, rng.randint(2, 3))
        x, y = random_point(rng, m), random_point(rng, m)
        sign = lambda v: 0 if v == 0 else (1 if v > 0 else -1)
        pat = lambda p: [
            [sign(v) for v in layer] for layer in hidden_preactivations(net, p)
        ]
        if pat(x) != pat(y):
            continue
        fx, fy = forward(net, x)[0], forward(net, y)[0]
        for k in range(1, 10):
            lam = Fraction(k, 10)
            z = [a + lam * (b - a) for a, b in zip(x, y)]
            assert forward(net, z)[0] == fx + lam * (fy - fx)
        checked += 1


def test_useless_neuron_zero_out_weight():
    net = load_network(
        json.dumps(
            {
                "inputs": 1,
                "hidden": [[{"bias": "0", "weights": ["1"]}, {"bias": "1", "weights": ["2"]}]],
                "outputs": [{"bias": "0", "weights": ["1", "0"]}],
            }
        )
    )
    out = useless_neurons(net, [Fraction(1)], Fraction(1, 100))
    assert NeuronId("hidden", 2, 1) in out
    assert NeuronId("hidden", 1, 1) not in out


def test_useless_neuron_single_relu():
    net = load_network(RELU_NET)
    # removing the only hidden neuron drops the output from 1 to 0
    assert useless_neurons(net, [Fraction(1)], Fraction(1, 2)) == set()
    # with a huge tolerance everything is useless
    out = useless_neurons(net, [Fraction(1)], Fraction(10**6))
    assert out == {NeuronId("hidden", 1, 1)}


def test_useless_neurons_rejects_bad_eps():
    net = load_network(RELU_NET)
    with pytest.raises(ValueError):
        useless_neurons(net, [Fraction(1)], Fraction(0))
    with pytest.raises(ValueError):
        useless_neurons(net, [Fraction(1)], Fraction(-1))


def test_useless_neurons_dual_route_on_random_nets():
    # the function cross-checks ablation against the logical route internally
    rng = random.Random(19)
    for _ in range(8):
        m = rng.randint(1, 2)
        net = random_network(rng, m, rng.randint(2, 3), max_width=2)
        useless_neurons(net, random_point(rng, m), Fraction(1, 2))


def test_sawtooth_shape_and_values():
    net = build_sawtooth([Fraction(1, 4)], [Fraction(1, 2)])
    assert net.inputs == 1 and len(net.hidden) == 1 and len(net.hidden[0]) == 6
    h = Fraction(1, 16)  # min(min-point, min-gap)/4 = (1/4)/4
    f = lambda x: forward(net, [Fraction(x)])[0]
    assert f(Fraction(1, 4)) == Fraction(1)
    assert f(Fraction(1, 2)) == Fraction(-1)
    assert f(Fraction(1, 4) + h) == Fraction(0)
    assert f(Fraction(1, 4) - h) == Fraction(0)
    assert f(0) == 0 and f(1) == 0
    # halfway up a tooth flank
    assert f(Fraction(1, 4) + h / 2) == Fraction(1, 2)


def test_sawtooth_rejects_bad_inputs():
    with pytest.raises(ValueError, match="overlap"):
        build_sawtooth([Fraction(1, 3)], [Fraction(1, 3)])
    with pytest.raises(ValueError):
        build_sawtooth([Fraction(3, 2)], [])


def test_sawtooth_with_no_teeth_is_the_zero_function():
    net = build_sawtooth([], [])
    for x in (Fraction(-3), Fraction(0), Fraction(1, 2), Fraction(7)):
        assert forward(net, (x,)) == [0]
