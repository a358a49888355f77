"""Layered ReLU feedforward networks: loading, forward evaluation, and the
weighted-graph view.

A network has m inputs, any number of hidden layers, and n ≥ 1 outputs.
Hidden neurons apply ReLU to an affine combination of the previous layer;
output neurons apply the affine combination only.  Depth is counted as
(number of hidden layers) + 1, so a depth-1 network is affine.

Besides the direct forward pass (the reference semantics everything else is
checked against), this module renders a network as a weighted structure over
the graph vocabulary — edge relation E, constants in_i / out_j, bias weight b
(⊥ on inputs), edge weight w (0 where there is no edge) — and builds the
canned logic terms that evaluate a network through that structure: a closed
weight term whose value on the structure equals the forward pass, and its
ablation variant used to hunt for useless neurons.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction

from nnquery.core import BOT, Vocabulary, WeightedStructure, connective, format_rational, rational
from nnquery.fosum import (
    FAnd,
    FCompare,
    FEqStd,
    FNot,
    FRel,
    SConst,
    SVar,
    TSum,
    TWeight,
    eval_formula,
    t_add,
    t_const,
    t_mul,
    t_neg,
    t_relu,
)


@dataclass(frozen=True)
class NeuronId:
    """Identifies a neuron: role 'input'/'hidden'/'output', 1-based indices.

    `layer` is meaningful only for hidden neurons (1 = first hidden layer).
    """

    role: str
    index: int
    layer: int = 0

    def __str__(self) -> str:
        if self.role == "input":
            return f"in{self.index}"
        if self.role == "output":
            return f"out{self.index}"
        return f"h{self.layer}_{self.index}"


def parse_neuron_id(text: str) -> NeuronId:
    """Parse the string form of a neuron id: 'in3', 'h2_1', 'out2'."""
    m = re.fullmatch(r"in([1-9]\d*)", text)
    if m:
        return NeuronId("input", int(m.group(1)))
    m = re.fullmatch(r"out([1-9]\d*)", text)
    if m:
        return NeuronId("output", int(m.group(1)))
    m = re.fullmatch(r"h([1-9]\d*)_([1-9]\d*)", text)
    if m:
        return NeuronId("hidden", int(m.group(2)), int(m.group(1)))
    raise ValueError(f"not a neuron id: {text!r}")


@dataclass(frozen=True)
class Neuron:
    bias: Fraction
    weights: tuple  # one Fraction per neuron of the previous layer


@dataclass(frozen=True)
class Network:
    inputs: int
    hidden: tuple  # tuple of layers, each a tuple of Neuron
    outputs: tuple  # tuple of Neuron

    @property
    def depth(self) -> int:
        return len(self.hidden) + 1

    def layer_ids(self, k: int) -> list:
        """Neuron ids of layer k: 0 = inputs, 1..len(hidden) = hidden, depth = outputs."""
        if not 0 <= k <= self.depth:
            raise ValueError(f"no layer {k}: layers are numbered 0..{self.depth}")
        if k == 0:
            return [NeuronId("input", i + 1) for i in range(self.inputs)]
        if k == self.depth:
            return [NeuronId("output", j + 1) for j in range(len(self.outputs))]
        return [NeuronId("hidden", i + 1, k) for i in range(len(self.hidden[k - 1]))]


def _parse_neuron(obj, prev_ids: list, where: str) -> Neuron:
    if not isinstance(obj, dict) or "bias" not in obj or "weights" not in obj:
        raise ValueError(f"{where}: neuron must be an object with 'bias' and 'weights'")

    def value(v, what):
        try:
            return rational(v)
        except TypeError:
            raise ValueError(f"{where}: {what} {v!r} is not a rational") from None

    bias = value(obj["bias"], "bias")
    ws = obj["weights"]
    if isinstance(ws, list):
        if len(ws) != len(prev_ids):
            raise ValueError(
                f"{where}: expected {len(prev_ids)} weights "
                f"(one per node of the previous layer), got {len(ws)}"
            )
        weights = tuple(value(v, "weight") for v in ws)
    elif isinstance(ws, dict):
        by_id = {str(p): k for k, p in enumerate(prev_ids)}
        weights = [Fraction(0)] * len(prev_ids)
        for key, v in ws.items():
            if key not in by_id:
                raise ValueError(
                    f"{where}: non-layered edge from {key!r} "
                    f"(previous layer is {[str(p) for p in prev_ids]})"
                )
            weights[by_id[key]] = value(v, "weight")
        weights = tuple(weights)
    else:
        raise ValueError(f"{where}: 'weights' must be a list or an id-keyed object")
    return Neuron(bias, weights)


def load_network(text) -> Network:
    """Parse model JSON (see the model-format section of the README).

    Weights are rational or decimal *strings* parsed exactly; bare JSON
    floats are rejected.  Edges may be given densely (one weight per node of
    the previous layer) or sparsely (an object keyed by neuron id, missing
    edges meaning weight 0); sparse keys outside the previous layer are a
    non-layered-edge error.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if isinstance(text, str):
        obj = json.loads(text, parse_float=_reject_float)
    else:
        obj = text
    if not isinstance(obj, dict):
        raise ValueError("model must be a JSON object")
    m = obj.get("inputs")
    if isinstance(m, list):
        if any(isinstance(e, dict) and "bias" in e for e in m):
            raise ValueError("inputs carry no bias")
        raise ValueError("'inputs' must be the number of inputs")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError("'inputs' must be a positive integer")
    hidden_json = obj.get("hidden", [])
    outputs_json = obj.get("outputs")
    if not isinstance(hidden_json, list) or not all(isinstance(l, list) for l in hidden_json):
        raise ValueError("'hidden' must be a list of layers")
    if not isinstance(outputs_json, list) or not outputs_json:
        raise ValueError("'outputs' must be a non-empty list of neurons")
    if any(len(layer) == 0 for layer in hidden_json):
        raise ValueError("hidden layers must be non-empty")

    net_hidden = []
    prev = [NeuronId("input", i + 1) for i in range(m)]
    for k, layer in enumerate(hidden_json, start=1):
        neurons = tuple(
            _parse_neuron(nj, prev, f"hidden layer {k}, neuron {i + 1}")
            for i, nj in enumerate(layer)
        )
        net_hidden.append(neurons)
        prev = [NeuronId("hidden", i + 1, k) for i in range(len(neurons))]
    outputs = tuple(
        _parse_neuron(nj, prev, f"output neuron {j + 1}")
        for j, nj in enumerate(outputs_json)
    )
    return Network(m, tuple(net_hidden), outputs)


def _reject_float(s):
    raise ValueError(
        f"binary float {s!r} in model file; weights must be strings like '1.25' or 'p/q'"
    )


def network_to_json(net: Network) -> dict:
    """Render a network as the model-JSON dict, weights in exact 'p/q' form."""
    def enc(neuron: Neuron) -> dict:
        return {
            "bias": format_rational(neuron.bias),
            "weights": [format_rational(w) for w in neuron.weights],
        }

    return {
        "inputs": net.inputs,
        "hidden": [[enc(nr) for nr in layer] for layer in net.hidden],
        "outputs": [enc(nr) for nr in net.outputs],
    }


def forward(net: Network, x) -> list:
    """Exact forward pass: ReLU on hidden layers, affine output layer."""
    if len(x) != net.inputs:
        raise ValueError(f"expected {net.inputs} inputs, got {len(x)}")
    acts = [rational(v) for v in x]
    for layer in net.hidden:
        acts = [
            max(Fraction(0), nr.bias + sum(w * a for w, a in zip(nr.weights, acts)))
            for nr in layer
        ]
    return [nr.bias + sum(w * a for w, a in zip(nr.weights, acts)) for nr in net.outputs]


def graph_vocabulary(m: int, n: int = 1) -> Vocabulary:
    """The weighted-graph vocabulary for networks with m inputs, n outputs:
    edge relation E, constants in_i/out_j, bias b, edge weight w, and the
    input-value weight constants val_1..val_m."""
    return Vocabulary(
        relations={"E": 2},
        constants=tuple(f"in{i}" for i in range(1, m + 1))
        + tuple(f"out{j}" for j in range(1, n + 1)),
        weights={"b": 1, "w": 2, **{f"val{i}": 0 for i in range(1, m + 1)}},
    )


def to_structure(net: Network, vals=None) -> WeightedStructure:
    """Render a network as a weighted structure over the graph vocabulary.

    One domain element per neuron; E holds between adjacent layers; w is
    total with default 0 (no edge); b is ⊥ on inputs and the bias elsewhere.
    If `vals` is given, the weight constants val_i are bound to it, so the
    canned evaluation terms compute the forward pass at that point.
    """
    m, n = net.inputs, len(net.outputs)
    if vals is not None and len(vals) != m:
        raise ValueError(f"expected {m} input values, got {len(vals)}")
    vocab = graph_vocabulary(m, n)
    layers = [net.layer_ids(k) for k in range(net.depth + 1)]
    domain = tuple(str(u) for layer in layers for u in layer)

    edges = set()
    wmap = {}
    bmap = {(str(u),): BOT for u in layers[0]}
    for prev, ids, neurons in zip(layers, layers[1:], (*net.hidden, net.outputs)):
        for u, nr in zip(ids, neurons):
            uid = str(u)
            bmap[(uid,)] = nr.bias
            for p, wgt in zip(prev, nr.weights):
                edges.add((str(p), uid))
                if wgt != 0:
                    wmap[(str(p), uid)] = wgt

    weights = {"b": bmap, "w": wmap}
    defaults = {"b": BOT, "w": Fraction(0)}
    for i in range(1, m + 1):
        name = f"val{i}"
        weights[name] = {(): (rational(vals[i - 1]) if vals is not None else BOT)}
        defaults[name] = BOT
    constants = {str(u): str(u) for u in layers[0] + layers[-1]}
    return WeightedStructure(
        vocabulary=vocab,
        domain=domain,
        relations={"E": edges},
        constants=constants,
        weights=weights,
        weight_defaults=defaults,
    )


def _affine_input_sum(target, m: int):
    """b(target) + Σ_i w(in_i, target)·val_i as one rational-function term."""
    return t_add(
        TWeight("b", (target,)),
        *[
            t_mul(TWeight("w", (SConst(f"in{i}"), target)), TWeight(f"val{i}", ()))
            for i in range(1, m + 1)
        ],
    )


def _preactivation_term(m: int, level: int, target, exclude_var: str = None):
    """Weight term for the pre-activation of `target` in layer `level`.

    Level 1 reads the input constants directly; deeper levels sum over
    predecessors x with E(x, target), recursively inlining the ReLU of the
    previous layer's term.  With `exclude_var` set, every such summation
    guard additionally requires x ≠ exclude_var, which ablates that neuron
    from the computation.
    """
    if level == 1:
        return _affine_input_sum(target, m)
    x = f"u{level - 1}"
    guard = FRel("E", (SVar(x), target))
    if exclude_var is not None:
        guard = connective(FAnd, (guard, FNot(FEqStd(SVar(x), SVar(exclude_var)))))
    body = t_mul(
        TWeight("w", (SVar(x), target)),
        t_relu(_preactivation_term(m, level - 1, SVar(x), exclude_var)),
    )
    return t_add(TWeight("b", (target,)), TSum((x,), guard, body))


def build_eval_term(m: int, depth: int, j: int = 1, exclude_var: str = None):
    """Closed weight term whose value on a network's structure (with val_i
    bound) equals forward output j, for any network with m inputs and the
    given depth.  With `exclude_var`, all summations skip that neuron."""
    if m < 1 or depth < 1 or j < 1:
        raise ValueError("need m ≥ 1, depth ≥ 1, j ≥ 1")
    return _preactivation_term(m, depth, SConst(f"out{j}"), exclude_var)


def _silenced(net: Network, z: NeuronId) -> Network:
    """The network with hidden neuron z's outgoing weights set to 0."""
    layers = [*net.hidden, net.outputs]
    layers[z.layer] = tuple(
        replace(nr, weights=(*nr.weights[: z.index - 1], Fraction(0), *nr.weights[z.index :]))
        for nr in layers[z.layer]
    )
    return Network(inputs=net.inputs, hidden=tuple(layers[:-1]), outputs=layers[-1])


def useless_neurons(net: Network, vals, eps) -> set:
    """Hidden neurons whose ablation moves every output by less than eps.

    Ablating a neuron removes it from every downstream sum (its incoming
    side is left alone — the neuron still computes, nobody listens).
    Computed twice — directly on the network, and by evaluating the ablation
    variant of the canned evaluation term over the graph structure — and the
    two routes must agree.
    """
    eps = rational(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if len(vals) != net.inputs:
        raise ValueError(f"expected {net.inputs} input values")
    vals = [rational(v) for v in vals]
    base = forward(net, vals)

    direct = set()
    hidden_ids = [z for k in range(1, net.depth) for z in net.layer_ids(k)]
    for z in hidden_ids:
        ablated = forward(_silenced(net, z), vals)
        if all(abs(a - b) < eps for a, b in zip(ablated, base)):
            direct.add(z)

    s = to_structure(net, vals)
    # One comparison per output; only the binding of z varies per neuron.
    checks = []
    for j in range(1, len(net.outputs) + 1):
        t_full = build_eval_term(net.inputs, net.depth, j)
        t_ablate = build_eval_term(net.inputs, net.depth, j, exclude_var="z")
        diff = t_add(t_full, t_neg(t_ablate))
        checks.append(
            connective(
                FAnd,
                (FCompare("lt", t_neg(t_const(eps)), diff), FCompare("lt", diff, t_const(eps))),
            )
        )
    logical = {
        z
        for z in hidden_ids
        if all(eval_formula(s, f, {"z": str(z)}) for f in checks)
    }

    if direct != logical:
        raise RuntimeError(
            f"ablation routes disagree: direct={sorted(map(str, direct))} "
            f"logical={sorted(map(str, logical))}"
        )
    return direct


def build_sawtooth(s1, s2) -> Network:
    """A 1-input network whose graph is a sawtooth: a positive unit-height
    tooth at each point of s1 and a negative one at each point of s2.

    All points must lie in (0,1) and the two sets must be disjoint.  The
    tooth half-width is min(min-point, min-pairwise-gap)/4, so each tooth is
    a triangle of area ±half-width and teeth never overlap.  Each tooth is
    three ReLU neurons: (x−(s−h)) − 2(x−s) + (x−(s+h)), scaled by 1/h.
    """
    pts1 = sorted(rational(p) for p in s1)
    pts2 = sorted(rational(p) for p in s2)
    if set(pts1) & set(pts2):
        raise ValueError("overlapping sets: a point cannot carry both tooth signs")
    allpts = sorted(pts1 + pts2)
    if not allpts:
        # No teeth: the zero function, in the same one-hidden-layer shape.
        return Network(
            inputs=1,
            hidden=((Neuron(bias=Fraction(0), weights=(Fraction(1),)),),),
            outputs=(Neuron(bias=Fraction(0), weights=(Fraction(0),)),),
        )
    if allpts[0] <= 0 or allpts[-1] >= 1:
        raise ValueError("tooth positions must lie strictly inside (0,1)")
    width = allpts[0]
    for a, b in zip(allpts, allpts[1:]):
        width = min(width, b - a)
    h = width / 4

    hidden = []
    out_weights = []
    for s, sign in [(p, 1) for p in pts1] + [(p, -1) for p in pts2]:
        for shift, coef in ((s - h, 1), (s, -2), (s + h, 1)):
            hidden.append(Neuron(bias=-shift, weights=(Fraction(1),)))
            out_weights.append(Fraction(sign * coef) / h)
    return Network(
        inputs=1,
        hidden=(tuple(hidden),),
        outputs=(Neuron(bias=Fraction(0), weights=tuple(out_weights)),),
    )
