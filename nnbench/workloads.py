"""The benchmark's four workloads: generated models, operation streams and
the independent checks every result is held to.

A workload's models are JSON documents generated from the seed; the package
sees them only through ``network.load_network``.  Operations follow a fixed
cycle of kinds so that each run has the same mix; what varies with the seed
is the weights, anchors, boxes, thresholds and sentences.  Network shapes
are fixed per workload because they, more than the weights, set an
operation's cost, and a seed-dependent shape mix would make runs with
different seeds disagree.

Checks never call the code they check.  They use the oracles in
``tests/oracles.py`` (forward pass, Fourier–Motzkin sentence decision, 1-D
robustness, counterfactual and contribution scans), the exact integrals and
the one-input sentence decider in ``reference.py``, and closed forms for
affine networks.  A check of a sentence over a 2-input net hands the
Fourier–Motzkin oracle the package's PWL form, as the acceptance suite does;
the extraction itself is checked against the oracle forward pass by the
``pointwise`` workload.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles
import reference


@dataclass(frozen=True)
class Op:
    kind: str
    net: int  # index of the model the operation runs on
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple  # (tag, inputs, hidden widths, copies)
    prepare: Callable  # (lib, nets) -> state, timed as part of set-up
    ops: Callable  # (rng, lib, nets, state) -> iterator of Op
    kinks_through: tuple | None = None  # see model_doc
    first_layer: dict | None = None  # tag -> condition on its models, see model_doc


# ---------------------------------------------------------------------------
# Model generation
# ---------------------------------------------------------------------------


def _q(rng, lo=-8, hi=8, den=4):
    """A random nonzero rational n/d with lo <= n <= hi and 1 <= d <= den."""
    num = rng.choice([n for n in range(lo, hi + 1) if n != 0])
    return Fraction(num, rng.randint(1, den))


def _neuron(rng, fan_in):
    return {"bias": str(_q(rng)), "weights": [str(_q(rng)) for _ in range(fan_in)]}


def model_doc(rng, m, widths, through=None, variant=0, accept=None):
    """A model JSON document with m inputs, the given hidden widths and one
    output; every weight is a nonzero rational string.

    With ``through = (lo, hi)``, every first-layer neuron's zero set passes
    through one random point of the cube [lo, hi]^m, and the output is zero
    at another point of the cube where some neuron is active: the kinks cross
    each other, and the output changes sign, inside any region containing the
    cube.  Otherwise biases are random like weights.  Bits 0 and 1 of
    ``variant`` fix the signs of the first output weight and of the first
    neuron's first weight, so that copies 0-3 of a shape cover the four
    combinations (which decide, e.g., whether a one-neuron net rises or falls
    and on which side of its kink it is flat).

    With ``accept``, the first layer is drawn again until ``accept`` holds
    of its neurons.  Some shapes have kinds of models whose operations cost
    about twice as much as the others'; a workload generates each kind in
    fixed numbers, so that which kind the seed happens to favour does not
    swing its figures.
    """
    hidden, prev = [], m
    for layer, w in enumerate(widths):
        while True:
            neurons = [_neuron(rng, prev) for _ in range(w)]
            if layer == 0:
                _set_sign(neurons[0]["weights"], 0, variant & 2)
            if layer > 0 or accept is None or accept(neurons):
                break
        if layer == 0 and through is not None:
            p = _cube_point(rng, m, through)
            for nr in neurons:
                nr["bias"] = str(-sum(Fraction(v) * x for v, x in zip(nr["weights"], p)))
        hidden.append(neurons)
        prev = w
    out = _neuron(rng, prev)
    _set_sign(out["weights"], 0, variant & 1)
    if through is not None and hidden:
        for _ in range(1000):
            acts = _activations(hidden, _cube_point(rng, m, through))
            if any(acts):
                out["bias"] = str(-sum(Fraction(v) * a for v, a in zip(out["weights"], acts)))
                break
    return json.dumps({"inputs": m, "hidden": hidden, "outputs": [out]})


def _upright(neurons):
    """The first neuron's kink line is near parallel to the x2 axis: its
    first weight is at least twice the size of its second."""
    a, b = (abs(Fraction(v)) for v in neurons[0]["weights"][:2])
    return a >= 2 * b


def _level(neurons):
    """The first neuron's kink line is near parallel to the x1 axis."""
    a, b = (abs(Fraction(v)) for v in neurons[0]["weights"][:2])
    return 2 * a <= b


def _overlap(neurons):
    """Two 1-input neurons are both active exactly on a bounded interval:
    their weights have opposite signs, and the rising one's kink lies left
    of the falling one's."""
    (w1, b1), (w2, b2) = ((Fraction(n["weights"][0]), Fraction(n["bias"])) for n in neurons)
    if (w1 > 0) == (w2 > 0):
        return False
    rise, fall = ((w1, b1), (w2, b2)) if w1 > 0 else ((w2, b2), (w1, b1))
    return -rise[1] / rise[0] < -fall[1] / fall[0]


def _no_overlap(neurons):
    return not _overlap(neurons)


def _cube_point(rng, m, cube):
    lo, hi = cube
    return [Fraction(rng.randint(int(lo * 8), int(hi * 8)), 8) for _ in range(m)]


def _activations(hidden, x):
    """Last hidden layer's values at x, from the document being built."""
    for layer in hidden:
        x = [
            max(Fraction(0), Fraction(nr["bias"]) + sum(Fraction(v) * a for v, a in zip(nr["weights"], x)))
            for nr in layer
        ]
    return x


def _set_sign(weights, i, negative):
    q = abs(Fraction(weights[i]))
    weights[i] = str(-q if negative else q)


def models(workload, rng):
    """(tag, document) for every model of the workload, in a fixed order."""
    accept = workload.first_layer or {}
    return [
        (tag, model_doc(rng, m, widths, workload.kinks_through, variant, accept.get(tag)))
        for tag, m, widths, copies in workload.shapes
        for variant in range(copies)
    ]


def _by_tag(workload):
    out, i = {}, 0
    for tag, _m, _widths, copies in workload.shapes:
        out.setdefault(tag, []).extend(range(i, i + copies))
        i += copies
    return out


def _rotation(rng, indices):
    """Endless round-robin over a seed-shuffled copy of ``indices``: every
    model of a class is used equally often, so a run's cost does not hinge
    on how often the seed happened to draw one expensive model."""
    order = list(indices)
    rng.shuffle(order)
    return itertools.cycle(order)


def _point(rng, m, lo, hi, den):
    return tuple(Fraction(rng.randint(lo * den, hi * den), den) for _ in range(m))


def _fwd(net, x):
    return oracles.oracle_forward(net, x)[0]


def _no_prep(lib, nets):
    return None


# ---------------------------------------------------------------------------
# verify-2d
# ---------------------------------------------------------------------------


def _affine_robust(net, eps, delta, metric):
    """Exact verdict for an affine net: sup of |w·u| over the open ball of
    radius eps is eps·‖w‖₁ (linf ball) or eps·‖w‖∞ (l1 ball), not attained."""
    w = [abs(v) for v in net.outputs[0].weights]
    return eps * (sum(w) if metric == "linf" else max(w)) <= delta


def _sentence_check(lib, net, prefix, matrix, with_f):
    def check(truth):
        if net.inputs == 1 and len(prefix) <= 2:
            return truth == reference.decide_sentence_1d(net, prefix, matrix)
        pwl = lib.pwl.pwl_from_network(net) if with_f else None
        return truth == oracles.oracle_query(pwl, prefix, matrix, len(prefix))

    return check


def _robust_ops(A, kind, k, net, a, eps, delta, verdict):
    for metric in ("linf", "l1"):
        yield Op(
            f"{kind}-{metric}",
            k,
            lambda metric=metric: A.robustness_check(net, a, eps, delta, metric),
            lambda got, metric=metric: got == verdict(metric),
        )


def _verify_ops(rng, lib, nets, state):
    A = lib.analysis
    by_tag = _by_tag(VERIFY_2D)
    pick = {tag: _rotation(rng, ks) for tag, ks in by_tag.items()}
    pick["relu1"] = _rotation(rng, by_tag["relu1"] + by_tag["relu1-overlap"])
    # Atom counts cycle rather than being drawn: a sentence's cost grows
    # steeply with them.
    atom_counts = {
        "wide": itertools.cycle((1, 2)),
        "narrow": itertools.cycle((1, 2, 3, 4)),
        "linear": itertools.cycle((1, 2, 3, 4)),
    }

    def sentence(kind):
        atoms = next(atom_counts[kind])
        if kind == "wide":
            k = next(pick["wide"])
            d, m, with_f = 3, 2, True
        elif kind == "narrow":
            k = next(pick["relu1"])
            d, m, with_f = 2, 1, True
        else:
            k = next(pick["relu1"])
            d, m, with_f = 3, 1, False
        text, prefix, matrix = oracles.random_ordered_sentence(rng, d, m, atoms, with_f)
        net = nets[k]
        return Op(
            f"sentence-{kind}",
            k,
            lambda: lib.query.evaluate_query(net, text).truth,
            _sentence_check(lib, net, prefix, matrix, with_f),
        )

    # Per cycle of ten, fastest first: one linear and two narrow sentences,
    # four 1-D robustness checks (the median falls among these), one wide
    # sentence and two 2-D robustness checks (the 90th percentile).
    while True:
        yield sentence("linear")
        yield sentence("narrow")
        yield sentence("narrow")
        for _ in range(2):
            k = next(pick["relu1"])
            net = nets[k]
            a = _point(rng, 1, -2, 2, 4)
            eps = Fraction(rng.randint(1, 8), 8)
            delta = Fraction(rng.randint(1, 16), 8)
            yield from _robust_ops(
                A, "robust-1d", k, net, a, eps, delta,
                lambda metric, net=net, a=a, eps=eps, delta=delta:
                    oracles.oracle_robustness_1d(net, a[0], eps, delta),
            )
        yield sentence("wide")
        k = next(pick["aff2"])
        net = nets[k]
        a = _point(rng, 2, -2, 2, 4)
        eps = Fraction(rng.randint(1, 8), 8)
        norms = [abs(v) for v in net.outputs[0].weights]
        delta = eps * rng.choice((sum(norms), max(norms))) * Fraction(rng.randint(2, 6), 4)
        yield from _robust_ops(
            A, "robust-2d", k, net, a, eps, delta,
            lambda metric, net=net, eps=eps, delta=delta: _affine_robust(net, eps, delta, metric),
        )


# Decomposition and cell selection do nearly all the work and linprog is
# unused: the workload for those layers, and the control for LP changes.
VERIFY_2D = Workload(
    name="verify-2d",
    shapes=(
        ("aff2", 2, (), 16),
        ("relu1", 1, (2,), 36),
        ("relu1-overlap", 1, (2,), 12),
        ("wide", 2, (1,), 16),
    ),
    prepare=_no_prep,
    ops=_verify_ops,
    # A 1-input net whose two neurons are both active on a bounded interval
    # takes about 30 ms per robustness check, others about 22 ms.  One in
    # four nets is of the first kind, as when weights are drawn freely, and
    # the median falls among the cheaper checks rather than between the two.
    first_layer={"relu1": _no_overlap, "relu1-overlap": _overlap},
)


# ---------------------------------------------------------------------------
# explain-1d
# ---------------------------------------------------------------------------


def _explain_ops(rng, lib, nets, state):
    A = lib.analysis
    pick = {tag: _rotation(rng, ks) for tag, ks in _by_tag(EXPLAIN_1D).items()}
    for depth in itertools.cycle(range(1, 9)):
        k = next(pick["cf"])
        net = nets[k]
        lo = -Fraction(rng.randint(8, 16), 4)
        hi = Fraction(rng.randint(8, 16), 4)
        box = A.Box(((lo, hi),))
        top = max(_fwd(net, (lo + (hi - lo) * j / 16,)) for j in range(17))
        thr = top - Fraction(depth, 8)
        a = _point(rng, 1, -5, 5, 8)
        for metric in ("linf", "l1"):
            yield Op(
                f"counterfactual-{metric}",
                k,
                lambda net=net, a=a, thr=thr, box=box, metric=metric: A.counterfactual_explain(
                    net, a, thr, box, metric
                ),
                lambda got, net=net, a=a, thr=thr, lo=lo, hi=hi: (got[0][0], got[1])
                == oracles.oracle_counterfactual_1d(net, a[0], thr, lo, hi),
            )
        for _ in range(8):
            k = next(pick["fc"])
            net = nets[k]
            a = _point(rng, 1, -4, 4, 8)
            eps = Fraction(rng.randint(1, 8), 4)
            yield Op(
                "contribution",
                k,
                lambda net=net, a=a, eps=eps: A.feature_contribution(net, a, 1, eps),
                lambda got, net=net, a=a, eps=eps: got
                == oracles.oracle_feature_contribution_1d(net, a[0], eps),
            )


# linprog.minimize takes nearly all of a counterfactual: the workload for LP
# changes, and the control for cell-selection changes.
EXPLAIN_1D = Workload(
    name="explain-1d",
    shapes=(("cf", 1, (1,), 96), ("fc", 1, (2,), 16), ("fc", 1, (3,), 16)),
    prepare=_no_prep,
    ops=_explain_ops,
    kinks_through=(-2, 2),
)


# ---------------------------------------------------------------------------
# integrate-2d
# ---------------------------------------------------------------------------


def _integrate_ops(rng, lib, nets, state):
    A = lib.analysis
    pick = {tag: _rotation(rng, ks) for tag, ks in _by_tag(INTEGRATE_2D).items()}

    def op(kind, tag):
        k = next(pick[tag])
        net = nets[k]
        intervals = [
            (-Fraction(rng.randint(4, 8), 8), Fraction(rng.randint(4, 8), 8))
            for _ in range(net.inputs)
        ]
        box = A.Box(tuple(intervals))
        if kind == "integrate":
            return Op(
                f"integrate-{tag}",
                k,
                lambda: A.integrate_box(net, box),
                lambda got: got == reference.box_integral(net, intervals),
            )
        y = tuple(lo + (hi - lo) * Fraction(rng.randint(0, 8), 8) for lo, hi in intervals)
        i = rng.randint(1, net.inputs)
        return Op(
            f"shap-{tag}",
            k,
            lambda: A.shap(net, y, box, i),
            lambda got: got == reference.shapley(net, y, intervals, i),
        )

    # Per cycle of forty: thirty-nine one-neuron operations, which hold both
    # percentiles, and one heavier operation that takes about a quarter of
    # the time.  The heavier costs spread widely, so keeping them out of the
    # percentiles keeps runs with different seeds in agreement.  A one-neuron
    # net costs about twice as much when its kink is upright (near parallel
    # to the x2 axis) as when it is level; both kinds are generated in fixed
    # numbers, and the median and 90th percentile fall among the upright ones
    # instead of between the two.
    kinds = itertools.cycle(("integrate", "shap"))
    heavy = itertools.cycle(
        [(kind, tag) for tag in ("d2w2", "d3", "t3") for kind in ("integrate", "shap")]
    )
    while True:
        for _ in range(10):
            yield op(next(kinds), "level")
        for _ in range(29):
            yield op(next(kinds), "upright")
        yield op(*next(heavy))


# Simplex volumes and cell triangulation over many small box-pruned
# decompositions, with PWL extraction paid on every call as CLI users pay it.
INTEGRATE_2D = Workload(
    name="integrate-2d",
    shapes=(
        ("level", 2, (1,), 48),
        ("upright", 2, (1,), 48),
        ("d2w2", 2, (2,), 24),
        ("d3", 2, (1, 2), 24),
        ("t3", 3, (1,), 24),
    ),
    prepare=_no_prep,
    ops=_integrate_ops,
    kinks_through=(Fraction(-1, 2), Fraction(1, 2)),
    first_layer={"level": _level, "upright": _upright},
)


# ---------------------------------------------------------------------------
# pointwise
# ---------------------------------------------------------------------------

# Aggregate terms and one formula over the network's weighted graph, each
# with its value computed directly from the model data.
FOSUM_TERMS = (
    ("sum{x : E(x, out1)} w(x, out1)", lambda net: sum(net.outputs[0].weights)),
    (
        "sum{x, y : E(x, y)} 1",
        lambda net: sum(
            a * b
            for a, b in itertools.pairwise(
                [net.inputs] + [len(layer) for layer in net.hidden] + [len(net.outputs)]
            )
        ),
    ),
    (
        "sum{x : exists y E(y, x)} b(x)",
        lambda net: sum(nr.bias for layer in net.hidden for nr in layer)
        + sum(nr.bias for nr in net.outputs),
    ),
    (
        "sum{x, y : E(x, y) and 0 < w(x, y)} w(x, y)",
        lambda net: sum(
            w
            for layer in net.hidden + (net.outputs,)
            for nr in layer
            for w in nr.weights
            if w > 0
        ),
    ),
    ("forall x (exists y E(x, y) or exists y E(y, x))", lambda net: True),
)


def _pointwise_prepare(lib, nets):
    tags = _by_tag(POINTWISE)
    pwls = {k: lib.pwl.pwl_from_network(nets[k]) for k in tags["pwl"]}
    terms = {}
    for k in tags["eval"]:
        key = (nets[k].inputs, len(nets[k].hidden) + 1)
        if key not in terms:
            terms[key] = lib.network.build_eval_term(*key)
    return pwls, terms


def _pointwise_ops(rng, lib, nets, state):
    N, F = lib.network, lib.fosum
    pwls, terms = state
    pick = {tag: _rotation(rng, ks) for tag, ks in _by_tag(POINTWISE).items()}
    # Evaluation terms cost 2-30 ms depending on the shape and hold the 90th
    # percentile; their own rotation over an odd number of shapes puts it
    # inside one shape's costs instead of between two.
    pick["eval_term"] = _rotation(rng, _by_tag(POINTWISE)["eval"])

    def eval_term(net, x):
        s = N.to_structure(net, x)
        return F.eval_weight_term(s, terms[net.inputs, len(net.hidden) + 1], {})

    def aggregate(net, text):
        t = F.parse_fosum(text, N.graph_vocabulary(net.inputs, len(net.outputs)))
        s = N.to_structure(net)
        if text.startswith("forall"):
            return F.eval_formula(s, t, {})
        return F.eval_weight_term(s, t, {})

    while True:
        # Per cycle of ten: seven sub-millisecond evaluations (the median
        # falls among these), one aggregate term and two evaluation terms.
        for kind in ("forward", "pwl_eval", "forward", "eval_term", "forward",
                     "pwl_eval", "forward", "aggregate", "forward", "eval_term"):
            k = next(pick[{"pwl_eval": "pwl", "eval_term": "eval_term"}.get(kind, "eval")])
            net = nets[k]
            x = _point(rng, net.inputs, -5, 5, 8)
            if kind == "forward":
                call = lambda net=net, x=x: N.forward(net, x)[0]
            elif kind == "pwl_eval":
                call = lambda f=pwls[k], x=x: lib.pwl.pwl_eval(f, x)
            elif kind == "eval_term":
                call = lambda net=net, x=x: eval_term(net, x)
            else:
                text, value = rng.choice(FOSUM_TERMS)
                yield Op(
                    kind,
                    k,
                    lambda net=net, text=text: aggregate(net, text),
                    lambda got, want=value(net): got == want,
                )
                continue
            yield Op(kind, k, call, lambda got, net=net, x=x: got == _fwd(net, x))


# Many cheap exact point evaluations: the only workload for fosum and network,
# and the high-rate control where geometry and linprog do no work.
POINTWISE = Workload(
    name="pointwise",
    shapes=(
        ("eval", 1, (3, 3), 12),
        ("eval", 1, (4, 4, 4), 12),
        ("eval", 2, (4, 3), 12),
        ("eval", 2, (3, 3, 4), 12),
        ("eval", 3, (3, 4), 12),
        ("pwl", 1, (4, 4, 4), 2),
        ("pwl", 2, (2, 2), 2),
    ),
    prepare=_pointwise_prepare,
    ops=_pointwise_ops,
)


WORKLOADS = {w.name: w for w in (VERIFY_2D, EXPLAIN_1D, INTEGRATE_2D, POINTWISE)}
