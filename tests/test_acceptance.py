"""Acceptance suite: one test per shipped guarantee, each printed as a
single PASS/FAIL line in the terminal summary with its runtime budget.

Every criterion checks the package against either an independent oracle
(implemented in tests/oracles.py from first principles) or a hand-derived
closed form, at the exact tolerances stated in each test.  Seeds are fixed;
the suite is deterministic.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import conftest
from nnquery.analysis import (
    Box,
    counterfactual_explain,
    feature_contribution,
    integrate_box,
    robustness_check,
    shap,
)
from nnquery.core import BOT, Vocabulary, WeightedStructure
from nnquery.fosum import FCompare, eval_formula, eval_weight_term, parse_fosum
from nnquery.geometry import build_cd, make_arrangement
from nnquery.linprog import affine_eval
from nnquery.network import (
    Network,
    Neuron,
    build_eval_term,
    build_sawtooth,
    forward,
    to_structure,
)
from nnquery.pwl import pwl_eval, pwl_from_network
from nnquery.query import evaluate_query

from oracles import (
    oracle_counterfactual_1d,
    oracle_feature_contribution_1d,
    oracle_forward,
    oracle_integrate_1d,
    oracle_locate,
    oracle_query,
    oracle_robustness_1d,
    oracle_sign_constant,
    oracle_sign_vectors,
    random_network,
    random_ordered_sentence,
    random_point,
)


@contextmanager
def criterion(number, title, budget_seconds):
    """Record one PASS/FAIL summary line; enforce the runtime budget."""
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        conftest.ACCEPTANCE_LOG.append(
            f"criterion {number} ({title}): FAIL after {elapsed:.1f}s"
        )
        raise
    elapsed = time.perf_counter() - started
    if elapsed > budget_seconds:
        conftest.ACCEPTANCE_LOG.append(
            f"criterion {number} ({title}): FAIL - exceeded "
            f"{budget_seconds}s budget ({elapsed:.1f}s)"
        )
        pytest.fail(
            f"criterion {number} exceeded its {budget_seconds}s budget "
            f"({elapsed:.1f}s)"
        )
    conftest.ACCEPTANCE_LOG.append(
        f"criterion {number} ({title}): PASS in {elapsed:.1f}s "
        f"(budget {budget_seconds}s)"
    )


def sign_at(h, p):
    v = affine_eval(h, p)
    return "+" if v > 0 else "-" if v < 0 else "0"


def one_input_net(hidden_layers, out_weights, out_bias=0):
    """Single-input, single-output net from (bias, weights) literals."""
    return Network(
        inputs=1,
        hidden=tuple(
            tuple(
                Neuron(
                    bias=Fraction(b), weights=tuple(Fraction(w) for w in ws)
                )
                for b, ws in layer
            )
            for layer in hidden_layers
        ),
        outputs=(
            Neuron(
                bias=Fraction(out_bias),
                weights=tuple(Fraction(w) for w in out_weights),
            ),
        ),
    )


# ---------------------------------------------------------------------------
# 1. Aggregate-logic evaluation term reproduces the forward pass
# ---------------------------------------------------------------------------


def test_criterion_1_aggregate_eval_matches_forward():
    with criterion(
        1, "aggregate-term evaluation = forward pass, 100 nets x 20 inputs", 60
    ):
        rng = random.Random(101)
        combos = [(m, depth) for m in (1, 2, 3) for depth in (1, 2, 3, 4)]
        for i in range(100):
            m, depth = combos[i % len(combos)]
            net = random_network(rng, m, depth)
            term = build_eval_term(m, depth)
            for _ in range(20):
                x = random_point(rng, m)
                structure = to_structure(net, x)
                assert eval_weight_term(structure, term, {}) == forward(net, x)[0]


# ---------------------------------------------------------------------------
# 2. Piecewise-linear extraction is exact everywhere sampled
# ---------------------------------------------------------------------------


def test_criterion_2_pwl_extraction_exact():
    with criterion(
        2, "PWL extraction = forward pass, 100 nets x 100 points", 300
    ):
        rng = random.Random(102)
        combos = [(m, depth) for m in (1, 2, 3) for depth in (1, 2, 3)]
        for i in range(100):
            m, depth = combos[i % len(combos)]
            cap = 2 if (m == 3 and depth == 3) else 3
            net = random_network(rng, m, depth, max_width=cap)
            f = pwl_from_network(net)
            for _ in range(100):
                x = random_point(rng, m)
                assert pwl_eval(f, x) == forward(net, x)[0]


# ---------------------------------------------------------------------------
# 3. Cylindrical decompositions: compatibility, sign vectors, partition
# ---------------------------------------------------------------------------


def test_criterion_3_decomposition_correctness():
    with criterion(
        3,
        "decomposition: compatibility + sign vectors + point partition, "
        "50 arrangements",
        300,
    ):
        rng = random.Random(103)
        for trial in range(50):
            d = rng.randint(1, 3)
            planes = []
            for _ in range(rng.randint(1, 6)):
                h = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d + 1))
                if any(c != 0 for c in h[1:]):
                    planes.append(h)
            arr = make_arrangement(d, planes)
            cd = build_cd(arr)
            cells = cd.index

            # Every full-level cell keeps one sign on every plane, at its
            # sample and at five interior points.
            assert oracle_sign_constant(cells, arr.hyperplanes)

            got = {
                tuple(sign_at(h, c.sample) for h in arr.hyperplanes)
                for c in cd.levels[d]
            }
            assert got == oracle_sign_vectors(arr.hyperplanes, d)

            # Every point's prefix lies in exactly one cell of each level:
            # 20 points over a wide box, 100 near the origin.
            wide = random.Random(trial)
            points = [
                tuple(Fraction(wide.randint(-192, 192), 16) for _ in range(d))
                for _ in range(20)
            ]
            points += [
                tuple(Fraction(rng.randint(-48, 48), 16) for _ in range(d))
                for _ in range(100)
            ]
            for p in points:
                assert oracle_locate(cells, p) is not None, (trial, p)


# ---------------------------------------------------------------------------
# 4. Query evaluation agrees with a Fourier-Motzkin case-split oracle
# ---------------------------------------------------------------------------


def test_criterion_4_query_oracle_equivalence():
    with criterion(
        4, "query evaluation = elimination oracle, 200/200 sentences", 600
    ):
        rng = random.Random(104)
        kinds = ["narrow-f"] * 80 + ["linear"] * 60 + ["wide-f"] * 60
        rng.shuffle(kinds)
        agreed = 0
        for kind in kinds:
            if kind == "linear":
                d = rng.randint(1, 3)
                text, prefix, matrix = random_ordered_sentence(
                    rng, d, 1, rng.randint(1, 4), with_f=False
                )
                net = random_network(rng, 1, 1)
                pwl = None
            elif kind == "narrow-f":
                d = rng.randint(1, 2)
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
            assert got == want, (kind, text)
            agreed += 1
        assert agreed == 200


# ---------------------------------------------------------------------------
# 5. Integration: 1-D oracle, sawtooth family, 2-D Monte-Carlo + analytic
# ---------------------------------------------------------------------------


def test_criterion_5_integration():
    with criterion(
        5,
        "integration: 1-D oracle exact, sawtooth iff-zero, 2-D within 1e-2",
        600,
    ):
        rng = random.Random(105)

        # (a) Both exact routes equal an independent 1-D trapezoid oracle.
        for _ in range(50):
            net = random_network(rng, 1, 2, max_width=6)
            f = pwl_from_network(net)
            lo = Fraction(rng.randint(-40, 0), 8)
            hi = lo + Fraction(rng.randint(1, 48), 8)
            box = Box(((lo, hi),))
            want = oracle_integrate_1d(net, lo, hi)
            assert integrate_box(f, box, method="trapezoid") == want
            assert integrate_box(f, box, method="cells") == want

        # (b) Sawtooth family: integral over [0,1] is zero exactly when the
        # positive and negative tooth sets have equal size.
        grid = [Fraction(k, 64) for k in range(8, 49)]
        unit = Box(((Fraction(0), Fraction(1)),))
        for _ in range(20):
            n1, n2 = rng.randint(0, 4), rng.randint(0, 4)
            pts = rng.sample(grid, n1 + n2)
            s1 = tuple(sorted(pts[:n1]))
            s2 = tuple(sorted(pts[n1:]))
            f = pwl_from_network(build_sawtooth(s1, s2))
            value = integrate_box(f, unit)
            assert (value == 0) == (n1 == n2), (s1, s2, value)

        # (c) 2-D integrals: within 1e-2 relative of a 10^6-point
        # Monte-Carlo oracle (stratified over a 1000x1000 grid, one uniform
        # sample per stratum); exact against the closed form for linear nets.
        square = Box(((Fraction(-1), Fraction(1)), (Fraction(-1), Fraction(1))))
        side = 1000
        for k in range(10):
            net = random_network(rng, 2, 2, max_width=2)
            f = pwl_from_network(net)
            exact = integrate_box(f, square)

            npr = np.random.default_rng(1000 + k)
            ix = np.repeat(np.arange(side), side)
            iy = np.tile(np.arange(side), side)
            sx = (ix + npr.random(side * side)) / side * 2.0 - 1.0
            sy = (iy + npr.random(side * side)) / side * 2.0 - 1.0
            acts = np.stack([sx, sy], axis=1)
            for layer in net.hidden:
                w = np.array([[float(c) for c in n.weights] for n in layer])
                b = np.array([float(n.bias) for n in layer])
                acts = np.maximum(acts @ w.T + b, 0.0)
            w = np.array([[float(c) for c in n.weights] for n in net.outputs])
            b = np.array([float(n.bias) for n in net.outputs])
            mc = float((acts @ w.T + b)[:, 0].mean()) * 4.0
            assert abs(mc - float(exact)) <= 1e-2 * max(1.0, abs(float(exact)))

        for _ in range(5):
            net = random_network(rng, 2, 1)  # affine: no hidden layers
            f = pwl_from_network(net)
            lo1, lo2 = (Fraction(rng.randint(-16, 0), 4) for _ in range(2))
            hi1 = lo1 + Fraction(rng.randint(1, 16), 4)
            hi2 = lo2 + Fraction(rng.randint(1, 16), 4)
            box = Box(((lo1, hi1), (lo2, hi2)))
            w1, w2 = net.outputs[0].weights
            mid1, mid2 = (lo1 + hi1) / 2, (lo2 + hi2) / 2
            area = (hi1 - lo1) * (hi2 - lo2)
            analytic = (w1 * mid1 + w2 * mid2 + net.outputs[0].bias) * area
            assert integrate_box(f, box) == analytic


# ---------------------------------------------------------------------------
# 6. Shapley values: linear identity and efficiency axiom
# ---------------------------------------------------------------------------


def test_criterion_6_shap():
    with criterion(
        6, "shap: linear identity x20 + efficiency axiom x10, exact", 300
    ):
        rng = random.Random(106)

        for i in range(20):
            m = (i % 3) + 1
            net = random_network(rng, m, 1)  # affine: no hidden layers
            intervals, y = [], []
            for _ in range(m):
                lo = Fraction(rng.randint(-12, 4), 4)
                hi = lo + Fraction(rng.randint(1, 12), 4)
                intervals.append((lo, hi))
                y.append(lo + Fraction(rng.randint(1, 7), 8) * (hi - lo))
            box = Box(tuple(intervals))
            y = tuple(y)
            weights = net.outputs[0].weights
            for feat in range(1, m + 1):
                lo, hi = intervals[feat - 1]
                expected = weights[feat - 1] * (y[feat - 1] - (lo + hi) / 2)
                assert shap(net, y, box, feat) == expected

        square = Box(((Fraction(-1), Fraction(1)), (Fraction(-1), Fraction(1))))
        for _ in range(10):
            net = random_network(rng, 2, 2, max_width=2)
            f = pwl_from_network(net)
            y = (Fraction(rng.randint(-7, 7), 8), Fraction(rng.randint(-7, 7), 8))
            total = shap(net, y, square, 1) + shap(net, y, square, 2)
            mean = integrate_box(f, square) / square.volume
            assert total == pwl_eval(f, y) - mean


# ---------------------------------------------------------------------------
# 7. Verification analyses: robustness, counterfactual, contribution
# ---------------------------------------------------------------------------


def test_criterion_7_verification_analyses():
    with criterion(
        7,
        "verification: robustness grid-consistent x30, counterfactual "
        "analytic x10, contribution oracle x20",
        300,
    ):
        rng = random.Random(107)

        # Robustness: the decision must be consistent with a dense-grid
        # falsifier at resolution 2^-10 (a grid counterexample forces
        # False), and is additionally checked against the exact 1-D oracle.
        step = Fraction(1, 1024)
        seen = {True: 0, False: 0}
        for _ in range(30):
            net = random_network(rng, 1, 2, max_width=5)
            (a,) = a_pt = random_point(rng, 1)
            eps = Fraction(rng.randint(1, 16), 8)
            delta = Fraction(rng.randint(1, 24), 8)
            result = robustness_check(net, a_pt, eps, delta)
            seen[result] += 1

            fa = oracle_forward(net, [a])[0]
            k_lo = (a - eps) / step
            k_hi = (a + eps) / step
            falsified = False
            k = int(k_lo) - 1
            while k <= int(k_hi) + 1:
                x = k * step
                if abs(x - a) < eps and abs(
                    oracle_forward(net, [x])[0] - fa
                ) >= delta:
                    falsified = True
                    break
                k += 1
            if falsified:
                assert result is False
            assert result == oracle_robustness_1d(net, a, eps, delta)
        assert seen[True] >= 3 and seen[False] >= 3

        # Counterfactual: hand-built one-input nets with hand-solved
        # nearest points above the threshold.
        relu = one_input_net([[(0, (1,))]], (1,))
        ramp = one_input_net([[(0, (1,)), (-1, (1,))]], (1, -1))
        wide = (Fraction(-10), Fraction(10))
        cases = [
            # (net, anchor, threshold, box, expected point, expected distance)
            (relu, -2, Fraction(9, 10), wide, Fraction(9, 10), Fraction(29, 10)),
            (one_input_net([], (1,)), 0, Fraction(3), wide, Fraction(3), Fraction(3)),
            (one_input_net([], (-1,), 1), 0, Fraction(2), wide, Fraction(-1), Fraction(1)),
            (
                one_input_net([[(0, (1,)), (0, (-1,))]], (1, 1)),
                0,
                Fraction(1),
                (Fraction(-3), Fraction(3)),
                Fraction(-1),
                Fraction(1),
            ),
            (
                # tent: 2*relu(x) - 4*relu(x - 1/2), peak 1 at x = 1/2
                one_input_net([[(0, (1,)), (Fraction(-1, 2), (1,))]], (2, -4)),
                0,
                Fraction(1, 2),
                (Fraction(0), Fraction(1)),
                Fraction(1, 4),
                Fraction(1, 4),
            ),
            (ramp, 3, Fraction(1, 2), wide, Fraction(3), Fraction(0)),
            (ramp, -1, Fraction(1, 2), wide, Fraction(1, 2), Fraction(3, 2)),
            (
                one_input_net([[(0, (1,))], [(-2, (1,))]], (1,)),
                0,
                Fraction(1),
                wide,
                Fraction(3),
                Fraction(3),
            ),
            (
                one_input_net([[(-2, (1,))]], (5,)),
                1,
                Fraction(1),
                wide,
                Fraction(11, 5),
                Fraction(6, 5),
            ),
            (one_input_net([[(0, (-1,))]], (1,)), 1, Fraction(2), wide, Fraction(-2), Fraction(3)),
        ]
        assert len(cases) == 10
        for net, a, thr, (lo, hi), want_x, want_d in cases:
            box = Box(((lo, hi),))
            witness, dist = counterfactual_explain(
                net, (Fraction(a),), thr, box
            )
            assert dist == want_d
            assert witness == (want_x,)
            got = oracle_counterfactual_1d(net, Fraction(a), thr, lo, hi)
            assert got is not None and got[1] == want_d

        # Contribution: least movement of the input that shifts the output
        # by more than eps, against an independent breakpoint-scan oracle.
        checked_none = 0
        for i in range(20):
            if i % 5 == 4:
                net = one_input_net([[(i, (0,))]], (1,), out_bias=i)  # constant
            else:
                net = random_network(rng, 1, 2, max_width=4)
            (a,) = a_pt = random_point(rng, 1)
            eps = Fraction(rng.randint(1, 16), 4)
            got = feature_contribution(net, a_pt, 1, eps)
            want = oracle_feature_contribution_1d(net, a, eps)
            assert got == want, (i, a, eps)
            if want is None:
                checked_none += 1
        assert checked_none >= 4


# ---------------------------------------------------------------------------
# 8. Lifted-value semantics: the 12-case absorption/comparison table
# ---------------------------------------------------------------------------


def test_criterion_8_lifted_value_table():
    with criterion(8, "lifted-value 12-case table, exact", 60):
        # Weight constants x (a sample rational), u (undefined) and z
        # (zero); every row is parsed and evaluated as FO+SUM.
        vocab = Vocabulary(weights={"x": 0, "u": 0, "z": 0})

        def holds(text, x):
            s = WeightedStructure(
                vocab, ("e",), weights={"x": {(): x}, "z": {(): Fraction(0)}}
            )
            node = parse_fosum(text, vocab)
            if isinstance(node, FCompare):
                return eval_formula(s, node, {})
            return eval_weight_term(s, node, {}) is BOT

        samples = (Fraction(7, 3), Fraction(-2), Fraction(0))
        table_rows = 0
        # Rows 1-8: each arithmetic op absorbs an undefined operand on
        # either side (including mul by 0: absorption beats annihilation).
        for left, right in (
            ("x + u", "u + x"),
            ("3 * u", "u * 0"),
            ("x * u", "u * x"),
            ("x / u", "u / x"),
        ):
            assert all(holds(left, x) for x in samples)
            table_rows += 1
            assert all(holds(right, x) for x in samples)
            table_rows += 1
        # Row 9: division by zero is undefined.
        assert all(holds("x / z", x) for x in samples)
        assert holds("u / z", Fraction(1))
        table_rows += 1
        # Rows 10-12: undefined sits strictly below every rational and
        # equals itself.
        assert all(holds("u < x", x) and not holds("u = x", x) for x in samples)
        table_rows += 1
        assert all(not holds("x < u", x) and not holds("x = u", x) for x in samples)
        table_rows += 1
        assert holds("u = u", Fraction(1)) and not holds("u < u", Fraction(1))
        table_rows += 1
        assert table_rows == 12
