"""Tests for the quantitative analysis layer.

Covers exact box integration (both evaluation routes), cell triangulation
with volume oracles, simplex volumes against Cayley–Menger, Shapley values
with the efficiency axiom, and the robustness / counterfactual /
feature-contribution analyses against independent one-dimensional oracles.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from nnquery.analysis import (
    Box,
    Simplex,
    counterfactual_explain,
    feature_contribution,
    integrate_box,
    robustness_check,
    shap,
    simplex_volume,
    triangulate_cell,
)
from nnquery.geometry import build_cd, make_arrangement
from nnquery.network import Network, Neuron, build_sawtooth
from nnquery.pwl import pwl_eval, pwl_from_network, sum_stage

from oracles import (
    _det_gauss,
    oracle_ball_range_1d,
    oracle_cayley_menger_sq,
    oracle_cell_contains,
    oracle_counterfactual_1d,
    oracle_feature_contribution_1d,
    oracle_forward,
    oracle_integrate_1d,
    oracle_locate,
    oracle_robustness_1d,
    random_network,
    random_point,
    random_rational,
)

F = Fraction


def build_net(m, hidden, out_w, out_b=0):
    layers = tuple(
        tuple(Neuron(weights=tuple(F(w) for w in ws), bias=F(b)) for ws, b in layer)
        for layer in hidden
    )
    return Network(
        inputs=m,
        hidden=layers,
        outputs=(Neuron(weights=tuple(F(w) for w in out_w), bias=F(out_b)),),
    )


def relu_net():
    return build_net(1, [[((1,), 0)]], (1,))


def abs_net():
    # |x| = relu(x) + relu(-x)
    return build_net(1, [[((1,), 0), ((-1,), 0)]], (1, 1))


# ---------------------------------------------------------------------------
# Box and Simplex types
# ---------------------------------------------------------------------------


class TestTypes:
    def test_box_basics(self):
        b = Box(((0, 1), (-2, 3)))
        assert b.dim == 2
        assert b.volume == 5
        assert b.contains((F(1, 2), 0))
        assert b.contains((0, 3))  # closed: the boundary belongs to the box
        assert not b.contains((2, 0))

    def test_box_rejects_degenerate_interval(self):
        with pytest.raises(ValueError):
            Box(((0, 0),))
        with pytest.raises(ValueError):
            Box(((1, 0),))
        with pytest.raises(ValueError):
            Box(())

    def test_box_contains_checks_dimension(self):
        with pytest.raises(ValueError):
            Box(((0, 1),)).contains((0, 0))

    def test_simplex_validation(self):
        s = Simplex(((0, 0), (1, 0), (0, 1)))
        assert s.dim == 2
        with pytest.raises(ValueError):
            Simplex(((0, 0),))
        with pytest.raises(ValueError):
            Simplex(((0, 0, 0), (1, 0), (0, 1)))

    def test_one_input_results_are_fractions(self):
        # relu(t) + relu(2t - 1): the breakplane 2t - 1 = 0 is stored as
        # the int tuple (-1, 2), so its breakpoint must be divided exactly
        net = build_net(1, [[((1,), 0), ((2,), -1)]], (1, 1))
        assert pwl_from_network(net).breakplanes == ((0, 1), (-1, 2))
        total = integrate_box(net, Box(((0, 1),)))
        assert type(total) is Fraction and total == F(3, 4)
        # from 1/4 the output first moves by more than 1/4 past the knot 1/2
        r = feature_contribution(net, (F(1, 4),), 1, F(1, 4))
        assert type(r) is Fraction and r == F(1, 4)


# ---------------------------------------------------------------------------
# Simplex volume
# ---------------------------------------------------------------------------


class TestSimplexVolume:
    def test_unit_triangle(self):
        assert simplex_volume(Simplex(((0, 0), (1, 0), (0, 1)))) == F(1, 2)

    def test_collinear_corners_give_zero(self):
        assert simplex_volume(Simplex(((0, 0), (1, 1), (2, 2)))) == 0

    def test_unit_corner_tetrahedron(self):
        s = Simplex(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert simplex_volume(s) == F(1, 6)

    def test_segment_length(self):
        assert simplex_volume(Simplex(((F(-1, 2),), (F(5, 2),)))) == 3

    def test_translation_invariance(self):
        base = Simplex(((0, 0), (2, 1), (1, 3)))
        shifted = Simplex(
            tuple(tuple(c + 7 for c in p) for p in base.corners)
        )
        assert simplex_volume(base) == simplex_volume(shifted)

    def test_random_tetrahedra_match_cayley_menger(self):
        # The Cayley–Menger determinant recovers the squared volume from
        # pairwise distances alone — an entirely different computation.
        rng = random.Random(20260816)
        for _ in range(25):
            pts = tuple(tuple(random_point(rng, 3)) for _ in range(4))
            vol = simplex_volume(Simplex(pts))
            assert vol * vol == oracle_cayley_menger_sq(pts)


# ---------------------------------------------------------------------------
# Cell triangulation
# ---------------------------------------------------------------------------


def quad_cd():
    # 0 < x1 < 1, 0 < x2 < x1 + 2: a trapezoid with corners
    # (0,0), (1,0), (1,3), (0,2).
    arr = make_arrangement(2, [(0, 1, 0), (-1, 1, 0), (0, 0, 1), (2, 1, -1)])
    return build_cd(arr)


def _barycentric_membership(simplex, point):
    """(inside_closed, inside_open) membership via exact barycentric
    coordinates, solved by Cramer's rule."""
    pts = simplex.corners
    n = simplex.dim
    mat = [[pts[j][i] for j in range(n + 1)] for i in range(n)]
    mat.append([F(1)] * (n + 1))
    rhs = list(point) + [F(1)]
    det = _det_gauss(mat)
    if det == 0:
        return False, False
    lams = []
    for j in range(n + 1):
        rep = [row[:] for row in mat]
        for i in range(n + 1):
            rep[i][j] = rhs[i]
        lams.append(_det_gauss(rep) / det)
    return all(l >= 0 for l in lams), all(l > 0 for l in lams)


class TestTriangulateCell:
    def test_triangle_is_a_single_simplex(self):
        # 0 < x1 < 1, 0 < x2 < x1 is the open triangle (0,0)-(1,0)-(1,1).
        arr = make_arrangement(2, [(0, 1, 0), (-1, 1, 0), (0, 0, 1), (0, 1, -1)])
        cd = build_cd(arr)
        cell = oracle_locate(cd.index, (F(3, 4), F(1, 4)))
        simplices = triangulate_cell(cd, cell)
        assert len(simplices) == 1
        assert simplex_volume(simplices[0]) == F(1, 2)

    def test_quadrilateral_splits_into_two_simplices(self):
        cd = quad_cd()
        cell = oracle_locate(cd.index, (F(1, 2), F(1, 2)))
        simplices = triangulate_cell(cd, cell)
        assert len(simplices) == 2
        # Shoelace area of (0,0), (1,0), (1,3), (0,2) is 5/2.
        assert sum(simplex_volume(s) for s in simplices) == F(5, 2)

    def test_box_cell_volume_is_product_of_sides(self):
        planes = []
        sides = [(0, 2), (0, 3), (0, 5)]
        for i, (lo, hi) in enumerate(sides, start=1):
            unit = [F(0)] * 4
            unit[i] = F(1)
            lo_p = list(unit)
            lo_p[0] = F(-lo)
            hi_p = list(unit)
            hi_p[0] = F(-hi)
            planes.extend([tuple(lo_p), tuple(hi_p)])
        cd = build_cd(make_arrangement(3, planes))
        cell = oracle_locate(cd.index, (1, 1, 1))
        total = sum(simplex_volume(s) for s in triangulate_cell(cd, cell))
        assert total == 2 * 3 * 5

    def test_slanted_cell_volume_matches_integral(self):
        # 0<x1<2, 0<x2<3, 0<x3<x1+x2+1 has volume ∫∫ (x1+x2+1) = 21.
        planes = [
            (0, 1, 0, 0),
            (-2, 1, 0, 0),
            (0, 0, 1, 0),
            (-3, 0, 1, 0),
            (0, 0, 0, 1),
            (1, 1, 1, -1),
        ]
        cd = build_cd(make_arrangement(3, planes))
        cell = oracle_locate(cd.index, (1, 1, 1))
        total = sum(simplex_volume(s) for s in triangulate_cell(cd, cell))
        assert total == 21

    def test_unbounded_cell_rejected(self):
        cd = quad_cd()
        cell = oracle_locate(cd.index, (F(1, 2), 10))
        with pytest.raises(ValueError):
            triangulate_cell(cd, cell)

    def test_simplices_cover_cell_with_disjoint_interiors(self):
        cd = quad_cd()
        cell = oracle_locate(cd.index, (F(1, 2), F(1, 2)))
        simplices = triangulate_cell(cd, cell)
        rng = random.Random(7)
        for _ in range(200):
            p = (random_rational(rng, -1, 2, 8), random_rational(rng, -1, 4, 8))
            memberships = [_barycentric_membership(s, p) for s in simplices]
            in_union = any(closed for closed, _ in memberships)
            strictly_inside = sum(1 for _, open_ in memberships if open_)
            if oracle_cell_contains(cd.index, cell, p):
                assert in_union
            assert strictly_inside <= 1
            # A point strictly inside some simplex must belong to the cell's
            # closure; probe via the open cell to dodge boundary cases.
            if strictly_inside and not oracle_cell_contains(cd.index, cell, p):
                # must be on the cell's boundary: nudging toward the sample
                # point enters the open cell
                mid = tuple((a + b) / 2 for a, b in zip(p, cell.sample))
                assert oracle_cell_contains(cd.index, cell, mid)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("concurrent", [False, True])
    def test_cells_tile_box_with_slanted_planes(self, d, concurrent):
        # Box facets plus 1-4 slanted planes, all through one interior point
        # when concurrent; the full-dimensional cells must tile the box.
        rng = random.Random(100 * d + concurrent)
        for _ in range(8):
            box = Box(
                tuple(
                    (lo, lo + random_rational(rng, 1, 6, 2))
                    for lo in (random_rational(rng, -4, 2, 2) for _ in range(d))
                )
            )
            center = tuple(
                lo + (hi - lo) * F(rng.randint(1, 3), 4) for lo, hi in box.intervals
            )
            planes = []
            for i, (lo, hi) in enumerate(box.intervals, start=1):
                for bound in (lo, hi):
                    facet = [F(0)] * (d + 1)
                    facet[0], facet[i] = -bound, F(1)
                    planes.append(tuple(facet))
            for _ in range(rng.randint(1, 4)):
                normal = [F(0)] * d
                while sum(a != 0 for a in normal) < 2:
                    normal = [random_rational(rng, -3, 3, 2) for _ in range(d)]
                point = center if concurrent else tuple(
                    random_rational(rng, int(lo) - 1, int(hi) + 1, 3)
                    for lo, hi in box.intervals
                )
                offset = -sum(a * v for a, v in zip(normal, point))
                planes.append((offset, *normal))

            def inside(level, sample):
                lo, hi = box.intervals[level - 1]
                return lo < sample[level - 1] < hi

            cd = build_cd(make_arrangement(d, planes), restrict=inside)
            total = F(0)
            for cell in cd.cells(d):
                simplices = triangulate_cell(cd, cell)
                chain, full = cell, True
                while chain.level > 0:
                    full = full and chain.kind == "sector"
                    chain = cd.index[chain.base]
                if not full:
                    assert simplices == []
                for s in simplices:
                    vol = simplex_volume(s)
                    assert vol > 0
                    total += vol
            assert total == box.volume


# ---------------------------------------------------------------------------
# Exact integration
# ---------------------------------------------------------------------------


class TestIntegrateBox:
    def test_relu_integral_both_routes(self):
        f = pwl_from_network(relu_net())
        box = Box(((-1, 1),))
        assert integrate_box(f, box, method="trapezoid") == F(1, 2)
        assert integrate_box(f, box, method="cells") == F(1, 2)

    def test_plane_over_unit_square(self):
        f = pwl_from_network(build_net(2, [], (1, 1)))
        assert integrate_box(f, Box(((0, 1), (0, 1)))) == 1

    def test_negative_region_counts_negatively(self):
        # identity map: ∫_{-3}^{1} x dx = (1 - 9)/2 = -4
        f = pwl_from_network(build_net(1, [], (1,)))
        assert integrate_box(f, Box(((-3, 1),)), method="cells") == -4
        assert integrate_box(f, Box(((-3, 1),)), method="trapezoid") == -4

    def test_sawtooth_integral_cancels_iff_tooth_counts_match(self):
        cases = [
            ((F(1, 4),), (F(3, 4),), True),
            ((F(1, 4), F(1, 2)), (F(3, 4),), False),
            ((F(1, 8), F(3, 8), F(5, 8)), (F(7, 8),), False),
            ((F(5, 64), F(20, 64)), (F(33, 64), F(50, 64)), True),
        ]
        for s1, s2, cancels in cases:
            net = build_sawtooth(s1, s2)
            total = integrate_box(pwl_from_network(net), Box(((0, 1),)))
            assert (total == 0) == cancels
            if not cancels:
                assert (total > 0) == (len(s1) > len(s2))

    def test_1d_matches_independent_oracle(self):
        rng = random.Random(101)
        for _ in range(10):
            net = random_network(rng, 1, 2)
            f = pwl_from_network(net)
            lo = random_rational(rng, -6, 0)
            hi = lo + abs(random_rational(rng, 1, 5)) + 1
            expected = oracle_integrate_1d(net, lo, hi)
            assert integrate_box(f, Box(((lo, hi),)), method="trapezoid") == expected
            assert integrate_box(f, Box(((lo, hi),)), method="cells") == expected

    def test_2d_against_monte_carlo(self):
        rng = random.Random(7)
        net = random_network(rng, 2, 2, max_width=2)
        f = pwl_from_network(net)
        box = Box(((-1, 1), (-1, 1)))
        exact = float(integrate_box(f, box))

        gen = np.random.default_rng(12345)
        pts = gen.uniform(-1.0, 1.0, size=(300_000, 2))
        planes = np.array([[float(c) for c in h] for h in f.breakplanes])
        signs = pts @ planes[:, 1:].T + planes[:, 0] > 0
        vals = np.zeros(len(pts))
        for pos, comp in f.polytopes:
            if "=" in pos:
                continue  # measure-zero pieces
            mask = np.ones(len(pts), dtype=bool)
            for j, ch in enumerate(pos):
                mask &= signs[:, j] if ch == "+" else ~signs[:, j]
            cf = np.array([float(c) for c in comp])
            vals[mask] = pts[mask] @ cf[1:] + cf[0]
        estimate = vals.mean() * 4.0
        assert abs(estimate - exact) <= 1e-2 * max(1.0, abs(exact))

    def test_1d_additivity_is_exact(self):
        rng = random.Random(55)
        for _ in range(5):
            net = random_network(rng, 1, 2)
            f = pwl_from_network(net)
            a, b, c = F(-3), F(1, 3), F(2)
            whole = integrate_box(f, Box(((a, c),)))
            assert whole == integrate_box(f, Box(((a, b),))) + integrate_box(
                f, Box(((b, c),))
            )

    def test_linearity_under_sum(self):
        rng = random.Random(77)
        f = pwl_from_network(random_network(rng, 2, 2, max_width=2))
        g = pwl_from_network(random_network(rng, 2, 2, max_width=2))
        box = Box(((0, 1), (-1, 1)))
        total = integrate_box(sum_stage([f, g]), box, method="cells")
        assert total == integrate_box(f, box, method="cells") + integrate_box(
            g, box, method="cells"
        )

    def test_route_equivalence_on_random_1d(self):
        rng = random.Random(99)
        for _ in range(5):
            f = pwl_from_network(random_network(rng, 1, 2))
            box = Box(((-2, 3),))
            assert integrate_box(f, box, method="trapezoid") == integrate_box(
                f, box, method="cells"
            )

    def test_validation_errors(self):
        f = pwl_from_network(relu_net())
        with pytest.raises(ValueError):
            integrate_box(f, Box(((0, 1), (0, 1))))
        with pytest.raises(ValueError):
            integrate_box(f, Box(((0, 1),)), method="simpson")
        f2 = pwl_from_network(build_net(2, [], (1, 1)))
        with pytest.raises(ValueError):
            integrate_box(f2, Box(((0, 1), (0, 1))), method="trapezoid")


# ---------------------------------------------------------------------------
# Shapley values
# ---------------------------------------------------------------------------


class TestShap:
    def test_linear_function_closed_form(self):
        # For w·x + b with independent uniform inputs the Shapley value of
        # input i at y is w_i (y_i − midpoint_i).
        net = build_net(2, [], (2, 3))
        box = Box(((0, 1), (0, 1)))
        assert shap(net, (1, 1), box, 1) == 1
        assert shap(net, (1, 1), box, 2) == F(3, 2)

    def test_linear_closed_form_random(self):
        rng = random.Random(13)
        for m in (1, 2, 3):
            weights = [random_rational(rng) for _ in range(m)]
            bias = random_rational(rng)
            net = build_net(m, [], weights, bias)
            box = Box(tuple((j, j + 2) for j in range(m)))
            y = tuple(F(j) + F(1, 3) for j in range(m))
            for i in range(1, m + 1):
                mid = F(2 * (i - 1) + 2, 2)
                assert shap(net, y, box, i) == weights[i - 1] * (y[i - 1] - mid)

    def test_constant_function_contributes_nothing(self):
        net = build_net(2, [], (0, 0), 5)
        assert shap(net, (F(1, 2), F(1, 2)), Box(((0, 1), (0, 1))), 1) == 0

    def test_symmetric_inputs_share_equally(self):
        net = build_net(2, [], (1, 1))
        box = Box(((0, 1), (0, 1)))
        y = (F(3, 4), F(3, 4))
        assert shap(net, y, box, 1) == shap(net, y, box, 2)

    def test_efficiency_axiom(self):
        # Σ_i shap(i) = F(y) − E[F] holds exactly.
        rng = random.Random(31)
        for _ in range(2):
            net = random_network(rng, 2, 2, max_width=2)
            f = pwl_from_network(net)
            box = Box(((-1, 1), (-1, 1)))
            y = (F(1, 3), F(-1, 2))
            total = shap(f, y, box, 1) + shap(f, y, box, 2)
            mean = integrate_box(f, box) / box.volume
            assert total == pwl_eval(f, y) - mean

    def test_validation_errors(self):
        net = build_net(2, [], (1, 1))
        box = Box(((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            shap(net, (2, 0), box, 1)  # outside the box
        with pytest.raises(ValueError):
            shap(net, (0, 0), box, 3)  # no such input
        with pytest.raises(ValueError):
            shap(net, (0, 0, 0), box, 1)  # wrong point dimension
        with pytest.raises(ValueError):
            shap(net, (0, 0), Box(((0, 1),)), 1)  # wrong box dimension


# ---------------------------------------------------------------------------
# Robustness
# ---------------------------------------------------------------------------


class TestRobustness:
    def test_constant_network_is_robust(self):
        net = build_net(1, [], (0,), 3)
        for eps, delta in ((1, F(1, 100)), (100, F(1, 2)), (F(1, 8), 5)):
            assert robustness_check(net, (0,), eps, delta) is True

    def test_relu_counterexample(self):
        # F(3/4) − F(0) = 3/4 ≥ 1/2 inside the radius-1 ball around 0.
        assert robustness_check(relu_net(), (0,), 1, F(1, 2)) is False

    def test_relu_with_slack_is_robust(self):
        # |relu(x) − relu(0)| ≤ 1 < 2 on |x| < 1.
        assert robustness_check(relu_net(), (0,), 1, 2) is True

    def test_threshold_against_ball_range(self):
        rng = random.Random(211)
        for _ in range(5):
            net = random_network(rng, 1, 2)
            a = random_point(rng, 1)
            eps = abs(random_rational(rng, 1, 4)) + F(1, 2)
            span = oracle_ball_range_1d(net, a[0], eps)
            assert robustness_check(net, a, eps, span + 1) is True
            if span > 0:
                assert robustness_check(net, a, eps, span / 2) is False

    def test_agrees_with_independent_oracle(self):
        rng = random.Random(424242)
        for _ in range(8):
            net = random_network(rng, 1, 2)
            a = random_point(rng, 1)
            eps = abs(random_rational(rng, 1, 3)) + F(1, 4)
            delta = abs(random_rational(rng, 1, 3)) + F(1, 8)
            expected = oracle_robustness_1d(net, a[0], eps, delta)
            assert robustness_check(net, a, eps, delta) is expected
            assert robustness_check(net, a, eps, delta, metric="l1") is expected

    def test_validation_errors(self):
        net = relu_net()
        with pytest.raises(ValueError):
            robustness_check(net, (0,), 0, 1)
        with pytest.raises(ValueError):
            robustness_check(net, (0,), 1, -1)
        with pytest.raises(ValueError):
            robustness_check(net, (0,), 1, 1, metric="l7")
        with pytest.raises(ValueError):
            robustness_check(net, (0, 0), 1, 1)


# ---------------------------------------------------------------------------
# Counterfactual explanations
# ---------------------------------------------------------------------------


class TestCounterfactual:
    def test_relu_crossing_point(self):
        point, dist = counterfactual_explain(
            relu_net(), (-2,), F(9, 10), Box(((-10, 10),))
        )
        assert point == (F(9, 10),)
        assert dist == F(29, 10)

    def test_already_above_threshold(self):
        point, dist = counterfactual_explain(
            relu_net(), (2,), F(1, 2), Box(((-10, 10),))
        )
        assert point == (F(2),)
        assert dist == 0

    def test_empty_region_is_reported(self):
        net = build_net(1, [], (0,), 0)  # constant zero
        with pytest.raises(ValueError, match="no counterfactual in box"):
            counterfactual_explain(net, (0,), F(9, 10), Box(((-10, 10),)))

    def test_tie_breaks_to_lexicographically_smallest(self):
        # |x| > 1 has closest points ±1 from the origin; -1 wins.
        point, dist = counterfactual_explain(abs_net(), (0,), 1, Box(((-5, 5),)))
        assert point == (F(-1),)
        assert dist == 1

    def test_2d_linf_and_l1_witnesses(self):
        net = build_net(2, [], (1, 1))  # x1 + x2
        box = Box(((-2, 2), (-2, 2)))
        point, dist = counterfactual_explain(net, (0, 0), 1, box, metric="linf")
        assert point == (F(1, 2), F(1, 2))
        assert dist == F(1, 2)
        point, dist = counterfactual_explain(net, (0, 0), 1, box, metric="l1")
        assert point == (F(0), F(1))
        assert dist == 1

    def test_agrees_with_independent_oracle(self):
        rng = random.Random(31415)
        checked = 0
        for _ in range(6):
            net = random_network(rng, 1, 2)
            a = random_point(rng, 1)
            thr = random_rational(rng)
            expected = oracle_counterfactual_1d(net, a[0], thr, -6, 6)
            box = Box(((-6, 6),))
            if expected is None:
                with pytest.raises(ValueError, match="no counterfactual"):
                    counterfactual_explain(net, a, thr, box)
                continue
            point, dist = counterfactual_explain(net, a, thr, box)
            assert (point[0], dist) == expected
            checked += 1
        assert checked >= 3

    def test_validation_errors(self):
        net = relu_net()
        with pytest.raises(ValueError):
            counterfactual_explain(net, (0, 0), 1, Box(((-1, 1),)))
        with pytest.raises(ValueError):
            counterfactual_explain(net, (0,), 1, Box(((-1, 1), (-1, 1))))
        with pytest.raises(ValueError):
            counterfactual_explain(net, (0,), 1, Box(((-1, 1),)), metric="l7")


# ---------------------------------------------------------------------------
# Feature contribution
# ---------------------------------------------------------------------------


class TestFeatureContribution:
    def test_identity_needs_exactly_eps(self):
        net = build_net(1, [], (1,))
        assert feature_contribution(net, (0,), 1, F(1, 3)) == F(1, 3)

    def test_constant_never_moves(self):
        net = build_net(1, [], (0,), 5)
        assert feature_contribution(net, (0,), 1, 1) is None

    def test_relu_from_the_active_side(self):
        assert feature_contribution(relu_net(), (1,), 1, F(1, 2)) == F(1, 2)

    def test_second_input_scales_inversely_with_weight(self):
        net = build_net(2, [], (1, 2))
        assert feature_contribution(net, (0, 0), 2, 1) == F(1, 2)

    def test_flat_saturation_on_one_side(self):
        # relu moved from a = -1: to the right the output first moves at
        # x = 1/2 + eps... the left side never moves; infimum is at the
        # crossing of relu(x) = eps, giving r = 1 + eps.
        r = feature_contribution(relu_net(), (-1,), 1, F(1, 4))
        assert r == F(5, 4)

    def test_knot_at_the_bound_where_the_gap_turns_back(self):
        # g(t) = -3/2 up to -1/3, rises with slope 2 to -7/6 at -1/6, then
        # falls with slope -1.  From a = -1 (g = -3/2, eps = 1/3) the gap is
        # exactly eps at the knot -1/6 but shrinks on both sides of it, so
        # the knot does not bound the set; the output first moves by more
        # than eps beyond t = 1/2, at distance 3/2
        net = Network(
            1,
            ((Neuron(F(1, 2), (F(3),)), Neuron(F(1, 3), (F(1),))),),
            (Neuron(F(-3, 2), (F(-1), F(2))),),
        )
        assert feature_contribution(net, (-1,), 1, F(1, 3)) == F(3, 2)
        assert oracle_feature_contribution_1d(net, -1, F(1, 3)) == F(3, 2)

    def test_agrees_with_independent_oracle(self):
        rng = random.Random(2718)
        hits = 0
        for _ in range(8):
            net = random_network(rng, 1, 2)
            a = random_point(rng, 1)
            eps = abs(random_rational(rng, 1, 4)) + F(1, 8)
            expected = oracle_feature_contribution_1d(net, a[0], eps)
            got = feature_contribution(net, a, 1, eps)
            assert got == expected
            if expected is not None:
                hits += 1
        assert hits >= 4

    def test_validation_errors(self):
        net = relu_net()
        with pytest.raises(ValueError):
            feature_contribution(net, (0,), 1, 0)
        with pytest.raises(ValueError):
            feature_contribution(net, (0,), 2, 1)
        with pytest.raises(ValueError):
            feature_contribution(net, (0, 0), 1, 1)
