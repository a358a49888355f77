"""Tests for the exact simplex and for the Fourier–Motzkin feasibility
oracle that it, and every other feasibility check of the suite, is compared
against."""

import random
from fractions import Fraction

import pytest

from nnquery.linprog import affine_eval, minimize

from oracles import oracle_feasible


def check_witness(constraints, d, x):
    assert x is not None and len(x) == d
    for f, rel in constraints:
        v = affine_eval(tuple(Fraction(a) for a in f), x)
        if rel == "gt":
            assert v > 0, (f, rel, x)
        elif rel == "ge":
            assert v >= 0, (f, rel, x)
        else:
            assert v == 0, (f, rel, x)


class TestFourierMotzkin:
    def test_simple_box(self):
        cons = [((0, 1, 0), "ge"), ((1, -1, 0), "ge"), ((0, 0, 1), "gt"), ((2, 0, -1), "gt")]
        assert oracle_feasible(cons, 2)

    def test_strict_empty_interval(self):
        # x > 1 and x < 1
        cons = [((-1, 1), "gt"), ((1, -1), "gt")]
        assert not oracle_feasible(cons, 1)

    def test_strict_vs_nonstrict_point(self):
        # x ≥ 1 and x ≤ 1 is the point {1}; adding x > 1 kills it
        cons = [((-1, 1), "ge"), ((1, -1), "ge")]
        assert oracle_feasible(cons, 1)
        assert not oracle_feasible(cons + [((-1, 1), "gt")], 1)

    def test_equality_substitution(self):
        # x + y = 2, x − y = 0 → x = y = 1; x > 0 compatible, x > 1 not
        cons = [((-2, 1, 1), "eq"), ((0, 1, -1), "eq"), ((0, 1, 0), "gt")]
        assert oracle_feasible(cons, 2)
        assert not oracle_feasible(cons + [((-1, 1, 0), "gt")], 2)

    def test_inconsistent_equalities(self):
        cons = [((-2, 1, 1), "eq"), ((-3, 1, 1), "eq")]
        assert not oracle_feasible(cons, 2)

    def test_constant_contradiction(self):
        assert not oracle_feasible([((-1, 0, 0), "ge")], 2)
        assert not oracle_feasible([((0, 0), "gt")], 1)
        assert oracle_feasible([((0, 0), "ge")], 1)

    def test_unbounded_side(self):
        # only lower bounds
        cons = [((-5, 1, 0), "gt"), ((-5, 0, 1), "ge")]
        assert oracle_feasible(cons, 2)

    def test_three_vars_chain(self):
        # 0 < x < y < z < 1, and with z < 0 instead the chain is empty
        cons = [
            ((0, 1, 0, 0), "gt"),
            ((0, -1, 1, 0), "gt"),
            ((0, 0, -1, 1), "gt"),
        ]
        assert oracle_feasible(cons + [((1, 0, 0, -1), "gt")], 3)
        assert not oracle_feasible(cons + [((0, 0, 0, -1), "gt")], 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            oracle_feasible([((1, 2), "ge")], 2)

    def test_random_systems_witness_validity(self):
        # the simplex decides the same systems: maximize a slack t ≤ 1 that
        # every strict row must exceed; the system is feasible iff the
        # optimum has t > 0, and then the optimal point is a witness
        rng = random.Random(20260816)
        n_feasible = 0
        for _ in range(120):
            d = rng.randint(1, 4)
            cons = []
            for _ in range(rng.randint(1, 6)):
                f = tuple(Fraction(rng.randint(-4, 4)) for _ in range(d + 1))
                if all(a == 0 for a in f[1:]):
                    continue
                cons.append((f, rng.choice(["gt", "ge", "eq"])))
            lifted = [
                (f + (-1,), "ge") if rel == "gt" else (f + (0,), rel) for f, rel in cons
            ]
            lifted.append(((1,) + (0,) * d + (-1,), "ge"))
            res = minimize((0,) * (d + 1) + (-1,), lifted, d + 1)
            feasible = res[0] == "optimal" and res[1] < 0
            assert oracle_feasible(cons, d) == feasible, (cons, res)
            if feasible:
                n_feasible += 1
                check_witness(cons, d, res[2][:d])
        assert n_feasible > 20  # sanity: a decent share is feasible


class TestSimplex:
    def test_basic_lp(self):
        # min x + y s.t. x ≥ 1, y ≥ 2 → 3 at (1,2)
        cons = [((-1, 1, 0), "ge"), ((-2, 0, 1), "ge")]
        status, value, point = minimize((0, 1, 1), cons, 2)
        assert status == "optimal"
        assert value == 3
        assert point == [Fraction(1), Fraction(2)]

    def test_negative_coordinates(self):
        # min x s.t. x ≥ −5 → −5 (free variable splitting must allow negatives)
        status, value, point = minimize((0, 1), [((5, 1), "ge")], 1)
        assert status == "optimal" and value == -5 and point == [Fraction(-5)]

    def test_unbounded(self):
        assert minimize((0, -1), [((0, 1), "ge")], 1) == ("unbounded",)

    def test_infeasible(self):
        cons = [((-1, 1), "ge"), ((0, -1), "ge")]  # x ≥ 1 and x ≤ 0
        assert minimize((0, 1), cons, 1) == ("infeasible",)

    def test_equality_constraints(self):
        # min x − y s.t. x + y = 4, x − y ≥ 0, y ≥ 0 → at (2,2) value 0
        cons = [((-4, 1, 1), "eq"), ((0, 1, -1), "ge"), ((0, 0, 1), "ge")]
        status, value, point = minimize((0, 1, -1), cons, 2)
        assert status == "optimal" and value == 0
        assert point == [Fraction(2), Fraction(2)]

    def test_fractional_optimum(self):
        # min y s.t. y ≥ x/2 + 1/3, y ≥ −x + 1, meet at x = 2/3·(1−1/3)… solve:
        # x/2 + 1/3 = −x + 1 → 3x/2 = 2/3 → x = 4/9, y = 5/9
        cons = [
            ((Fraction(-1, 3), Fraction(-1, 2), 1), "ge"),
            ((-1, 1, 1), "ge"),
        ]
        status, value, point = minimize((0, 0, 1), cons, 2)
        assert status == "optimal"
        assert value == Fraction(5, 9)

    def test_rejects_strict(self):
        with pytest.raises(ValueError):
            minimize((0, 1), [((0, 1), "gt")], 1)

    def test_degenerate_redundant_rows(self):
        # duplicated constraints should not break phase-1 artificial removal
        cons = [((-1, 1, 0), "eq"), ((-1, 1, 0), "eq"), ((0, 0, 1), "ge")]
        status, value, point = minimize((0, 1, 1), cons, 2)
        assert status == "optimal" and value == 1 and point[0] == 1

    def test_agrees_with_fm_on_feasibility(self):
        rng = random.Random(7)
        for _ in range(80):
            d = rng.randint(1, 3)
            cons = []
            for _ in range(rng.randint(1, 5)):
                f = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d + 1))
                if all(a == 0 for a in f[1:]):
                    continue
                cons.append((f, rng.choice(["ge", "eq"])))
            fm = oracle_feasible(cons, d)
            lp = minimize((0,) + (0,) * d, cons, d)
            assert fm == (lp[0] == "optimal"), (cons, fm, lp)

    def test_minimum_is_true_minimum(self):
        rng = random.Random(99)
        for _ in range(40):
            d = rng.randint(1, 3)
            cons = [((8,) + tuple(Fraction(0) for _ in range(d)), "ge")]
            # bounded box plus random cuts
            for i in range(1, d + 1):
                lo = [Fraction(4)] + [Fraction(0)] * d
                hi = [Fraction(4)] + [Fraction(0)] * d
                lo[i] = Fraction(1)
                hi[i] = Fraction(-1)
                cons += [(tuple(lo), "ge"), (tuple(hi), "ge")]
            for _ in range(rng.randint(0, 3)):
                f = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d + 1))
                cons.append((f, "ge"))
            obj = (Fraction(0),) + tuple(
                Fraction(rng.randint(-3, 3)) for _ in range(d)
            )
            res = minimize(obj, cons, d)
            if res[0] != "optimal":
                continue
            _, value, point = res
            check_witness(cons, d, point)
            # no random rational point in the region does better
            for _ in range(60):
                cand = [Fraction(rng.randint(-40, 40), 10) for _ in range(d)]
                ok = all(
                    affine_eval(f, cand) >= 0 if rel == "ge" else affine_eval(f, cand) == 0
                    for f, rel in cons
                )
                if ok:
                    assert affine_eval(obj, cand) >= value
