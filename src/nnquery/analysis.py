"""Quantitative analyses of piecewise-linear network functions.

Everything here reduces to the exact geometric pipeline.  Integration lifts
the function's graph into one extra dimension with ``pwl.lift_graph``,
decomposes the region between the graph and zero cylindrically, reads each
cell's side of the graph and of zero from the stacks, triangulates the
full-dimensional cells and sums signed simplex volumes.  A cell is
triangulated as the staircase over its base cell's triangulation: the
region between the cell's affine lower and upper mappings over each base
simplex splits into one simplex per base corner where the two mappings
differ, with no search and no degenerate candidate.  A one-input function
is read as its list of affine pieces instead: its integral sums one
trapezoid per piece, and feature contribution scans the pieces of the
restriction to one input.  Shapley values are factorial-weighted
differences of box expectations computed from restrictions and integrals.
Robustness is a closed first-order sentence handed to the query engine, and
counterfactuals minimize a linearizable distance over selected-cell closures
with an exact simplex method.  All arithmetic is rational; no value in this
module is ever rounded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import rational
from .geometry import build_cd, make_arrangement, mapping_value, plane_sign
from .linprog import minimize, scaled_eval
from .network import Network
from .pwl import (
    PwlFunction,
    graph_sign,
    lift_graph,
    pwl_eval,
    pwl_from_network,
    pwl_restrict,
    value_gap,
)
from .query import (
    build_query_arrangement,
    evaluate_query,
    normalize_ordered_prenex,
    parse_query,
    select_cells_qfree,
)

__all__ = [
    "Box",
    "Simplex",
    "simplex_volume",
    "triangulate_cell",
    "integrate_box",
    "shap",
    "robustness_check",
    "counterfactual_explain",
    "feature_contribution",
]


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned product of non-degenerate closed intervals."""

    intervals: tuple  # ((lo_1, hi_1), …, (lo_m, hi_m)) with lo_i < hi_i

    def __post_init__(self):
        iv = tuple((rational(lo), rational(hi)) for lo, hi in self.intervals)
        if not iv:
            raise ValueError("box must have at least one interval")
        for lo, hi in iv:
            if not lo < hi:
                raise ValueError(f"degenerate box interval [{lo}, {hi}]")
        object.__setattr__(self, "intervals", iv)

    @property
    def dim(self) -> int:
        return len(self.intervals)

    @property
    def volume(self) -> Fraction:
        v = Fraction(1)
        for lo, hi in self.intervals:
            v *= hi - lo
        return v

    def contains(self, x) -> bool:
        """Closed containment of a point with one coordinate per interval."""
        if len(x) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(x)}")
        return all(
            lo <= rational(v) <= hi for v, (lo, hi) in zip(x, self.intervals)
        )


@dataclass(frozen=True)
class Simplex:
    """n+1 corner points in R^n.  Corners may be degenerate (zero volume);
    ``triangulate_cell`` never emits such simplices."""

    corners: tuple

    def __post_init__(self):
        pts = tuple(tuple(rational(v) for v in p) for p in self.corners)
        if len(pts) < 2:
            raise ValueError("a simplex needs at least two corners")
        n = len(pts) - 1
        for p in pts:
            if len(p) != n:
                raise ValueError(
                    f"a simplex on {n + 1} corners lives in R^{n}; "
                    f"got a corner of length {len(p)}"
                )
        object.__setattr__(self, "corners", pts)

    @property
    def dim(self) -> int:
        return len(self.corners) - 1


# ---------------------------------------------------------------------------
# Simplex volume
# ---------------------------------------------------------------------------


def _det(rows) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination; exact on rationals."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [list(r) for r in rows]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def simplex_volume(s: Simplex) -> Fraction:
    """Euclidean volume |det(v_1−v_{n+1}, …, v_n−v_{n+1})| / n!."""
    n = s.dim
    last = s.corners[-1]
    rows = [
        [a - b for a, b in zip(p, last)] for p in s.corners[:-1]
    ]
    return abs(_det(rows)) / math.factorial(n)


# ---------------------------------------------------------------------------
# Cell triangulation
# ---------------------------------------------------------------------------


def _staircase(cd, cell):
    """Corner tuples of the cell's triangulation; one 0-simplex at level 0."""
    if cell.level == 0:
        return [((),)]
    if cell.lower is None or cell.upper is None:
        raise ValueError("unbounded cell has no triangulation")
    out = []
    for base in _staircase(cd, cd.index[cell.base]):
        lo = [v + (mapping_value(cell.lower, v),) for v in base]
        hi = [v + (mapping_value(cell.upper, v),) for v in base]
        for i in range(len(base)):
            if hi[i][-1] > lo[i][-1]:
                out.append((*lo[: i + 1], *hi[i:]))
    return out


def triangulate_cell(cd, cell):
    """Triangulate a bounded cell into simplices with disjoint interiors.

    The staircase over the base cell's triangulation: for each base simplex
    with corners v_0..v_{k-1}, the cell's lower and upper mappings L and U
    are affine over the whole base (delineability), and the region between
    them is tiled by conv(L(v_0..v_i), U(v_i..v_{k-1})) for i = 0..k-1.
    Shearing by L keeps volume, so the i-th piece has volume
    vol(base simplex)·(U − L)(v_i)/k and is degenerate exactly when
    U(v_i) = L(v_i); only the pieces with U(v_i) > L(v_i) are emitted.
    Sections and cells over a section therefore yield no simplex.  Raises
    ValueError for unbounded cells.
    """
    if cell.level == 0:
        return []
    return [Simplex(corners=c) for c in _staircase(cd, cell)]


# ---------------------------------------------------------------------------
# Exact integration over a box
# ---------------------------------------------------------------------------


def _as_pwl(subject) -> PwlFunction:
    if isinstance(subject, PwlFunction):
        return subject
    if isinstance(subject, Network):
        return pwl_from_network(subject)
    raise TypeError("subject must be a Network or a PwlFunction")


def _pieces_1d(g: PwlFunction):
    """The affine pieces of a one-input function, left to right: (lo, hi, β,
    α) with g(t) = β + α·t on the open interval (lo, hi), where None is an
    infinite end.  Consecutive pieces meet at g's breakpoints."""
    ends = [None, *sorted({Fraction(-h[0], h[1]) for h in g.breakplanes}), None]
    pieces = []
    for lo, hi in zip(ends, ends[1:]):
        if lo is None:
            sample = Fraction(0) if hi is None else hi - 1
        else:
            sample = lo + 1 if hi is None else (lo + hi) / 2
        pieces.append((lo, hi, *g.component_at((sample,))))
    return pieces


def _integrate_trapezoid(f: PwlFunction, lo: Fraction, hi: Fraction) -> Fraction:
    """1-D integral: each piece (β, α) contributes (y − x)(β + α(x + y)/2)
    over its part [x, y] of [lo, hi]."""
    total = Fraction(0)
    for a, b, beta, alpha in _pieces_1d(f):
        x = lo if a is None else max(a, lo)
        y = hi if b is None else min(b, hi)
        if x < y:
            total += (y - x) * (beta + alpha * (x + y) / 2)
    return total


def _all_sector_chain(cd, cell) -> bool:
    cur = cell
    while cur.level > 0:
        if cur.kind != "sector":
            return False
        cur = cd.index[cur.base]
    return True


def _integrate_cells(f: PwlFunction, box: Box) -> Fraction:
    """General pipeline: decompose the region between graph and zero.

    The arrangement in R^{m+1} holds F's graph over the value axis z
    (``lift_graph`` of ``value_gap(f)``), the box's facet hyperplanes, and
    the hyperplane z = 0.  Towers over base cells outside the open box are
    pruned during construction — the facet hyperplanes are part of the
    arrangement, so each cell lies strictly inside or strictly outside and
    the sample point decides exactly.  A surviving full-dimensional cell
    (all-sector chain) adds its triangulated volume times s = ±1 exactly
    when its side of the graph (``graph_sign``) and the sign of z on it are
    both s: it lies between zero and a positive graph (s = 1) or a negative
    graph and zero (s = −1).
    """
    m = f.m
    d = m + 1
    gap_fn, args = value_gap(f), tuple(range(1, d + 1))
    planes = lift_graph(gap_fn, args, d)
    for i, (lo, hi) in enumerate(box.intervals, start=1):
        for end in (lo, hi):
            facet = [Fraction(0)] * (d + 1)
            facet[0], facet[i] = -end, Fraction(1)
            planes.append(tuple(facet))
    zero_axis = (Fraction(0),) * d + (Fraction(1),)
    planes.append(zero_axis)
    arr = make_arrangement(d, planes)

    def inside(level, sample):
        if level <= m:
            lo, hi = box.intervals[level - 1]
            return lo < sample[level - 1] < hi
        return True

    cd = build_cd(arr, restrict=inside)
    gap = graph_sign(cd, gap_fn, args)
    height = plane_sign(cd, zero_axis)

    total = Fraction(0)
    for cell in cd.cells(d):
        if not _all_sector_chain(cd, cell):
            continue
        sign = height(cell.id)
        if gap(cell.id) != sign:
            continue
        vol = sum(
            (simplex_volume(s) for s in triangulate_cell(cd, cell)),
            Fraction(0),
        )
        total += sign * vol
    return total


def integrate_box(f, box: Box, method: str = "auto") -> Fraction:
    """Exact integral of the function over the box.

    ``method`` selects the evaluation strategy: 'trapezoid' is the
    one-dimensional route (one trapezoid per affine piece), 'cells' the general
    decomposition pipeline, and 'auto' picks the former exactly when the
    function has one input.  Both routes are exact and agree.
    """
    f = _as_pwl(f)
    if box.dim != f.m:
        raise ValueError(
            f"box dimension {box.dim} does not match the function's {f.m} inputs"
        )
    if method == "auto":
        method = "trapezoid" if f.m == 1 else "cells"
    if method == "trapezoid":
        if f.m != 1:
            raise ValueError("the trapezoid route requires a one-input function")
        (lo, hi) = box.intervals[0]
        return _integrate_trapezoid(f, lo, hi)
    if method == "cells":
        return _integrate_cells(f, box)
    raise ValueError(f"unknown integration method: {method!r}")


# ---------------------------------------------------------------------------
# Shapley values under the uniform distribution on a box
# ---------------------------------------------------------------------------


def _expected_value(f: PwlFunction, box: Box, fixed_idx, y) -> Fraction:
    """E[F] with the coordinates in fixed_idx pinned to y, the rest uniform."""
    if len(fixed_idx) == f.m:
        return pwl_eval(f, y)
    g = pwl_restrict(f, {j: y[j - 1] for j in fixed_idx})
    remaining = [j for j in range(1, f.m + 1) if j not in fixed_idx]
    sub = Box(intervals=tuple(box.intervals[j - 1] for j in remaining))
    return integrate_box(g, sub) / sub.volume


def shap(subject, y, box: Box, i: int) -> Fraction:
    """Shapley value of input i at the point y, inputs uniform on the box.

    Averages, over all orderings of the inputs, the change in conditional
    expectation when input i's value is revealed: Σ_I |I|!(m−1−|I|)!/m! ·
    (E[F | I ∪ {i} fixed] − E[F | I fixed]) over coalitions I not containing
    i, with fixed coordinates pinned to y and free ones uniform on the box.
    """
    f = _as_pwl(subject)
    m = f.m
    y = tuple(rational(v) for v in y)
    if len(y) != m:
        raise ValueError(f"expected {m} coordinates, got {len(y)}")
    if box.dim != m:
        raise ValueError(
            f"box dimension {box.dim} does not match the function's {m} inputs"
        )
    if not box.contains(y):
        raise ValueError("the evaluation point must lie inside the box")
    if not 1 <= i <= m:
        raise ValueError(f"input index out of range: {i}")
    others = [j for j in range(1, m + 1) if j != i]
    total = Fraction(0)
    for size in range(m):
        weight = Fraction(
            math.factorial(size) * math.factorial(m - 1 - size), math.factorial(m)
        )
        for coalition in itertools.combinations(others, size):
            with_i = tuple(sorted(coalition + (i,)))
            gain = _expected_value(f, box, with_i, y) - _expected_value(
                f, box, coalition, y
            )
            total += weight * gain
    return total


# ---------------------------------------------------------------------------
# Robustness
# ---------------------------------------------------------------------------

_METRICS = ("linf", "l1")


def robustness_check(subject, a, eps, delta, metric: str = "linf") -> bool:
    """Decide ∀x (dist(x, a) < eps → |F(x) − F(a)| < delta) via the query
    engine.  F(a) is a fixed rational, so it enters the sentence as a
    precomputed parameter rather than a second function occurrence."""
    f = _as_pwl(subject)
    m = f.m
    a = tuple(rational(v) for v in a)
    if len(a) != m:
        raise ValueError(f"expected {m} coordinates, got {len(a)}")
    eps = rational(eps)
    delta = rational(delta)
    if eps <= 0 or delta <= 0:
        raise ValueError("eps and delta must be positive")
    if metric not in _METRICS:
        raise ValueError(f"unknown metric: {metric!r}")
    value_at_a = pwl_eval(f, a)

    xs = [f"x{j}" for j in range(1, m + 1)]
    anchors = [f"pa{j}" for j in range(1, m + 1)]
    params = {name: v for name, v in zip(anchors, a)}
    params.update({"pc": value_at_a, "peps": eps, "pdelta": delta})
    guard = f"dist_{metric}({', '.join(xs)}; {', '.join(anchors)}) < peps"
    bound = f"abs(F({', '.join(xs)}) - pc) < pdelta"
    prefix = " ".join(f"forall {x} ." for x in xs)
    sentence = f"{prefix} ({guard} -> {bound})"
    result = evaluate_query(f, sentence, parameters=params)
    return result.truth


# ---------------------------------------------------------------------------
# Counterfactual explanations
# ---------------------------------------------------------------------------


def _closure_constraints(cd, cell):
    """Non-strict linear constraints cutting out the cell's closure.

    A cell is exactly the set of points with its sign pattern over every
    pool hyperplane up to its level; the cell is a relatively open
    polyhedron, so weakening the strict signs to closures describes its
    topological closure.
    """
    d = cd.d
    num, den = cell.num, cell.den
    cons = []
    for lvl in range(1, cell.level + 1):
        for h in cd.pools[lvl]:
            v = scaled_eval(h, num, den)
            padded = h + (Fraction(0),) * (d - lvl)
            if v > 0:
                cons.append((padded, "ge"))
            elif v < 0:
                cons.append((tuple(-c for c in padded), "ge"))
            else:
                cons.append((padded, "eq"))
    return cons


def _distance_lp(cons_cell, d, m, a, metric):
    """Extend cell constraints with distance variables; return (constraints,
    objective, total variable count).  Distance variables follow the d cell
    coordinates: one bound t for linf, one t_j per input for l1."""
    n_t = 1 if metric == "linf" else m
    n_vars = d + n_t
    cons = [(c + (Fraction(0),) * n_t, rel) for c, rel in cons_cell]
    for j in range(1, m + 1):
        col = d + 1 if metric == "linf" else d + j
        for sign in (1, -1):
            row = [Fraction(0)] * (n_vars + 1)
            row[0] = sign * -a[j - 1]
            row[j] = sign * Fraction(1)
            row[col] = Fraction(1)
            cons.append((tuple(row), "ge"))
    objective = [Fraction(0)] * (n_vars + 1)
    for col in range(d + 1, n_vars + 1):
        objective[col] = Fraction(1)
    return cons, tuple(objective), n_vars


def counterfactual_explain(subject, a, threshold, box: Box, metric: str = "linf"):
    """Closest point of the region {F(x) > threshold} ∩ box to the point a.

    Selects the cells of the query F(x⃗) = z ∧ z > threshold restricted to
    the box, minimizes the distance over each cell's closure by exact linear
    programming, and returns (point, distance) for the global minimum, ties
    broken by the lexicographically smallest witness.  The witness is the
    closure minimizer: when the region is open the infimum distance is
    reported, and strict exceedance arbitrarily close to the witness is
    verified along the segment toward the cell's sample.  Raises ValueError
    when the region is empty within the box.
    """
    f = _as_pwl(subject)
    m = f.m
    a = tuple(rational(v) for v in a)
    if len(a) != m:
        raise ValueError(f"expected {m} coordinates, got {len(a)}")
    if box.dim != m:
        raise ValueError(
            f"box dimension {box.dim} does not match the function's {m} inputs"
        )
    if metric not in _METRICS:
        raise ValueError(f"unknown metric: {metric!r}")
    threshold = rational(threshold)

    xs = [f"x{j}" for j in range(1, m + 1)]
    params = {"pthr": threshold}
    parts = [f"F({', '.join(xs)}) = z", "z > pthr"]
    for j, (lo, hi) in enumerate(box.intervals, start=1):
        params[f"plo{j}"] = lo
        params[f"phi{j}"] = hi
        parts.append(f"x{j} >= plo{j}")
        parts.append(f"x{j} <= phi{j}")
    ast = parse_query(" and ".join(parts), m)
    q = normalize_ordered_prenex(ast, parameters=params, free_order=xs + ["z"])
    d = m + 1

    arr = build_query_arrangement(f, q)
    cd = build_cd(arr)
    selected = select_cells_qfree(cd, f, q.matrix)
    if not selected.ids:
        raise ValueError("no counterfactual in box")

    best = None  # (distance, cell ids achieving it)
    per_cell = []
    for cid in sorted(selected.ids):
        cell = cd.index[cid]
        cons_cell = _closure_constraints(cd, cell)
        cons, objective, n_vars = _distance_lp(cons_cell, d, m, a, metric)
        status = minimize(objective, cons, n_vars)
        if status[0] != "optimal":
            raise RuntimeError("cell closure distance LP must be solvable")
        per_cell.append((status[1], cell, cons, n_vars))
        if best is None or status[1] < best:
            best = status[1]

    witness = None
    witness_cell = None
    for dist, cell, cons, n_vars in per_cell:
        if dist != best:
            continue
        # Pin the distance, then minimize coordinates lexicographically.
        cap = [Fraction(0)] * (n_vars + 1)
        cap[0] = best
        for col in range(d + 1, n_vars + 1):
            cap[col] = Fraction(-1)
        cons = cons + [(tuple(cap), "ge")]
        point = []
        for j in range(1, m + 1):
            obj = [Fraction(0)] * (n_vars + 1)
            obj[j] = Fraction(1)
            status = minimize(tuple(obj), cons, n_vars)
            if status[0] != "optimal":
                raise RuntimeError("lexicographic refinement must be solvable")
            vj = status[1]
            point.append(vj)
            pin = [Fraction(0)] * (n_vars + 1)
            pin[0] = -vj
            pin[j] = Fraction(1)
            cons = cons + [(tuple(pin), "eq")]
        point = tuple(point)
        if witness is None or point < witness:
            witness = point
            witness_cell = cell

    # The witness sits on the cell's closure; confirm the strict region is
    # reached arbitrarily close to it along the segment toward the sample,
    # on which the function is affine.
    if pwl_eval(f, witness) <= threshold:
        sample_x = witness_cell.sample[:m]
        midpoint = tuple((w + s) / 2 for w, s in zip(witness, sample_x))
        if pwl_eval(f, midpoint) <= threshold:
            raise RuntimeError("selected cell must exceed the threshold near the witness")
    return witness, best


# ---------------------------------------------------------------------------
# Feature contribution
# ---------------------------------------------------------------------------


def feature_contribution(subject, a, i: int, eps):
    """Least r > 0 moving the output by more than eps when input i moves by r.

    Works on the one-dimensional restriction g with every other input pinned
    at a: the answer is the infimum of |t − a_i| over {t : |g(t) − g(a_i)| >
    eps}, found exactly by scanning g's affine pieces once — threshold
    crossings interior to a piece, plus breakpoints where the gap exceeds
    eps, or equals eps and an adjacent piece's slope makes it grow.  Returns
    None when the output never moves by more than eps.
    """
    f = _as_pwl(subject)
    m = f.m
    a = tuple(rational(v) for v in a)
    if len(a) != m:
        raise ValueError(f"expected {m} coordinates, got {len(a)}")
    if not 1 <= i <= m:
        raise ValueError(f"input index out of range: {i}")
    eps = rational(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")

    g = pwl_restrict(f, {j: a[j - 1] for j in range(1, m + 1) if j != i})
    t0 = a[i - 1]
    center = pwl_eval(g, (t0,))
    pieces = _pieces_1d(g)
    candidates = []

    # Threshold crossings strictly inside a piece: beyond the crossing the
    # gap exceeds eps within the same piece, so the crossing bounds the
    # satisfying set.
    for lo, hi, beta, alpha in pieces:
        for target in (center + eps, center - eps) if alpha else ():
            root = (target - beta) / alpha
            if (lo is None or lo < root) and (hi is None or root < hi):
                candidates.append(abs(root - t0))

    # Breakpoints: the bound may be exceeded at the knot itself, or attained
    # there and exceeded immediately beyond, where the left piece's slope
    # or the right piece's makes the gap grow.
    for (_lo, k, beta, left), (_k, _hi, _beta, right) in zip(pieces, pieces[1:]):
        gap = beta + left * k - center
        if abs(gap) > eps or (abs(gap) == eps and (left * gap < 0 or right * gap > 0)):
            candidates.append(abs(k - t0))

    if not candidates:
        return None
    return min(candidates)
