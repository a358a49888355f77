"""Hyperplane arrangements and affine cylindrical cell decompositions.

An arrangement of hyperplanes in R^d is decomposed into a finite partition
of cells organised level by level: level-0 holds the single origin cell
(the empty point of R^0); a level-i cell is a *section* (the graph of one
affine mapping over a base cell of level i−1) or a *sector* (the open slab
between two consecutive such graphs, or an unbounded slab beyond the first
or last one).  The decomposition is built by first projecting the
arrangement down dimension by dimension — adding, for every pair of
non-parallel non-vertical planes, the projection of their intersection —
and then stacking cells upward.  Projection guarantees delineability: over
any base cell, the mappings induced by the level's planes never cross, so
ordering them at the base cell's sample point orders them over the whole
cell, and a cell's place in that order fixes its sign on every plane.
Checks that a decomposition is adapted to its arrangement (membership,
sign constancy inside cells, one cell per level for every point) live with
the test oracles, which compute section heights from the cells alone.

All coordinates are exact, and the decomposition computes them in
integers.  Hyperplanes are stored canonically as tuples of Python ``int``:
coprime coefficients with a positive leading linear coefficient, so that
equal point sets have equal representations.  Int and ``Fraction`` tuples
of equal value compare and hash equal, so a plane may be looked up in any
exact form.  A cell's sample point is stored in homogeneous coordinates:
integer numerators over one common positive denominator, which grows by
the factor 2·unit per level (``unit`` being the lcm of the level's
coefficients on its last coordinate) and is never reduced.  Projection
combines two planes as h2[i]·h1 − h1[i]·h2, and a stack is ordered by the
integer heights of its sections over the base sample's denominator
(``_stack_elements``), which order and group exactly as the rational
heights do.  ``Cell.sample`` reads a sample as reduced ``Fraction``s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .core import rational

# ---------------------------------------------------------------------------
# Hyperplanes
# ---------------------------------------------------------------------------


def canonicalize(coeffs) -> tuple:
    """Canonical form of the hyperplane a_0 + a_1·x_1 + … + a_d·x_d = 0.

    Scales to coprime Python ``int``s with the first nonzero linear
    coefficient positive.  Rejects functionals with an all-zero linear part
    (they are not hyperplanes).
    """
    coeffs = tuple(coeffs)
    if not all(type(a) is int for a in coeffs):
        qs = [rational(a) for a in coeffs]
        scale = math.lcm(*(q.denominator for q in qs))
        coeffs = tuple(q.numerator * (scale // q.denominator) for q in qs)
    first = next((a for a in coeffs[1:] if a != 0), None)
    if first is None:
        raise ValueError("hyperplane has all-zero linear part")
    g = math.gcd(*coeffs)
    if first < 0:
        g = -g
    return tuple(a // g for a in coeffs)


@dataclass(frozen=True)
class Arrangement:
    """A finite set of canonical hyperplanes in R^d (first-appearance order)."""

    d: int
    hyperplanes: tuple


def make_arrangement(d: int, planes) -> Arrangement:
    if d < 1:
        raise ValueError("arrangement dimension must be at least 1")
    seen = set()
    out = []
    for h in planes:
        h = canonicalize(h)
        if len(h) != d + 1:
            raise ValueError(f"hyperplane of wrong dimension for R^{d}: {h}")
        if h not in seen:
            seen.add(h)
            out.append(h)
    return Arrangement(d=d, hyperplanes=tuple(out))


def _project_planes(planes, i: int):
    """Planes in R^{i-1} whose union covers all boundary interactions.

    Vertical planes (zero coefficient on x_i) descend unchanged minus the
    dropped coordinate; every non-parallel pair of non-vertical planes
    contributes the projection of its intersection, h2[i]·h1 − h1[i]·h2,
    formed in integers.  A pair is parallel exactly when that combination's
    linear part vanishes.  ``make_arrangement`` canonicalizes the candidates
    and drops duplicates.
    """
    candidates = [h[:i] for h in planes if h[i] == 0]
    nonvertical = [h for h in planes if h[i] != 0]
    for h1, h2 in itertools.combinations(nonvertical, 2):
        a, b = h2[i], h1[i]
        row = tuple(a * u - b * v for u, v in zip(h1[:i], h2[:i]))
        if any(row[1:]):  # else parallel: empty intersection
            candidates.append(row)
    return make_arrangement(i - 1, candidates).hyperplanes


def mapping_value(h, y) -> Fraction:
    """Height of the non-vertical hyperplane h over the point y of R^{i-1}."""
    i = len(h) - 1
    if h[i] == 0:
        raise ValueError("vertical hyperplane has no section mapping")
    total = h[0]
    for a, v in zip(h[1 : i], y):
        total += a * v
    return Fraction(-total, h[i])


# ---------------------------------------------------------------------------
# Cells and decompositions
# ---------------------------------------------------------------------------


class Cell(NamedTuple):
    """One cell of a decomposition.

    ``id`` is the path of stack indices from the origin; ``lower``/``upper``
    are the delineating hyperplanes (None encodes −∞/+∞ for unbounded
    sectors; sections carry the same plane on both sides).  The cell's
    sample point lies strictly inside it and is stored in homogeneous
    integer coordinates: ``num[k]/den`` is its k-th coordinate, with one
    common positive denominator ``den`` that need not be the least one.
    ``sample`` is the same point as a tuple of reduced ``Fraction``s,
    computed when read.
    """

    id: tuple
    level: int
    kind: str  # 'origin' | 'sector' | 'section'
    base: tuple | None
    lower: tuple | None
    upper: tuple | None
    num: tuple
    den: int

    @property
    def sample(self) -> tuple:
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)


@dataclass(frozen=True)
class CellDecomposition:
    """The cells of every level and the plane pools they are adapted to.

    ``sections[b][j]`` is the stack index, over base cell b of level i−1, of
    the section of the j-th non-vertical plane of ``pools[i]``.
    """

    d: int
    pools: dict  # level i (1..d) → tuple of canonical hyperplanes of A_i
    levels: tuple  # levels[i] = tuple of level-i cells in construction order
    index: dict  # cell id → Cell
    sections: dict  # base cell id → section stack index per non-vertical plane

    def cells(self, level: int):
        return self.levels[level]


def _stack_elements(planes_nonvertical, scaled, unit, num, den):
    """The alternating sector/section stack over one base cell.

    The base sample is given as integer numerators ``num`` over the positive
    denominator ``den``.  Returns (stack, sections): ``stack`` holds (kind,
    lower, upper, height) tuples in bottom-up order, each height an integer
    over 2·unit·den, and ``sections[j]`` is the stack index of the section
    of ``planes_nonvertical[j]``.

    Plane j's section lies at H_j/(unit·den), where H_j = g_0·den + Σ g_k·n_k
    and g = ``scaled[j]`` is the plane times −unit/h_j[i] (an integer, as
    ``unit`` is the lcm of the planes' coefficients on x_i).  Since unit·den
    is positive, the keys H_j order and group the sections exactly as their
    rational heights do, and mappings equal at the base sample are equal
    over the whole base cell (delineability), so grouping by the keys is
    exact.  Sectors sit midway between consecutive sections, or one unit
    beyond the outermost; doubling the denominator keeps midpoints integral.
    """
    groups = {}
    for j, g in enumerate(scaled):
        key = g[0] * den
        for a, n in zip(g[1:], num):
            key += a * n
        groups.setdefault(key, []).append(j)
    common = unit * den
    sections = [0] * len(scaled)
    stack = []
    below = prev = None
    for key, members in sorted(groups.items(), key=itemgetter(0)):
        plane = planes_nonvertical[members[0]]
        stack.append(("sector", below, plane, 2 * (key - common) if prev is None else prev + key))
        for j in members:
            sections[j] = len(stack)
        stack.append(("section", plane, plane, 2 * key))
        below, prev = plane, key
    stack.append(("sector", below, None, 0 if prev is None else 2 * (prev + common)))
    return stack, tuple(sections)


def build_cd(arr: Arrangement, restrict=None) -> CellDecomposition:
    """Affine cylindrical decomposition of R^{arr.d} adapted to ``arr``.

    ``restrict(level, sample)`` may prune cells (with their whole towers)
    during construction when the caller only needs the part of space where
    the predicate holds; it gets each candidate cell's level and ``sample``,
    and pruning never alters surviving cells.  Ordering a
    stack places every pool plane's section in it, so the section indices
    are kept per base cell and every cell's signs on the pool planes can
    later be read without arithmetic (``plane_sign``).
    """
    d = arr.d
    pools = {d: arr.hyperplanes}
    for i in range(d, 1, -1):
        pools[i - 1] = _project_planes(pools[i], i)

    origin = Cell((), 0, "origin", None, None, None, (), 1)
    levels = [(origin,)]
    sections = {}
    for i in range(1, d + 1):
        nonvertical = [h for h in pools[i] if h[i] != 0]
        unit = math.lcm(*(h[i] for h in nonvertical))
        scaled = [tuple(-a * (unit // h[i]) for a in h[:i]) for h in nonvertical]
        new = []
        for base in levels[i - 1]:
            cid, num = base.id, base.num
            stack, sections[cid] = _stack_elements(nonvertical, scaled, unit, num, base.den)
            den = 2 * unit * base.den
            prefix = tuple(2 * unit * n for n in num)
            if restrict is not None:
                base_sample = base.sample
            for k, (kind, lo, hi, t) in enumerate(stack):
                if restrict is not None and not restrict(i, base_sample + (Fraction(t, den),)):
                    continue
                new.append(Cell(cid + (k,), i, kind, cid, lo, hi, prefix + (t,), den))
        levels.append(tuple(new))
    index = {c.id: c for level in levels for c in level}
    return CellDecomposition(
        d=d, pools=pools, levels=tuple(levels), index=index, sections=sections
    )


def cd_stats(cd: CellDecomposition) -> dict:
    return {
        "dimension": cd.d,
        "cells_per_level": [len(cd.levels[i]) for i in range(cd.d + 1)],
        "pool_sizes": {i: len(cd.pools[i]) for i in sorted(cd.pools)},
        "total_cells": sum(len(lv) for lv in cd.levels),
    }


# ---------------------------------------------------------------------------
# Cell queries
# ---------------------------------------------------------------------------


def plane_sign(cd: CellDecomposition, coeffs):
    """The sign of a pool hyperplane on the cells of its level.

    ``coeffs`` (a_0..a_i, not necessarily canonical) must be a plane of the
    decomposition's pool at level i.  Returns a function from the id of a
    level-i cell to −1, 0 or 1: the sign of a_0 + a_1·x_1 + … + a_i·x_i on
    that cell, read from the stack over the cell's base.  A non-vertical
    plane's sign compares the cell's stack index with the index of the
    plane's section; a vertical plane takes the sign of its truncation
    a_0..a_{i−1}, which projection puts in the pool one level down.
    """
    i = len(coeffs) - 1
    pool = cd.pools.get(i, ())
    canon = coeffs if coeffs in pool else canonicalize(coeffs)
    if canon not in pool:
        raise ValueError(
            f"hyperplane is not in the decomposition's pool at level {i}: "
            "the decomposition is not compatible with it"
        )
    if coeffs[i] == 0:
        below = plane_sign(cd, coeffs[:i])
        return lambda cid: below(cid[:-1])
    j = [h for h in pool if h[i] != 0].index(canon)
    up = 1 if coeffs[i] > 0 else -1
    sections = cd.sections

    def sign(cid):
        k, s = cid[-1], sections[cid[:-1]][j]
        return up if k > s else -up if k < s else 0

    return sign
