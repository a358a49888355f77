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

All coordinates are exact rationals.  Hyperplanes are stored canonically:
integer coefficients with gcd 1 and a positive leading linear coefficient,
so that equal point sets have equal representations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import itemgetter

from .core import rational

# ---------------------------------------------------------------------------
# Hyperplanes
# ---------------------------------------------------------------------------


def canonicalize(coeffs) -> tuple:
    """Canonical form of the hyperplane a_0 + a_1·x_1 + … + a_d·x_d = 0.

    Scales to coprime integers with the first nonzero linear coefficient
    positive.  Rejects functionals with an all-zero linear part (they are
    not hyperplanes).
    """
    coeffs = tuple(rational(a) for a in coeffs)
    if all(a == 0 for a in coeffs[1:]):
        raise ValueError("hyperplane has all-zero linear part")
    scale = reduce(math.lcm, (a.denominator for a in coeffs), 1)
    ints = [int(a * scale) for a in coeffs]
    g = reduce(math.gcd, ints)
    first = next(i for i in range(1, len(ints)) if ints[i] != 0)
    if ints[first] < 0:
        g = -g
    return tuple(Fraction(v, g) for v in ints)


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
    contributes the projection of its intersection.  ``make_arrangement``
    canonicalizes the candidates and drops duplicates.
    """
    candidates = [h[:i] for h in planes if h[i] == 0]
    nonvertical = [h for h in planes if h[i] != 0]
    for h1, h2 in itertools.combinations(nonvertical, 2):
        lam = h1[i] / h2[i]
        if all(h1[j] == lam * h2[j] for j in range(1, i)):
            continue  # parallel: proportional linear parts, empty intersection
        candidates.append(tuple(h1[j] - lam * h2[j] for j in range(i)))
    return make_arrangement(i - 1, candidates).hyperplanes


def mapping_value(h, y) -> Fraction:
    """Height of the non-vertical hyperplane h over the point y of R^{i-1}."""
    i = len(h) - 1
    if h[i] == 0:
        raise ValueError("vertical hyperplane has no section mapping")
    total = h[0]
    for a, v in zip(h[1 : i], y):
        total += a * v
    return -total / h[i]


# ---------------------------------------------------------------------------
# Cells and decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One cell of a decomposition.

    ``id`` is the path of stack indices from the origin; ``lower``/``upper``
    are the delineating hyperplanes (None encodes −∞/+∞ for unbounded
    sectors; sections carry the same plane on both sides).  ``sample`` lies
    strictly inside the cell.
    """

    id: tuple
    level: int
    kind: str  # 'origin' | 'sector' | 'section'
    base: tuple | None
    lower: tuple | None
    upper: tuple | None
    sample: tuple


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


def _stack_elements(planes_nonvertical, base_sample):
    """The alternating sector/section stack over one base cell.

    Returns (stack, sections): ``stack`` holds (kind, lower, upper,
    sample_extension) tuples in bottom-up order, and ``sections[j]`` is the
    stack index of the section of ``planes_nonvertical[j]``.  Mappings equal
    at the base sample are equal over the whole base cell (delineability),
    so grouping by sample value is exact.
    """
    groups = {}
    for j, h in enumerate(planes_nonvertical):
        groups.setdefault(mapping_value(h, base_sample), []).append(j)
    sections = [0] * len(planes_nonvertical)
    stack = []
    below = prev = None
    for v, members in sorted(groups.items(), key=itemgetter(0)):
        plane = planes_nonvertical[members[0]]
        stack.append(("sector", below, plane, v - 1 if prev is None else (prev + v) / 2))
        for j in members:
            sections[j] = len(stack)
        stack.append(("section", plane, plane, v))
        below, prev = plane, v
    stack.append(("sector", below, None, Fraction(0) if prev is None else prev + 1))
    return stack, tuple(sections)


def build_cd(arr: Arrangement, restrict=None) -> CellDecomposition:
    """Affine cylindrical decomposition of R^{arr.d} adapted to ``arr``.

    ``restrict(level, sample)`` may prune cells (with their whole towers)
    during construction when the caller only needs the part of space where
    the predicate holds; pruning never alters surviving cells.  Ordering a
    stack places every pool plane's section in it, so the section indices
    are kept per base cell and every cell's signs on the pool planes can
    later be read without arithmetic (``plane_sign``).
    """
    d = arr.d
    pools = {d: arr.hyperplanes}
    for i in range(d, 1, -1):
        pools[i - 1] = _project_planes(pools[i], i)

    origin = Cell(id=(), level=0, kind="origin", base=None, lower=None, upper=None, sample=())
    levels = [(origin,)]
    sections = {}
    for i in range(1, d + 1):
        nonvertical = [h for h in pools[i] if h[i] != 0]
        new = []
        for base in levels[i - 1]:
            stack, sections[base.id] = _stack_elements(nonvertical, base.sample)
            for k, (kind, lo, hi, t) in enumerate(stack):
                sample = base.sample + (t,)
                if restrict is not None and not restrict(i, sample):
                    continue
                new.append(
                    Cell(
                        id=base.id + (k,),
                        level=i,
                        kind=kind,
                        base=base.id,
                        lower=lo,
                        upper=hi,
                        sample=sample,
                    )
                )
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
