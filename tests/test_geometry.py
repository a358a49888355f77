"""Tests for arrangements, projection, and cylindrical cell decompositions."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from nnquery.geometry import (
    Arrangement,
    build_cd,
    canonicalize,
    cd_stats,
    make_arrangement,
    mapping_value,
    plane_sign,
)
from nnquery.linprog import affine_eval

from oracles import (
    oracle_cell_contains,
    oracle_interior_points,
    oracle_locate,
    oracle_sign_constant,
    oracle_sign_vectors,
)


def rational_cd(arr, restrict=None):
    """Reference decomposition by the rational route: pools projected with
    the quotient h1[i]/h2[i], and each stack ordered by the ``Fraction``
    heights ``mapping_value`` at its base sample.  Returns the pools, the
    cells of each level as (id, kind, lower, upper, sample) in construction
    order, and the section indices per base cell."""
    pools = {arr.d: arr.hyperplanes}
    for i in range(arr.d, 1, -1):
        candidates = [h[:i] for h in pools[i] if h[i] == 0]
        nonvertical = [h for h in pools[i] if h[i] != 0]
        for h1, h2 in itertools.combinations(nonvertical, 2):
            lam = Fraction(h1[i], h2[i])
            if any(h1[j] != lam * h2[j] for j in range(1, i)):
                candidates.append(tuple(h1[j] - lam * h2[j] for j in range(i)))
        pools[i - 1] = make_arrangement(i - 1, candidates).hyperplanes
    levels = [[((), "origin", None, None, ())]]
    sections = {}
    for i in range(1, arr.d + 1):
        nonvertical = [h for h in pools[i] if h[i] != 0]
        new = []
        for cid, _kind, _lo, _hi, y in levels[-1]:
            heights = [mapping_value(h, y) for h in nonvertical]
            values = sorted(set(heights))
            sections[cid] = tuple(2 * values.index(v) + 1 for v in heights)
            stack, below, prev = [], None, None
            for v in values:
                plane = nonvertical[heights.index(v)]
                stack.append(("sector", below, plane, v - 1 if prev is None else (prev + v) / 2))
                stack.append(("section", plane, plane, v))
                below, prev = plane, v
            stack.append(("sector", below, None, Fraction(0) if prev is None else prev + 1))
            for k, (kind, lo, hi, t) in enumerate(stack):
                if restrict is None or restrict(i, y + (t,)):
                    new.append((cid + (k,), kind, lo, hi, y + (t,)))
        levels.append(new)
    return pools, levels, sections


def F(*args):
    return tuple(Fraction(a) for a in args)


def sign_at(h, p):
    v = affine_eval(h, p)
    return "+" if v > 0 else "-" if v < 0 else "0"


def random_arrangements(seed, n=60):
    """``n`` random (arrangement, restrict) pairs in R^1..R^3 with rational
    inputs, vertical planes, planes concurrent through one hub point (so
    that sections coincide over a base cell) and, in every fourth pair, a
    pruning predicate; restrict is None otherwise."""
    rng = random.Random(seed)
    for trial in range(n):
        d = 1 + trial % 3
        hub = [Fraction(rng.randint(-4, 4), 2) for _ in range(d)]
        planes = []
        for _ in range(rng.randint(1, 5)):
            lin = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
            kind = rng.random()
            if d > 1 and kind < 0.3:
                lin[-1] = Fraction(0)
            if all(a == 0 for a in lin):
                lin[rng.randrange(d)] = Fraction(1)
            if kind > 0.55:  # through the hub
                const = -sum(a * x for a, x in zip(lin, hub))
            else:
                const = Fraction(rng.randint(-3, 3))
            planes.append((const, *lin))
        restrict = None
        if trial % 4 == 3:
            bound = rng.randint(-1, 2)
            restrict = lambda lvl, s, bound=bound: s[-1] <= bound
        yield make_arrangement(d, planes), restrict


def wide_arrangements(seed, n=24):
    """``n`` random arrangements beyond ``random_arrangements``: in R^4 with
    up to four planes (one in three through a hub point), and in R^2 and
    R^3 with large prime coefficients, whose per-level lcms ``unit``
    multiply past 2^64 in the samples' common denominator."""
    rng = random.Random(seed)
    primes = [p for p in range(1000, 1400) if all(p % q for q in range(2, 38))]
    for trial in range(n):
        if trial % 2 == 0:
            d = 4
            hub = [Fraction(rng.randint(-4, 4), 2) for _ in range(d)]
            planes = []
            for _ in range(rng.randint(2, 4)):
                lin = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
                if not any(lin):
                    lin[rng.randrange(d)] = Fraction(1)
                if rng.random() < 0.35:
                    const = -sum(a * x for a, x in zip(lin, hub))
                else:
                    const = Fraction(rng.randint(-3, 3))
                planes.append((const, *lin))
        else:
            d = 2 + trial % 4 // 2
            planes = [
                (rng.randint(-9, 9), *(rng.choice(primes) for _ in range(d)))
                for _ in range(rng.randint(3, 4))
            ]
        yield make_arrangement(d, planes), None


class TestCanonicalize:
    def test_scaling_and_sign(self):
        # −2x + 4 = 0 is the same hyperplane as x − 2 = 0
        assert canonicalize((4, -2)) == F(-2, 1)

    def test_fractions_cleared(self):
        assert canonicalize((Fraction(1, 2), Fraction(1, 3), Fraction(-1, 6))) == F(3, 2, -1)

    def test_gcd_reduced(self):
        assert canonicalize((0, 2, 4)) == F(0, 1, 2)

    def test_sign_from_first_linear_coefficient(self):
        assert canonicalize((5, 0, -2)) == F(-5, 0, 2)

    def test_all_zero_linear_part_rejected(self):
        with pytest.raises(ValueError):
            canonicalize((3, 0, 0))

    def test_idempotent(self):
        rng = random.Random(1)
        for _ in range(50):
            c = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
            if all(a == 0 for a in c[1:]):
                continue
            h = canonicalize(c)
            assert canonicalize(h) == h
            # same zero set
            assert all(
                (affine_eval(tuple(c), p) == 0) == (affine_eval(h, p) == 0)
                for p in [(0, 0, 0), (1, 2, 3), (Fraction(1, 2), -1, 4)]
            )


class TestArrangement:
    def test_dedup(self):
        arr = make_arrangement(1, [(4, -2), (-2, 1), (-4, 2)])
        assert arr.hyperplanes == (F(-2, 1),)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            make_arrangement(2, [(0, 1)])


class TestProjection:
    # the pool one level down is the projection of the arrangement
    def test_single_slanted_plane_projects_to_nothing(self):
        arr = make_arrangement(2, [(0, -1, 1)])  # x2 = x1
        assert build_cd(arr).pools[1] == ()

    def test_crossing_planes_project_to_crossing_point(self):
        arr = make_arrangement(2, [(0, -1, 1), (0, 1, 1)])  # x2 = ±x1
        assert build_cd(arr).pools[1] == (F(0, 1),)  # x1 = 0

    def test_vertical_plane_descends(self):
        arr = make_arrangement(2, [(-3, 1, 0)])  # x1 = 3
        assert build_cd(arr).pools[1] == (F(-3, 1),)

    def test_parallel_planes_no_projection(self):
        arr = make_arrangement(2, [(0, -1, 1), (-1, -1, 1)])  # x2 = x1, x2 = x1 + 1
        assert build_cd(arr).pools[1] == ()


class TestBuildCd:
    def test_empty_line(self):
        cd = build_cd(make_arrangement(1, []))
        assert len(cd.levels[1]) == 1
        (cell,) = cd.levels[1]
        assert cell.kind == "sector" and cell.sample == F(0)
        assert cell.lower is None and cell.upper is None

    def test_single_point_on_line(self):
        cd = build_cd(make_arrangement(1, [(-3, 1)]))
        kinds = [c.kind for c in cd.levels[1]]
        samples = [c.sample for c in cd.levels[1]]
        assert kinds == ["sector", "section", "sector"]
        assert samples == [F(2), F(3), F(4)]

    def test_points_on_line_counts_and_samples(self):
        cd = build_cd(make_arrangement(1, [(-1, 1), (-5, 1), (-2, 1)]))
        assert len(cd.levels[1]) == 7  # 2k+1
        samples = [c.sample[0] for c in cd.levels[1]]
        assert samples == [0, 1, Fraction(3, 2), 2, Fraction(7, 2), 5, 6]

    def test_diagonal_plane_three_cells(self):
        cd = build_cd(make_arrangement(2, [(0, -1, 1)]))
        assert len(cd.levels[1]) == 1
        assert len(cd.levels[2]) == 3
        assert [c.sample for c in cd.levels[2]] == [F(0, -1), F(0, 0), F(0, 1)]

    def test_crossing_planes_thirteen_cells(self):
        cd = build_cd(make_arrangement(2, [(0, -1, 1), (0, 1, 1)]))
        assert [len(lv) for lv in cd.levels] == [1, 3, 13]
        # the tower above x1 = 0 collapses both sections into one point cell
        middle = [c for c in cd.levels[2] if c.base == (1,)]
        assert [c.kind for c in middle] == ["sector", "section", "sector"]
        assert middle[1].sample == F(0, 0)

    def test_stack_values_strictly_increasing(self):
        rng = random.Random(4)
        for _ in range(10):
            planes = [
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
                for _ in range(rng.randint(1, 4))
            ]
            planes = [h for h in planes if any(a != 0 for a in h[1:])]
            if not planes:
                continue
            cd = build_cd(make_arrangement(2, planes))
            for level in (1, 2):
                towers = {}
                for c in cd.levels[level]:
                    towers.setdefault(c.base, []).append(c)
                for tower in towers.values():
                    ts = [c.sample[-1] for c in tower]
                    assert ts == sorted(ts)
                    assert len(set(ts)) == len(ts)

    def test_determinism(self):
        planes = [(1, 2, -1), (0, 1, 1), (-2, 0, 1)]
        cd1 = build_cd(make_arrangement(2, planes))
        cd2 = build_cd(make_arrangement(2, planes))
        assert [c.id for c in cd1.levels[2]] == [c.id for c in cd2.levels[2]]
        assert [c.sample for c in cd1.levels[2]] == [c.sample for c in cd2.levels[2]]

    def test_restrict_prunes_towers(self):
        arr = make_arrangement(2, [(0, -1, 1), (0, 1, 1)])
        full = build_cd(arr)
        pruned = build_cd(arr, restrict=lambda lvl, s: lvl != 1 or s[0] <= 0)
        kept_bases = {c.id for c in pruned.levels[1]}
        assert kept_bases == {(0,), (1,)}
        for c in pruned.levels[2]:
            assert c.base in kept_bases
            assert full.index[c.id].sample == c.sample


class TestIntegerKernel:
    def test_matches_rational_route(self):
        # integer heights over a common denominator order and group every
        # stack exactly as the Fraction heights do, and each sample's
        # integer numerators over that denominator are the reduced
        # Fractions ``sample`` reads
        vertical = concurrent = pruned = four = wide = 0
        arrangements = itertools.chain(random_arrangements(53, n=90), wide_arrangements(5))
        for arr, restrict in arrangements:
            cd = build_cd(arr, restrict)
            pools, levels, sections = rational_cd(arr, restrict)
            assert cd.pools == pools
            got = [
                [(c.id, c.kind, c.lower, c.upper, c.sample) for c in level]
                for level in cd.levels
            ]
            assert got == levels
            assert cd.sections == sections
            for c in cd.index.values():
                assert c.den > 0 and len(c.num) == len(c.sample) == c.level
                for t, n in zip(c.sample, c.num):
                    assert type(t) is Fraction and math.gcd(t.numerator, t.denominator) == 1
                    assert t.numerator * c.den == n * t.denominator, c
            vertical += any(h[i] == 0 for i in pools for h in pools[i])
            concurrent += any(len(set(s)) < len(s) for s in sections.values())
            pruned += restrict is not None
            four += arr.d == 4
            wide += max(c.den for c in cd.index.values()) > 2**64
        assert vertical >= 20 and concurrent >= 10 and pruned >= 20
        assert four >= 10 and wide >= 10

    def test_canonical_planes_are_ints(self):
        for raw in [(4, -2), ("1/2", "1/3", "-1/6"), F(0, -3, 6), (Fraction(5, 7), "2", 0)]:
            h = canonicalize(raw)
            assert all(type(a) is int for a in h), h
        arr = make_arrangement(2, [("1/2", 1, "-3/4"), F(1, Fraction(2, 3), 1)])
        cd = build_cd(arr)
        assert all(type(a) is int for pool in cd.pools.values() for h in pool for a in h)

    def test_samples_and_heights_are_fractions(self):
        for arr, restrict in random_arrangements(7, n=30):
            for c in build_cd(arr, restrict).index.values():
                assert all(type(t) is Fraction for t in c.sample), c
        # an int plane over the empty point: -1/2, not the float -0.5
        v = mapping_value((1, 2), ())
        assert type(v) is Fraction and v == Fraction(-1, 2)


class TestCellQueries:
    def test_stack_signs_match_sample_signs(self):
        # the sign read from the stacks equals the sign at the sample for
        # every pool plane at every level, in both orientations, with
        # vertical planes, planes concurrent over a base cell and pruning
        vertical = concurrent = pruned = 0
        for arr, restrict in random_arrangements(31):
            cd = build_cd(arr, restrict)
            pruned += len(cd.index) < len(build_cd(arr).index)
            concurrent += any(len(set(s)) < len(s) for s in cd.sections.values())
            for level in range(1, arr.d + 1):
                for h in cd.pools[level]:
                    vertical += h[level] == 0
                    for raw in (h, tuple(-2 * a for a in h)):
                        sign = plane_sign(cd, raw)
                        for cell in cd.levels[level]:
                            v = affine_eval(raw, cell.sample)
                            assert sign(cell.id) == (v > 0) - (v < 0), (raw, cell)
        assert vertical >= 20 and concurrent >= 10 and pruned >= 5

    def test_plane_sign_requires_pool_membership(self):
        cd = build_cd(make_arrangement(2, [(0, 1, 1)]))
        with pytest.raises(ValueError, match="not compatible"):
            plane_sign(cd, (0, 1, -1))
        with pytest.raises(ValueError, match="not compatible"):
            plane_sign(cd, (0, 1, 1, 1))

    def test_locate_matches_membership(self):
        rng = random.Random(9)
        arr = make_arrangement(2, [(0, -1, 1), (0, 1, 1), (-1, 1, 0)])
        cd = build_cd(arr)
        for _ in range(40):
            p = (Fraction(rng.randint(-40, 40), 8), Fraction(rng.randint(-40, 40), 8))
            cell = oracle_locate(cd.index, p)
            assert cell is not None and oracle_cell_contains(cd.index, cell, p)

    def test_interior_points_stay_inside(self):
        arr = make_arrangement(2, [(0, -1, 1), (0, 1, 1), (-1, 1, 0)])
        cd = build_cd(arr)
        for cell in cd.levels[2]:
            for p in oracle_interior_points(cd.index, cell):
                assert oracle_cell_contains(cd.index, cell, p)


class TestCompatibility:
    def test_incompatible_decomposition(self):
        cd = build_cd(make_arrangement(1, [(0, 1)]))  # adapted to x1 = 0 only
        assert oracle_sign_constant(cd.index, [(-1, 1)]) is False

    def test_subset_arrangement_compatible(self):
        cd = build_cd(make_arrangement(1, [(0, 1), (-1, 1)]))
        assert oracle_sign_constant(cd.index, [(-1, 1)]) is True

    def test_self_compatibility_random(self):
        rng = random.Random(20260816)
        for _ in range(12):
            d = rng.randint(1, 3)
            planes = []
            for _ in range(rng.randint(1, 4)):
                h = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d + 1))
                if any(a != 0 for a in h[1:]):
                    planes.append(h)
            arr = make_arrangement(d, planes)
            cd = build_cd(arr)
            assert oracle_sign_constant(cd.index, arr.hyperplanes)
            wide = random.Random(5)
            for _ in range(30):
                p = [Fraction(wide.randint(-192, 192), 16) for _ in range(d)]
                assert oracle_locate(cd.index, p) is not None

    def test_sign_vectors_complete(self):
        rng = random.Random(77)
        for _ in range(10):
            d = rng.randint(1, 3)
            planes = []
            for _ in range(rng.randint(1, 4)):
                h = tuple(Fraction(rng.randint(-2, 2)) for _ in range(d + 1))
                if any(a != 0 for a in h[1:]):
                    planes.append(h)
            if not planes:
                continue
            arr = make_arrangement(d, planes)
            cd = build_cd(arr)
            got = {
                tuple(sign_at(h, c.sample) for h in arr.hyperplanes)
                for c in cd.levels[d]
            }
            expected = oracle_sign_vectors(arr.hyperplanes, d)
            assert got == expected

    def test_stats(self):
        cd = build_cd(make_arrangement(2, [(0, -1, 1), (0, 1, 1)]))
        stats = cd_stats(cd)
        assert stats["cells_per_level"] == [1, 3, 13]
        assert stats["pool_sizes"] == {1: 1, 2: 2}
        assert stats["total_cells"] == 17
