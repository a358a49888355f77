"""Independent oracles and generators shared across the test suite.

Everything here is deliberately written from first principles — straight-line
reference implementations that do not reuse the package's geometry or query
machinery — so that agreement between package and oracle is meaningful.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from nnquery.network import Network, Neuron


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def random_rational(rng: random.Random, lo: int = -8, hi: int = 8, max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_network(
    rng: random.Random,
    m: int,
    depth: int,
    min_width: int = 1,
    max_width: int = 3,
    n_out: int = 1,
) -> Network:
    """A random layered ReLU network with m inputs and the given depth
    (depth 1 = affine: no hidden layers)."""
    hidden = []
    prev = m
    for _ in range(depth - 1):
        width = rng.randint(min_width, max_width)
        hidden.append(
            tuple(
                Neuron(
                    bias=random_rational(rng),
                    weights=tuple(random_rational(rng) for _ in range(prev)),
                )
                for _ in range(width)
            )
        )
        prev = width
    outputs = tuple(
        Neuron(
            bias=random_rational(rng),
            weights=tuple(random_rational(rng) for _ in range(prev)),
        )
        for _ in range(n_out)
    )
    return Network(m, tuple(hidden), outputs)


def random_point(rng: random.Random, m: int, lo: int = -5, hi: int = 5, max_den: int = 8):
    return [Fraction(rng.randint(lo * max_den, hi * max_den), max_den) for _ in range(m)]


# ---------------------------------------------------------------------------
# Reference forward pass (independent of nnquery.network.forward)
# ---------------------------------------------------------------------------

def oracle_forward(net: Network, x) -> list:
    acts = [Fraction(v) for v in x]
    for layer in net.hidden:
        nxt = []
        for nr in layer:
            z = nr.bias
            for w, a in zip(nr.weights, acts):
                z = z + w * a
            nxt.append(z if z > 0 else Fraction(0))
        acts = nxt
    outs = []
    for nr in net.outputs:
        z = nr.bias
        for w, a in zip(nr.weights, acts):
            z = z + w * a
        outs.append(z)
    return outs


def hidden_preactivations(net: Network, x) -> list:
    """Pre-ReLU values of every hidden neuron, layer by layer."""
    acts = [Fraction(v) for v in x]
    pres = []
    for layer in net.hidden:
        pre = []
        for nr in layer:
            z = nr.bias
            for w, a in zip(nr.weights, acts):
                z = z + w * a
            pre.append(z)
        pres.append(pre)
        acts = [z if z > 0 else Fraction(0) for z in pre]
    return pres


# ---------------------------------------------------------------------------
# Exact 1-D breakpoint scan and trapezoid integration
# ---------------------------------------------------------------------------

def _hidden_pre_functions(net: Network, lo, hi):
    """Affine (slope, intercept) of each hidden pre-activation on [lo, hi],
    by exact two-point interpolation — valid whenever the interval lies
    within one linear piece of all earlier layers."""
    out = []
    pre_lo = hidden_preactivations(net, [lo])
    pre_hi = hidden_preactivations(net, [hi])
    for layer_lo, layer_hi in zip(pre_lo, pre_hi):
        for plo, phi in zip(layer_lo, layer_hi):
            slope = (phi - plo) / (hi - lo)
            out.append((slope, plo - slope * lo))
    return out


def candidate_kinks_1d(net: Network, a: Fraction, b: Fraction) -> list:
    """Sorted superset of all slope-change points of the 1-D map on [a,b],
    including the endpoints.  Refinement round k discovers the layer-k zero
    crossings exactly, because by round k every current piece lies within a
    single linear region of all layers below k."""
    a, b = Fraction(a), Fraction(b)
    cands = {a, b}
    for _ in range(len(net.hidden) + 1):
        pts = sorted(cands)
        for lo, hi in zip(pts, pts[1:]):
            for slope, intercept in _hidden_pre_functions(net, lo, hi):
                if slope != 0:
                    z = -intercept / slope
                    if lo < z < hi:
                        cands.add(z)
        if len(cands) == len(pts):
            break
    return sorted(cands)


def oracle_integrate_1d(net: Network, a, b) -> Fraction:
    """Exact ∫_a^b f for a 1-input, 1-output network: trapezoids between
    candidate kinks, with an affineness check on every piece."""
    a, b = Fraction(a), Fraction(b)
    if a == b:
        return Fraction(0)
    assert a < b
    xs = candidate_kinks_1d(net, a, b)
    f = lambda t: oracle_forward(net, [t])[0]
    total = Fraction(0)
    for lo, hi in zip(xs, xs[1:]):
        flo, fhi = f(lo), f(hi)
        assert 2 * f((lo + hi) / 2) == flo + fhi, "oracle invariant: piece not affine"
        total += (hi - lo) * (flo + fhi) / 2
    return total


def breakpoints_1d(net: Network, a, b) -> list:
    """All points strictly inside (a,b) where the 1-D map changes slope."""
    xs = candidate_kinks_1d(net, Fraction(a), Fraction(b))
    f = lambda t: oracle_forward(net, [t])[0]
    out = []
    for i in range(1, len(xs) - 1):
        z = xs[i]
        h = min(z - xs[i - 1], xs[i + 1] - z) / 2
        left = (f(z) - f(z - h)) / h
        right = (f(z + h) - f(z)) / h
        if left != right:
            out.append(z)
    return out


# ---------------------------------------------------------------------------
# Independent linear feasibility by Fourier–Motzkin elimination, the one
# such route in the project (equalities become pairs of non-strict
# inequalities, variables are eliminated lowest index first).  It
# cross-checks the package's exact simplex, the sign vectors of its cell
# decompositions and the properness of its piecewise-linear extraction.
# ---------------------------------------------------------------------------


def oracle_feasible(constraints, d: int) -> bool:
    """Feasibility of {(a_0..a_d, rel)} with rel in {'gt','ge','eq'}."""
    work = []
    for f, rel in constraints:
        f = tuple(Fraction(a) for a in f)
        if len(f) != d + 1:
            raise ValueError(f"functional of wrong dimension: {f}")
        if rel == "eq":
            work.append((f, False))
            work.append((tuple(-a for a in f), False))
        else:
            work.append((f, rel == "gt"))

    for j in range(1, d + 1):
        lowers, uppers, rest = [], [], []
        for f, strict in work:
            c = f[j]
            if c == 0:
                rest.append((f, strict))
            else:
                bound = tuple(
                    Fraction(0) if i == j else Fraction(-f[i], c) for i in range(d + 1)
                )
                (lowers if c > 0 else uppers).append((bound, strict))
        work = rest
        for lb, ls in lowers:
            for ub, us in uppers:
                work.append((tuple(u - l for u, l in zip(ub, lb)), ls or us))

    for f, strict in work:
        v = f[0]
        if strict:
            if not v > 0:
                return False
        elif not v >= 0:
            return False
    return True


def _sign_constraints(planes, signs):
    """The system putting each plane on its side: '+' above, '-' below,
    anything else on the plane."""
    cons = []
    for h, s in zip(planes, signs):
        if s == "+":
            cons.append((h, "gt"))
        elif s == "-":
            cons.append((tuple(-a for a in h), "gt"))
        else:
            cons.append((h, "eq"))
    return cons


def oracle_sign_vectors(planes, d: int, signs=("+", "-", "0")) -> set:
    """All realizable sign vectors of an arrangement, by brute force."""
    return {
        combo
        for combo in itertools.product(signs, repeat=len(planes))
        if oracle_feasible(_sign_constraints(planes, combo), d)
    }


def oracle_pwl_proper(f) -> bool:
    """Exhaustive properness check of a piecewise-linear function.

    Positions must be unique and well formed, and they must be exactly the
    feasible sign vectors over the breakplanes.  Continuity: a piece p lies
    in the closure of a piece q exactly when p[i] ∈ {q[i], '='} for every
    i, and then the two components must agree on the whole of p.
    """
    k = len(f.breakplanes)
    positions = [pos for pos, _ in f.polytopes]
    if len(set(positions)) != len(positions):
        return False
    if any(len(p) != k or any(c not in "+-=" for c in p) for p in positions):
        return False
    if any(len(comp) != f.m + 1 for _pos, comp in f.polytopes):
        return False
    feasible = {"".join(v) for v in oracle_sign_vectors(f.breakplanes, f.m, "+-=")}
    if feasible != set(positions):
        return False

    for pos, comp in f.polytopes:
        base = _sign_constraints(f.breakplanes, pos)
        for other_pos, other in f.polytopes:
            if other == comp or any(a not in (b, "=") for a, b in zip(pos, other_pos)):
                continue
            diff = tuple(a - b for a, b in zip(other, comp))
            for gap in (diff, tuple(-a for a in diff)):
                if oracle_feasible(base + [(gap, "gt")], f.m):
                    return False
    return True


# ---------------------------------------------------------------------------
# Cell decompositions, read from the cells alone: a level-i cell holds a
# point exactly when its base cell holds the first i−1 coordinates and the
# i-th lies on its section or strictly between its delineating planes, each
# solved for x_i over the shorter point.  ``cells`` maps every cell id of a
# decomposition to its cell; only the cells' id/level/kind/base/lower/upper/
# sample fields are read.
# ---------------------------------------------------------------------------


def _height(h, y):
    """The value of x_i on the plane h = (a_0..a_i) over y in R^{i-1}."""
    i = len(h) - 1
    return Fraction(-(h[0] + sum(a * v for a, v in zip(h[1:i], y))), h[i])


def _holds_last(cell, point):
    """Whether the cell's own bounds hold the point's last coordinate."""
    y, t = point[:-1], point[-1]
    if cell.kind == "section":
        return t == _height(cell.lower, y)
    return (cell.lower is None or t > _height(cell.lower, y)) and (
        cell.upper is None or t < _height(cell.upper, y)
    )


def oracle_cell_contains(cells, cell, point) -> bool:
    """Whether the cell holds the point (one coordinate per level)."""
    point = tuple(Fraction(v) for v in point)
    while cell.level:
        if not _holds_last(cell, point[: cell.level]):
            return False
        cell = cells[cell.base]
    return True


def oracle_locate(cells, point):
    """The level-len(point) cell holding the point, or None unless every
    prefix of the point lies in exactly one cell of its level.  Holders are
    sought among all cells of each level."""
    point = tuple(Fraction(v) for v in point)
    levels = {}
    for c in cells.values():
        levels.setdefault(c.level, []).append(c)
    holders = levels[0]
    for i in range(1, len(point) + 1):
        inside = {c.id for c in holders}
        holders = [
            c for c in levels.get(i, ()) if c.base in inside and _holds_last(c, point[:i])
        ]
        if len(holders) != 1:
            return None
    return holders[0]


_INTERIOR = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))


def oracle_interior_points(cells, cell) -> list:
    """Five points of the cell, each built level by level from the bounds
    over the coordinates placed so far: a fraction r of the way between two
    bounds, 1/r beyond a single bound, or 1/r itself when unbounded."""
    chain = []
    while cell.level:
        chain.append(cell)
        cell = cells[cell.base]
    points = []
    for r in _INTERIOR:
        p = ()
        for c in reversed(chain):
            lo = None if c.lower is None else _height(c.lower, p)
            hi = None if c.upper is None else _height(c.upper, p)
            if c.kind == "section":
                t = lo
            elif lo is None and hi is None:
                t = 1 / r
            elif hi is None:
                t = lo + 1 / r
            elif lo is None:
                t = hi - 1 / r
            else:
                t = lo + (hi - lo) * r
            p += (t,)
        points.append(p)
    return points


def oracle_sign_constant(cells, planes) -> bool:
    """Whether every full-level cell has one sign on every plane at its
    sample and at its five ``oracle_interior_points``."""
    d = max(c.level for c in cells.values())
    for cell in cells.values():
        if cell.level != d:
            continue
        pts = [cell.sample, *oracle_interior_points(cells, cell)]
        for h in planes:
            values = [h[0] + sum(a * v for a, v in zip(h[1:], p)) for p in pts]
            if len({(v > 0) - (v < 0) for v in values}) > 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Independent query oracle: quantifier elimination over the PWL case tree
# ---------------------------------------------------------------------------
# A closed ordered prenex sentence is decided by substituting the function's
# polytope case split for every f-atom, converting to disjunctive normal
# form, and eliminating quantified variables innermost-first with exact
# Fourier–Motzkin on each conjunctive cube (forall via double negation).
# Formulas are nested tuples:
#     ('lin', coeffs, rel)   rel in {'gt','ge','eq'}: a_0 + Σ a_i x_i REL 0
#     ('f', gs, j)           F(x_{g1},…,x_{gm}) = x_j
#     ('not', t) / ('and', t1, t2) / ('or', t1, t2)


def _inst(h, gs, d):
    """Instantiate an m-variable affine row over the variables gs in R^d."""
    vec = [Fraction(h[0])] + [Fraction(0)] * d
    for i, g in enumerate(gs, start=1):
        vec[g] += Fraction(h[i])
    return tuple(vec)


def _expand_f_atoms(tree, pwl, d):
    kind = tree[0]
    if kind == "lin":
        return tree
    if kind == "f":
        _, gs, j = tree
        cases = None
        for pos, comp in pwl.polytopes:
            atoms = []
            for ch, h in zip(pos, pwl.breakplanes):
                row = _inst(h, gs, d)
                if ch == "+":
                    atoms.append(("lin", row, "gt"))
                elif ch == "-":
                    atoms.append(("lin", tuple(-a for a in row), "gt"))
                else:
                    atoms.append(("lin", row, "eq"))
            graph = list(_inst(comp, gs, d))
            graph[j] -= 1
            atoms.append(("lin", tuple(graph), "eq"))
            cube = atoms[0]
            for a in atoms[1:]:
                cube = ("and", cube, a)
            cases = cube if cases is None else ("or", cases, cube)
        assert cases is not None
        return cases
    if kind == "not":
        return ("not", _expand_f_atoms(tree[1], pwl, d))
    return (kind, _expand_f_atoms(tree[1], pwl, d), _expand_f_atoms(tree[2], pwl, d))


def _negate_literal(atom):
    _, coeffs, rel = atom
    neg = tuple(-a for a in coeffs)
    if rel == "gt":
        return ("lin", neg, "ge")
    if rel == "ge":
        return ("lin", neg, "gt")
    return ("or", ("lin", coeffs, "gt"), ("lin", neg, "gt"))


def _push_not(tree, negate):
    kind = tree[0]
    if kind == "lin":
        return _negate_literal(tree) if negate else tree
    if kind == "not":
        return _push_not(tree[1], not negate)
    if kind == "and":
        op = "or" if negate else "and"
        return (op, _push_not(tree[1], negate), _push_not(tree[2], negate))
    op = "and" if negate else "or"
    return (op, _push_not(tree[1], negate), _push_not(tree[2], negate))


def _to_dnf(tree):
    kind = tree[0]
    if kind == "lin":
        return [[tree]]
    if kind == "or":
        return _to_dnf(tree[1]) + _to_dnf(tree[2])
    left, right = _to_dnf(tree[1]), _to_dnf(tree[2])
    return [a + b for a in left for b in right]


def _cube_project(cube, j):
    """Fourier–Motzkin elimination of x_j from a conjunction of atoms;
    returns the projected cube or None when the cube is contradictory."""
    # first use an equality with a nonzero coefficient on x_j, if any
    for idx, (_, f, rel) in enumerate(cube):
        if rel == "eq" and f[j] != 0:
            c = f[j]
            expr = tuple(Fraction(-a, c) if i != j else Fraction(0) for i, a in enumerate(f))
            out = []
            for t, (_, g, r) in enumerate(cube):
                if t == idx:
                    continue
                coef = g[j]
                row = tuple(
                    g[i] + coef * expr[i] if i != j else Fraction(0)
                    for i in range(len(g))
                )
                out.append(("lin", row, r))
            return _validate_cube(out)
    lowers, uppers, rest = [], [], []
    for _, f, rel in cube:
        c = f[j]
        if c == 0:
            rest.append(("lin", f, rel))
            continue
        bound = tuple(Fraction(0) if i == j else Fraction(-f[i], c) for i in range(len(f)))
        (lowers if c > 0 else uppers).append((bound, rel == "gt"))
    for lb, ls in lowers:
        for ub, us in uppers:
            row = tuple(u - l for u, l in zip(ub, lb))
            rest.append(("lin", row, "gt" if (ls or us) else "ge"))
    return _validate_cube(rest)


def _validate_cube(cube):
    """Drop constant atoms, returning None if any is violated."""
    out = []
    for atom in cube:
        _, f, rel = atom
        if any(a != 0 for a in f[1:]):
            out.append(atom)
            continue
        v = f[0]
        ok = v > 0 if rel == "gt" else v >= 0 if rel == "ge" else v == 0
        if not ok:
            return None
    return out


def _simplify_dnf(dnf, d):
    """Prune a disjunction of cubes: drop duplicate atoms, infeasible
    cubes, duplicate cubes, and cubes subsumed by a weaker one."""
    cleaned = []
    seen = set()
    for cube in dnf:
        atoms = sorted(set((f, rel) for _k, f, rel in cube))
        key = tuple(atoms)
        if key in seen:
            continue
        seen.add(key)
        if not oracle_feasible(atoms, d):
            continue
        cleaned.append([("lin", f, rel) for f, rel in atoms])
    # a cube whose atom set contains another cube's atom set covers less
    out = []
    keys = [frozenset((f, rel) for _k, f, rel in c) for c in cleaned]
    for i, cube in enumerate(cleaned):
        if any(j != i and keys[j] < keys[i] for j in range(len(cleaned))):
            continue
        if any(j < i and keys[j] == keys[i] for j in range(len(cleaned))):
            continue
        out.append(cube)
    return out


def _negate_dnf(dnf, d):
    """¬(∨ cubes) as a validated DNF: the product, over cubes, of one
    negated literal each, pruned incrementally."""
    result = [[]]
    for cube in dnf:
        alternatives = []
        for _k, f, rel in cube:
            neg = tuple(-a for a in f)
            if rel == "gt":
                alternatives.append(("lin", neg, "ge"))
            elif rel == "ge":
                alternatives.append(("lin", neg, "gt"))
            else:
                alternatives.append(("lin", f, "gt"))
                alternatives.append(("lin", neg, "gt"))
        nxt = []
        for partial in result:
            for alt in alternatives:
                c = _validate_cube(partial + [alt])
                if c is not None:
                    nxt.append(c)
        result = _simplify_dnf(nxt, d)
        if not result:
            return []
    return result


def _dnf_of(tree, d):
    cubes = [c for c in (_validate_cube(cb) for cb in _to_dnf(_push_not(tree, False))) if c is not None]
    return _simplify_dnf(cubes, d)


def oracle_query(pwl, prefix, matrix, d: int) -> bool:
    """Truth of a closed ordered prenex sentence, independently of the
    package's geometric evaluation.  prefix lists 'exists'/'forall' for
    x_1..x_d; matrix is a nested-tuple formula as described above."""
    tree = _expand_f_atoms(matrix, pwl, d) if pwl is not None else matrix
    dnf = _dnf_of(tree, d)

    def project(cubes):
        out = [c for c in (_cube_project(cb, j) for cb in cubes) if c is not None]
        return _simplify_dnf(out, d)

    for j in range(d, 0, -1):
        if prefix[j - 1] == "forall":
            dnf = _negate_dnf(project(_negate_dnf(dnf, d)), d)
        else:
            dnf = project(dnf)
    # all variables eliminated: each surviving cube is variable-free and valid
    return bool(dnf)


# ---------------------------------------------------------------------------
# Random ordered sentences (shared by the query tests and the acceptance
# suite): the same structure is rendered to query text for the package and
# consumed directly by oracle_query.
# ---------------------------------------------------------------------------


def random_ordered_sentence(rng: random.Random, d: int, m: int, n_atoms: int, with_f: bool):
    """A closed prenex sentence over x_1..x_d: (text, prefix, matrix_tree).

    F-atoms (if requested) use ascending variable contexts; linear atoms
    have small rational coefficients; the matrix is a random boolean tree.
    """
    prefix = [rng.choice(("exists", "forall")) for _ in range(d)]
    atoms = []
    want_f = with_f and d >= m + 1
    for i in range(n_atoms):
        if want_f and (i == 0 or rng.random() < 0.35):
            idxs = sorted(rng.sample(range(1, d + 1), m + 1))
            atoms.append(("f", tuple(idxs[:-1]), idxs[-1]))
        else:
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(d + 1)]
            if all(c == 0 for c in coeffs[1:]):
                coeffs[rng.randint(1, d)] = Fraction(1)
            rel = rng.choice(("gt", "gt", "ge", "eq"))
            atoms.append(("lin", tuple(coeffs), rel))

    def combine(items):
        if len(items) == 1:
            t = items[0]
            return ("not", t) if rng.random() < 0.3 else t
        cut = rng.randint(1, len(items) - 1)
        left, right = combine(items[:cut]), combine(items[cut:])
        op = rng.choice(("and", "or"))
        t = (op, left, right)
        return ("not", t) if rng.random() < 0.2 else t

    matrix = combine(atoms)

    def render_atom(atom):
        if atom[0] == "f":
            _, gs, j = atom
            args = ", ".join(f"x{g}" for g in gs)
            return f"F({args}) = x{j}"
        _, coeffs, rel = atom
        parts = [str(coeffs[0])]
        for i, c in enumerate(coeffs[1:], start=1):
            if c != 0:
                parts.append(f"+ {c}*x{i}" if c > 0 else f"- {-c}*x{i}")
        sym = {"gt": ">", "ge": ">=", "eq": "="}[rel]
        return f"{' '.join(parts)} {sym} 0"

    def render(tree):
        kind = tree[0]
        if kind in ("lin", "f"):
            return "(" + render_atom(tree) + ")"
        if kind == "not":
            return "(not " + render(tree[1]) + ")"
        return "(" + render(tree[1]) + f" {kind} " + render(tree[2]) + ")"

    text = "".join(f"{q} x{i} . " for i, q in enumerate(prefix, start=1)) + render(matrix)
    return text, prefix, matrix


# ---------------------------------------------------------------------------
# Analysis oracles
# ---------------------------------------------------------------------------

def _det_gauss(rows):
    """Determinant by plain Gaussian elimination over Fraction."""
    n = len(rows)
    m = [list(r) for r in rows]
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        inv = m[k][k]
        for r in range(k + 1, n):
            factor = m[r][k] / inv
            if factor != 0:
                m[r] = [a - factor * b for a, b in zip(m[r], m[k])]
    return det


def oracle_cayley_menger_sq(points) -> Fraction:
    """Squared simplex volume from pairwise squared distances alone."""
    n = len(points) - 1
    size = n + 2
    b = [[Fraction(0)] * size for _ in range(size)]
    for j in range(1, size):
        b[0][j] = Fraction(1)
        b[j][0] = Fraction(1)
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            b[i + 1][j + 1] = sum(
                (Fraction(x) - Fraction(y)) ** 2 for x, y in zip(p, q)
            )
    det = _det_gauss(b)
    fact = 1
    for k in range(1, n + 1):
        fact *= k
    return det * (-1) ** (n + 1) / (2**n * fact**2)


def piecewise_affine_1d(net: Network, lo, hi):
    """(p, q, slope, intercept) pieces of the 1-D map on [lo, hi], derived
    purely from forward evaluations between candidate kinks."""
    xs = candidate_kinks_1d(net, Fraction(lo), Fraction(hi))
    f = lambda t: oracle_forward(net, [t])[0]
    pieces = []
    for p, q in zip(xs, xs[1:]):
        fp, fq = f(p), f(q)
        slope = (fq - fp) / (q - p)
        intercept = fp - slope * p
        assert 2 * f((p + q) / 2) == fp + fq, "oracle invariant: piece not affine"
        pieces.append((p, q, slope, intercept))
    return pieces


def oracle_robustness_1d(net: Network, a, eps, delta) -> bool:
    """Truth of forall x (|x-a| < eps -> |f(x)-f(a)| < delta), one input.

    The gap is affine on each piece, so its absolute value is maximized at
    piece endpoints; ball endpoints are excluded but a strict overshoot there
    implies interior violations arbitrarily close by.
    """
    a, eps, delta = Fraction(a), Fraction(eps), Fraction(delta)
    c = oracle_forward(net, [a])[0]
    lo, hi = a - eps, a + eps
    for p, q, s, t in piecewise_affine_1d(net, lo, hi):
        gp, gq = abs(s * p + t - c), abs(s * q + t - c)
        if lo < p and gp >= delta:
            return False
        if q < hi and gq >= delta:
            return False
        if max(gp, gq) > delta:
            return False
        if s == 0 and gp == delta:
            return False
    return True


def oracle_ball_range_1d(net: Network, a, eps) -> Fraction:
    """max |f(x) - f(a)| over the closed ball [a-eps, a+eps], one input."""
    a, eps = Fraction(a), Fraction(eps)
    c = oracle_forward(net, [a])[0]
    top = Fraction(0)
    for p, q, s, t in piecewise_affine_1d(net, a - eps, a + eps):
        top = max(top, abs(s * p + t - c), abs(s * q + t - c))
    return top


def oracle_counterfactual_1d(net: Network, a, thr, lo, hi):
    """(x, distance) minimizing |x - a| over the closure of
    {f > thr} within [lo, hi]; ties to the smaller x; None when empty."""
    a, thr = Fraction(a), Fraction(thr)
    if lo <= a <= hi and oracle_forward(net, [a])[0] > thr:
        return a, Fraction(0)
    candidates = []
    nonempty = False
    for p, q, s, t in piecewise_affine_1d(net, Fraction(lo), Fraction(hi)):
        vp, vq = s * p + t, s * q + t
        if max(vp, vq) > thr:
            nonempty = True
        for e, v in ((p, vp), (q, vq)):
            if v > thr:
                candidates.append(e)
        if s != 0:
            cross = (thr - t) / s
            if p <= cross <= q and max(vp, vq) > thr:
                candidates.append(cross)
    if not nonempty:
        return None
    best = min(candidates, key=lambda x: (abs(x - a), x))
    return best, abs(best - a)


def oracle_feature_contribution_1d(net: Network, a, eps):
    """Least r > 0 with |f(a +- r) - f(a)| > eps for a 1-input net; None if
    the output never moves by more than eps."""
    a, eps = Fraction(a), Fraction(eps)
    f = lambda t: oracle_forward(net, [t])[0]
    c = f(a)
    window = Fraction(4096)
    pieces = piecewise_affine_1d(net, a - window, a + window)
    _, _, s0, t0 = pieces[0]
    _, _, sn, tn = pieces[-1]
    for probe in (a - 3 * window, a - 2 * window):
        assert f(probe) == s0 * probe + t0, "oracle window missed a left kink"
    for probe in (a + 2 * window, a + 3 * window):
        assert f(probe) == sn * probe + tn, "oracle window missed a right kink"

    candidates = []
    for idx, (p, q, s, t) in enumerate(pieces):
        lob = None if idx == 0 else p
        hib = None if idx == len(pieces) - 1 else q
        if s == 0:
            continue
        for target in (c + eps, c - eps):
            x = (target - t) / s
            if (lob is None or lob < x) and (hib is None or x < hib):
                candidates.append(abs(x - a))
    knots = [p for p, _q, _s, _t in pieces[1:]]
    for i, k in enumerate(knots):
        gap = f(k) - c
        if abs(gap) > eps:
            candidates.append(abs(k - a))
        elif abs(gap) == eps:
            left = (k - knots[i - 1]) / 2 if i > 0 else Fraction(1)
            right = (knots[i + 1] - k) / 2 if i + 1 < len(knots) else Fraction(1)
            for probe in (k - left, k + right):
                # the gap grows away from the knot only where it keeps its
                # sign; a far probe may have passed through zero to -gap
                moved = f(probe) - c
                if abs(moved) > eps and moved * gap > 0:
                    candidates.append(abs(k - a))
                    break
    return min(candidates) if candidates else None
