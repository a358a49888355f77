"""Exact piecewise-linear representations of network functions.

A piecewise-linear function over R^m is stored as a set of *breakplanes*
(canonical hyperplanes) together with one affine *component* per realizable
sign position: a position is a string over {'+','-','='} with one character
per breakplane, and its polytope is the set of points realizing exactly
those signs.  A representation is *proper* when positions are unique and
total, exactly the feasible sign vectors appear, and the components of a
piece and of every piece whose closure holds it agree on it — together
these make the function well-defined and continuous.

Extraction from a network refines one arrangement once per hidden layer:
the zero-sets of the layer's pre-activations join its planes, and one step
enumerates the realizable positions from the cell decomposition of the
result, every cell's position read from the stacks, so every realizable
position is hit by some cell (``pwl_from_network``).  That loop runs in
integers: each neuron's pre-activation is held times a positive scale that
makes its components coprime ints, and the next layer divides the scale
into its weights.  ReLU is positively homogeneous, relu(s·u) = s·relu(u)
for s > 0, so a scaled value has the same signs and zero-sets as the true
one, and the planes, positions and function are unchanged; each ReLU test
is an integer dot product with a cell's sample numerators.  A hidden
target is read out of a last layer that holds it alone, so only the
read-out components become ``Fraction``s, and ``sign_position`` reads a
point's signs in integers too.  The stages (scaling, summation with
plane union, exact ReLU) are the same algebra on one function at a time,
in ``Fraction``s: the tests' reference.  The properness check
lives with the test oracles, where feasibility goes through Fourier–Motzkin
elimination instead, so construction and verification follow independent
routes.

Queries, integration and the decomposition statistics place a PWL function
of some of the coordinates of R^d through ``lift_graph`` (its breakplanes
and the zero-sets of its non-constant components) and read its sign on each
cell back through ``graph_sign``; no other module turns a function into
planes.  F enters as ``value_gap(F)``, the function F(x) − y whose zero-set
is its graph, and a query comparison as its function lhs − rhs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .core import format_rational, rational
from .geometry import build_cd, canonicalize, make_arrangement, plane_sign
from .linprog import affine_eval, scaled_eval
from .network import Network, Neuron, NeuronId, parse_neuron_id

__all__ = [
    "PwlFunction",
    "init_inputs",
    "scale_stage",
    "sum_stage",
    "relu_stage",
    "pwl_from_network",
    "pwl_eval",
    "sign_position",
    "cell_position",
    "pwl_restrict",
    "value_gap",
    "lift_graph",
    "graph_sign",
    "pwl_to_json",
    "pwl_from_json",
]


@dataclass(frozen=True)
class PwlFunction:
    """Piecewise-linear function: breakplanes + one component per position.

    ``breakplanes`` is an ordered tuple of distinct canonical hyperplanes
    in R^m, each a tuple of coprime ``int``s (the refining stages index
    positions by them); ``polytopes`` is an ordered tuple of (position,
    component) pairs where position is a string over '+-=' (one character
    per breakplane) and component is an affine coefficient tuple (a_0..a_m)
    of ``Fraction``s.
    """

    m: int
    breakplanes: tuple
    polytopes: tuple

    @cached_property
    def by_position(self) -> dict:
        """The component of each position, looked up by position string.

        Where a position is listed twice (an improper function), the first
        entry wins.
        """
        return dict(reversed(self.polytopes))

    def component_at(self, x):
        """The affine component of the polytope holding the point x."""
        pos = sign_position(self.breakplanes, x)
        comp = self.by_position.get(pos)
        if comp is None:
            raise ValueError(f"function is not proper: no polytope at position {pos!r}")
        return comp


def sign_position(planes, x) -> str:
    """The position of the rational point x over the planes: one '+-=' sign
    each, read in integers with x put over one common denominator."""
    den = math.lcm(*(v.denominator for v in x))
    num = [v.numerator * (den // v.denominator) for v in x]
    pos = ""
    for h in planes:
        v = scaled_eval(h, num, den)
        pos += "+" if v > 0 else "-" if v < 0 else "="
    return pos


def cell_position(signs, cid) -> str:
    """The position of a decomposition's cell over planes given by their
    ``plane_sign`` functions: one '+-=' sign each."""
    return "".join("=+-"[s(cid)] for s in signs)  # index −1 is '-'


def _zero_component(m: int) -> tuple:
    return (Fraction(0),) * (m + 1)


def _positions(m: int, planes, value):
    """The breakplanes of the arrangement of ``planes`` and a map from each
    of its realizable positions to ``value(position, cell)``.

    ``make_arrangement`` canonicalizes the planes and drops duplicates in
    first-appearance order; those are the breakplanes.  Positions are read
    from the stacks of the full-level cells, which partition R^m, so every
    realizable position is reached, in the order of its first cell, which
    ``value`` gets.
    """
    arr = make_arrangement(m, planes)
    cd = build_cd(arr)
    signs = [plane_sign(cd, h) for h in arr.hyperplanes]
    values = {}
    for cell in cd.levels[m]:
        pos = cell_position(signs, cell.id)
        if pos not in values:
            values[pos] = value(pos, cell)
    return arr.hyperplanes, values


def _refine(m: int, planes, component) -> PwlFunction:
    """The function over the arrangement of ``planes``, one polytope per
    realizable position, with the component ``component(position, cell)``
    (see ``_positions``)."""
    breakplanes, polys = _positions(m, planes, component)
    return PwlFunction(m=m, breakplanes=breakplanes, polytopes=tuple(polys.items()))


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def init_inputs(m: int):
    """The m coordinate projections as (trivially proper) PWL functions.
    Like the other stages, in ``Fraction``s: the tests' stage-by-stage
    reference for ``pwl_from_network``."""
    if m < 1:
        raise ValueError("need at least one input")
    out = []
    for i in range(1, m + 1):
        comp = tuple(
            Fraction(1) if j == i else Fraction(0) for j in range(m + 1)
        )
        out.append(PwlFunction(m=m, breakplanes=(), polytopes=(("", comp),)))
    return out


def scale_stage(f: PwlFunction, w) -> PwlFunction:
    """Scale every component by w.  Breakplanes are kept even when w = 0,
    so downstream stages see a stable arrangement.  PWL algebra of the
    tests' reference."""
    w = rational(w)
    polys = tuple(
        (pos, tuple(w * a for a in comp)) for pos, comp in f.polytopes
    )
    return PwlFunction(m=f.m, breakplanes=f.breakplanes, polytopes=polys)


def sum_stage(fs, bias=0) -> PwlFunction:
    """Pointwise sum of PWL functions plus a constant bias.

    Breakplanes are the union of the summands'; each realizable position
    over the union implies one position of every summand (restrict to its
    planes), whose components add up.  PWL algebra of the tests'
    reference.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("sum_stage needs at least one function")
    m = fs[0].m
    if any(f.m != m for f in fs):
        raise ValueError("summands must share the input dimension")
    bias = rational(bias)
    planes = [h for f in fs for h in f.breakplanes]
    # breakplanes are canonical, so this is make_arrangement's order
    index = {h: i for i, h in enumerate(dict.fromkeys(planes))}
    summands = [(f, [index[h] for h in f.breakplanes]) for f in fs]

    def component(pos, _cell):
        comp = [bias] + [Fraction(0)] * m
        for f, at in summands:
            sub = "".join(pos[i] for i in at)
            part = f.by_position.get(sub)
            if part is None:
                raise ValueError(
                    f"summand is not proper: no polytope at position {sub!r}"
                )
            for j, a in enumerate(part):
                comp[j] += a
        return tuple(comp)

    return _refine(m, planes, component)


def relu_stage(f: PwlFunction) -> PwlFunction:
    """Apply ReLU exactly: each non-constant component's zero-set joins the
    breakplanes, and components are kept where positive, zeroed elsewhere.
    A constant component contributes no plane (its zero-set is not a
    hyperplane); it is kept or zeroed by its sign alone.  The tests'
    reference applies it to every neuron."""
    n_old = len(f.breakplanes)
    zero_sets = [comp for _pos, comp in f.polytopes if any(a != 0 for a in comp[1:])]

    def component(pos, cell):
        comp = f.by_position.get(pos[:n_old])
        if comp is None:
            raise ValueError(
                f"function is not proper: no polytope at position {pos[:n_old]!r}"
            )
        return comp if affine_eval(comp, cell.sample) > 0 else _zero_component(f.m)

    return _refine(f.m, [*f.breakplanes, *zero_sets], component)


# ---------------------------------------------------------------------------
# Extraction from networks
# ---------------------------------------------------------------------------


def _scaled_map(values, scales, neuron, m: int):
    """A neuron's pre-activation on every position, times a positive scale
    s, in integers; returns the map and s as a pair of positive ints (n, d)
    with s = n/d.

    Input i of the neuron is ``comps[i]·d_i/n_i`` on each position, with
    ``comps[i]`` an integer component and (n_i, d_i) = ``scales[i]``.  The
    bias and the weights times d_i/n_i, as ratios of ints, are multiplied
    by the lcm of their denominators and divided by the gcd of the results.
    That gives the coprime ints q and the scale s = lcm/gcd with s·pre =
    q_0 + Σ q_i·comps[i].  q is the one coprime integer vector with a
    positive multiple equal to the coefficients, so it does not depend on
    the ratios being reduced.
    """
    bias = rational(neuron.bias)
    nums, dens = [bias.numerator], [bias.denominator]
    for w, (n, d) in zip(neuron.weights, scales, strict=True):
        w = rational(w)
        nums.append(w.numerator * d)
        dens.append(w.denominator * n)
    lcm = math.lcm(*dens)
    q = [a * (lcm // b) for a, b in zip(nums, dens)]
    g = math.gcd(*q) or 1  # all zero: any positive scale does
    bias, weights = q[0] // g, [a // g for a in q[1:]]
    out = {}
    for pos, comps in values.items():
        total = [bias] + [0] * m
        for w, comp in zip(weights, comps):
            for j, a in enumerate(comp):
                total[j] += w * a
        out[pos] = tuple(total)
    return out, (lcm, g)


def pwl_from_network(net: Network, target=None) -> PwlFunction:
    """Exact PWL representation of the value computed at ``target``.

    ``target`` is a hidden or output neuron (id or its string form);
    default is the first output.  Hidden targets yield the post-activation
    value; outputs are affine, so no final ReLU is applied.

    Each hidden layer is one refinement, and the result is the function,
    breakplanes and position order that composing the stages neuron by
    neuron gives.  A layer is held as a map from each realizable position
    of one arrangement to the tuple of its neurons' components.  A
    neuron's pre-activation is an affine map of that tuple on the same
    positions: its summands span the whole previous arrangement, since a
    weight of 0 keeps a summand's planes (``scale_stage``).  The zero-sets
    of the non-constant pre-activation components, neuron by neuron and
    each in position order, join the planes, and one decomposition gives
    the layer's positions, each neuron's ReLU read at the position's first
    cell.  The output is the affine map of the last tuple, with no
    decomposition; a hidden target is read out, with weight 1, of a last
    layer that holds it alone.  So no more decompositions are built than
    there are hidden layers.

    The layer tuples hold integer components over positive per-neuron
    scales (``_scaled_map``; see the module docstring), and the ReLU test
    is the sign of ``scaled_eval`` at the cell's sample numerators.
    """
    if target is None:
        target = NeuronId("output", 1, net.depth)
    elif isinstance(target, str):
        target = parse_neuron_id(target)
    if target.role == "input":
        raise ValueError("inputs carry no computed function; pick a hidden or output neuron")
    if target.role == "hidden":
        if not (1 <= target.layer <= len(net.hidden)) or not (
            1 <= target.index <= len(net.hidden[target.layer - 1])
        ):
            raise ValueError(f"no such hidden neuron: {target}")
        last = (net.hidden[target.layer - 1][target.index - 1],)
        layers = (*net.hidden[: target.layer - 1], last)
        readout = Neuron(Fraction(0), (Fraction(1),))
    else:
        if not 1 <= target.index <= len(net.outputs):
            raise ValueError(f"no such output neuron: {target}")
        layers, readout = net.hidden, net.outputs[target.index - 1]

    m = net.inputs
    planes = ()  # the inputs: coordinate projections on the empty arrangement
    values = {"": tuple(tuple(int(j == i) for j in range(m + 1)) for i in range(1, m + 1))}
    scales = ((1, 1),) * m
    zero = (0,) * (m + 1)
    for layer in layers:
        pres, scales = zip(*(_scaled_map(values, scales, neuron, m) for neuron in layer))
        n_old = len(planes)
        zero_sets = [c for pre in pres for c in pre.values() if any(c[1:])]

        def post(pos, cell):
            at, num, den = pos[:n_old], cell.num, cell.den
            comps = (pre[at] for pre in pres)
            return tuple(c if scaled_eval(c, num, den) > 0 else zero for c in comps)

        planes, values = _positions(m, [*planes, *zero_sets], post)
    out, (n, d) = _scaled_map(values, scales, readout, m)
    polys = tuple((pos, tuple(Fraction(a * d, n) for a in c)) for pos, c in out.items())
    return PwlFunction(m=m, breakplanes=planes, polytopes=polys)


# ---------------------------------------------------------------------------
# Evaluation and restriction
# ---------------------------------------------------------------------------


def pwl_eval(f: PwlFunction, x):
    x = tuple(rational(v) for v in x)
    if len(x) != f.m:
        raise ValueError(f"expected {f.m} coordinates, got {len(x)}")
    return affine_eval(f.component_at(x), x)


def pwl_restrict(f: PwlFunction, fixed) -> PwlFunction:
    """Restrict coordinates to fixed values (1-based index → value).

    Remaining coordinates keep their relative order.  Breakplanes that
    collapse to constants disappear (their sign prunes polytopes); the rest
    restrict and deduplicate.  Positions are re-enumerated over the
    restricted arrangement and mapped back to the unique original polytope
    through a lifted witness point, so no infeasible ghost positions are
    produced even when distinct planes collapse together.
    """
    fixed = {int(i): rational(v) for i, v in fixed.items()}
    for i in fixed:
        if not 1 <= i <= f.m:
            raise ValueError(f"coordinate index out of range: {i}")
    remaining = [i for i in range(1, f.m + 1) if i not in fixed]
    if not remaining:
        raise ValueError("restriction leaves an empty remaining dimension")
    if not fixed:
        return f
    m_new = len(remaining)

    def restrict_coeffs(c):
        const = c[0] + sum(c[i] * fixed[i] for i in fixed)
        return (const,) + tuple(c[i] for i in remaining)

    # a plane constant over the slice has one sign there; the lifted
    # witness settles it
    restricted = (restrict_coeffs(h) for h in f.breakplanes)
    planes = [r for r in restricted if any(a != 0 for a in r[1:])]

    def component(_pos, cell):
        lifted = [None] * f.m
        for i, v in fixed.items():
            lifted[i - 1] = v
        for i, v in zip(remaining, cell.sample):
            lifted[i - 1] = v
        return restrict_coeffs(f.component_at(lifted))

    return _refine(m_new, planes, component)


# ---------------------------------------------------------------------------
# Placing a function in a decomposition and reading it back
# ---------------------------------------------------------------------------


def value_gap(f: PwlFunction) -> PwlFunction:
    """The function F(x) − y of (x, y) ∈ R^{m+1}, whose zero-set is F's graph."""
    polys = tuple((pos, (*comp, Fraction(-1))) for pos, comp in f.polytopes)
    return PwlFunction(f.m + 1, tuple((*h, 0) for h in f.breakplanes), polys)


def _placed(coeffs, args, d: int) -> tuple:
    """The affine form a_0 + Σ a_i·x_{args_i} over R^d."""
    vec = [coeffs[0]] + [0] * d
    for g, a in zip(args, coeffs[1:], strict=True):
        vec[g] = a
    return tuple(vec)


def lift_graph(fn: PwlFunction, args, d: int) -> list:
    """The planes in R^d that make ``fn``, read at the coordinates ``args``
    (1-based, in fn's argument order), sign-invariant on every cell: its
    breakplanes, then the zero-set of each distinct non-constant component
    in first-appearance order, all placed at the arguments."""
    comps = dict.fromkeys(comp for _pos, comp in fn.polytopes if any(comp[1:]))
    return [_placed(h, args, d) for h in (*fn.breakplanes, *comps)]


def graph_sign(cd, fn: PwlFunction, args):
    """fn's sign on each full-level cell of a decomposition built over
    ``lift_graph(fn, args, cd.d)``.

    Returns a function from a cell id to −1, 0 or 1: the sign, on that
    cell, of the component at the cell's position.  Both the position and
    the sign are read from the stacks; a constant component has one sign.
    """
    signs = [plane_sign(cd, _placed(h, args, cd.d)) for h in fn.breakplanes]
    comps = {}
    for c in dict.fromkeys(comp for _pos, comp in fn.polytopes):
        s = (c[0] > 0) - (c[0] < 0)
        comps[c] = plane_sign(cd, _placed(c, args, cd.d)) if any(c[1:]) else lambda _id, s=s: s
    by_position = {pos: comps[comp] for pos, comp in fn.by_position.items()}
    if not signs and "" in by_position:  # one component: no position to read
        return by_position[""]

    t = max(g for h in fn.breakplanes for g, a in zip(args, h[1:]) if a)
    seen = {}  # the breakplanes read x_1..x_t: one position per level-t cell

    def sign(cid):
        on = seen.get(cid[:t])
        if on is None:
            pos = cell_position(signs, cid)
            on = by_position.get(pos)
            if on is None:
                raise ValueError(f"function is not proper: no polytope at position {pos!r}")
            if t < cd.d:
                seen[cid[:t]] = on
        return on(cid)

    return sign


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def pwl_to_json(f: PwlFunction) -> str:
    doc = {
        "inputs": f.m,
        "breakplanes": [[format_rational(a) for a in h] for h in f.breakplanes],
        "polytopes": [
            {"position": pos, "component": [format_rational(a) for a in comp]}
            for pos, comp in f.polytopes
        ],
    }
    return json.dumps(doc, indent=2)


def pwl_from_json(text: str) -> PwlFunction:
    """Read a function written by ``pwl_to_json``.

    Breakplanes may be given in any scaling; a position character refers to
    the plane as written, so where canonicalization reverses a plane's
    orientation its '+' and '-' are swapped in every position.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a PWL document must be a JSON object")
    try:
        m = doc["inputs"]
        written = [tuple(rational(a) for a in h) for h in doc["breakplanes"]]
        polys = [
            (p["position"], tuple(rational(a) for a in p["component"])) for p in doc["polytopes"]
        ]
    except KeyError as e:
        raise ValueError(f"missing field {e}") from e
    except TypeError as e:
        raise ValueError(f"malformed entry: {e}") from e
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError("inputs must be a positive integer")
    if any(len(h) != m + 1 for h in written):
        raise ValueError(f"breakplane of wrong length for {m} inputs")
    planes = tuple(canonicalize(h) for h in written)
    if len(set(planes)) != len(planes):
        raise ValueError("two breakplanes have the same canonical form")
    flipped = [next(a for a in h[1:] if a != 0) < 0 for h in written]
    swap = str.maketrans("+-", "-+")
    out = []
    for pos, comp in polys:
        if not isinstance(pos, str) or len(pos) != len(planes) or set(pos) - set("+-="):
            raise ValueError(f"malformed position {pos!r}")
        if len(comp) != m + 1:
            raise ValueError("component of wrong length")
        out.append(("".join(c.translate(swap) if f else c for c, f in zip(pos, flipped)), comp))
    return PwlFunction(m=m, breakplanes=planes, polytopes=tuple(out))
