"""Exact piecewise-linear representations of network functions.

A piecewise-linear function over R^m is stored as a set of *breakplanes*
(canonical hyperplanes) together with one affine *component* per realizable
sign position: a position is a string over {'+','-','='} with one character
per breakplane, and its polytope is the set of points realizing exactly
those signs.  A representation is *proper* when positions are unique and
total, exactly the feasible sign vectors appear, and components of
positions adjacent through an '=' flip agree on the shared boundary —
together these make the function well-defined and continuous.

Extraction from a network proceeds stage by stage, mirroring the layers:
coordinate functions are combined by scaling, summation (plane union) and
exact ReLU application (each component's zero-set joins the breakplanes).
Realizable positions are enumerated from the cell decomposition of the
breakplane arrangement: every cell's sample realizes one position, and
every realizable position is hit by some cell.  The properness check lives
with the test oracles, where feasibility goes through Fourier–Motzkin
elimination instead, so construction and verification follow independent
routes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .core import format_rational, rational
from .geometry import build_cd, canonicalize, make_arrangement, plane_sign
from .linprog import affine_eval
from .network import Network, NeuronId

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
    "pwl_to_json",
    "pwl_from_json",
]


@dataclass(frozen=True)
class PwlFunction:
    """Piecewise-linear function: breakplanes + one component per position.

    ``breakplanes`` is an ordered tuple of canonical hyperplanes in R^m;
    ``polytopes`` is an ordered tuple of (position, component) pairs where
    position is a string over '+-=' (one character per breakplane) and
    component is an affine coefficient tuple (a_0..a_m).
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
    """The position of point x over the planes: one '+-=' sign each."""
    pos = ""
    for h in planes:
        v = affine_eval(h, x)
        pos += "+" if v > 0 else "-" if v < 0 else "="
    return pos


def cell_position(signs, cid) -> str:
    """The position of a decomposition's cell over planes given by their
    ``plane_sign`` functions: one '+-=' sign each."""
    return "".join("=+-"[s(cid)] for s in signs)  # index −1 is '-'


def _zero_component(m: int) -> tuple:
    return (Fraction(0),) * (m + 1)


def _realizable_positions(planes, m: int):
    """All realizable sign positions over the plane list, with witnesses.

    Enumerated from the full-level cells of the decomposition: each cell
    realizes its position, read from the stacks, and the cells partition
    R^m, so every realizable position is reached.  Returns (position,
    sample) pairs, first witness per position, in deterministic cell order.
    """
    arr = make_arrangement(m, planes)
    if arr.hyperplanes != tuple(planes):
        raise RuntimeError("breakplanes must arrive canonical and deduplicated")
    cd = build_cd(arr)
    signs = [plane_sign(cd, h) for h in planes]
    out = []
    seen = set()
    for cell in cd.levels[m]:
        pos = cell_position(signs, cell.id)
        if pos not in seen:
            seen.add(pos)
            out.append((pos, cell.sample))
    return out


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def init_inputs(m: int):
    """The m coordinate projections as (trivially proper) PWL functions."""
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
    so downstream stages see a stable arrangement."""
    w = rational(w)
    polys = tuple(
        (pos, tuple(w * a for a in comp)) for pos, comp in f.polytopes
    )
    return PwlFunction(m=f.m, breakplanes=f.breakplanes, polytopes=polys)


def sum_stage(fs, bias=0) -> PwlFunction:
    """Pointwise sum of PWL functions plus a constant bias.

    Breakplanes are the deduplicated union; each realizable position over
    the union implies one position of every summand (restrict to its
    planes), whose components add up.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("sum_stage needs at least one function")
    m = fs[0].m
    if any(f.m != m for f in fs):
        raise ValueError("summands must share the input dimension")
    bias = rational(bias)

    planes = []
    plane_index = {}
    for f in fs:
        for h in f.breakplanes:
            if h not in plane_index:
                plane_index[h] = len(planes)
                planes.append(h)

    polys = []
    for pos, _sample in _realizable_positions(planes, m):
        comp = [bias] + [Fraction(0)] * m
        for f in fs:
            sub = "".join(pos[plane_index[h]] for h in f.breakplanes)
            part = f.by_position.get(sub)
            if part is None:
                raise ValueError(
                    f"summand is not proper: no polytope at position {sub!r}"
                )
            for j, a in enumerate(part):
                comp[j] += a
        polys.append((pos, tuple(comp)))
    return PwlFunction(m=m, breakplanes=tuple(planes), polytopes=tuple(polys))


def relu_stage(f: PwlFunction) -> PwlFunction:
    """Apply ReLU exactly: each non-constant component's zero-set joins the
    breakplanes, and components are kept where positive, zeroed elsewhere.
    A constant component contributes no plane (its zero-set is not a
    hyperplane); it is kept or zeroed by its sign alone."""
    planes = list(f.breakplanes)
    seen = set(planes)
    for _pos, comp in f.polytopes:
        if any(a != 0 for a in comp[1:]):
            h = canonicalize(comp)
            if h not in seen:
                seen.add(h)
                planes.append(h)

    n_old = len(f.breakplanes)
    polys = []
    for pos, sample in _realizable_positions(planes, f.m):
        old_pos = pos[:n_old]
        comp = f.by_position.get(old_pos)
        if comp is None:
            raise ValueError(
                f"function is not proper: no polytope at position {old_pos!r}"
            )
        keep = affine_eval(comp, sample) > 0
        polys.append((pos, comp if keep else _zero_component(f.m)))
    return PwlFunction(m=f.m, breakplanes=tuple(planes), polytopes=tuple(polys))


# ---------------------------------------------------------------------------
# Extraction from networks
# ---------------------------------------------------------------------------


def pwl_from_network(net: Network, target=None) -> PwlFunction:
    """Exact PWL representation of the value computed at ``target``.

    ``target`` is a hidden or output neuron (id or its string form);
    default is the first output.  Hidden targets yield the post-activation
    value; outputs are affine, so no final ReLU is applied.
    """
    from .network import parse_neuron_id

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
    else:
        if not 1 <= target.index <= len(net.outputs):
            raise ValueError(f"no such output neuron: {target}")

    funcs = init_inputs(net.inputs)
    for k, layer in enumerate(net.hidden, start=1):
        new = []
        for j, neuron in enumerate(layer, start=1):
            pre = sum_stage(
                [scale_stage(funcs[i], w) for i, w in enumerate(neuron.weights)],
                neuron.bias,
            )
            post = relu_stage(pre)
            if target.role == "hidden" and target.layer == k and target.index == j:
                return post
            new.append(post)
        funcs = new
    neuron = net.outputs[target.index - 1]
    return sum_stage(
        [scale_stage(funcs[i], w) for i, w in enumerate(neuron.weights)],
        neuron.bias,
    )


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

    planes = []
    seen = set()
    for h in f.breakplanes:
        r = restrict_coeffs(h)
        if all(a == 0 for a in r[1:]):
            continue  # constant sign over the slice: handled via lifting
        ch = canonicalize(r)
        if ch not in seen:
            seen.add(ch)
            planes.append(ch)

    polys = []
    for pos, sample in _realizable_positions(planes, m_new):
        lifted = [None] * f.m
        for i, v in fixed.items():
            lifted[i - 1] = v
        for i, v in zip(remaining, sample):
            lifted[i - 1] = v
        polys.append((pos, restrict_coeffs(f.component_at(lifted))))
    return PwlFunction(m=m_new, breakplanes=tuple(planes), polytopes=tuple(polys))


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
    doc = json.loads(text)
    m = doc["inputs"]
    if not isinstance(m, int) or m < 1:
        raise ValueError("inputs must be a positive integer")
    planes = tuple(
        canonicalize([rational(a) for a in h]) for h in doc["breakplanes"]
    )
    polys = tuple(
        (p["position"], tuple(rational(a) for a in p["component"]))
        for p in doc["polytopes"]
    )
    f = PwlFunction(m=m, breakplanes=planes, polytopes=polys)
    for pos, comp in polys:
        if len(pos) != len(planes) or len(comp) != m + 1:
            raise ValueError("malformed polytope entry")
    return f
