"""Exact reference values from first principles.

Nothing here calls the package's geometry, PWL or analysis code: networks are
read only as data (``net.hidden``, ``net.outputs``, neuron ``bias`` and
``weights``).  Two independent routes are used:

* convex splitting, for boxes with at most two free coordinates and any
  depth: the box is cut layer by layer along each neuron's zero set, on which
  every neuron is affine, and each final convex piece contributes its measure
  times the function's value at its centroid;
* a closed form for one hidden layer in any dimension: integrating
  ``(c + w·x)_+`` over a box one coordinate at a time gives a signed sum over
  the box's vertices of ``(c + w·v)_+^(k+1) / ((k+1)! ∏ w_i)``.

It also decides closed sentences about one-input networks by probing every
region of the line arrangement the sentence and the network induce; the
Fourier–Motzkin oracle of the test suite can take minutes on sentences that
negate an F-atom under alternating quantifiers.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import oracles

# An affine function of the free coordinates is a tuple (a_0, a_1, .., a_k).


def _affine_combo(bias, weights, acts, k):
    out = [Fraction(bias)] + [Fraction(0)] * k
    for w, act in zip(weights, acts):
        if w:
            for j in range(k + 1):
                out[j] += w * act[j]
    return tuple(out)


def _at(f, x):
    return f[0] + sum(a * v for a, v in zip(f[1:], x))


def _split(poly, f):
    """Cut a convex polygon (or segment) by f = 0 into its f>0 and f<0 sides."""
    pos, neg = [], []
    if len(poly[0]) == 1:
        (lo,), (hi,) = poly
        flo, fhi = _at(f, (lo,)), _at(f, (hi,))
        if flo * fhi < 0:
            cut = lo + (hi - lo) * flo / (flo - fhi)
            parts = [[(lo,), (cut,)], [(cut,), (hi,)]]
            return (parts[0], parts[1]) if flo > 0 else (parts[1], parts[0])
        return (poly, None) if flo + fhi > 0 else (None, poly)
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        fp, fq = _at(f, p), _at(f, q)
        if fp >= 0:
            pos.append(p)
        if fp <= 0:
            neg.append(p)
        if fp * fq < 0:
            t = fp / (fp - fq)
            cut = tuple(a + t * (b - a) for a, b in zip(p, q))
            pos.append(cut)
            neg.append(cut)
    return (pos if len(pos) >= 3 else None), (neg if len(neg) >= 3 else None)


def _measure_centroid(poly):
    if len(poly[0]) == 1:
        (lo,), (hi,) = poly
        return hi - lo, ((lo + hi) / 2,)
    area = Fraction(0)
    cx = cy = Fraction(0)
    n = len(poly)
    for i in range(n):
        (x0, y0), (x1, y1) = poly[i], poly[(i + 1) % n]
        cross = x0 * y1 - x1 * y0
        area += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    if area == 0:
        return Fraction(0), None
    return abs(area) / 2, (cx / (3 * area), cy / (3 * area))


def _restricted_inputs(m, fixed):
    """Input coordinates as affine functions of the free ones."""
    free = [i for i in range(m) if i not in fixed]
    k = len(free)
    acts = []
    for i in range(m):
        if i in fixed:
            acts.append((Fraction(fixed[i]),) + (Fraction(0),) * k)
        else:
            unit = [Fraction(0)] * (k + 1)
            unit[free.index(i) + 1] = Fraction(1)
            acts.append(tuple(unit))
    return free, acts


def split_integral(net, intervals, fixed=None):
    """∫ F over the free coordinates of the box (at most two of them), with
    the coordinates in ``fixed`` (0-based index -> value) pinned."""
    fixed = fixed or {}
    free, acts = _restricted_inputs(net.inputs, fixed)
    k = len(free)
    if k == 0:
        return _forward(net, [fixed[i] for i in range(net.inputs)])
    if k > 2:
        raise ValueError("convex splitting handles at most two free coordinates")
    bounds = [intervals[i] for i in free]
    if k == 1:
        box = [(bounds[0][0],), (bounds[0][1],)]
    else:
        (x0, x1), (y0, y1) = bounds
        box = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    # Each piece carries the previous layer's activations and the current
    # layer's, all affine on the piece.
    pieces = [(box, tuple(acts))]
    for layer in net.hidden:
        pieces = [(poly, prev, ()) for poly, prev in pieces]
        for nr in layer:
            nxt = []
            for poly, prev, cur in pieces:
                pre = _affine_combo(nr.bias, nr.weights, prev, k)
                for part, post in _relu_split(poly, pre):
                    nxt.append((part, prev, cur + (post,)))
            pieces = nxt
        pieces = [(poly, cur) for poly, _prev, cur in pieces]
    total = Fraction(0)
    out = net.outputs[0]
    for poly, acts in pieces:
        area, centroid = _measure_centroid(poly)
        if area:
            total += area * _at(_affine_combo(out.bias, out.weights, acts, k), centroid)
    return total


def _relu_split(poly, pre):
    """(piece, post-activation) pairs: ReLU of ``pre`` is affine on each."""
    zero = (Fraction(0),) * len(pre)
    if all(a == 0 for a in pre[1:]):
        return [(poly, pre if pre[0] > 0 else zero)]
    pos, neg = _split(poly, pre)
    return [(p, post) for p, post in ((pos, pre), (neg, zero)) if p is not None]


def _forward(net, x):
    acts = [Fraction(v) for v in x]
    for layer in net.hidden:
        acts = [
            max(Fraction(0), nr.bias + sum(w * a for w, a in zip(nr.weights, acts)))
            for nr in layer
        ]
    nr = net.outputs[0]
    return nr.bias + sum(w * a for w, a in zip(nr.weights, acts))


def relu_box_integral(c, w, intervals):
    """∫ over the box of (c + w·x)_+, exactly."""
    scale = Fraction(1)
    live = []
    for wi, (lo, hi) in zip(w, intervals):
        if wi == 0:
            scale *= hi - lo
        else:
            live.append((wi, lo, hi))
    k = len(live)
    if k == 0:
        return scale * max(Fraction(0), c)
    total = Fraction(0)
    for corner in itertools.product((0, 1), repeat=k):
        value = c
        sign = 1
        for bit, (wi, lo, hi) in zip(corner, live):
            value += wi * (hi if bit else lo)
            sign = sign if bit else -sign
        if value > 0:
            total += sign * value ** (k + 1)
    denom = math.factorial(k + 1)
    for wi, _lo, _hi in live:
        denom *= wi
    return scale * total / denom


def closed_form_integral(net, intervals, fixed=None):
    """∫ F over the free coordinates of the box for a one-hidden-layer net."""
    if len(net.hidden) != 1:
        raise ValueError("the closed form needs exactly one hidden layer")
    fixed = fixed or {}
    free = [i for i in range(net.inputs) if i not in fixed]
    sub = [intervals[i] for i in free]
    volume = Fraction(1)
    for lo, hi in sub:
        volume *= hi - lo
    out = net.outputs[0]
    total = out.bias * volume
    for v, nr in zip(out.weights, net.hidden[0]):
        c = nr.bias + sum(nr.weights[i] * fixed[i] for i in fixed)
        total += v * relu_box_integral(c, [nr.weights[i] for i in free], sub)
    return total


def box_integral(net, intervals, fixed=None):
    """Exact ∫ F over the box's free coordinates by whichever route applies."""
    free = net.inputs - len(fixed or {})
    if free <= 2:
        return split_integral(net, intervals, fixed)
    return closed_form_integral(net, intervals, fixed)


def shapley(net, y, intervals, i):
    """Shapley value of input i (1-based) at y, inputs uniform on the box."""
    m = net.inputs
    y = [Fraction(v) for v in y]

    def expectation(coalition):
        fixed = {j: y[j] for j in coalition}
        volume = Fraction(1)
        for j in range(m):
            if j not in fixed:
                volume *= intervals[j][1] - intervals[j][0]
        return box_integral(net, intervals, fixed) / volume

    others = [j for j in range(m) if j != i - 1]
    total = Fraction(0)
    for size in range(m):
        weight = Fraction(
            math.factorial(size) * math.factorial(m - 1 - size), math.factorial(m)
        )
        for coalition in itertools.combinations(others, size):
            gain = expectation(coalition + (i - 1,)) - expectation(coalition)
            total += weight * gain
    return total


# ---------------------------------------------------------------------------
# Closed sentences over x1 (and x2) for one-input networks
# ---------------------------------------------------------------------------

# Kinks are searched for in [-_WINDOW, _WINDOW]; the benchmark's weights put
# every kink within 32 of the origin.
_WINDOW = Fraction(1024)


def _holds(tree, xs, f):
    kind = tree[0]
    if kind == "f":
        _, gs, j = tree
        return f(xs[gs[0] - 1]) == xs[j - 1]
    if kind == "lin":
        _, c, rel = tree
        v = c[0] + sum(a * x for a, x in zip(c[1:], xs))
        return v > 0 if rel == "gt" else v >= 0 if rel == "ge" else v == 0
    if kind == "not":
        return not _holds(tree[1], xs, f)
    if kind == "and":
        return _holds(tree[1], xs, f) and _holds(tree[2], xs, f)
    return _holds(tree[1], xs, f) or _holds(tree[2], xs, f)


def _atoms(tree):
    if tree[0] in ("f", "lin"):
        yield tree
    else:
        for sub in tree[1:]:
            yield from _atoms(sub)


def _probes(points):
    """The points, the midpoints between them, and one point beyond each end:
    a representative of every region of the line the points cut out."""
    pts = sorted(set(points))
    if not pts:
        return [Fraction(0)]
    mids = [(a + b) / 2 for a, b in zip(pts, pts[1:])]
    return [pts[0] - 1] + pts + mids + [pts[-1] + 1]


def decide_sentence_1d(net, prefix, matrix):
    """Truth of a closed prenex sentence over x1 (and x2) whose F-atoms read
    F(x1) = x2, for a one-input net, by exhaustive probing.

    With x1 fixed, every atom changes truth only at one height of x2 (F(x1)
    or an atom's line), so probing those heights, the gaps between them and
    beyond them decides the inner quantifier.  The inner verdict can change
    with x1 only at a kink of F, at a root of an atom free of x2, or where
    two of the lines (atom lines and F's affine pieces, extended) cross, so
    probing those x1 values and the gaps between them decides the outer one.
    """
    d = len(prefix)
    if d not in (1, 2):
        raise ValueError("decides sentences over one or two variables only")

    def f(x):
        return _forward(net, [x])

    lines = []  # (slope, intercept) of x2 as a function of x1
    crit = []
    if d == 2:
        kinks = candidate_kinks(net)
        crit.extend(kinks)
        pts = [-_WINDOW] + kinks + [_WINDOW]
        for p, q in zip(pts, pts[1:]):
            slope = (f(q) - f(p)) / (q - p)
            lines.append((slope, f(p) - slope * p))
    for atom in _atoms(matrix):
        if atom[0] != "lin":
            continue
        c = atom[1]
        if d == 2 and c[2] != 0:
            lines.append((-c[1] / c[2], -c[0] / c[2]))
        elif c[1] != 0:
            crit.append(-c[0] / c[1])
    if d == 2:
        for (s1, t1), (s2, t2) in itertools.combinations(lines, 2):
            if s1 != s2:
                crit.append((t2 - t1) / (s1 - s2))

    def quantify(q, values, test):
        return any(map(test, values)) if q == "exists" else all(map(test, values))

    def inner(x1):
        if d == 1:
            return _holds(matrix, (x1,), f)
        heights = [f(x1)]
        for atom in _atoms(matrix):
            c = atom[1] if atom[0] == "lin" else None
            if c is not None and c[2] != 0:
                heights.append(-(c[0] + c[1] * x1) / c[2])
        return quantify(prefix[1], _probes(heights), lambda x2: _holds(matrix, (x1, x2), f))

    return quantify(prefix[0], _probes(crit), inner)


def candidate_kinks(net):
    """Every kink of a one-input net, from a breakpoint scan of its layers."""
    return oracles.candidate_kinks_1d(net, -_WINDOW, _WINDOW)[1:-1]
