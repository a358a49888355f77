"""Linear first-order queries over networks, with one function symbol.

The query language is first-order logic over the reals with rational
linear arithmetic, comparisons, boolean connectives, quantifiers, and a
function symbol ``F`` denoting the network's input→output map.  One
normalizer pass over the atoms case-splits ``abs``/``min``/``max`` (and so
the distance helpers), rewrites ``a -> b`` as ``not a or b`` and makes
``F(x⃗) = y`` an f-atom; F inside other terms is then pulled into f-atoms.

Evaluation is exact and geometric.  A query is normalized into an *ordered
prenex* form — free variables first, then the quantified variables in
prefix order, every f-atom of the shape F(x_{g1},…,x_{gm}) = x_j over
pairwise-distinct variables in any index order, every other atom a strict
linear constraint.  The network's piecewise-linear map contributes planes
only where the matrix applies F: for each distinct f-atom, ``pwl`` places
F's breakplanes at its arguments and F's component graphs at its arguments
and result, and the constraint planes join in.  On the resulting cell
decomposition every cell is homogeneous for every atom, so the matrix,
reading each atom's sign from the stacks (an f-atom's through ``pwl``),
selects a set of full-level cells; quantifiers are then
eliminated from the inside out — ∃ projects cells to their bases, ∀ runs
the complement–project–complement dual.  A closed query ends at the origin
cell (true) or the empty set (false); an open query returns the satisfying
cells at the free level with one exact sample point each.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .core import rational
from .geometry import Arrangement, build_cd, make_arrangement, plane_sign
from .network import Network
from .pwl import PwlFunction, graph_sign, lift_graph, pwl_from_network

__all__ = [
    "QueryError",
    "parse_query",
    "normalize_ordered_prenex",
    "OrderedPrenexQuery",
    "CellSet",
    "build_query_arrangement",
    "select_cells_qfree",
    "project_exists",
    "complement",
    "evaluate_query",
    "QueryResult",
]


class QueryError(ValueError):
    """Raised for malformed queries: syntax, arity, or nonlinearity."""


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------
# Expressions.  XLin is an eagerly-folded linear combination; the remaining
# nodes exist only until normalization removes them.


@dataclass(frozen=True)
class XLin:
    const: Fraction
    coeffs: tuple  # sorted tuple of (variable name, nonzero Fraction)


@dataclass(frozen=True)
class XAdd:
    a: object
    b: object


@dataclass(frozen=True)
class XNeg:
    a: object


@dataclass(frozen=True)
class XMul:
    a: object
    b: object


@dataclass(frozen=True)
class XAbs:
    a: object


@dataclass(frozen=True)
class XMin:
    a: object
    b: object


@dataclass(frozen=True)
class XMax:
    a: object
    b: object


@dataclass(frozen=True)
class XF:
    args: tuple


# Formulas.


@dataclass(frozen=True)
class PCmp:
    rel: str  # '<' '<=' '=' '>=' '>'
    lhs: object
    rhs: object


@dataclass(frozen=True)
class PFAtom:
    args: tuple  # variable names
    result: str


@dataclass(frozen=True)
class PNot:
    body: object


@dataclass(frozen=True)
class PAnd:
    a: object
    b: object


@dataclass(frozen=True)
class POr:
    a: object
    b: object


@dataclass(frozen=True)
class PImplies:
    a: object
    b: object


@dataclass(frozen=True)
class PExists:
    var: str
    body: object


@dataclass(frozen=True)
class PForall:
    var: str
    body: object


def xlin_const(v) -> XLin:
    return XLin(rational(v), ())


def xlin_var(name: str) -> XLin:
    return XLin(Fraction(0), ((name, Fraction(1)),))


def _xlin_merge(a: XLin, b: XLin, sign: int) -> XLin:
    coeffs = dict(a.coeffs)
    for name, c in b.coeffs:
        coeffs[name] = coeffs.get(name, Fraction(0)) + sign * c
    items = tuple(sorted((n, c) for n, c in coeffs.items() if c != 0))
    return XLin(a.const + sign * b.const, items)


def _xlin_scale(a: XLin, q: Fraction) -> XLin:
    if q == 0:
        return XLin(Fraction(0), ())
    return XLin(a.const * q, tuple((n, c * q) for n, c in a.coeffs))


def _e_add(a, b):
    if isinstance(a, XLin) and isinstance(b, XLin):
        return _xlin_merge(a, b, 1)
    return XAdd(a, b)


def _e_sub(a, b):
    return _e_add(a, _e_neg(b))


def _e_neg(a):
    if isinstance(a, XLin):
        return XLin(-a.const, tuple((n, -c) for n, c in a.coeffs))
    return XNeg(a)


def _e_mul(a, b):
    if isinstance(a, XLin) and isinstance(b, XLin):
        if a.coeffs and b.coeffs:
            raise QueryError("non-linear arithmetic: variable times variable")
        if not a.coeffs:
            return _xlin_scale(b, a.const)
        return _xlin_scale(a, b.const)
    return XMul(a, b)


def _e_abs(a):
    if isinstance(a, XLin) and not a.coeffs:
        return XLin(abs(a.const), ())
    return XAbs(a)


def _e_min(a, b):
    if isinstance(a, XLin) and isinstance(b, XLin) and not (a.coeffs or b.coeffs):
        return a if a.const <= b.const else b
    return XMin(a, b)


def _e_max(a, b):
    if isinstance(a, XLin) and isinstance(b, XLin) and not (a.coeffs or b.coeffs):
        return a if a.const >= b.const else b
    return XMax(a, b)


def _e_div(a, b):
    if isinstance(b, XLin) and not b.coeffs:
        if b.const == 0:
            raise QueryError("division by zero in query")
        if isinstance(a, XLin):
            return _xlin_scale(a, 1 / b.const)
        return XMul(XLin(1 / b.const, ()), a)
    raise QueryError("non-linear arithmetic: division by a variable expression")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_KEYWORDS = {
    "exists", "forall", "and", "or", "not",
    "F", "abs", "min", "max", "dist_linf", "dist_l1",
}

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>->|<=|>=|[<>=+\-*/(),;.])"
    r"|(?P<bad>\S))"
)


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        if m.group("bad"):
            raise QueryError(f"unexpected character {m.group('bad')!r} at {m.start('bad')}")
        if m.group("num"):
            out.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident"):
            out.append(("ident", m.group("ident"), m.start("ident")))
        elif m.group("op"):
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(("eof", "", len(text)))
    return out


class _QueryParser:
    def __init__(self, text: str, m: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.m = m

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, at = self.take()
        if kind != "op" or val != op:
            raise QueryError(f"expected {op!r} at position {at}, found {val or 'end of input'!r}")

    def fail(self, message):
        _kind, val, at = self.peek()
        raise QueryError(f"{message} at position {at} (near {val or 'end of input'!r})")

    # formulas --------------------------------------------------------------

    def parse_formula(self):
        return self.parse_implies()

    def parse_implies(self):
        left = self.parse_or()
        kind, val, _ = self.peek()
        if kind == "op" and val == "->":
            self.take()
            return PImplies(left, self.parse_implies())
        return left

    def parse_or(self):
        left = self.parse_and()
        while self.peek()[:2] == ("ident", "or"):
            self.take()
            left = POr(left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_unary()
        while self.peek()[:2] == ("ident", "and"):
            self.take()
            left = PAnd(left, self.parse_unary())
        return left

    def parse_unary(self):
        kind, val, _ = self.peek()
        if kind == "ident" and val == "not":
            self.take()
            return PNot(self.parse_unary())
        if kind == "ident" and val in ("exists", "forall"):
            self.take()
            vkind, vname, vat = self.take()
            if vkind != "ident" or vname in _KEYWORDS:
                raise QueryError(f"expected a variable name after {val} at position {vat}")
            if vname.startswith("__"):
                raise QueryError("variable names starting with '__' are reserved")
            if self.peek()[:2] == ("op", "."):
                self.take()
            body = self.parse_formula()  # quantifier scope extends maximally
            return (PExists if val == "exists" else PForall)(vname, body)
        if kind == "op" and val == "(":
            # try a parenthesized formula; fall back to a comparison
            save = self.pos
            self.take()
            try:
                inner = self.parse_formula()
                self.expect_op(")")
                return inner
            except QueryError:
                self.pos = save
        return self.parse_comparison()

    def parse_comparison(self):
        lhs = self.parse_expr()
        kind, val, _ = self.peek()
        if kind == "op" and val in ("<", "<=", "=", ">=", ">"):
            self.take()
            rhs = self.parse_expr()
            return PCmp(val, lhs, rhs)
        self.fail("expected a comparison operator")

    # expressions -----------------------------------------------------------

    def parse_expr(self):
        left = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in ("+", "-"):
                self.take()
                right = self.parse_term()
                left = _e_add(left, right) if val == "+" else _e_sub(left, right)
            else:
                return left

    def parse_term(self):
        left = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in ("*", "/"):
                self.take()
                right = self.parse_factor()
                left = _e_mul(left, right) if val == "*" else _e_div(left, right)
            else:
                return left

    def parse_factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return _e_neg(self.parse_factor())
        return self.parse_primary()

    def _parse_args(self):
        args = [self.parse_expr()]
        while self.peek()[:2] == ("op", ","):
            self.take()
            args.append(self.parse_expr())
        return args

    def parse_primary(self):
        kind, val, at = self.take()
        if kind == "num":
            return xlin_const(val)
        if kind == "op" and val == "(":
            e = self.parse_expr()
            self.expect_op(")")
            return e
        if kind == "ident":
            if val == "F":
                self.expect_op("(")
                args = self._parse_args()
                self.expect_op(")")
                if len(args) != self.m:
                    raise QueryError(
                        f"F takes {self.m} argument(s), got {len(args)} at position {at}"
                    )
                return XF(tuple(args))
            if val == "abs":
                self.expect_op("(")
                e = self.parse_expr()
                self.expect_op(")")
                return _e_abs(e)
            if val in ("min", "max"):
                self.expect_op("(")
                a = self.parse_expr()
                self.expect_op(",")
                b = self.parse_expr()
                self.expect_op(")")
                return (_e_min if val == "min" else _e_max)(a, b)
            if val in ("dist_linf", "dist_l1"):
                self.expect_op("(")
                left = self._parse_args()
                self.expect_op(";")
                right = self._parse_args()
                self.expect_op(")")
                if len(left) != len(right) or not left:
                    raise QueryError(f"{val} needs two equal-length coordinate lists")
                diffs = [_e_abs(_e_sub(a, b)) for a, b in zip(left, right)]
                if val == "dist_l1":
                    out = diffs[0]
                    for e in diffs[1:]:
                        out = _e_add(out, e)
                    return out
                out = diffs[0]
                for e in diffs[1:]:
                    out = _e_max(out, e)
                return out
            if val in _KEYWORDS:
                raise QueryError(f"keyword {val!r} cannot be used here (position {at})")
            if val.startswith("__"):
                raise QueryError("variable names starting with '__' are reserved")
            return xlin_var(val)
        found = val or "end of input"
        raise QueryError(f"expected an expression at position {at}, found {found!r}")


def parse_query(text: str, m: int):
    """Parse a query; ``m`` is the network input count (checked against F)."""
    parser = _QueryParser(text, m)
    ast = parser.parse_formula()
    if parser.peek()[0] != "eof":
        parser.fail("unexpected trailing input")
    return ast


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


class _Gensym:
    def __init__(self):
        self.n = 0

    def fresh(self, prefix: str) -> str:
        self.n += 1
        return f"__{prefix}{self.n}"


def _expr_children(e):
    """The direct sub-expressions of an expression node, left to right."""
    if isinstance(e, XLin):
        return ()
    if isinstance(e, (XNeg, XAbs)):
        return (e.a,)
    if isinstance(e, (XAdd, XMul, XMin, XMax)):
        return (e.a, e.b)
    if isinstance(e, XF):
        return e.args
    raise TypeError(f"not an expression: {e!r}")


def _rebuild_expr(e, children):
    """The node e with its sub-expressions replaced, without folding."""
    if isinstance(e, XLin):
        return e
    if isinstance(e, XF):
        return XF(tuple(children))
    return type(e)(*children)


def _walk_expr(e, fn):
    """Rebuild an expression bottom-up through fn."""
    children = _expr_children(e)
    if children:
        e = _rebuild_expr(e, [_walk_expr(c, fn) for c in children])
    return fn(e)


def _sub_formulas(node):
    """The direct sub-formulas of a formula node; atoms have none."""
    if isinstance(node, (PNot, PExists, PForall)):
        return (node.body,)
    if isinstance(node, (PAnd, POr, PImplies)):
        return (node.a, node.b)
    return ()


def _map_formula(node, fn, *args):
    """The node with fn(sub, *args) applied to each direct sub-formula,
    left to right."""
    if isinstance(node, PNot):
        return PNot(fn(node.body, *args))
    if isinstance(node, (PAnd, POr, PImplies)):
        return type(node)(fn(node.a, *args), fn(node.b, *args))
    if isinstance(node, (PExists, PForall)):
        return type(node)(node.var, fn(node.body, *args))
    return node


def _rename_and_substitute(node, env, params, free_order, gensym):
    """α-rename bound variables apart, substitute parameters, and record
    free variables in first-appearance order."""

    def leaf(x):
        if not isinstance(x, XLin):
            return x
        const = x.const
        coeffs = {}
        for name, c in x.coeffs:
            if name in env:
                coeffs[env[name]] = coeffs.get(env[name], Fraction(0)) + c
            elif name in params:
                const += c * params[name]
            else:
                if name not in free_order:
                    free_order.append(name)
                coeffs[name] = coeffs.get(name, Fraction(0)) + c
        return XLin(const, tuple(sorted(coeffs.items())))

    if isinstance(node, PCmp):
        return PCmp(node.rel, _walk_expr(node.lhs, leaf), _walk_expr(node.rhs, leaf))
    if isinstance(node, (PExists, PForall)):
        if node.var in params:
            raise QueryError(f"quantified variable {node.var!r} shadows a parameter")
        fresh = gensym.fresh("b")
        inner = dict(env)
        inner[node.var] = fresh
        return type(node)(
            fresh, _rename_and_substitute(node.body, inner, params, free_order, gensym)
        )
    if not _sub_formulas(node):
        raise TypeError(f"not a formula: {node!r}")
    return _map_formula(node, _rename_and_substitute, env, params, free_order, gensym)


def _split(e, k):
    """k applied to e with its abs/min/max case-split away.

    The children are split first, left to right, so the innermost, then
    leftmost, sugar is split outermost; each branch conjoins the guard that
    selects it with k of the sugar-free expression.  Nodes are rebuilt
    without folding, so F arguments keep the shapes extraction compares."""
    children = _expr_children(e)

    def rest(done):
        if len(done) < len(children):
            return _split(children[len(done)], lambda c: rest(done + (c,)))
        node = _rebuild_expr(e, done)
        if isinstance(node, XAbs):
            zero = xlin_const(0)
            return POr(
                PAnd(PCmp(">=", node.a, zero), k(node.a)),
                PAnd(PCmp("<", node.a, zero), k(_e_neg(node.a))),
            )
        if isinstance(node, (XMin, XMax)):
            low = isinstance(node, XMin)
            return POr(
                PAnd(PCmp("<=" if low else ">=", node.a, node.b), k(node.a)),
                PAnd(PCmp(">" if low else "<", node.a, node.b), k(node.b)),
            )
        return k(node)

    return rest(())


def _is_plain_var(e):
    return (
        isinstance(e, XLin)
        and e.const == 0
        and len(e.coeffs) == 1
        and e.coeffs[0][1] == 1
    )


def _atom(rel, lhs, rhs):
    """A sugar-free comparison; F(x⃗) = y over pairwise-distinct plain
    variables becomes a structural f-atom untouched by extraction."""
    for fe, other in ((lhs, rhs), (rhs, lhs)) if rel == "=" else ():
        if isinstance(fe, XF) and all(_is_plain_var(a) for a in (*fe.args, other)):
            names = [a.coeffs[0][0] for a in (*fe.args, other)]
            if len(set(names)) == len(names):
                return PFAtom(tuple(names[:-1]), names[-1])
    return PCmp(rel, lhs, rhs)


def _desugar(node):
    """The one pass from the renamed tree to atoms: abs/min/max are
    case-split (``_split``), a -> b becomes not a or b, and F(x⃗) = y atoms
    become f-atoms."""
    if isinstance(node, PCmp):
        return _split(node.lhs, lambda a: _split(node.rhs, lambda b: _atom(node.rel, a, b)))
    if isinstance(node, PImplies):
        return POr(PNot(_desugar(node.a)), _desugar(node.b))
    return _map_formula(node, _desugar)


def _expr_vars(e, out: set):
    if isinstance(e, XLin):
        out.update(name for name, _c in e.coeffs)
    for c in _expr_children(e):
        _expr_vars(c, out)
    return out


def _extractable_occurrence(node, trigger):
    """First F occurrence to pull at this anchor: an XF node with XF-free
    arguments that either meets the trigger set itself or sits inside a
    triggered occurrence.  trigger=None matches everything."""

    def from_expr(e, forced):
        if isinstance(e, XLin):
            return None
        hit = isinstance(e, XF) and (
            forced or trigger is None or bool(_expr_vars(e, set()) & trigger)
        )
        for c in _expr_children(e):
            found = from_expr(c, hit or forced)
            if found is not None:
                return found
        if hit and not any(_has_f(a) for a in e.args):
            return e
        return None

    if isinstance(node, PCmp):
        found = from_expr(node.lhs, False)
        return found if found is not None else from_expr(node.rhs, False)
    for sub in _sub_formulas(node):
        found = _extractable_occurrence(sub, trigger)
        if found is not None:
            return found
    return None


def _has_f(e):
    return isinstance(e, XF) or any(_has_f(c) for c in _expr_children(e))


def _subst_occurrence(node, occ: XF, var_name: str):
    """Replace every occurrence structurally equal to occ by the variable."""

    def fn(x):
        if isinstance(x, XF) and x == occ:
            return xlin_var(var_name)
        return x

    if isinstance(node, PCmp):
        return PCmp(node.rel, _walk_expr(node.lhs, fn), _walk_expr(node.rhs, fn))
    return _map_formula(node, _subst_occurrence, occ, var_name)


def _pull_occurrences(node, trigger, gensym):
    """Extract every F occurrence anchored at this scope: identical argument
    tuples share one fresh result variable; plain-variable arguments are
    used directly, other arguments get a fresh copy with a defining
    equality.  The fresh variables are existentially quantified around the
    rewritten subformula; since the defining conjuncts pin them uniquely,
    the wrap is an equivalence in any boolean context.
    """
    trigger_set = set(trigger) if trigger is not None else None
    names = []
    defs = []
    body = node
    while True:
        occ = _extractable_occurrence(body, trigger_set)
        if occ is None:
            break
        arg_names = []
        used = set()
        for a in occ.args:
            if _is_plain_var(a) and a.coeffs[0][0] not in used:
                arg_names.append(a.coeffs[0][0])
                used.add(a.coeffs[0][0])
            else:
                z = gensym.fresh("z")
                names.append(z)
                defs.append(PCmp("=", xlin_var(z), a))
                arg_names.append(z)
                used.add(z)
                if trigger_set is not None:
                    trigger_set.add(z)
        r = gensym.fresh("r")
        names.append(r)
        defs.append(PFAtom(tuple(arg_names), r))
        if trigger_set is not None:
            trigger_set.add(r)
        body = _subst_occurrence(body, occ, r)
    if not defs:
        return node
    for d in reversed(defs):
        body = PAnd(d, body)
    for name in reversed(names):
        body = PExists(name, body)
    return body


def _extract_f_atoms(node, gensym):
    """Pull F occurrences into f-atoms, bottom-up: each distinct argument
    tuple is extracted at the innermost quantifier binding one of its
    variables (or at the root when none is quantified), sharing a single
    fresh result across all its occurrences."""
    if isinstance(node, (PExists, PForall)):
        body = _extract_f_atoms(node.body, gensym)
        return type(node)(node.var, _pull_occurrences(body, {node.var}, gensym))
    return _map_formula(node, _extract_f_atoms, gensym)


def _prenex(node):
    """Pull quantifiers to a prefix (bound names are already distinct)."""
    if isinstance(node, (PExists, PForall)):
        prefix, matrix = _prenex(node.body)
        return [("exists" if isinstance(node, PExists) else "forall", node.var)] + prefix, matrix
    if isinstance(node, PNot):
        prefix, matrix = _prenex(node.body)
        flipped = [
            ("forall" if q == "exists" else "exists", v) for q, v in prefix
        ]
        return flipped, PNot(matrix)
    if isinstance(node, (PAnd, POr)):
        pa, ma = _prenex(node.a)
        pb, mb = _prenex(node.b)
        return pa + pb, type(node)(ma, mb)
    return [], node


# Ordered matrix nodes.


@dataclass(frozen=True)
class MBool:
    value: bool


@dataclass(frozen=True)
class MAtom:
    coeffs: tuple  # (a_0..a_d), strict: a_0 + Σ a_i x_i > 0


@dataclass(frozen=True)
class MFAtom:
    args: tuple  # 1-based variable indices g_1..g_m, in F's argument order
    result: int  # index j of the result, distinct from every g_i


@dataclass(frozen=True)
class MNot:
    body: object


@dataclass(frozen=True)
class MAnd:
    items: tuple


@dataclass(frozen=True)
class MOr:
    items: tuple


@dataclass(frozen=True)
class OrderedPrenexQuery:
    """Normalized query: free variables first, then the quantifier prefix;
    matrix over strict linear atoms and f-atoms."""

    free_vars: tuple  # user names of x_1..x_k
    var_names: tuple  # names of x_1..x_d (internal names after x_k)
    prefix: tuple  # 'exists'/'forall' for x_{k+1}..x_d
    matrix: object


def _fold_linear(x):
    if isinstance(x, XAdd):
        return _e_add(x.a, x.b)
    if isinstance(x, XNeg):
        return _e_neg(x.a)
    if isinstance(x, XMul):
        return _e_mul(x.a, x.b)
    return x


def _linear(e) -> XLin:
    """Fold a normalized expression into one XLin; rejects non-linearity."""
    out = _walk_expr(e, _fold_linear)
    if not isinstance(out, XLin):
        raise RuntimeError(f"unexpected node after normalization: {out!r}")
    return out


def _strict_atom(lhs: XLin, rhs: XLin, pos):
    """lhs − rhs > 0 as a matrix atom over x_1..x_d, or a constant."""
    vec = [lhs.const - rhs.const] + [Fraction(0)] * len(pos)
    for name, c in lhs.coeffs:
        vec[pos[name]] = c
    for name, c in rhs.coeffs:
        vec[pos[name]] -= c
    if all(a == 0 for a in vec[1:]):
        return MBool(vec[0] > 0)
    return MAtom(tuple(vec))


def _lower_matrix(node, pos):
    if isinstance(node, PCmp):
        lhs, rhs = _linear(node.lhs), _linear(node.rhs)
        if node.rel == ">":
            return _strict_atom(lhs, rhs, pos)
        if node.rel == "<":
            return _strict_atom(rhs, lhs, pos)
        if node.rel == ">=":
            return MNot(_strict_atom(rhs, lhs, pos))
        if node.rel == "<=":
            return MNot(_strict_atom(lhs, rhs, pos))
        return MAnd((MNot(_strict_atom(lhs, rhs, pos)), MNot(_strict_atom(rhs, lhs, pos))))
    if isinstance(node, PFAtom):
        return MFAtom(tuple(pos[a] for a in node.args), pos[node.result])
    if isinstance(node, PNot):
        return MNot(_lower_matrix(node.body, pos))
    if isinstance(node, PAnd):
        return MAnd((_lower_matrix(node.a, pos), _lower_matrix(node.b, pos)))
    if isinstance(node, POr):
        return MOr((_lower_matrix(node.a, pos), _lower_matrix(node.b, pos)))
    raise RuntimeError(f"unexpected node in matrix: {node!r}")


def normalize_ordered_prenex(ast, parameters=None, free_order=None) -> OrderedPrenexQuery:
    """Bring a query into ordered prenex normal form.

    Steps: rename bound variables apart and substitute parameters; one
    pass over the atoms case-splits abs/min/max, rewrites implications and
    turns F(x⃗) = y into f-atoms; pull the remaining F occurrences into
    f-atoms with fresh variables; prenex; rewrite non-strict/equality
    comparisons into boolean formulas over strict atoms; assign the total
    variable order with free variables first.  An f-atom's variables may
    take any places in that order.
    """
    params = {k: rational(v) for k, v in (parameters or {}).items()}
    gensym = _Gensym()
    seen_free = []
    tree = _rename_and_substitute(ast, {}, params, seen_free, gensym)
    if free_order is not None:
        missing = [v for v in seen_free if v not in free_order]
        if missing:
            raise QueryError(f"free variables not declared: {', '.join(missing)}")
        repeated = sorted({v for v in free_order if free_order.count(v) > 1})
        if repeated:
            raise QueryError(f"free variables declared twice: {', '.join(repeated)}")
        free_vars = tuple(free_order)
    else:
        free_vars = tuple(seen_free)
    tree = _extract_f_atoms(_desugar(tree), gensym)
    tree = _pull_occurrences(tree, None, gensym)

    prefix, matrix = _prenex(tree)
    order = list(free_vars) + [v for _q, v in prefix]
    pos = {name: i + 1 for i, name in enumerate(order)}
    lowered = _lower_matrix(matrix, pos)
    return OrderedPrenexQuery(
        free_vars=free_vars,
        var_names=tuple(order),
        prefix=tuple(q for q, _v in prefix),
        matrix=lowered,
    )


# ---------------------------------------------------------------------------
# Arrangement assembly and cell selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellSet:
    level: int
    ids: frozenset


def _matrix_nodes(node):
    yield node
    if isinstance(node, MNot):
        yield from _matrix_nodes(node.body)
    elif isinstance(node, (MAnd, MOr)):
        for item in node.items:
            yield from _matrix_nodes(item)


def build_query_arrangement(f, q: OrderedPrenexQuery) -> Arrangement:
    """A_f ∪ A_ψ in R^d: the constraint planes of the linear atoms, plus,
    for each distinct f-atom F(x_g⃗) = x_j of the matrix, the PWL
    function's ``lift_graph`` at (x_g⃗, x_j)."""
    d = len(q.var_names)
    if d < 1:
        raise ValueError("arrangement needs at least one variable")
    nodes = list(_matrix_nodes(q.matrix))
    planes = [n.coeffs for n in nodes if isinstance(n, MAtom)]
    fatoms = dict.fromkeys(n for n in nodes if isinstance(n, MFAtom))
    if fatoms and f is None:
        raise ValueError("query contains F but no function was supplied")
    for atom in fatoms:
        planes += lift_graph(f, atom.args, atom.result, d)
    return make_arrangement(d, planes)


def _predicate(cd, f, matrix):
    """The matrix lowered once into a predicate over full-level cell ids.

    Every atom's sign on a cell is read from the decomposition's stacks: a
    linear atom holds where its plane is positive, an f-atom where
    ``graph_sign`` reads 0, that is, where the cell lies on F's graph.
    """
    if isinstance(matrix, MBool):
        return lambda cid: matrix.value
    if isinstance(matrix, MAtom):
        if len(matrix.coeffs) != cd.d + 1:
            raise ValueError("decomposition is not compatible with the query arrangement")
        sign = plane_sign(cd, matrix.coeffs)
        return lambda cid: sign(cid) > 0
    if isinstance(matrix, MFAtom):
        sign = graph_sign(cd, f, matrix.args, matrix.result)
        return lambda cid: sign(cid) == 0
    if isinstance(matrix, MNot):
        body = _predicate(cd, f, matrix.body)
        return lambda cid: not body(cid)
    if isinstance(matrix, (MAnd, MOr)):
        items = [_predicate(cd, f, item) for item in matrix.items]
        test = all if isinstance(matrix, MAnd) else any
        return lambda cid: test(p(cid) for p in items)
    raise RuntimeError(f"unexpected matrix node: {matrix!r}")


def select_cells_qfree(cd, f, matrix) -> CellSet:
    """The set of full-level cells satisfying the quantifier-free matrix.

    The decomposition must be built over every plane of the matrix (atom
    planes, and F's instantiated breakplanes and graphs for each f-atom);
    otherwise a ValueError reports it as not compatible.  Every atom is then
    sign-invariant on every cell, and its sign is read from the stacks, so
    no cell is decided by arithmetic.
    """
    d = cd.d
    holds = _predicate(cd, f, matrix)
    return CellSet(level=d, ids=frozenset(c.id for c in cd.levels[d] if holds(c.id)))


def project_exists(cd, s: CellSet) -> CellSet:
    """∃-step: each cell projects exactly onto its base cell."""
    if s.level < 1:
        raise ValueError("cannot project below level 0")
    return CellSet(
        level=s.level - 1, ids=frozenset(cd.index[cid].base for cid in s.ids)
    )


def complement(cd, s: CellSet) -> CellSet:
    every = frozenset(c.id for c in cd.levels[s.level])
    return CellSet(level=s.level, ids=every - s.ids)


# ---------------------------------------------------------------------------
# End-to-end evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryResult:
    """Outcome of evaluate_query: ``truth`` for closed queries, otherwise
    the satisfying cells at the free level with one sample point each."""

    truth: bool | None
    free_vars: tuple = ()
    cells: tuple = ()  # ((cell id, {var name: Fraction}), …)


def evaluate_query(subject, query, parameters=None, free_order=None) -> QueryResult:
    """Evaluate a query against a network or a PWL function.

    Closed queries yield a boolean; open queries yield the satisfying cells
    over the free variables, each with an exact sample point.  Queries
    without F skip function extraction and run on the constraint
    arrangement alone.
    """
    if isinstance(subject, Network):
        m = subject.inputs
    elif isinstance(subject, PwlFunction):
        m = subject.m
    else:
        raise TypeError("subject must be a Network or a PwlFunction")
    ast = parse_query(query, m) if isinstance(query, str) else query
    q = normalize_ordered_prenex(ast, parameters, free_order)

    d = len(q.var_names)
    k = len(q.free_vars)
    if d == 0:
        return QueryResult(truth=_predicate(None, None, q.matrix)(()))

    f = None
    if any(isinstance(n, MFAtom) for n in _matrix_nodes(q.matrix)):
        f = subject if isinstance(subject, PwlFunction) else pwl_from_network(subject)

    arr = build_query_arrangement(f, q)
    cd = build_cd(arr)
    s = select_cells_qfree(cd, f, q.matrix)
    for quant in reversed(q.prefix):
        if quant == "exists":
            s = project_exists(cd, s)
        else:
            s = complement(cd, project_exists(cd, complement(cd, s)))
    if s.level != k:
        raise RuntimeError("quantifier elimination must end at the free level")
    if k == 0:
        return QueryResult(truth=(() in s.ids))
    cells = tuple(
        (cid, dict(zip(q.free_vars, cd.index[cid].sample)))
        for cid in sorted(s.ids)
    )
    return QueryResult(truth=None, free_vars=q.free_vars, cells=cells)
