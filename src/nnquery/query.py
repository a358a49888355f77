"""Linear first-order queries over networks, with one function symbol.

The query language is first-order logic over the reals with rational
linear arithmetic, comparisons, boolean connectives, quantifiers, and a
function symbol ``F`` denoting the network's input→output map.  The parser
is a ``core.Tokens`` cursor over the query's own tokens (a numeral has
digits before any ``.``, since ``exists x . …`` uses ``.`` on its own), and a
syntax error names its position, ``len(text)`` at the end.  It reads every
term as one linear form (``XLin``) over variables and nodes, a node
being ``abs``, ``min``, ``max`` or ``F`` of linear forms.  A chain
of ``and`` or of ``or`` is one n-ary node (``connective``), and
``a -> b -> c`` is lowered to ``not a or not b or c``, so every walk over
a formula recurses by nesting depth only.  Arithmetic folds as it parses,
so a product of two non-constant forms is rejected there.  One normalizer
pass over the atoms case-splits the ``abs``/``min``/``max`` nodes (and so
the distance helpers) and makes ``F(x⃗) = y`` an f-atom; the remaining F
nodes are then pulled into f-atoms.  Every rewrite of a term (renaming,
case-splitting, F extraction) maps it through ``_map_terms``.

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

from .core import Tokens, connective, nesting_limit, rational
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


@dataclass(frozen=True)
class XLin:
    """A linear form: const + Σ c·v over variables + Σ c·n over nodes.

    Every query term is one XLin.  The variable coefficients are sorted by
    name and the node coefficients keep their nodes' first appearance; no
    coefficient is zero, so equal forms compare equal.  A node applies
    abs, min, max or F to XLin arguments."""

    const: Fraction
    coeffs: tuple = ()  # sorted tuple of (variable name, nonzero Fraction)
    nodes: tuple = ()  # tuple of (node, nonzero Fraction), first appearance first


@dataclass(frozen=True)
class XNode:
    args: tuple  # XLin arguments


class XAbs(XNode):
    pass


class XMin(XNode):
    pass


class XMax(XNode):
    pass


class XF(XNode):
    pass


# Formulas.  A matrix after lowering keeps PNot/PAnd/POr over the
# matrix atoms MAtom, MFAtom and MBool.


@dataclass(frozen=True)
class PCmp:
    rel: str  # '<' '<=' '=' '>=' '>'
    lhs: XLin
    rhs: XLin


@dataclass(frozen=True)
class PFAtom:
    args: tuple  # variable names
    result: str


@dataclass(frozen=True)
class PNot:
    body: object


@dataclass(frozen=True)
class PAnd:
    args: tuple  # two or more sub-formulas; built by ``connective``


@dataclass(frozen=True)
class POr:
    args: tuple  # two or more sub-formulas; built by ``connective``


@dataclass(frozen=True)
class PExists:
    var: str
    body: object


@dataclass(frozen=True)
class PForall:
    var: str
    body: object


_ZERO = XLin(Fraction(0))


def xlin_var(name: str) -> XLin:
    return XLin(Fraction(0), ((name, Fraction(1)),))


def _node_form(node) -> XLin:
    return XLin(Fraction(0), (), ((node, Fraction(1)),))


def _sum(const, terms) -> XLin:
    """The form const + Σ q·f over the pairs (f, q) of terms."""
    coeffs, nodes = {}, {}
    for f, q in terms:
        if f.const:
            const += q * f.const
        for table, items in ((coeffs, f.coeffs), (nodes, f.nodes)):
            for key, c in items:
                c = c if q == 1 else q * c
                table[key] = table[key] + c if key in table else c
    return XLin(
        const,
        tuple(sorted((n, c) for n, c in coeffs.items() if c != 0)),
        tuple((n, c) for n, c in nodes.items() if c != 0),
    )


def _combine(a: XLin, b: XLin, q) -> XLin:
    """The form a + q·b."""
    return _sum(Fraction(0), ((a, 1), (b, q)))


def _is_const(e: XLin) -> bool:
    return not (e.coeffs or e.nodes)


def _e_mul(a: XLin, b: XLin) -> XLin:
    if not _is_const(a):
        a, b = b, a
    if not _is_const(a):
        raise QueryError("non-linear arithmetic: product of two non-constant terms")
    return _combine(_ZERO, b, a.const)


def _e_div(a: XLin, b: XLin) -> XLin:
    if not _is_const(b):
        raise QueryError("non-linear arithmetic: division by a variable expression")
    if b.const == 0:
        raise QueryError("division by zero in query")
    return _combine(_ZERO, a, 1 / b.const)


def _e_abs(a: XLin) -> XLin:
    return XLin(abs(a.const)) if _is_const(a) else _node_form(XAbs((a,)))


def _e_min_max(kind, a: XLin, b: XLin) -> XLin:
    """min(a, b) for kind XMin, max(a, b) for kind XMax."""
    if _is_const(a) and _is_const(b):
        return XLin((min if kind is XMin else max)(a.const, b.const))
    return _node_form(kind((a, b)))


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


def _syntax_error(message: str, at: int) -> QueryError:
    return QueryError(f"{message} at position {at}")


# How deeply formulas and expressions may nest: open '(', argument lists,
# 'not' and quantifiers, counted together.  Each level costs the recursive
# descent a few Python frames, so this stays well under the interpreter's
# recursion limit and deeper input gets a QueryError, not a RecursionError.
_MAX_NESTING = 105
_nesting = nesting_limit(_MAX_NESTING, "query")


class _QueryParser(Tokens):
    def __init__(self, text: str, m: int):
        super().__init__(_TOKEN, text, _syntax_error)
        self.m = m

    # formulas --------------------------------------------------------------

    def parse_formula(self):
        # '->' associates to the right: a -> (b -> c) is not a or not b or c
        parts = self.operands("op", "->", self.parse_or)
        return connective(POr, [*map(PNot, parts[:-1]), parts[-1]])

    def parse_or(self):
        return connective(POr, self.operands("ident", "or", self.parse_and))

    def parse_and(self):
        return connective(PAnd, self.operands("ident", "and", self.parse_unary))

    @_nesting
    def parse_unary(self):
        if self.at("ident", "not"):
            self.take()
            return PNot(self.parse_unary())
        if self.at("ident", "exists", "forall"):
            quantifier = self.take()[1]
            if not self.at("ident") or self.peek()[1] in _KEYWORDS:
                self.fail(f"expected a variable name after {quantifier}")
            name = self.take()[1]
            if name.startswith("__"):
                raise QueryError("variable names starting with '__' are reserved")
            if self.at("op", "."):
                self.take()
            body = self.parse_formula()  # quantifier scope extends maximally
            return (PExists if quantifier == "exists" else PForall)(name, body)
        if self.at("op", "("):
            # try a parenthesized formula; fall back to a comparison
            save = self.pos
            self.take()
            try:
                inner = self.parse_formula()
                self.expect(")")
                return inner
            except QueryError:
                self.pos = save
        return self.parse_comparison()

    def parse_comparison(self):
        lhs = self.parse_expr()
        if not self.at("op", "<", "<=", "=", ">=", ">"):
            self.fail("expected a comparison operator")
        return PCmp(self.take()[1], lhs, self.parse_expr())

    # expressions -----------------------------------------------------------

    def parse_expr(self):
        left = self.parse_term()
        while self.at("op", "+", "-"):
            sign = 1 if self.take()[1] == "+" else -1
            left = _combine(left, self.parse_term(), sign)
        return left

    def parse_term(self):
        left = self.parse_factor()
        while self.at("op", "*", "/"):
            op = self.take()[1]
            right = self.parse_factor()
            left = _e_mul(left, right) if op == "*" else _e_div(left, right)
        return left

    def parse_factor(self):
        negations = 0
        while self.at("op", "-"):
            self.take()
            negations += 1
        e = self.parse_primary()
        for _ in range(negations):
            e = _combine(_ZERO, e, -1)
        return e

    @_nesting
    def parse_primary(self):
        kind, val, at = self.peek()
        if kind not in ("num", "ident") and val != "(":
            self.fail("expected an expression")
        self.take()
        if kind == "num":
            return XLin(rational(val))
        if val == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        if val == "F":
            self.expect("(")
            args = self.operands("op", ",", self.parse_expr)
            self.expect(")")
            if len(args) != self.m:
                raise self.error(f"F takes {self.m} argument(s), got {len(args)}", at)
            return _node_form(XF(tuple(args)))
        if val == "abs":
            self.expect("(")
            e = self.parse_expr()
            self.expect(")")
            return _e_abs(e)
        if val in ("min", "max"):
            self.expect("(")
            a = self.parse_expr()
            self.expect(",")
            b = self.parse_expr()
            self.expect(")")
            return _e_min_max(XMin if val == "min" else XMax, a, b)
        if val in ("dist_linf", "dist_l1"):
            self.expect("(")
            left = self.operands("op", ",", self.parse_expr)
            self.expect(";")
            right = self.operands("op", ",", self.parse_expr)
            self.expect(")")
            if len(left) != len(right) or not left:
                raise QueryError(f"{val} needs two equal-length coordinate lists")
            diffs = [_e_abs(_combine(a, b, -1)) for a, b in zip(left, right)]
            if val == "dist_l1":
                out = diffs[0]
                for e in diffs[1:]:
                    out = _combine(out, e, 1)
                return out
            out = diffs[0]
            for e in diffs[1:]:
                out = _e_min_max(XMax, out, e)
            return out
        if val in _KEYWORDS:
            raise self.error(f"keyword {val!r} cannot be used here", at)
        if val.startswith("__"):
            raise QueryError("variable names starting with '__' are reserved")
        return xlin_var(val)


def parse_query(text: str, m: int):
    """Parse a query; ``m`` is the network input count (checked against F)."""
    parser = _QueryParser(text, m)
    ast = parser.parse_formula()
    if not parser.at("eof"):
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


def _map_terms(e: XLin, var=xlin_var, node=lambda _n: None) -> XLin:
    """The form e with every variable name replaced by the form var(name)
    and every node n by the form node(n), or, where that is None, by n over
    its arguments mapped in turn; folded.  Renaming, case-splitting and F
    extraction rewrite terms only through this map."""
    terms = [(var(name), c) for name, c in e.coeffs]
    for n, c in e.nodes:
        new = node(n)
        if new is None:
            new = _node_form(type(n)(tuple(_map_terms(a, var, node) for a in n.args)))
        terms.append((new, c))
    return _sum(e.const, terms)


def _replace(e: XLin, old, new: XLin) -> XLin:
    """e with every occurrence of the node old replaced by the form new."""
    if not _occurs(old, e):
        return e
    return _map_terms(e, node=lambda n: new if n == old else None)


def _occurs(node, e: XLin) -> bool:
    return any(n == node or any(_occurs(node, a) for a in n.args) for n, _c in e.nodes)


def _form_vars(e: XLin) -> set:
    out = {name for name, _c in e.coeffs}
    for n, _c in e.nodes:
        for a in n.args:
            out |= _form_vars(a)
    return out


def _sub_formulas(node):
    """The direct sub-formulas of a formula node; atoms have none."""
    if isinstance(node, (PNot, PExists, PForall)):
        return (node.body,)
    if isinstance(node, (PAnd, POr)):
        return node.args
    return ()


def _map_formula(node, fn, *args):
    """The node with fn(sub, *args) applied to each direct sub-formula,
    left to right; a mapped and/or splices in sub-formulas of its kind."""
    if isinstance(node, PNot):
        return PNot(fn(node.body, *args))
    if isinstance(node, (PAnd, POr)):
        return connective(type(node), [fn(sub, *args) for sub in node.args])
    if isinstance(node, (PExists, PForall)):
        return type(node)(node.var, fn(node.body, *args))
    return node


def _rename_and_substitute(node, env, params, free_order, gensym):
    """α-rename bound variables apart, substitute parameters, and record
    free variables in first-appearance order (within a form, its own
    variables by name, then its nodes' arguments left to right)."""

    def var(name):
        if name in env:
            return xlin_var(env[name])
        if name in params:
            return XLin(params[name])
        if name not in free_order:
            free_order.append(name)
        return xlin_var(name)

    if isinstance(node, PCmp):
        return PCmp(node.rel, _map_terms(node.lhs, var), _map_terms(node.rhs, var))
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


def _first_sugar(e: XLin):
    """The first abs/min/max node of e in split order, or None: a node's
    arguments come before the node, and nodes left to right."""
    for n, _c in e.nodes:
        for a in n.args:
            found = _first_sugar(a)
            if found is not None:
                return found
        if not isinstance(n, XF):
            return n
    return None


def _split(rel, lhs: XLin, rhs: XLin):
    """The comparison lhs rel rhs with its abs/min/max nodes case-split away.

    The first node in split order, lhs before rhs, is split outermost.
    Each branch conjoins the guard that selects one of the node's values
    with the comparison in which every occurrence of the node takes that
    value, split in turn; the guard holds no sugar, because a node's
    arguments are split before it.  What is left is an atom (``_atom``)."""
    node = _first_sugar(lhs)
    if node is None:
        node = _first_sugar(rhs)
    if node is None:
        return _atom(rel, lhs, rhs)
    if isinstance(node, XAbs):
        (a,), b = node.args, _ZERO
        cases = ((">=", a), ("<", _combine(_ZERO, a, -1)))
    else:
        a, b = node.args
        low = isinstance(node, XMin)
        cases = (("<=" if low else ">=", a), (">" if low else "<", b))
    branches = [
        (PCmp(g, a, b), _split(rel, _replace(lhs, node, v), _replace(rhs, node, v)))
        for g, v in cases
    ]
    return connective(POr, [connective(PAnd, branch) for branch in branches])


def _plain_var(e: XLin):
    """The variable's name if e is a single variable, else None."""
    if len(e.coeffs) == 1 and e == xlin_var(e.coeffs[0][0]):
        return e.coeffs[0][0]
    return None


def _atom(rel, lhs, rhs):
    """A sugar-free comparison; F(x⃗) = y over pairwise-distinct plain
    variables becomes a structural f-atom untouched by extraction."""
    for fe, other in ((lhs, rhs), (rhs, lhs)) if rel == "=" else ():
        fn = fe.nodes[0][0] if len(fe.nodes) == 1 else None
        if isinstance(fn, XF) and fe == _node_form(fn):
            names = [_plain_var(a) for a in (*fn.args, other)]
            if None not in names and len(set(names)) == len(names):
                return PFAtom(tuple(names[:-1]), names[-1])
    return PCmp(rel, lhs, rhs)


def _desugar(node):
    """The one pass from the renamed tree to atoms: abs/min/max are
    case-split (``_split``) and F(x⃗) = y atoms become f-atoms."""
    if isinstance(node, PCmp):
        return _split(node.rel, node.lhs, node.rhs)
    return _map_formula(node, _desugar)


def _extractable_occurrence(node, trigger):
    """First F node to pull at this anchor: one with F-free arguments that
    either meets the trigger set itself or sits inside a triggered node.
    trigger=None matches everything.  After ``_desugar`` every node is an F
    node."""

    def from_form(e, forced):
        for n, _c in e.nodes:
            hit = forced or trigger is None or any(_form_vars(a) & trigger for a in n.args)
            for a in n.args:
                found = from_form(a, hit)
                if found is not None:
                    return found
            if hit and not any(a.nodes for a in n.args):
                return n
        return None

    if isinstance(node, PCmp):
        found = from_form(node.lhs, False)
        return found if found is not None else from_form(node.rhs, False)
    for sub in _sub_formulas(node):
        found = _extractable_occurrence(sub, trigger)
        if found is not None:
            return found
    return None


def _subst_occurrence(node, occ: XF, var_name: str):
    """Replace every occurrence of the F node occ by the variable."""
    if isinstance(node, PCmp):
        r = xlin_var(var_name)
        return PCmp(node.rel, _replace(node.lhs, occ, r), _replace(node.rhs, occ, r))
    return _map_formula(node, _subst_occurrence, occ, var_name)


def _pull_occurrences(node, trigger, gensym):
    """Extract every F node anchored at this scope: equal nodes (equal
    argument forms) share one fresh result variable; plain-variable
    arguments are used directly, other arguments get a fresh copy with a
    defining equality.  The fresh variables are existentially quantified
    around the rewritten subformula; since the defining conjuncts pin them
    uniquely, the wrap is an equivalence in any boolean context.
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
        for a in occ.args:
            name = _plain_var(a)
            if name is None or name in arg_names:
                name = gensym.fresh("z")
                names.append(name)
                defs.append(PCmp("=", xlin_var(name), a))
                if trigger_set is not None:
                    trigger_set.add(name)
            arg_names.append(name)
        r = gensym.fresh("r")
        names.append(r)
        defs.append(PFAtom(tuple(arg_names), r))
        if trigger_set is not None:
            trigger_set.add(r)
        body = _subst_occurrence(body, occ, r)
    if not defs:
        return node
    body = connective(PAnd, (*defs, body))
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
        prefixes, matrices = zip(*map(_prenex, node.args))
        return [q for p in prefixes for q in p], connective(type(node), matrices)
    return [], node


# Matrix atoms.


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
class OrderedPrenexQuery:
    """Normalized query: free variables first, then the quantifier prefix;
    the matrix is PNot/PAnd/POr over MAtom, MFAtom and MBool."""

    free_vars: tuple  # user names of x_1..x_k
    var_names: tuple  # names of x_1..x_d (internal names after x_k)
    prefix: tuple  # 'exists'/'forall' for x_{k+1}..x_d
    matrix: object


def _strict_atom(lhs: XLin, rhs: XLin, pos):
    """lhs − rhs > 0 as a matrix atom over x_1..x_d, or a constant."""
    if lhs.nodes or rhs.nodes:
        raise RuntimeError(f"unexpected node after normalization: {lhs!r} > {rhs!r}")
    vec = [lhs.const - rhs.const] + [Fraction(0)] * len(pos)
    for name, c in lhs.coeffs:
        vec[pos[name]] = c
    for name, c in rhs.coeffs:
        vec[pos[name]] -= c
    if all(a == 0 for a in vec[1:]):
        return MBool(vec[0] > 0)
    return MAtom(tuple(vec))


def _lower_matrix(node, pos):
    """The matrix with each comparison written over strict atoms and each
    f-atom over variable indices; the connectives stay."""
    if isinstance(node, PCmp):
        lhs, rhs = node.lhs, node.rhs
        if node.rel == ">":
            return _strict_atom(lhs, rhs, pos)
        if node.rel == "<":
            return _strict_atom(rhs, lhs, pos)
        if node.rel == ">=":
            return PNot(_strict_atom(rhs, lhs, pos))
        if node.rel == "<=":
            return PNot(_strict_atom(lhs, rhs, pos))
        return connective(PAnd, [PNot(_strict_atom(*s, pos)) for s in ((lhs, rhs), (rhs, lhs))])
    if isinstance(node, PFAtom):
        return MFAtom(tuple(pos[a] for a in node.args), pos[node.result])
    return _map_formula(node, _lower_matrix, pos)


def normalize_ordered_prenex(ast, parameters=None, free_order=None) -> OrderedPrenexQuery:
    """Bring a query into ordered prenex normal form.

    Steps: rename bound variables apart and substitute parameters; one
    pass over the atoms case-splits abs/min/max and turns F(x⃗) = y into
    f-atoms; pull the remaining F nodes into f-atoms with fresh variables;
    prenex; rewrite non-strict/equality comparisons into boolean formulas
    over strict atoms; assign the total variable order with free variables
    first.  An f-atom's variables may take any places in that order.
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
    for sub in _sub_formulas(node):
        yield from _matrix_nodes(sub)


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
    if isinstance(matrix, PNot):
        body = _predicate(cd, f, matrix.body)
        return lambda cid: not body(cid)
    if isinstance(matrix, (PAnd, POr)):
        # binary closures joined pairwise short-circuit left to right, nesting log2(n) deep
        if isinstance(matrix, PAnd):
            join = lambda a, b: lambda cid: a(cid) and b(cid)
        else:
            join = lambda a, b: lambda cid: a(cid) or b(cid)
        subs = [_predicate(cd, f, sub) for sub in matrix.args]
        while len(subs) > 1:
            odd = subs[len(subs) - len(subs) % 2 :]
            subs = [join(a, b) for a, b in zip(subs[::2], subs[1::2])] + odd
        return subs[0]
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
