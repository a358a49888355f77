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
so a product of two non-constant forms is rejected there.  The normalizer
makes ``F(x⃗) = y`` an f-atom and pulls the remaining F nodes into f-atoms;
every rewrite of a term (renaming, F extraction) maps it through
``_map_terms``.

Evaluation is exact and geometric.  A query is normalized into an *ordered
prenex* form — free variables first, then the quantified variables in
prefix order, every f-atom of the shape F(x_{g1},…,x_{gm}) = x_j over
pairwise-distinct variables in any index order, every other atom one
comparison ``MPwl``: lhs − rhs as a PWL function of the variables it names,
its abs/min/max nodes (and so the distance helpers) pieces of that
function, and the signs that make it true.  ``pwl.lift_graph`` places every
atom's planes and ``pwl.graph_sign`` reads its sign on a cell back from the
stacks, an f-atom being the function F(x⃗) − y (``value_gap``).  On the
resulting cell decomposition every cell is homogeneous for every atom, so
the matrix selects a set of full-level cells; quantifiers are then
eliminated from the inside out — ∃ projects cells to their bases, ∀ runs
the complement–project–complement dual.  A closed query ends at the origin
cell (true) or the empty set (false); an open query returns the satisfying
cells at the free level with one exact sample point each.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .core import Tokens, connective, nesting_limit, rational
from .geometry import Arrangement, build_cd, make_arrangement
from .linprog import scaled_eval
from .network import Network
from .pwl import PwlFunction, _positions, graph_sign, lift_graph, pwl_from_network, value_gap

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
    """Raised for malformed queries: syntax, arity, or nonlinearity.  ``pos``
    is a syntax error's position in the text, and None for other errors."""

    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message)
        self.pos = pos


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
    kind: str  # 'abs', 'min', 'max' or 'F'
    args: tuple  # XLin arguments


# Formulas.  A matrix after lowering keeps PNot/PAnd/POr over the
# matrix atoms MPwl, MFAtom and MBool.


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


_FOLD = {"abs": abs, "min": min, "max": max}


def _node(kind: str, args) -> XLin:
    """The node kind(args) as a form; abs, min and max of constants fold."""
    if kind != "F" and all(map(_is_const, args)):
        return XLin(_FOLD[kind](*(a.const for a in args)))
    return XLin(Fraction(0), (), ((XNode(kind, tuple(args)), Fraction(1)),))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_CALLS = ("F", "abs", "min", "max", "dist_linf", "dist_l1")
_KEYWORDS = {"exists", "forall", "and", "or", "not", *_CALLS}

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>->|<=|>=|[<>=+\-*/(),;.])"
    r"|(?P<bad>\S))"
)


def _syntax_error(message: str, at: int) -> QueryError:
    return QueryError(f"{message} at position {at}", at)


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
        if not self.at("op", "("):
            return self.parse_comparison()
        # a parenthesized formula, else a comparison; where both readings
        # fail, the one that got further explains it (the formula on a tie)
        save = self.pos
        try:
            self.take()
            inner = self.parse_formula()
            self.expect(")")
            return inner
        except QueryError as err:
            self.pos, formula_error = save, err
        try:
            return self.parse_comparison()
        except QueryError as err:
            raise max(formula_error, err, key=lambda e: -1 if e.pos is None else e.pos) from None

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
        if val not in _CALLS:
            if val in _KEYWORDS:
                raise self.error(f"keyword {val!r} cannot be used here", at)
            if val.startswith("__"):
                raise QueryError("variable names starting with '__' are reserved")
            return xlin_var(val)
        self.expect("(")
        args = self.operands("op", ",", self.parse_expr)
        if val.startswith("dist_"):  # the max or the sum of |u_i − p_i|
            self.expect(";")
            anchor = self.operands("op", ",", self.parse_expr)
            self.expect(")")
            if len(args) != len(anchor):
                raise QueryError(f"{val} needs two equal-length coordinate lists")
            out, *rest = (_node("abs", (_combine(u, p, -1),)) for u, p in zip(args, anchor))
            for e in rest:
                out = _combine(out, e, 1) if val == "dist_l1" else _node("max", (out, e))
            return out
        self.expect(")")
        want = {"F": self.m, "abs": 1}.get(val, 2)
        if len(args) != want:
            raise self.error(f"{val} takes {want} argument(s), got {len(args)}", at)
        return _node(val, args)


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


def _map_terms(e: XLin, var=xlin_var, node=lambda _n: None) -> XLin:
    """The form e with every variable name replaced by the form var(name)
    and every node n by the form node(n), or, where that is None, by n over
    its arguments mapped in turn; folded.  Renaming (parameters included)
    and F extraction rewrite terms only through this map."""
    terms = [(var(name), c) for name, c in e.coeffs]
    for n, c in e.nodes:
        new = node(n)
        if new is None:
            new = _node(n.kind, [_map_terms(a, var, node) for a in n.args])
        terms.append((new, c))
    return _sum(e.const, terms)


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
        fresh = f"__b{next(gensym)}"
        inner = dict(env)
        inner[node.var] = fresh
        return type(node)(
            fresh, _rename_and_substitute(node.body, inner, params, free_order, gensym)
        )
    if not _sub_formulas(node):
        raise TypeError(f"not a formula: {node!r}")
    return _map_formula(node, _rename_and_substitute, env, params, free_order, gensym)


def _plain_var(e: XLin):
    """The variable's name if e is a single variable, else None."""
    if len(e.coeffs) == 1 and e == xlin_var(e.coeffs[0][0]):
        return e.coeffs[0][0]
    return None


def _f_atoms(node):
    """The renamed tree with each F(x⃗) = y over pairwise-distinct plain
    variables made a structural f-atom, which extraction leaves alone."""
    if not isinstance(node, PCmp):
        return _map_formula(node, _f_atoms)
    for fe, other in ((node.lhs, node.rhs), (node.rhs, node.lhs)) if node.rel == "=" else ():
        fn = fe.nodes[0][0] if len(fe.nodes) == 1 else None
        if fn is not None and fn.kind == "F" and fe == _node("F", fn.args):
            names = [_plain_var(a) for a in (*fn.args, other)]
            if None not in names and len(set(names)) == len(names):
                return PFAtom(tuple(names[:-1]), names[-1])
    return node


def _extractable_occurrence(node, trigger):
    """First F node to pull at this anchor: the innermost F node that
    either meets the trigger set itself or sits inside a triggered F node,
    so its arguments are F-free.  trigger=None matches everything.  The
    abs/min/max nodes around and between F nodes trigger nothing."""

    def from_form(e, forced):
        for n, _c in e.nodes:
            is_f = n.kind == "F"
            hit = forced or is_f and (
                trigger is None or any(_form_vars(a) & trigger for a in n.args)
            )
            for a in n.args:
                found = from_form(a, hit)
                if found is not None:
                    return found
            if is_f and hit:
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


def _subst_occurrence(node, occ: XNode, var_name: str):
    """Replace every occurrence of the F node occ by the variable."""
    if isinstance(node, PCmp):
        r = xlin_var(var_name)
        new = [_map_terms(e, node=lambda n: r if n == occ else None) if _occurs(occ, e) else e
               for e in (node.lhs, node.rhs)]
        return PCmp(node.rel, *new)
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
                name = f"__z{next(gensym)}"
                names.append(name)
                defs.append(PCmp("=", xlin_var(name), a))
                if trigger_set is not None:
                    trigger_set.add(name)
            arg_names.append(name)
        r = f"__r{next(gensym)}"
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
class MPwl:
    """A comparison lhs ⋈ rhs: ``fn`` is lhs − rhs as a PWL function of the
    variables x_{vars_1}, …, and the atom holds where fn's sign is one of
    ``signs``."""

    fn: PwlFunction
    vars: tuple  # increasing 1-based variable indices, fn's argument order
    signs: frozenset  # of −1, 0, 1


@dataclass(frozen=True)
class MFAtom:
    args: tuple  # 1-based variable indices g_1..g_m, in F's argument order
    result: int  # index j of the result, distinct from every g_i


@dataclass(frozen=True)
class OrderedPrenexQuery:
    """Normalized query: free variables first, then the quantifier prefix;
    the matrix is PNot/PAnd/POr over MPwl, MFAtom and MBool."""

    free_vars: tuple  # user names of x_1..x_k
    var_names: tuple  # names of x_1..x_d (internal names after x_k)
    prefix: tuple  # 'exists'/'forall' for x_{k+1}..x_d
    matrix: object


# the signs of lhs − rhs that make lhs ⋈ rhs true
_SIGNS = {r: frozenset(s) for r, s in (
    (">", {1}), (">=", {0, 1}), ("=", {0}), ("<=", {-1, 0}), ("<", {-1}))}


def _term_function(e: XLin, names) -> PwlFunction:
    """The form e as a PWL function of the variables ``names``, built as
    ``pwl_from_network`` builds F: its abs/min/max nodes are decided one
    nesting level at a time, one ``pwl._positions`` refinement each.  A
    node's decision form, its argument (abs), a − b (max) or b − a (min), is
    read at each position's first cell, and where it is ≥ 0 the node takes
    its first value (the argument, or a): ties go to the first branch.  The
    non-constant decision forms join the breakplanes.  Each node is held
    times a positive scale that makes its components ints (abs, min and max
    commute with positive scaling); only e's components become Fractions."""
    m = len(names)
    at = {name: i for i, name in enumerate(names, start=1)}
    index, scales, forms, depth = {}, [], [], []

    def scaled(form, s=None):
        # (s, base, weights): s·form = base + Σ w·(node j's value) in ints,
        # s being the least scale that does this unless it is given
        ratios = [form.const, *(c for _v, c in form.coeffs)]
        ratios += [c / scales[index[n]] for n, c in form.nodes]
        s = s or math.lcm(*(q.denominator for q in ratios))
        ints = [q.numerator * (s // q.denominator) for q in ratios]
        base = [ints[0]] + [0] * m
        for (v, _c), a in zip(form.coeffs, ints[1:]):
            base[at[v]] = a
        nodes = zip(form.nodes, ints[1 + len(form.coeffs) :])
        return s, base, [(index[n], w) for (n, _c), w in nodes]

    def visit(form):  # number the nodes under form, arguments first
        for n, _c in form.nodes:
            if n.kind == "F":
                raise RuntimeError(f"unexpected F node after normalization: {n!r}")
            if n not in index:
                for a in n.args:
                    visit(a)
                s = math.lcm(*(scaled(a)[0] for a in n.args))
                forms.append((n.kind, [scaled(a, s)[1:] for a in n.args]))
                below = [depth[index[k]] for a in n.args for k, _c in a.nodes]
                depth.append(1 + max(below, default=0))
                index[n] = len(scales)
                scales.append(s)

    def value(base, weights, vals):
        return [b + sum(w * vals[j][i] for j, w in weights) for i, b in enumerate(base)]

    def cases(j, vals):  # node j's decision form, first value and second value
        kind, args = forms[j]
        a = value(*args[0], vals)
        if kind == "abs":
            return a, a, [-v for v in a]
        b = value(*args[1], vals)
        return [u - v if kind == "max" else v - u for u, v in zip(a, b)], a, b

    visit(e)
    planes, values = (), {"": [None] * len(scales)}
    for level in range(1, max(depth, default=0) + 1):
        nodes, n_old = [j for j, k in enumerate(depth) if k == level], len(planes)
        table = {(j, p): cases(j, vals) for j in nodes for p, vals in values.items()}

        def post(pos, cell):
            vals = list(values[pos[:n_old]])
            for j in nodes:
                d, first, second = table[j, pos[:n_old]]
                vals[j] = first if scaled_eval(d, cell.num, cell.den) >= 0 else second
            return vals

        zero_sets = [d for d, _a, _b in table.values() if any(d[1:])]
        planes, values = _positions(m, [*planes, *zero_sets], post)
    s, base, weights = scaled(e)
    polys = tuple(
        (pos, tuple(Fraction(a, s) for a in value(base, weights, vals)))
        for pos, vals in values.items()
    )
    return PwlFunction(m=m, breakplanes=planes, polytopes=polys)


def _lower_matrix(node, pos):
    """The matrix with each comparison an MPwl (an MBool where no variable
    is left) and each f-atom an MFAtom over variable indices."""
    if isinstance(node, PCmp):
        e = _combine(node.lhs, node.rhs, -1)
        names = sorted(_form_vars(e), key=pos.__getitem__)
        if not names:  # nodes over constants have folded
            return MBool(((e.const > 0) - (e.const < 0)) in _SIGNS[node.rel])
        return MPwl(_term_function(e, names), tuple(pos[v] for v in names), _SIGNS[node.rel])
    if isinstance(node, PFAtom):
        return MFAtom(tuple(pos[a] for a in node.args), pos[node.result])
    return _map_formula(node, _lower_matrix, pos)


def normalize_ordered_prenex(ast, parameters=None, free_order=None) -> OrderedPrenexQuery:
    """Bring a query into ordered prenex normal form.

    Steps: rename bound variables apart and substitute parameters; turn
    F(x⃗) = y atoms into f-atoms; pull the remaining F nodes into f-atoms
    with fresh variables; prenex; assign the total variable order with
    free variables first; and make each comparison one MPwl atom, its
    abs/min/max nodes pieces of its function.  An f-atom's variables may
    take any places in that order.
    """
    params = {k: rational(v) for k, v in (parameters or {}).items()}
    gensym = itertools.count(1)  # numbers the fresh variables
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
    tree = _extract_f_atoms(_f_atoms(tree), gensym)
    tree = _pull_occurrences(tree, None, gensym)

    prefix, matrix = _prenex(tree)
    order = list(free_vars) + [v for _q, v in prefix]
    pos = {name: i + 1 for i, name in enumerate(order)}
    return OrderedPrenexQuery(
        free_vars=free_vars,
        var_names=tuple(order),
        prefix=tuple(q for q, _v in prefix),
        matrix=_lower_matrix(matrix, pos),
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
    """A_f ∪ A_ψ in R^d: ``lift_graph`` of each comparison's function at its
    variables, then, for each distinct f-atom F(x_g⃗) = x_j of the matrix,
    of ``value_gap(f)`` at (x_g⃗, x_j)."""
    d = len(q.var_names)
    if d < 1:
        raise ValueError("arrangement needs at least one variable")
    nodes = list(_matrix_nodes(q.matrix))
    planes = [h for n in nodes if isinstance(n, MPwl) for h in lift_graph(n.fn, n.vars, d)]
    fatoms = dict.fromkeys(n for n in nodes if isinstance(n, MFAtom))
    if fatoms and f is None:
        raise ValueError("query contains F but no function was supplied")
    for atom in fatoms:
        planes += lift_graph(value_gap(f), (*atom.args, atom.result), d)
    return make_arrangement(d, planes)


def _predicate(cd, f, matrix):
    """The matrix lowered once into a predicate over full-level cell ids.

    Every atom's sign on a cell is read from the decomposition's stacks by
    ``graph_sign``: a comparison holds where its function's sign is one of
    its signs, an f-atom where ``value_gap(f)`` reads 0, that is, where the
    cell lies on F's graph.
    """
    if isinstance(matrix, MBool):
        return lambda cid: matrix.value
    if isinstance(matrix, MPwl):
        if matrix.vars[-1] > cd.d:
            raise ValueError("decomposition is not compatible with the query arrangement")
        sign, signs = graph_sign(cd, matrix.fn, matrix.vars), matrix.signs
        return lambda cid: sign(cid) in signs
    if isinstance(matrix, MFAtom):
        sign = graph_sign(cd, value_gap(f), (*matrix.args, matrix.result))
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

    The decomposition must be built over every plane of the matrix (each
    atom's ``lift_graph``, as ``build_query_arrangement`` places them);
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
