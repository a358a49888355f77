"""Sum-augmented first-order logic over weighted structures: parser + evaluator.

The logic has two mutually recursive sorts.  *Formulas* are classical
first-order formulas over the structure's relations, with standard equality
between element terms and comparisons (=, <) between weight terms; quantifiers
range over the finite domain.  *Weight terms* denote lifted rationals: ⊥,
weight-symbol applications w(s₁,…,sₖ), rational functions of sub-terms,
conditionals `if φ then t else t'`, and sums `sum{x⃗ : φ} t` over all
guard-satisfying tuples of domain elements (an empty sum is 0).

Arithmetic syntax (+, -, *, /, rational literals) is lowered at parse time
into a single rational-function node: an explicit numerator/denominator pair
of polynomials over the collected sub-terms.  A rational-function node keeps
every sub-term that appeared syntactically even when its coefficients cancel,
so that `t - t` is still ⊥ when t is ⊥ — cancellation must not launder
undefinedness into 0.

`and` and `or` are n-ary, one node per chain of operands (parenthesized
groups included), so every walk over a formula recurses by nesting depth
only; `a implies b` is lowered at parse time to `(not a) or b`.

The parser is a ``core.Tokens`` cursor over FO+SUM's own tokens (``.5`` is
a numeral, and ``.`` has no other use); a ParseError carries the position
of the offending token, ``len(text)`` when the text ends too early.  Bound
variables are renamed apart during parsing, to names no input can
spell, so no variable is bound twice along any path of the returned AST
and no binder captures a free variable.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from nnquery.core import (
    BOT,
    LiftedValue,
    Tokens,
    Vocabulary,
    WeightedStructure,
    connective,
    ladd,
    lifted_compare,
    nesting_limit,
)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SVar:
    """An element variable (a standard term)."""
    name: str


@dataclass(frozen=True)
class SConst:
    """A constant symbol of the vocabulary (a standard term)."""
    name: str


@dataclass(frozen=True)
class TBottom:
    """The weight term ⊥."""


@dataclass(frozen=True)
class TWeight:
    """Application w(s₁,…,sₖ) of a weight symbol to standard terms."""
    symbol: str
    args: tuple


@dataclass(frozen=True)
class TRationalFunction:
    """A fraction of two polynomials over weight sub-terms.

    `num` and `den` are polynomials stored as sorted tuples of
    (exponent-vector, coefficient) pairs; exponent vectors index into
    `subterms`.  The empty polynomial is 0; a constant is {(0,…,0): q}.
    Evaluation is ⊥ if any sub-term is ⊥ or the denominator is 0.
    """
    subterms: tuple
    num: tuple
    den: tuple


@dataclass(frozen=True)
class TIf:
    cond: "Formula"
    then: "Term"
    other: "Term"


@dataclass(frozen=True)
class TSum:
    """sum{variables : guard} body, ranging over domain tuples."""
    variables: tuple
    guard: "Formula"
    body: "Term"


@dataclass(frozen=True)
class FRel:
    symbol: str
    args: tuple


@dataclass(frozen=True)
class FEqStd:
    """Equality between standard (element) terms."""
    left: object
    right: object


@dataclass(frozen=True)
class FCompare:
    """Weight-term comparison; op is 'eq' or 'lt'."""
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class FNot:
    sub: object


@dataclass(frozen=True)
class FAnd:
    """Conjunction of two or more formulas; build it with ``connective``."""
    args: tuple


@dataclass(frozen=True)
class FOr:
    """Disjunction of two or more formulas; build it with ``connective``."""
    args: tuple


@dataclass(frozen=True)
class FExists:
    var: str
    body: object


@dataclass(frozen=True)
class FForall:
    var: str
    body: object


Term = (TBottom, TWeight, TRationalFunction, TIf, TSum)
Formula = (FRel, FEqStd, FCompare, FNot, FAnd, FOr, FExists, FForall)


# ---------------------------------------------------------------------------
# Rational-function polynomial helpers
# ---------------------------------------------------------------------------

def poly_from_dict(d: dict) -> tuple:
    return tuple(sorted((exp, coef) for exp, coef in d.items() if coef != 0))


def poly_to_dict(p: tuple) -> dict:
    return dict(p)


def _poly_eval(p, values) -> Fraction:
    total = Fraction(0)
    for exps, coef in p:
        term = coef
        for e, v in zip(exps, values):
            if e:
                term *= v ** e
        total += term
    return total


def _poly_mul(a: dict, b: dict) -> dict:
    # exponent tuples within one rational function all have the same length
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


class _RF:
    """Mutable rational-function builder used during parsing/lowering."""

    __slots__ = ("subterms", "num", "den")

    def __init__(self, subterms, num, den):
        self.subterms = subterms  # list of Term
        self.num = num            # dict exp-tuple -> Fraction
        self.den = den

    @classmethod
    def const(cls, q: Fraction) -> "_RF":
        return cls([], {(): q} if q != 0 else {}, {(): Fraction(1)})

    @classmethod
    def atom(cls, t) -> "_RF":
        return cls([t], {(1,): Fraction(1)}, {(0,): Fraction(1)})

    def _remap(self, new_subterms) -> "_RF":
        index = {t: i for i, t in enumerate(new_subterms)}
        n = len(new_subterms)

        def remap_poly(p):
            out = {}
            for exps, coef in p.items():
                e = [0] * n
                for old_i, x in enumerate(exps):
                    if x:
                        e[index[self.subterms[old_i]]] += x
                out[tuple(e)] = out.get(tuple(e), Fraction(0)) + coef
            return {e: c for e, c in out.items() if c != 0}

        return _RF(list(new_subterms), remap_poly(self.num), remap_poly(self.den))

    @staticmethod
    def _align(a: "_RF", b: "_RF"):
        merged = list(dict.fromkeys(a.subterms + b.subterms))
        return a._remap(merged), b._remap(merged)

    def add(self, other: "_RF") -> "_RF":
        a, b = _RF._align(self, other)
        num = {}
        for e, c in _poly_mul(a.num, b.den).items():
            num[e] = num.get(e, Fraction(0)) + c
        for e, c in _poly_mul(b.num, a.den).items():
            num[e] = num.get(e, Fraction(0)) + c
        num = {e: c for e, c in num.items() if c != 0}
        return _RF(a.subterms, num, _poly_mul(a.den, b.den))

    def neg(self) -> "_RF":
        return _RF(self.subterms, {e: -c for e, c in self.num.items()}, self.den)

    def mul(self, other: "_RF") -> "_RF":
        a, b = _RF._align(self, other)
        return _RF(a.subterms, _poly_mul(a.num, b.num), _poly_mul(a.den, b.den))

    def div(self, other: "_RF") -> "_RF":
        a, b = _RF._align(self, other)
        return _RF(a.subterms, _poly_mul(a.num, b.den), _poly_mul(a.den, b.num))

    def to_term(self):
        # Unwrap a bare sub-term so `w(x,u)` parses to a TWeight, not a
        # one-monomial rational function around it.
        if (
            len(self.subterms) == 1
            and self.num == {(1,): Fraction(1)}
            and self.den == {(0,): Fraction(1)}
        ):
            return self.subterms[0]
        return TRationalFunction(
            tuple(self.subterms), poly_from_dict(self.num), poly_from_dict(self.den)
        )


def _to_rf(t) -> _RF:
    if isinstance(t, TRationalFunction) and not t.subterms:
        num, den = poly_to_dict(t.num), poly_to_dict(t.den)
        if list(den) == [()]:
            return _RF.const(num.get((), Fraction(0)) / den[()])
    return _RF.atom(t)


def t_const(q) -> TRationalFunction:
    """The constant weight term q."""
    return _RF.const(Fraction(q)).to_term()


def t_add(*terms):
    """Sum of weight terms as a single rational-function node."""
    acc = _RF.const(Fraction(0))
    for t in terms:
        acc = acc.add(_to_rf(t))
    return acc.to_term()


def t_neg(term):
    return _to_rf(term).neg().to_term()


def t_mul(*terms):
    acc = _RF.const(Fraction(1))
    for t in terms:
        acc = acc.mul(_to_rf(t))
    return acc.to_term()


def t_relu(term) -> TIf:
    """The conditional idiom `if 0 < t then t else 0`."""
    return TIf(FCompare("lt", t_const(0), term), term, t_const(0))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_KEYWORDS = {"exists", "forall", "and", "or", "not", "implies",
             "if", "then", "else", "sum", "bot"}

_VAR_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\.\d+|\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[(){},:=<>+\-*/])"
    r"|(?P<bad>\S))"
)


# How deeply formulas and terms may nest: quantifiers, 'implies', 'not',
# open '(', '-', 'if' and 'sum', counted together and over the formula and
# the term reading alike.  Each level costs the descent and the evaluator a
# few Python frames, so this stays well under the interpreter's recursion
# limit and deeper input gets a ParseError, not a RecursionError.
_MAX_NESTING = 100
_nesting = nesting_limit(_MAX_NESTING, "input")


class _Parser(Tokens):
    def __init__(self, text: str, vocab: Vocabulary):
        super().__init__(_TOKEN_RE, text, ParseError)
        self.vocab = vocab
        self.scopes: list[dict] = []
        self.binder_names: set = set()
        self.too_deep = None

    def fail(self, message: str):
        # only the nesting limit fails through here; the reading that hit it
        # keeps the error, though a backtracking caller may catch it
        self.too_deep = self.error_here(message)
        raise self.too_deep

    # --- scoping -----------------------------------------------------------

    def _lookup_var(self, name: str):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def _bind(self, expected: str) -> str:
        """Take a variable name bound in the innermost scope; its fresh name."""
        if not self.at("ident"):
            raise self.error_here(expected)
        _, name, at = self.take()
        if name in _KEYWORDS:
            raise ParseError(f"keyword {name!r} cannot be a variable", at)
        if not _VAR_RE.match(name):
            raise ParseError(f"invalid variable name {name!r}", at)
        if name in self.vocab.all_names():
            raise ParseError(f"variable {name!r} shadows a vocabulary symbol", at)
        # '#' is no identifier character, so no input names a renamed binder
        fresh = name
        k = 2
        while fresh in self.binder_names:
            fresh = f"{name}#{k}"
            k += 1
        self.binder_names.add(fresh)
        self.scopes[-1][name] = fresh
        return fresh

    # --- formulas ----------------------------------------------------------

    @_nesting
    def parse_formula(self):
        if self.at("ident", "exists", "forall"):
            word = self.take()[1]
            self.scopes.append({})
            fresh = self._bind("expected a variable after quantifier")
            body = self.parse_formula()
            self.scopes.pop()
            return FExists(fresh, body) if word == "exists" else FForall(fresh, body)
        left = connective(FOr, self.operands("ident", "or", self._parse_and))
        if self.at("ident", "implies"):  # lowered here: a implies b is (not a) or b
            self.take()
            return connective(FOr, (FNot(left), self.parse_formula()))
        return left

    def _parse_and(self):
        return connective(FAnd, self.operands("ident", "and", self._parse_atomf))

    @_nesting
    def _parse_atomf(self):
        if self.at("ident", "not"):
            self.take()
            return FNot(self._parse_atomf())
        if self.at("ident", "exists", "forall"):
            return self.parse_formula()
        if not self.at("op", "("):
            return self._parse_comparison()
        # Could be a parenthesized formula or a parenthesized weight term
        # beginning a comparison; try the formula reading first.  Where both
        # fail, the one that got further explains it (the formula on a tie).
        save, depth = self.pos, len(self.scopes)
        try:
            self.take()
            inner = self.parse_formula()
            self.expect(")")
            if self.at("op", "=", "<", ">", "+", "-", "*", "/"):
                raise self.error_here("parenthesized formula used as a term")
            return inner
        except ParseError as err:
            self.pos, formula_error = save, err
            del self.scopes[depth:]
        try:
            return self._parse_comparison()
        except ParseError as err:
            raise max(formula_error, err, key=lambda e: e.pos) from None

    def _parse_comparison(self):
        left = self._parse_expr()
        if isinstance(left, Formula):
            return left
        if not self.at("op", "=", "<", ">"):
            raise self.error_here("expected a comparison operator")
        _, op, opat = self.take()
        right = self._parse_expr()
        if isinstance(right, Formula):
            raise ParseError("formula on the right of a comparison", opat)
        left_std = isinstance(left, (SVar, SConst))
        right_std = isinstance(right, (SVar, SConst))
        if op == "=":
            if left_std and right_std:
                return FEqStd(left, right)
            if left_std != right_std:
                raise ParseError("cannot equate an element term with a weight term", opat)
            return FCompare("eq", left, right)
        if left_std or right_std:
            raise ParseError("order comparison requires weight terms on both sides", opat)
        if op == "<":
            return FCompare("lt", left, right)
        return FCompare("lt", right, left)

    # --- weight terms / standard terms --------------------------------------
    # _parse_expr returns an SVar/SConst (standard term), a weight Term, or a
    # Formula (relation application reached in operand position).

    def _parse_expr(self):
        return self._parse_addsub()

    def _as_rf(self, operand, at: int) -> _RF:
        if isinstance(operand, (SVar, SConst)):
            raise ParseError("element term used in arithmetic", at)
        if isinstance(operand, Formula):
            raise ParseError("formula used in arithmetic", at)
        return _to_rf(operand)

    def _parse_addsub(self):
        at = self.peek()[2]
        left = self._parse_muldiv()
        if not self.at("op", "+", "-"):
            return left
        acc = self._as_rf(left, at)
        while self.at("op", "+", "-"):
            _, op, opat = self.take()
            right = self._as_rf(self._parse_muldiv(), opat)
            acc = acc.add(right if op == "+" else right.neg())
        return acc.to_term()

    def _parse_muldiv(self):
        at = self.peek()[2]
        left = self._parse_unary()
        if not self.at("op", "*", "/"):
            return left
        acc = self._as_rf(left, at)
        while self.at("op", "*", "/"):
            _, op, opat = self.take()
            right = self._as_rf(self._parse_unary(), opat)
            acc = acc.mul(right) if op == "*" else acc.div(right)
        return acc.to_term()

    @_nesting
    def _parse_unary(self):
        if self.at("op", "-"):
            at = self.take()[2]
            return self._as_rf(self._parse_unary(), at).neg().to_term()
        return self._parse_primary()

    def _parse_primary(self):
        kind, val, at = self.peek()
        if kind not in ("num", "ident") and val != "(":
            raise self.error_here("expected a term")
        self.take()
        if kind == "num":
            return _RF.const(Fraction(val)).to_term()
        if val == "(":
            inner = self._parse_expr()
            self.expect(")")
            return inner
        if val == "bot":
            return TBottom()
        if val == "if":
            cond = self.parse_formula()
            self.expect("then")
            then = self._term_operand()
            self.expect("else")
            other = self._term_operand()
            return TIf(cond, then, other)
        if val == "sum":
            self.expect("{")
            self.scopes.append({})
            variables = self.operands(
                "op", ",", lambda: self._bind("expected a summation variable")
            )
            self.expect(":")
            guard = self.parse_formula()
            self.expect("}")
            body = self._term_operand(tight=True)
            self.scopes.pop()
            return TSum(tuple(variables), guard, body)
        if val in _KEYWORDS:
            raise ParseError(f"unexpected keyword {val!r}", at)

        bound = self._lookup_var(val)
        if bound is not None:
            return SVar(bound)
        if val in self.vocab.constants:
            return SConst(val)
        if val in self.vocab.relations:
            args = self._parse_std_args(val, self.vocab.relations[val], at)
            return FRel(val, args)
        if val in self.vocab.weights:
            args = self._parse_std_args(val, self.vocab.weights[val], at)
            return TWeight(val, args)
        if not _VAR_RE.match(val):
            raise ParseError(f"unknown symbol {val!r}", at)
        return SVar(val)

    def _parse_std_args(self, symbol: str, arity: int, at: int) -> tuple:
        if not self.at("op", "("):
            if arity == 0:
                return ()
            raise ParseError(f"symbol {symbol!r} expects {arity} arguments", at)
        self.take()

        def argument():
            argat = self.peek()[2]
            arg = self._parse_expr()
            if not isinstance(arg, (SVar, SConst)):
                raise ParseError(f"argument of {symbol!r} must be a variable or constant", argat)
            return arg

        args = () if self.at("op", ")") else self.operands("op", ",", argument)
        self.expect(")")
        if len(args) != arity:
            raise ParseError(
                f"symbol {symbol!r} expects {arity} arguments, got {len(args)}", at
            )
        return tuple(args)

    def _term_operand(self, tight: bool = False):
        at = self.peek()[2]
        operand = self._parse_muldiv() if tight else self._parse_expr()
        if isinstance(operand, (SVar, SConst)):
            raise ParseError("expected a weight term, found an element term", at)
        if isinstance(operand, Formula):
            raise ParseError("expected a weight term, found a formula", at)
        return operand


def parse_fosum(text: str, vocab: Vocabulary):
    """Parse `text` as a formula if possible, otherwise as a weight term.

    Variables are renamed apart; symbol arities are checked against `vocab`.
    Raises ParseError (with position) on malformed input.
    """
    p = _Parser(text, vocab)
    errors = []
    for read, what in ((p.parse_formula, "formula"), (p._term_operand, "term")):
        p.pos, p.scopes, p.too_deep = 0, [], None
        try:
            parsed = read()
            if not p.at("eof"):
                raise p.error_here(f"trailing input after {what}")
            return parsed
        except ParseError as err:
            errors.append((p.too_deep is not None, p.too_deep or err))
    # a reading that hit the nesting limit failed for that reason; else the
    # reading that got further explains the failure (max keeps the formula's
    # on a tie)
    raise max(errors, key=lambda e: (e[0], e[1].pos))[1]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _resolve_std(s: WeightedStructure, arg, v: dict):
    try:
        if isinstance(arg, SVar):
            return v[arg.name]
        return s.const(arg.name)
    except KeyError:
        kind = "variable" if isinstance(arg, SVar) else "constant"
        raise ValueError(f"unbound {kind} {arg.name!r}") from None


def eval_weight_term(s: WeightedStructure, t, v: dict) -> LiftedValue:
    """Evaluate a weight term to a lifted rational.

    Total: all partiality (division by zero, ⊥ weights) flows through ⊥.
    Summation enumerates domain tuples in domain order; an empty sum is 0.
    A variable missing from v, or a constant or weight symbol missing from
    the structure, raises ValueError.
    """
    if isinstance(t, TBottom):
        return BOT
    if isinstance(t, TWeight):
        tup = tuple(_resolve_std(s, a, v) for a in t.args)
        return s.weight(t.symbol, tup)
    if isinstance(t, TRationalFunction):
        values = []
        for sub in t.subterms:
            val = eval_weight_term(s, sub, v)
            if val is BOT:
                return BOT
            values.append(val)
        den = _poly_eval(t.den, values)
        if den == 0:
            return BOT
        return _poly_eval(t.num, values) / den
    if isinstance(t, TIf):
        if eval_formula(s, t.cond, v):
            return eval_weight_term(s, t.then, v)
        return eval_weight_term(s, t.other, v)
    if isinstance(t, TSum):
        total: LiftedValue = Fraction(0)
        vv = dict(v)
        for tup in itertools.product(s.domain, repeat=len(t.variables)):
            for name, e in zip(t.variables, tup):
                vv[name] = e
            if eval_formula(s, t.guard, vv):
                total = ladd(total, eval_weight_term(s, t.body, vv))
                if total is BOT:
                    return BOT
        return total
    raise TypeError(f"not a weight term: {t!r}")


def eval_formula(s: WeightedStructure, f, v: dict) -> bool:
    """Evaluate a formula to a classical boolean (quantifiers over the domain);
    a missing variable or symbol raises ValueError as in eval_weight_term."""
    if isinstance(f, FRel):
        tup = tuple(_resolve_std(s, a, v) for a in f.args)
        return s.rel(f.symbol, tup)
    if isinstance(f, FEqStd):
        return _resolve_std(s, f.left, v) == _resolve_std(s, f.right, v)
    if isinstance(f, FCompare):
        cmp = lifted_compare(
            eval_weight_term(s, f.left, v), eval_weight_term(s, f.right, v)
        )
        return cmp == ("eq" if f.op == "eq" else "lt")
    if isinstance(f, FNot):
        return not eval_formula(s, f.sub, v)
    if isinstance(f, FAnd):
        for sub in f.args:
            if not eval_formula(s, sub, v):
                return False
        return True
    if isinstance(f, FOr):
        for sub in f.args:
            if eval_formula(s, sub, v):
                return True
        return False
    if isinstance(f, FExists):
        vv = dict(v)
        for e in s.domain:
            vv[f.var] = e
            if eval_formula(s, f.body, vv):
                return True
        return False
    if isinstance(f, FForall):
        vv = dict(v)
        for e in s.domain:
            vv[f.var] = e
            if not eval_formula(s, f.body, vv):
                return False
        return True
    raise TypeError(f"not a formula: {f!r}")


def free_variables(node) -> set:
    """Free variable names of a term or formula."""
    if isinstance(node, SVar):
        return {node.name}
    if isinstance(node, (SConst, TBottom)):
        return set()
    if isinstance(node, (TWeight, FRel, FAnd, FOr)):
        return set().union(*(free_variables(a) for a in node.args)) if node.args else set()
    if isinstance(node, TRationalFunction):
        out = set()
        for sub in node.subterms:
            out |= free_variables(sub)
        return out
    if isinstance(node, TIf):
        return free_variables(node.cond) | free_variables(node.then) | free_variables(node.other)
    if isinstance(node, TSum):
        return (free_variables(node.guard) | free_variables(node.body)) - set(node.variables)
    if isinstance(node, (FEqStd, FCompare)):
        return free_variables(node.left) | free_variables(node.right)
    if isinstance(node, FNot):
        return free_variables(node.sub)
    if isinstance(node, (FExists, FForall)):
        return free_variables(node.body) - {node.var}
    raise TypeError(f"not a term or formula: {node!r}")
