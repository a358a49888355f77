"""Exact rational arithmetic with an undefined element, and weighted structures.

Weight terms of the logic denote lifted rationals: ordinary
`fractions.Fraction` values plus a single distinguished element ⊥ ("bottom")
that represents an undefined result, e.g. division by zero or a weight looked
up where none is meaningful.  ⊥ absorbs through every arithmetic operation
(the evaluator in `fosum` applies this) and sits strictly below every
rational in the order (`lifted_compare`).

Weighted structures are finite first-order structures whose vocabulary may,
besides relations and constants, contain weight function symbols: a weight
symbol of arity k denotes a total map from k-tuples of domain elements to
lifted rationals.  They are the data model networks get compiled into and the
logic evaluator runs over.

Both of the package's languages, the query logic (`query`) and FO+SUM
(`fosum`), read their text through one token cursor, `Tokens`, which ends
every text in an end-of-input token at ``len(text)``; `nesting_limit`
bounds their recursive descent, and `connective` builds their n-ary
``and``/``or`` nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union


class Bottom:
    """The undefined value ⊥.  A singleton; compare with `is BOT`."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"


BOT = Bottom()

LiftedValue = Union[Fraction, Bottom]


def rational(x) -> Fraction:
    """Convert to an exact Fraction.

    Accepts ints, Fractions, and strings ("3", "-2/5", "1.25" — decimal
    strings are exact); a malformed string or a zero denominator raises
    ValueError.  Binary floats are rejected: a Python float denotes a base-2
    approximation, and silently accepting one would contaminate an
    otherwise exact pipeline.
    """
    if isinstance(x, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, float):
        raise TypeError(
            f"refusing binary float {x!r}; pass a string like '1.25' or 'p/q'"
        )
    raise TypeError(f"cannot interpret {x!r} as a rational")


class Tokens:
    """A token cursor for a recursive-descent parser; parsers subclass it.

    ``pattern`` lexes ``text`` into ``(kind, text, position)`` tokens, one
    named group per kind; a match of its ``bad`` group is an error.  The
    tokens end in one ``eof`` token at ``len(text)``.  ``error(message,
    position)`` builds the language's exception.  ``depth`` is the counter
    that `nesting_limit` keeps.
    """

    def __init__(self, pattern, text: str, error):
        self.error = error
        self.tokens = []
        for m in pattern.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise error(f"unexpected character {m.group(kind)!r}", m.start(kind))
            self.tokens.append((kind, m.group(kind), m.start(kind)))
        self.tokens.append(("eof", "", len(text)))
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, kind, *texts) -> bool:
        """Whether the next token is of ``kind`` and, if ``texts`` are given,
        reads one of them."""
        tok_kind, tok_text, _ = self.tokens[self.pos]
        return tok_kind == kind and (not texts or tok_text in texts)

    def error_here(self, message):
        """The language's error for ``message`` at the next token, naming it."""
        _kind, text, at = self.tokens[self.pos]
        return self.error(f"{message}, found {text or 'end of input'!r}", at)

    def fail(self, message):
        """Raise `error_here`; the nesting limit fails through here."""
        raise self.error_here(message)

    def expect(self, text: str):
        """Take the next token, which must read ``text``."""
        if self.tokens[self.pos][1] != text:
            raise self.error_here(f"expected {text!r}")
        self.pos += 1

    def operands(self, kind, text, read):
        """The operands, each read by ``read``, of a list joined by the token
        ``text`` of ``kind``: an and/or/-> chain or a comma-separated list."""
        parts = [read()]
        while self.at(kind, text):
            self.pos += 1
            parts.append(read())
        return parts


def nesting_limit(limit: int, language: str):
    """Decorator for the recursive methods of a `Tokens` parser.

    Each call counts one level of nesting in ``depth``; past ``limit``
    levels the parser's ``fail`` raises its own error, so that deep input
    is rejected before it exhausts the interpreter's stack.
    """

    def decorate(parse):
        def nested(self):
            if self.depth == limit:
                self.fail(f"{language} nests deeper than {limit} levels")
            self.depth += 1
            try:
                return parse(self)
            finally:
                self.depth -= 1

        return nested

    return decorate


def connective(kind, parts):
    """The n-ary connective node ``kind(args)`` over ``parts``, in order; a
    part that is a ``kind`` node itself contributes its ``args`` in place.
    A single part is returned as it is, so every node has two or more args.
    """
    if len(parts) == 1:
        return parts[0]
    args = []
    for part in parts:
        args += part.args if type(part) is kind else (part,)
    return kind(tuple(args))


def format_rational(q: Fraction) -> str:
    """Render a Fraction as 'p' or 'p/q' (lowest terms, q > 0)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def ladd(a: LiftedValue, b: LiftedValue) -> LiftedValue:
    if a is BOT or b is BOT:
        return BOT
    return a + b


def lifted_compare(a: LiftedValue, b: LiftedValue) -> str:
    """Compare lifted values: one of 'lt', 'eq', 'gt'.

    The order is total: ⊥ is strictly below every rational, ⊥ equals ⊥,
    and rationals compare exactly.  (Consequently r < ⊥ is never true and
    ⊥ < ⊥ is never true.)
    """
    if a is BOT and b is BOT:
        return "eq"
    if a is BOT:
        return "lt"
    if b is BOT:
        return "gt"
    if a < b:
        return "lt"
    if a == b:
        return "eq"
    return "gt"


@dataclass(frozen=True)
class Vocabulary:
    """Symbols of a weighted structure.

    relations and weights map symbol name -> arity (arity 0 is allowed and
    means a weight constant); constants is a tuple of constant-symbol names.
    Names must be unique across all three kinds.
    """

    relations: Mapping[str, int] = field(default_factory=dict)
    constants: tuple = ()
    weights: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        names = list(self.relations) + list(self.constants) + list(self.weights)
        if len(names) != len(set(names)):
            raise ValueError("vocabulary symbol names must be unique across kinds")

    def all_names(self) -> set:
        return set(self.relations) | set(self.constants) | set(self.weights)


@dataclass
class WeightedStructure:
    """A finite structure interpreting a Vocabulary.

    domain: ordered tuple of element ids (any hashables).
    relations: name -> set of element tuples (arity matching the vocabulary).
    constants: name -> element.
    weights: name -> sparse map from element tuples to lifted values;
    weight_defaults: name -> value returned for tuples absent from the map,
    so weight maps are total without being materialized.
    """

    vocabulary: Vocabulary
    domain: tuple
    relations: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    weight_defaults: dict = field(default_factory=dict)

    def __post_init__(self):
        dom = set(self.domain)
        if len(dom) != len(self.domain):
            raise ValueError("domain elements must be distinct")
        for name, arity in self.vocabulary.relations.items():
            for tup in self.relations.get(name, ()):
                if len(tup) != arity or not set(tup) <= dom:
                    raise ValueError(f"bad tuple {tup} for relation {name}")
        for name in self.vocabulary.constants:
            if name not in self.constants or self.constants[name] not in dom:
                raise ValueError(f"constant {name} must name a domain element")
        for name, arity in self.vocabulary.weights.items():
            for tup in self.weights.get(name, {}):
                if len(tup) != arity or not set(tup) <= dom:
                    raise ValueError(f"bad tuple {tup} for weight {name}")
            if name not in self.weight_defaults:
                self.weight_defaults[name] = BOT

    def rel(self, name: str, tup: tuple) -> bool:
        return tup in self.relations.get(name, ())

    def const(self, name: str):
        return self.constants[name]

    def weight(self, name: str, tup: tuple) -> LiftedValue:
        m = self.weights.get(name, {})
        if tup in m:
            return m[tup]
        try:
            return self.weight_defaults[name]
        except KeyError:
            raise ValueError(f"weight symbol {name!r} is not in the structure") from None
