"""Parse results over seeded texts in both languages and their broken forms.

Draws base texts of two languages: the query sentences of
``scripts/normal_forms.py`` (plain, sugared and chained), parsed with
``parse_query`` for their network's input count; and FO+SUM texts over the
graph vocabulary, parsed with ``parse_fosum``.  The FO+SUM texts are the
evaluation terms of ``network.build_eval_term`` written out (bias plus a
sum over predecessors of weight times ReLU of the layer below, with the
ReLU as an ``if``, some sums ablating a neuron ``z``), mixed with
aggregate terms and formulas: multi-variable sums, ``implies``, ``not``,
quantifiers, decimals, division, negation and ``bot``.

Each base text is followed by every truncation at a token boundary (the
text up to each token's start and up to its end) and by one one-token
mutation (a token deleted, replaced, or inserted before, from a pool that
holds keywords, punctuation and a character neither language accepts).
One line per text:

    lang  index  variant  result  <text>

where result is ``ok=<digest>``, the digest hashing ``repr`` of the tree,
or the exception class, its ``pos`` (``-`` when it has none) and its
message.  Lines depend only on the seed and the parsers, so ``diff`` of the
output on two checkouts lists every text whose parse or error changed.

Run:  PYTHONPATH=src python3 scripts/syntax_forms.py --seed 3 --count 200
"""

import argparse
import hashlib
import random
import re
import sys
from pathlib import Path

from nnquery.fosum import parse_fosum
from nnquery.network import graph_vocabulary
from nnquery.query import parse_query

sys.path.insert(0, str(Path(__file__).resolve().parent))
from normal_forms import sentence  # noqa: E402

# Splits both languages' texts at token boundaries; it need not match
# either lexer exactly, only cut where some token starts or ends.
_TOKEN = re.compile(r"\s*(\d+(?:\.\d+)?|\.\d+|[A-Za-z_]\w*|->|<=|>=|\S)")

POOL = {
    "query": ("(", ")", ",", ";", ".", "->", "and", "or", "not", "exists",
              "forall", "F", "abs", "min", "x1", "1", "0.5", "<", "=", "+",
              "*", "/", "@"),
    "fosum": ("(", ")", "{", "}", ",", ":", "and", "or", "implies", "not",
              "exists", "sum", "if", "then", "else", "bot", "x", "in1", "out1",
              "E", "w", "b", "val1", "1", ".5", "<", "=", "+", "*", "/", ".",
              "@"),
}


def _relu(rng, t):
    if rng.random() < 0.5:
        return f"(if 0 < {t} then {t} else 0)"
    return f"(if {t} < 0 then 0 else {t})"


def _preactivation(rng, m, level, target, ablate):
    """The text of ``build_eval_term``'s pre-activation of ``target``."""
    if level == 1:
        inputs = [f"w(in{i}, {target}) * val{i}" for i in range(1, m + 1)]
        return " + ".join([f"b({target})", *inputs])
    x = f"u{level - 1}"
    guard = f"E({x}, {target})" + (f" and not {x} = z" if ablate else "")
    below = _preactivation(rng, m, level - 1, x, ablate)
    return f"b({target}) + sum{{{x} : {guard}}} w({x}, {target}) * {_relu(rng, below)}"


def _aggregate(rng):
    """An aggregate term or formula over the graph vocabulary."""
    num = rng.choice(("1", "2", "1/2", ".5", "2.25", "(1 + val1)", "bot", "- b(x)"))
    guard = rng.choice(("E(x, y)", "E(x, y) and 0 < w(x, y)", "E(x, y) or E(y, x)",
                        "not x = y and E(x, y)", "exists v E(v, x) implies E(x, y)"))
    return rng.choice((
        f"sum{{x, y : {guard}}} w(x, y) * {num}",
        f"sum{{x : exists y E(y, x)}} b(x) / {num}",
        f"forall x (exists y E(x, y) or exists y E(y, x) implies {num} < b(x))",
        f"exists x (E(in1, x) and not b(x) = {num})",
        f"if sum{{x : E(x, out1)}} w(x, out1) < {num} then - val1 else {num} * val1",
        f"(sum{{x : E(in1, x)}} 1) - {num}",
    ))


def fosum_text(seed, i):
    """The i-th FO+SUM text for a seed: (text, vocabulary)."""
    rng = random.Random(f"fosum/{seed}/{i}")
    m = rng.randint(1, 3)
    if i % 2 == 0:
        text = _preactivation(rng, m, rng.randint(1, 3), "out1", rng.random() < 0.3)
    else:
        text = _aggregate(rng)
    return text, graph_vocabulary(m, 1)


def variants(rng, text, pool):
    """(name, text) for the text, its truncations and one mutation."""
    spans = [m.span(1) for m in _TOKEN.finditer(text)]
    yield "base", text
    for cut in sorted({p for span in spans for p in span} - {len(text)}):
        yield f"cut@{cut}", text[:cut]
    start, end = rng.choice(spans)
    kind = rng.choice(("delete", "replace", "insert"))
    new = "" if kind == "delete" else f" {rng.choice(pool)} "
    rest = text[start:] if kind == "insert" else text[end:]
    yield f"{kind}@{start}", text[:start] + new + rest


def result(parse):
    try:
        tree = parse()
    except Exception as err:  # noqa: BLE001 - every outcome is printed
        return f"{type(err).__name__} pos={getattr(err, 'pos', '-')} {err}"
    return "ok=" + hashlib.sha1(repr(tree).encode()).hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--count", type=int, default=100)
    args = parser.parse_args()
    for i in range(args.count):
        rng = random.Random(f"{args.seed}/{i}")
        _kind, qtext, net = sentence(args.seed, i)
        ftext, vocab = fosum_text(args.seed, i)
        cases = (
            ("query", qtext, lambda t: parse_query(t, net.inputs)),
            ("fosum", ftext, lambda t: parse_fosum(t, vocab)),
        )
        for lang, base, parse in cases:
            for name, text in variants(rng, base, POOL[lang]):
                print(f"{lang}\t{i}\t{name}\t{result(lambda: parse(text))}\t{text!r}")


if __name__ == "__main__":
    main()
