"""Fingerprints of the query normal form over seeded random sentences.

Draws closed sentences of three kinds in turn: the test oracles' random
ordered sentences (linear atoms and F(x⃗) = y atoms under a random boolean
tree); sugared ones, with abs, min, max, dist_linf, dist_l1 and F around
linear terms, and in sentences without F the nested pieces abs(max(…)),
min(abs(…), …) and abs(dist_*(…) − …), summed with small coefficients, a lone piece sometimes
repeated and an F piece sometimes scaled by 0; and chains, 5-12 linear
atoms (one sometimes comparing F) joined by and, or and ->, with runs of
them grouped in parentheses and joined the same way, so that a group
often repeats its parent's connective.  Each sentence is evaluated on a
seeded random network.  One line per sentence:

    index  kind  vars=<variable count>  planes=<digest>  truth=<bool>  <text>

where the digest hashes the sorted planes of the query arrangement.  Lines
depend only on the seed and the normal form, so ``diff`` of the output on
two checkouts lists every sentence whose normal form changed.

Run:  PYTHONPATH=src python3 scripts/normal_forms.py --seed 3 --count 1500
"""

import argparse
import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

from nnquery.pwl import pwl_from_network
from nnquery.query import (
    build_query_arrangement,
    evaluate_query,
    normalize_ordered_prenex,
    parse_query,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import random_network, random_ordered_sentence  # noqa: E402


def _linear(rng, xs):
    terms = [f"{rng.choice(('1', '2', '1/2', '-1', '-3/2'))} * {x}" for x in xs]
    return " + ".join([*rng.sample(terms, rng.randint(1, len(terms))), rng.choice("0123")])


def _f_args(rng, xs, m):
    # plain distinct variables; over one variable a linear argument too,
    # whose fresh copy keeps the count at three variables
    if len(xs) == 1 and rng.random() < 0.5:
        return _linear(rng, xs)
    return ", ".join(rng.sample(xs, m))


def _dist(rng, xs, kind):
    us = rng.sample(xs, rng.randint(1, min(2, len(xs))))
    ps = [str(Fraction(rng.randint(-4, 4), 2)) for _ in us]
    return f"{kind}({', '.join(us)}; {', '.join(ps)})"


_PIECES = ("abs", "min", "max", "dist_linf", "dist_l1", "F", "abs F", "max F")
_NESTED = ("abs max", "min abs", "abs dist")


def _piece(rng, xs, m, kinds):
    """One sugared or F term of one of the kinds, over linear arguments; the
    second value says whether it applies F."""
    kind = rng.choice(kinds)
    if kind == "abs":
        return f"abs({_linear(rng, xs)})", False
    if kind in ("min", "max"):
        return f"{kind}({_linear(rng, xs)}, {_linear(rng, xs)})", False
    if kind == "abs max":
        return f"abs(max({_linear(rng, xs)}, {_linear(rng, xs)}))", False
    if kind == "min abs":
        return f"min(abs({_linear(rng, xs)}), {_linear(rng, xs)})", False
    if kind == "abs dist":
        dist = _dist(rng, xs, rng.choice(("dist_linf", "dist_l1")))
        return f"abs({dist} - {_linear(rng, xs)})", False
    if kind.startswith("dist"):
        return _dist(rng, xs, kind), False
    f = f"F({_f_args(rng, xs, m)})"
    if kind == "F":
        return f, True
    if kind == "abs F":
        return f"abs({f} - {_linear(rng, xs)})", True
    return f"max({f}, {_linear(rng, xs)})", True


def _sugared_atom(rng, xs, m, with_f, kinds):
    pieces = []
    count = rng.randint(1, 2)
    for _ in range(count):
        text, has_f = _piece(rng, xs, m, kinds)
        while has_f and not with_f:
            text, has_f = _piece(rng, xs, m, kinds)
        with_f = with_f and not has_f  # at most one F piece per atom
        coeff = "0" if has_f and rng.random() < 0.15 else rng.choice(("1", "2", "-1", "1/2"))
        pieces.append(f"{coeff} * {text}")
    if count == 1 and rng.random() < 0.3:  # the same node twice in one term
        pieces.append(pieces[0])
    rel = rng.choice(("<", ">", "<=", ">=", "="))
    return f"({' + '.join(pieces)} {rel} {_linear(rng, xs)})"


def sugared_sentence(rng, d, m):
    """A closed sentence over x1..xd whose atoms compare sugared terms with
    linear ones; F appears in at most one atom, to keep the variable count
    small, and the nested pieces only where no atom may apply F, so that
    their decompositions stay in R^2."""
    xs = [f"x{i}" for i in range(1, d + 1)]
    prefix = "".join(f"{rng.choice(('exists', 'forall'))} {x} . " for x in xs)
    count = rng.randint(1, 2)
    f_atom = rng.randrange(3) if d >= m else None
    kinds = _PIECES if f_atom is not None and f_atom < count else _PIECES + _NESTED
    atoms = [_sugared_atom(rng, xs, m, i == f_atom, kinds) for i in range(count)]
    matrix = f" {rng.choice(('and', 'or'))} ".join(atoms)
    if rng.random() < 0.3:
        matrix = f"not ({matrix})"
    return prefix + f"({matrix})"


def _chain(rng, atoms):
    """The atoms joined by one of and, or, ->; each run of two or more
    atoms between the joins is a parenthesized chain of its own."""
    if len(atoms) == 1:
        return atoms[0]
    cuts = sorted(rng.sample(range(1, len(atoms)), rng.randint(1, len(atoms) - 1)))
    runs = [atoms[a:b] for a, b in zip([0, *cuts], [*cuts, len(atoms)])]
    op = rng.choice(("and", "or", "->"))
    return f" {op} ".join(r[0] if len(r) == 1 else f"({_chain(rng, r)})" for r in runs)


def chain_sentence(rng, d, m):
    """A closed sentence over x1..xd whose matrix is a nested chain of 5-12
    atoms; F appears in at most one of them."""
    xs = [f"x{i}" for i in range(1, d + 1)]
    prefix = "".join(f"{rng.choice(('exists', 'forall'))} {x} . " for x in xs)
    atoms = []
    for _ in range(rng.randint(5, 12)):
        rel = rng.choice(("<", ">", "<=", ">=", "="))
        atoms.append(f"{_linear(rng, xs)} {rel} {_linear(rng, xs)}")
    if d >= m and rng.random() < 0.5:
        atoms[rng.randrange(len(atoms))] = f"F({_f_args(rng, xs, m)}) > {_linear(rng, xs)}"
    return prefix + f"({_chain(rng, atoms)})"


def sentence(seed, i):
    """The i-th sentence for a seed: (kind, text, network)."""
    rng = random.Random(f"{seed}/{i}")
    m = rng.choice((1, 1, 2))
    net = random_network(rng, m, rng.randint(1, 2), max_width=2)
    if i % 3 == 0:
        d = rng.randint(m, 3) if m == 1 else 3
        text, _prefix, _matrix = random_ordered_sentence(
            rng, d, m, rng.randint(1, 3), with_f=d > m
        )
        return "plain", text, net
    if i % 3 == 1:
        return "sugar", sugared_sentence(rng, rng.randint(m, 2), m), net
    return "chain", chain_sentence(rng, rng.randint(m, 2), m), net


def fingerprint(text, net):
    """(variable count, digest of the sorted arrangement planes, truth)."""
    f = pwl_from_network(net)
    q = normalize_ordered_prenex(parse_query(text, f.m))
    truth = evaluate_query(f, text).truth
    if not q.var_names:
        return 0, "-", truth
    planes = sorted(build_query_arrangement(f, q).hyperplanes)
    return len(q.var_names), hashlib.sha1(repr(planes).encode()).hexdigest()[:12], truth


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--count", type=int, default=100)
    args = parser.parse_args()
    for i in range(args.count):
        kind, text, net = sentence(args.seed, i)
        d, digest, truth = fingerprint(text, net)
        print(f"{i}\t{kind}\tvars={d}\tplanes={digest}\ttruth={truth}\t{text}", flush=True)


if __name__ == "__main__":
    main()
