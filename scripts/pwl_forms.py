"""Fingerprints of extracted PWL forms over seeded networks.

Extracts every target of every network: the output and each hidden neuron.
The networks are the benchmark's models of each seed that its workloads
extract (generated as ``nnbench/run.py`` generates them; of ``pointwise``,
whose evaluation models are never extracted, the ``pwl`` ones) followed by
``--count`` random networks from the test oracles, with 1-3 inputs, 0-3
hidden layers (0-2 over 3 inputs) of width 1-2 and, in every third one, a
zero weight.  One
line per network and target:

    source  index  target  planes=<count>  polytopes=<count>  form=<digest>

where the digest hashes the repr of (breakplanes, polytopes), so plane
order, position order, component values and their types all count.  Each
such line is followed by one that reads the form back at seeded rational
points:

    source  index  target  points=<count>  on_planes=<count>  eval=<digest>

where the digest hashes the repr of each point's position
(``sign_position``) and value (``pwl_eval``).  The points are random ones
with small denominators, two with denominators past 2^64, and one on each
of the first four breakplanes, so the '=' signs are read too.  Lines
depend only on the seeds and the extraction, so ``diff`` of the output on
two checkouts lists every form, and every reading of one, that changed.

Run:  PYTHONPATH=src python3 scripts/pwl_forms.py --seeds 0 1 2 --count 300
"""

import argparse
import hashlib
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from nnquery.network import NeuronId, load_network
from nnquery.pwl import pwl_eval, pwl_from_network, sign_position

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "nnbench"), str(ROOT / "tests")]
from oracles import random_network, random_point  # noqa: E402
from workloads import WORKLOADS, models  # noqa: E402


def targets(net):
    yield NeuronId("output", 1, net.depth)
    for k, layer in enumerate(net.hidden, start=1):
        for j in range(1, len(layer) + 1):
            yield NeuronId("hidden", j, k)


def with_zero_weight(rng, net):
    """The net with one weight of one hidden or output neuron set to 0."""
    layers = [list(layer) for layer in net.hidden] + [list(net.outputs)]
    layer = rng.choice(layers)
    j = rng.randrange(len(layer))
    weights = list(layer[j].weights)
    weights[rng.randrange(len(weights))] = Fraction(0)
    layer[j] = replace(layer[j], weights=tuple(weights))
    return replace(net, hidden=tuple(map(tuple, layers[:-1])), outputs=tuple(layers[-1]))


def networks(seeds, count):
    """(source, index, network) for the benchmark models, then the random ones."""
    for seed in seeds:
        for name, workload in WORKLOADS.items():
            docs = models(workload, random.Random(seed))
            for i, (tag, doc) in enumerate(docs):
                if name == "pointwise" and tag != "pwl":
                    continue
                yield f"{name}/{tag}/seed{seed}", i, load_network(doc)
    rng = random.Random(f"pwl-forms/{seeds}")
    for i in range(count):
        m = rng.randint(1, 3)
        net = random_network(rng, m, rng.randint(1, 4 if m < 3 else 3), max_width=2)
        if i % 3 == 2:
            net = with_zero_weight(rng, net)
        yield "random", i, net


def on_plane(rng, h):
    """A random point on the plane h: random coordinates, the last one
    with a nonzero coefficient solved for."""
    x = random_point(rng, len(h) - 1)
    k = max(j for j in range(1, len(h)) if h[j])
    x[k - 1] = 0
    x[k - 1] = -(h[0] + sum(a * v for a, v in zip(h[1:], x))) / Fraction(h[k])
    return x


def points(rng, f):
    """(points, how many lie on a breakplane) at which to read f."""
    big = 2**64 + 13
    xs = [random_point(rng, f.m) for _ in range(6)]
    xs += [[Fraction(rng.randint(-5 * big, 5 * big), big) for _ in range(f.m)] for _ in range(2)]
    on = [on_plane(rng, h) for h in f.breakplanes[:4]]
    return xs + on, len(on)


def digest(value):
    return hashlib.sha1(repr(value).encode()).hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--count", type=int, default=100)
    args = parser.parse_args()
    for source, i, net in networks(args.seeds, args.count):
        for target in targets(net):
            f = pwl_from_network(net, target)
            print(
                f"{source}\t{i}\t{target}\tplanes={len(f.breakplanes)}"
                f"\tpolytopes={len(f.polytopes)}\tform={digest((f.breakplanes, f.polytopes))}",
                flush=True,
            )
            xs, on = points(random.Random(f"{source}/{i}/{target}"), f)
            readings = [(sign_position(f.breakplanes, x), pwl_eval(f, x)) for x in xs]
            print(
                f"{source}\t{i}\t{target}\tpoints={len(xs)}\ton_planes={on}"
                f"\teval={digest(readings)}",
                flush=True,
            )


if __name__ == "__main__":
    main()
