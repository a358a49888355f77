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
order, position order, component values and their types all count.  Lines
depend only on the seeds and the extraction, so ``diff`` of the output on
two checkouts lists every form that changed.

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
from nnquery.pwl import pwl_from_network

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "nnbench"), str(ROOT / "tests")]
from oracles import random_network  # noqa: E402
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


def fingerprint(f):
    return hashlib.sha1(repr((f.breakplanes, f.polytopes)).encode()).hexdigest()[:12]


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
                f"\tpolytopes={len(f.polytopes)}\tform={fingerprint(f)}",
                flush=True,
            )


if __name__ == "__main__":
    main()
