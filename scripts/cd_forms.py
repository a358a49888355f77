"""Fingerprints of cell decompositions over seeded arrangements.

Two sources of arrangements, one line per ``build_cd`` call:

- ``random``: ``--count`` random arrangements in R^1..R^4 with small
  rational coefficients, vertical planes and planes concurrent through one
  hub point (so that sections coincide over a base cell); every third one
  is also decomposed with a box pruning predicate (``restrict=``).
- ``<workload>/seed<seed>``: every decomposition that the first ``--ops``
  operations of each benchmark workload build (models and operation streams
  generated as ``nnbench/run.py`` generates them, set-up included), recorded
  by wrapping ``build_cd`` at every module attribute that binds it.

Each line reads

    source  index  d=<dim>  planes=<count>  cells=<total>  form=<digest>

where the digest hashes the repr of (id, kind, lower, upper, sample) of
every cell at every level in construction order, so cell order, plane
order, sample values and their types all count.  Lines depend only on the
seeds and the decomposition, so ``diff`` of the output on two checkouts
lists every decomposition that changed.

Run:  PYTHONPATH=src python3 scripts/cd_forms.py --seeds 3 17 --count 300 --ops 40
"""

import argparse
import hashlib
import importlib
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from nnquery.geometry import build_cd, make_arrangement

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "nnbench"), str(ROOT / "tests")]
from workloads import WORKLOADS, models  # noqa: E402

# Package modules that the workloads call, as the benchmark imports them.
LAYERS = ("network", "fosum", "pwl", "linprog", "geometry", "query", "analysis")


def fingerprint(cd):
    cells = [(c.id, c.kind, c.lower, c.upper, c.sample) for level in cd.levels for c in level]
    return hashlib.sha1(repr(cells).encode()).hexdigest()[:12]


def line(source, i, arr, cd):
    total = sum(len(level) for level in cd.levels)
    return (
        f"{source}\t{i}\td={arr.d}\tplanes={len(arr.hyperplanes)}"
        f"\tcells={total}\tform={fingerprint(cd)}"
    )


def random_arrangements(rng, count):
    """(arrangement, restrict) pairs; restrict is None or a box predicate."""
    for i in range(count):
        d = 1 + i % 4
        hub = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
        planes = []
        for _ in range(rng.randint(1, 6 if d < 4 else 4)):
            lin = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
            kind = rng.random()
            if d > 1 and kind < 0.3:
                lin[-1] = Fraction(0)
            if not any(lin):
                lin[rng.randrange(d)] = Fraction(1)
            if kind > 0.55:
                const = -sum(a * x for a, x in zip(lin, hub))
            else:
                const = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            planes.append((const, *lin))
        arr = make_arrangement(d, planes)
        yield arr, None
        if i % 3 == 0:
            bound = Fraction(rng.randint(1, 8), 2)
            yield arr, lambda lvl, s, bound=bound: -bound < s[lvl - 1] < bound


def workload_lines(name, seed, n_ops):
    """The line of every decomposition built by the first ``n_ops``
    operations of one workload, its set-up included, in call order."""
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    docs = models(workload, rng)
    lib = SimpleNamespace(**{n: importlib.import_module(f"nnquery.{n}") for n in LAYERS})
    built = []

    def recording(arr, restrict=None):
        cd = build_cd(arr, restrict)
        built.append(line(f"{name}/seed{seed}", len(built), arr, cd))
        return cd

    bound = [m for m in vars(lib).values() if getattr(m, "build_cd", None) is build_cd]
    for module in bound:
        module.build_cd = recording
    try:
        nets = [lib.network.load_network(doc) for _tag, doc in docs]
        state = workload.prepare(lib, nets)
        for op in itertools.islice(workload.ops(rng, lib, nets, state), n_ops):
            op.call()
    finally:
        for module in bound:
            module.build_cd = build_cd
    return built


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 17])
    parser.add_argument("--count", type=int, default=300)
    parser.add_argument("--ops", type=int, default=40)
    args = parser.parse_args()
    rng = random.Random(f"cd-forms/{args.seeds}")
    for i, (arr, restrict) in enumerate(random_arrangements(rng, args.count)):
        print(line("random", i, arr, build_cd(arr, restrict)), flush=True)
    for seed in args.seeds:
        for name in WORKLOADS:
            print("\n".join(workload_lines(name, seed, args.ops)), flush=True)


if __name__ == "__main__":
    main()
