"""nnquery benchmark: one closed-loop client driving the library in-process.

Run from the repository root:

    python3 nnbench/run.py --workload verify-2d --seed 1 --seconds 25 --trace 0

The seed generates the workload's models (JSON documents read through
``network.load_network``) and its operation stream.  Set-up (package import,
loading every model, and the workload's one-time library preparation) is
repeated on a fresh import and its median reported.  The client then issues
operations one at a time for ``--seconds`` seconds; every result is checked
afterwards, outside the timed region, against an independent reference.
Each operation runs under a per-operation time limit enforced by SIGALRM; an
operation over the limit counts as failed and is kept in the latency sample.

Operations and set-up are timed in CPU time of the process
(``time.process_time``).  The client is single-threaded and does no I/O, so
on an idle machine this equals wall time; on a shared host it leaves out the
time the process waits for a core held by another tenant, which otherwise
swings the figures from run to run.  The run length (``--seconds``) and the
per-operation limit are wall time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats the same
operations with every public layer function wrapped (see ``spans.py``) and
reports per-layer metrics instead; spans are written to
``.bench_trace/<workload>-seed<seed>.tsv``.  The last line of standard output
is one JSON object; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter, process_time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import spans  # noqa: E402
from workloads import WORKLOADS, models  # noqa: E402

# Package modules in dependency order; ``core`` is arithmetic under all of
# them and ``cli`` is not on the timed path.
LAYERS = ("network", "fosum", "pwl", "linprog", "geometry", "query", "analysis")

# Set-up is repeated this many times per run and the median reported.
SETUP_REPEATS = 5

# The slowest single operation on any workload takes under two seconds (the
# summary prints the slowest of each run); a limit far above it lets a badly
# regressed program still finish its run.
OP_LIMIT_S = 20.0

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Record:
    op: object
    seconds: float
    status: str  # 'ok', 'timeout', 'error: ...', then 'wrong' or 'check error: ...'
    result: object


def set_up(workload, docs):
    """Import the package afresh, load every model, run the workload's
    preparation; return (seconds, modules, networks, prepared state)."""
    for name in [n for n in sys.modules if n == "nnquery" or n.startswith("nnquery.")]:
        del sys.modules[name]
    gc.collect()
    start = process_time()
    lib = SimpleNamespace(**{n: importlib.import_module(f"nnquery.{n}") for n in LAYERS})
    nets = [lib.network.load_network(doc) for _tag, doc in docs]
    state = workload.prepare(lib, nets)
    return process_time() - start, lib, nets, state


def run_op(op, call=None):
    call = call or op.call
    start = process_time()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            result, status = call(), "ok"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        result, status = None, "timeout"
    except Exception as exc:  # an operation's failure is a result, not a crash
        result, status = None, f"error: {type(exc).__name__}: {exc}"
    return Record(op, process_time() - start, status, result)


def check(records):
    """Hold every completed result to its reference, under the same limit."""
    for rec in records:
        if rec.status != "ok":
            continue
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
            try:
                good = rec.op.check(rec.result)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Exception as exc:  # OpTimeout included
            rec.status = f"check error: {type(exc).__name__}: {exc}"
            continue
        if not good:
            rec.status = "wrong"


def measure(ops, seconds):
    records = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        records.append(run_op(next(ops)))
    return records


def nearest_rank(sorted_values, q):
    """The q-quantile by nearest rank, and how many samples lie above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(records, setup_s, peak_rss_mb):
    lat = sorted(r.seconds * 1e3 for r in records)
    p50, _ = nearest_rank(lat, 0.5)
    p90, above = nearest_rank(lat, 0.9)
    good = sum(1 for r in records if r.status == "ok")
    busy = sum(r.seconds for r in records)
    metrics = {
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "ops_per_s": good / busy,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, above


def traced_replay(records, docs, lib):
    """Re-run the measured operations with the layer tracer installed."""
    tracer = spans.Tracer()
    with tracer:
        tracer.run_op(-1, lambda: [lib.network.load_network(doc) for _tag, doc in docs])
        replay = [
            run_op(r.op, lambda i=i, r=r: tracer.run_op(i, r.op.call))
            for i, r in enumerate(records)
        ]
    for first, again in zip(records, replay):
        if first.status == "ok" and again.status == "ok" and again.result != first.result:
            again.status = "wrong"
    return tracer, replay


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _alarm)

    rng = random.Random(args.seed)
    docs = models(workload, rng)
    setups = [set_up(workload, docs) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(s[0] for s in setups)
    _, lib, nets, state = setups[-1]
    del setups[:-1]

    records = measure(workload.ops(rng, lib, nets, state), args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check(records)
    metrics, above_p90 = end_to_end(records, setup_s, peak_rss_mb)
    units = dict(END_TO_END)
    failed = [r for r in records if r.status != "ok"]
    reported = metrics
    if args.trace:
        tracer, replay = traced_replay(records, docs, lib)
        failed += [r for r, first in zip(replay, records) if r.status != "ok" and first.status == "ok"]
        reported = spans.layer_metrics(tracer, records, replay)
        units.update((name, unit) for name, unit, _better in spans.PER_LAYER)
        os.makedirs(os.path.join(ROOT, ".bench_trace"), exist_ok=True)
        tracer.write(os.path.join(ROOT, ".bench_trace", f"{workload.name}-seed{args.seed}.tsv"))

    attempted = len(records)
    kinds = {}
    for r in records:
        kinds[r.op.kind] = kinds.get(r.op.kind, 0) + 1
    print(f"workload {workload.name}, seed {args.seed}: {attempted} ops in "
          f"{sum(r.seconds for r in records):.2f} s CPU busy, {above_p90} samples above p90, "
          f"slowest {max(r.seconds for r in records):.3f} s")
    print("  mix: " + ", ".join(f"{k} {n}" for k, n in sorted(kinds.items())))
    print(f"  reuse share: {attempted / len(docs):.1f} ops per network ({len(docs)} networks)")
    print(f"  {'failed_share':<44} {len(failed) / attempted:.4f} 1")
    for name, value in (metrics | reported).items():
        print(f"  {name:<44} {value:.6g} {units[name]}")
    for r in failed[:10]:
        print(f"FAILED {r.op.kind} on network {r.op.net}: {r.status}", file=sys.stderr)
    if above_p90 < 10:
        print(f"warning: only {above_p90} samples above p90", file=sys.stderr)

    wrong = any(r.status != "timeout" for r in failed)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
