"""In-memory span tracer for the nnquery package's public layer functions.

Every traced function is wrapped at each module attribute that binds it:
``from .geometry import build_cd`` copies the function object into ``pwl``,
``query`` and ``analysis``, so wrapping only ``geometry.build_cd`` would miss
most calls.  A span is (function, start, end, parent span, op id).  The
evaluators ``eval_weight_term`` and ``eval_formula`` recurse into themselves
and into each other; while either has a span open, inner calls of both run
unwrapped, so only the outermost call records a span and the wrapper adds no
cost per recursion step.  Any other traced function re-entered while its own
span is open is treated the same way.

Spans are timed in CPU time of the process, like the operations they
belong to.  Self time of a span is its duration minus the durations of its
direct child spans.  The benchmark opens one root span per operation, so the
self times of all spans of an operation add up to that operation's traced
CPU time.
"""

from __future__ import annotations

import sys
from array import array
from time import process_time

# The public functions traced, by package module.  These are the layer
# boundaries the per-layer metrics are reported at.
TRACED = {
    "network": ("load_network", "forward", "to_structure"),
    "fosum": ("parse_fosum", "eval_weight_term", "eval_formula"),
    "pwl": ("pwl_from_network", "sum_stage", "relu_stage", "pwl_restrict", "pwl_eval"),
    "linprog": ("minimize",),
    "geometry": ("build_cd", "make_arrangement"),
    "query": (
        "parse_query",
        "normalize_ordered_prenex",
        "build_query_arrangement",
        "select_cells_qfree",
        "project_exists",
        "complement",
        "evaluate_query",
    ),
    "analysis": (
        "integrate_box",
        "triangulate_cell",
        "shap",
        "robustness_check",
        "counterfactual_explain",
        "feature_contribution",
        "simplex_volume",
    ),
}

ROOT = "bench.op"

# Functions that call each other recursively share one open-span key.
RECURSION_KEY = {
    "fosum.eval_weight_term": "fosum.eval",
    "fosum.eval_formula": "fosum.eval",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Work counts read from a traced call's arguments and return value.
COUNTERS = {
    "geometry.build_cd": lambda a, k, r: {
        "cells": len(r.levels[r.d]),
        "pool_planes": sum(len(p) for p in r.pools.values()),
    },
    "query.build_query_arrangement": lambda a, k, r: {"planes": len(r.hyperplanes)},
    "query.select_cells_qfree": lambda a, k, r: {
        "cells_evaluated": len(_arg(a, k, 0, "cd").levels[-1]),
        "cells_selected": len(r.ids),
    },
    "linprog.minimize": lambda a, k, r: {"constraints": len(_arg(a, k, 1, "constraints"))},
    "pwl.pwl_from_network": lambda a, k, r: {
        "breakplanes": len(r.breakplanes),
        "polytopes": len(r.polytopes),
    },
}


class Tracer:
    """Wraps the traced functions of the imported ``nnquery`` modules.

    Use as a context manager; leaving it restores every original binding.
    """

    def __init__(self):
        self.names = [ROOT]
        # One entry per span, in the order spans close.
        self.fn = array("i")  # index into self.names
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")  # span id of the enclosing span, -1 for none
        self.op = array("q")
        self._ids = array("q")  # span id
        self.counts = {}  # (function, counter) -> total
        self._stack = []  # (name index, span id, start) of open spans
        self._next_id = 0
        self._open = set()
        self._op_id = -1
        self._restore = []  # (module, attribute, original)
        self.originals = {}  # qualified name -> original function

    # -- installation --------------------------------------------------------

    def __enter__(self):
        modules = _package_modules()
        wrappers = {}
        for mod_name, fn_names in TRACED.items():
            home = modules[f"nnquery.{mod_name}"]
            for fn_name in fn_names:
                qual = f"{mod_name}.{fn_name}"
                orig = getattr(home, fn_name)
                self.originals[qual] = orig
                wrappers[id(orig)] = (orig, self._wrap(qual, orig))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))
        self.self_check()
        return self

    def __exit__(self, *exc):
        for module, attr, value in self._restore:
            setattr(module, attr, value)
        self._restore = []
        return False

    def self_check(self):
        """Fail loudly if any nnquery module still binds an unwrapped copy."""
        originals = {id(f): q for q, f in self.originals.items()}
        stale = []
        for mod_name, module in _package_modules().items():
            for attr, value in vars(module).items():
                qual = originals.get(id(value))
                if qual is not None and self.originals[qual] is value:
                    stale.append(f"{mod_name}.{attr} (unwrapped {qual})")
        if stale:
            raise RuntimeError("tracer left unwrapped bindings: " + ", ".join(stale))

    # -- recording -----------------------------------------------------------

    def _wrap(self, qual, orig):
        idx = len(self.names)
        self.names.append(qual)
        counter = COUNTERS.get(qual)
        key = RECURSION_KEY.get(qual, qual)
        open_ = self._open

        def traced(*args, **kwargs):
            if key in open_:
                return orig(*args, **kwargs)
            open_.add(key)
            self._push(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                open_.discard(key)
                self._pop()
            if counter is not None:
                for stat, n in counter(args, kwargs, result).items():
                    self.counts[qual, stat] = self.counts.get((qual, stat), 0) + n
            return result

        traced.__wrapped__ = orig
        traced.__name__ = orig.__name__
        traced.__qualname__ = orig.__qualname__
        return traced

    def _push(self, idx):
        self._stack.append((idx, self._next_id, process_time()))
        self._next_id += 1

    def _pop(self):
        end = process_time()
        idx, span_id, start = self._stack.pop()
        self.fn.append(idx)
        self.start.append(start)
        self.end.append(end)
        self._ids.append(span_id)
        self.parent.append(self._stack[-1][1] if self._stack else -1)
        self.op.append(self._op_id)

    def run_op(self, op_id, call):
        """Run ``call`` under a root span tagged with ``op_id``."""
        self._op_id = op_id
        self._push(0)
        try:
            return call()
        finally:
            self._pop()

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Per-span self time, indexed like the span arrays."""
        pos = {sid: i for i, sid in enumerate(self._ids)}
        child = [0.0] * len(self.fn)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[pos[parent]] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.fn))]

    def write(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w") as out:
            out.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.fn)):
                out.write(
                    f"{self._ids[i]}\t{self.parent[i]}\t{self.op[i]}\t"
                    f"{self.names[self.fn[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def _package_modules():
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "nnquery" or name.startswith("nnquery."))
    }


# Per-layer metrics of a traced run: (name, unit, better).  Self times and
# counts are per operation; load_network runs only at set-up, so its self
# time is per set-up.
PER_LAYER = tuple(
    (f"{mod}.{fn}.self_s", "s" if fn == "load_network" else "s/op", "lower")
    for mod, fns in TRACED.items()
    for fn in fns
) + (
    ("geometry.build_cd.calls", "1/op", "lower"),
    ("geometry.build_cd.cells", "1/op", "lower"),
    ("geometry.build_cd.pool_planes", "1/op", "lower"),
    ("query.build_query_arrangement.planes", "1/op", "lower"),
    ("query.select_cells_qfree.cells_evaluated", "1/op", "lower"),
    ("query.select_cells_qfree.selected_ratio", "ratio", "higher"),
    ("linprog.minimize.calls", "1/op", "lower"),
    ("linprog.minimize.constraints", "1/op", "lower"),
    ("analysis.simplex_volume.calls", "1/op", "lower"),
    ("pwl.pwl_from_network.breakplanes", "1/op", "lower"),
    ("pwl.pwl_from_network.polytopes", "1/op", "lower"),
    ("pwl.pwl_eval.calls", "1/op", "lower"),
    (f"{ROOT}.self_s", "s/op", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_metrics(tracer, untraced, traced):
    """PER_LAYER values from a traced replay of the untraced operations.

    Raises if the self times of an operation's spans do not add up to the
    operation's traced CPU time.
    """
    n_ops = len(traced)
    self_s = {name: 0.0 for name in tracer.names}
    calls = {name: 0 for name in tracer.names}
    setup_s = 0.0
    wall = 0.0
    for i, t in enumerate(tracer.self_times()):
        name = tracer.names[tracer.fn[i]]
        if tracer.op[i] < 0:
            setup_s += t if name == "network.load_network" else 0.0
            continue
        self_s[name] += t
        calls[name] += 1
        if name == ROOT:
            wall += tracer.end[i] - tracer.start[i]
    if abs(sum(self_s.values()) - wall) > 1e-6 * max(1.0, wall):
        raise RuntimeError("span self times do not account for the traced CPU time")

    counts = tracer.counts
    evaluated = counts.get(("query.select_cells_qfree", "cells_evaluated"), 0)
    selected = counts.get(("query.select_cells_qfree", "cells_selected"), 0)
    out = {}
    for name, _unit, _better in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if name == "network.load_network.self_s":
            out[name] = setup_s
        elif stat == "self_s":
            out[name] = self_s[fn] / n_ops
        elif stat == "calls":
            out[name] = calls[fn] / n_ops
        elif name == "query.select_cells_qfree.selected_ratio":
            out[name] = selected / evaluated if evaluated else 0.0
        elif name == "trace.overhead_ratio":
            out[name] = sum(r.seconds for r in traced) / sum(r.seconds for r in untraced)
        else:
            out[name] = counts.get((fn, stat), 0) / n_ops
    return out
