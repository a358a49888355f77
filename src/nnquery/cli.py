"""Command-line front end: one executable, `nnq`, tying model ingestion,
both query languages, and the quantitative analyses together.

Every command is registered through one wrapper, `_command`, placed directly
under `@main.command(name)`.  It owns the start time, `--model` (read and
loaded for each body that takes a `net`), `--out` and `--decimal`, the JSON
document {"command", "result", "timings"} with rationals rendered exactly as
"p/q" strings (`--decimal K` adds a clearly-labeled approximate mirror), the
`--strict` exit code, and the one mapping of input problems to exit 3.  A
command body takes the network and the option values parsed by the click
types below, and only computes its result.

Exit codes: 0 on success, 1 when a boolean command run with --strict answers
false, 2 on usage errors (click checks option values before the model is
read), 3 on input errors (unreadable files, invalid models, and any
ValueError from the library: malformed query texts, domain violations).  The
environment variable NNQ_THREADS caps worker parallelism; every current
command is single-threaded and deterministic, so any positive cap is honored
trivially.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import click

from .analysis import (
    Box,
    counterfactual_explain,
    feature_contribution,
    integrate_box,
    robustness_check,
    shap,
)
from .core import BOT, format_rational, rational
from .fosum import Formula, eval_formula, eval_weight_term, free_variables, parse_fosum
from .geometry import build_cd, cd_stats, make_arrangement
from .network import (
    build_sawtooth,
    forward,
    graph_vocabulary,
    load_network,
    network_to_json,
    to_structure,
    useless_neurons,
)
from .pwl import lift_graph, pwl_from_network, pwl_to_json, value_gap
from .query import evaluate_query


# Option types: click reports a malformed value as a usage error (exit 2).
class _Rational(click.ParamType):
    name = "rational"

    def convert(self, value, param, ctx):
        try:
            return rational(value)
        except ValueError:
            self.fail(f"{value!r} is not a rational like 3, -2/5 or 0.25", param, ctx)


class _Vector(click.ParamType):
    """Comma-separated rationals; blank text is the empty vector."""

    name = "vector"

    def convert(self, value, param, ctx):
        if not value.strip():
            return ()
        return tuple(RATIONAL.convert(part, param, ctx) for part in value.split(","))


class _Box(click.ParamType):
    name = "box"

    def convert(self, value, param, ctx):
        intervals = [VECTOR.convert(part, param, ctx) for part in value.split(";")]
        if any(len(ends) != 2 for ends in intervals):
            self.fail("must be 'lo,hi' pairs separated by ';', e.g. '0,1;-1,1'", param, ctx)
        try:
            return Box(tuple(intervals))
        except ValueError as e:
            self.fail(str(e), param, ctx)


class _Param(click.ParamType):
    name = "name=value"

    def convert(self, value, param, ctx):
        name, sep, text = value.partition("=")
        if not sep or not name:
            self.fail("expects name=value, e.g. eps=1/10", param, ctx)
        return name, RATIONAL.convert(text, param, ctx)


RATIONAL = _Rational()
VECTOR = _Vector()
BOX = _Box()


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _input_error(msg: str):
    click.echo(f"error: {msg}", err=True)
    sys.exit(3)


def _check_threads_cap():
    raw = os.environ.get("NNQ_THREADS")
    if raw is None:
        return
    try:
        cap = int(raw)
        if cap < 1:
            raise ValueError
    except ValueError:
        click.echo(
            f"warning: ignoring NNQ_THREADS={raw!r} (need a positive integer)",
            err=True,
        )


def _render(value, leaf):
    """Recursive JSON-safe rendering; ``leaf`` formats each rational."""
    if value is BOT:
        return "bot"
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return leaf(value)
    if isinstance(value, dict):
        return {str(k): _render(v, leaf) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_render(v, leaf) for v in value]
    return value


def _decimal_str(q: Fraction, places: int) -> str:
    scaled = round(q * 10**places)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**places)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(places)}"


def _emit(command: str, result, started: float, decimal, out):
    payload = {"command": command, "result": _render(result, format_rational)}
    if decimal is not None:
        payload["approx"] = {
            "note": "rounded decimals, approximate",
            "decimal_places": decimal,
            "result": _render(result, lambda q: _decimal_str(q, decimal)),
        }
    payload["timings"] = {"total_seconds": round(time.perf_counter() - started, 6)}
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        click.echo(text)


def _command(body):
    """Wrap a command body into its click callback.

    A body whose parameters include `net` gets a required `--model` option
    and the network loaded from it; every body gets `--out` and `--decimal`.
    A `--strict` option declared by the command is consumed here: exit 1
    when the result is false, or is an open query with no satisfying cell.
    """
    needs_model = "net" in inspect.signature(body).parameters

    @functools.wraps(body)
    def run(out, decimal, model=None, strict=False, **args):
        started = time.perf_counter()
        if needs_model:
            try:
                args["net"] = load_network(Path(model).read_text(encoding="utf-8"))
            except (OSError, ValueError) as e:
                _input_error(f"cannot load model {model!r}: {e}")
        try:
            result = body(**args)
            _emit(click.get_current_context().command.name, result, started, decimal, out)
        except (OSError, ValueError) as e:
            _input_error(str(e))
        if strict and not (result["satisfiable"] if isinstance(result, dict) else result):
            sys.exit(1)

    # click lists a command's options in the reverse of this order
    run.__click_params__ = [
        click.Option(
            ["--decimal"],
            type=click.IntRange(0),
            default=None,
            help="Add an approximate decimal rendering with this many places.",
        ),
        click.Option(["--out"], default=None, help="Write the JSON result here instead of stdout."),
        *getattr(body, "__click_params__", []),
    ]
    if needs_model:
        run.__click_params__.append(
            click.Option(["--model"], required=True, help="Path to a model JSON file.")
        )
    return run


@click.group()
def main():
    """Exact queries and analyses over feedforward ReLU networks."""
    _check_threads_cap()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@main.command("eval")
@_command
@click.option("--input", "input_", required=True, type=VECTOR, help="Comma-separated rationals.")
def eval_cmd(net, input_):
    """Exact forward pass; result is the list of output values."""
    return forward(net, input_)


@main.command("fosum")
@_command
@click.option("--term", default=None, help="Path to a weight-term/formula file.")
@click.option("--term-str", default=None, help="Inline weight term or formula.")
@click.option(
    "--input",
    "input_",
    default=None,
    type=VECTOR,
    help="Bind the val_i constants to this point (comma-separated rationals).",
)
def fosum_cmd(net, term, term_str, input_):
    """Evaluate a closed aggregate-logic weight term or formula against the
    model's weighted graph structure."""
    if (term is None) == (term_str is None):
        raise click.UsageError("provide exactly one of --term / --term-str")
    text = term_str if term is None else Path(term).read_text(encoding="utf-8")
    ast = parse_fosum(text, graph_vocabulary(net.inputs, len(net.outputs)))
    if free_variables(ast):
        raise ValueError("term/formula must be closed (no free variables)")
    evaluate = eval_formula if isinstance(ast, Formula) else eval_weight_term
    return evaluate(to_structure(net, vals=input_), ast, {})


@main.command("extract-pwl")
@_command
def extract_pwl_cmd(net):
    """Exact piecewise-linear normal form: breakplanes plus one affine
    component per position."""
    return json.loads(pwl_to_json(pwl_from_network(net)))


@main.command("query")
@_command
@click.option("--query", "query_path", default=None, help="Path to a query file.")
@click.option("--query-str", default=None, help="Inline query text.")
@click.option("--param", multiple=True, type=_Param(), help="Rational parameter, name=value.")
@click.option(
    "--free-order",
    default=None,
    help="Comma-separated free-variable order overriding first appearance.",
)
@click.option("--strict", is_flag=True, help="Exit 1 when the answer is false/empty.")
def query_cmd(net, query_path, query_str, param, free_order):
    """Evaluate a first-order query: closed queries answer true/false, open
    queries list one exact sample point per satisfying cell."""
    if (query_path is None) == (query_str is None):
        raise click.UsageError("provide exactly one of --query / --query-str")
    text = query_str if query_path is None else Path(query_path).read_text(encoding="utf-8")
    order = None
    if free_order is not None:
        order = [v.strip() for v in free_order.split(",") if v.strip()]
    res = evaluate_query(net, text, parameters=dict(param) or None, free_order=order)
    if res.truth is not None:
        return res.truth
    return {
        "free_vars": list(res.free_vars),
        "satisfiable": bool(res.cells),
        "cells": [{"id": list(cid), "sample": sample} for cid, sample in res.cells],
    }


@main.command("integrate")
@_command
@click.option("--box", required=True, type=BOX, help="'lo,hi' pairs separated by ';'.")
@click.option(
    "--method",
    type=click.Choice(["auto", "cells", "trapezoid"]),
    default="auto",
    show_default=True,
)
def integrate_cmd(net, box, method):
    """Exact integral of the network function over a box."""
    return integrate_box(pwl_from_network(net), box, method=method)


@main.command("shap")
@_command
@click.option("--point", required=True, type=VECTOR, help="Evaluation point, comma-separated.")
@click.option("--box", required=True, type=BOX, help="'lo,hi' pairs separated by ';'.")
@click.option("--feature", type=int, required=True, help="1-based input index.")
def shap_cmd(net, point, box, feature):
    """Exact Shapley value of one input, inputs uniform on the box."""
    return shap(net, point, box, feature)


@main.command("robust")
@_command
@click.option("--point", required=True, type=VECTOR, help="Center point, comma-separated.")
@click.option("--eps", required=True, type=RATIONAL, help="Input radius (rational).")
@click.option("--delta", required=True, type=RATIONAL, help="Output tolerance (rational).")
@click.option(
    "--metric",
    type=click.Choice(["linf", "l1"]),
    default="linf",
    show_default=True,
)
@click.option("--strict", is_flag=True, help="Exit 1 when not robust.")
def robust_cmd(net, point, eps, delta, metric):
    """Decide ∀x (dist(x, point) < eps → |F(x) − F(point)| < delta)."""
    return robustness_check(net, point, eps, delta, metric=metric)


@main.command("counterfactual")
@_command
@click.option("--point", required=True, type=VECTOR, help="Reference point, comma-separated.")
@click.option("--threshold", required=True, type=RATIONAL, help="Output threshold (rational).")
@click.option("--box", required=True, type=BOX, help="Search box, 'lo,hi' pairs ';'-separated.")
@click.option(
    "--metric",
    type=click.Choice(["linf", "l1"]),
    default="linf",
    show_default=True,
)
def counterfactual_cmd(net, point, threshold, box, metric):
    """Closest point (exact) of {F(x) > threshold} within the box."""
    witness, distance = counterfactual_explain(net, point, threshold, box, metric=metric)
    return {"point": list(witness), "distance": distance}


@main.command("contribution")
@_command
@click.option("--point", required=True, type=VECTOR, help="Reference point, comma-separated.")
@click.option("--feature", type=int, required=True, help="1-based input index.")
@click.option("--eps", required=True, type=RATIONAL, help="Output movement threshold (rational).")
def contribution_cmd(net, point, feature, eps):
    """Least change of one input moving the output by more than eps
    (null when the output never moves that far)."""
    return feature_contribution(net, point, feature, eps)


@main.command("useless-neurons")
@_command
@click.option("--input", "input_", required=True, type=VECTOR, help="Evaluation point.")
@click.option("--eps", required=True, type=RATIONAL, help="Ablation tolerance (rational).")
def useless_neurons_cmd(net, input_, eps):
    """Hidden neurons whose ablation moves every output by less than eps."""
    ids = useless_neurons(net, input_, eps)
    return [str(i) for i in sorted(ids, key=lambda n: (n.layer, n.index))]


@main.command("cd-stats")
@_command
def cd_stats_cmd(net):
    """Size statistics of the cylindrical decomposition induced by the
    network function's graph query F(x1,…,xm) = z."""
    f = pwl_from_network(net)
    d = f.m + 1
    return cd_stats(build_cd(make_arrangement(d, lift_graph(value_gap(f), range(1, d + 1), d))))


@main.command("gen-sawtooth")
@_command
@click.option("--s1", default="", type=VECTOR, help="Positive teeth, comma-separated in (0,1).")
@click.option("--s2", default="", type=VECTOR, help="Negative teeth, comma-separated in (0,1).")
def gen_sawtooth_cmd(s1, s2):
    """Build a sawtooth fixture model: positive unit-height teeth at --s1,
    negative at --s2; with no teeth, the zero function."""
    return network_to_json(build_sawtooth(s1, s2))


if __name__ == "__main__":
    main()
