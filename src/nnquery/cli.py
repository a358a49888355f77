"""Command-line front end: one executable, `nnq`, tying model ingestion,
both query languages, and the quantitative analyses together.

Every command prints a JSON document {"command", "result", "timings"} with
all rationals rendered exactly as "p/q" strings; `--decimal K` adds a
clearly-labeled approximate mirror of the result.  Exit codes: 0 on success,
1 when a boolean command run with --strict answers false, 2 on usage errors,
3 on input errors (unreadable or invalid models, malformed query texts,
domain violations).  The environment variable NNQ_THREADS caps worker
parallelism; every current command is single-threaded and deterministic, so
any positive cap is honored trivially.
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction

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
from .fosum import (
    Formula,
    ParseError,
    eval_formula,
    eval_weight_term,
    free_variables,
    parse_fosum,
)
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
from .pwl import lift_graph, pwl_from_network, pwl_to_json
from .query import QueryError, evaluate_query


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


def _load_model(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        _input_error(f"cannot read model {path!r}: {e}")
    try:
        return load_network(text)
    except (ValueError, json.JSONDecodeError) as e:
        _input_error(f"invalid model {path!r}: {e}")


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        _input_error(f"cannot read {what} {path!r}: {e}")


def _parse_rational_arg(text: str, what: str) -> Fraction:
    try:
        return rational(text.strip())
    except (ValueError, TypeError):
        raise click.UsageError(f"{what} must be a rational like 3, -2/5 or 0.25")


def _parse_vector(text: str, what: str) -> tuple:
    parts = [p for p in text.split(",")]
    if not parts or any(not p.strip() for p in parts):
        raise click.UsageError(f"{what} must be comma-separated rationals")
    return tuple(_parse_rational_arg(p, what) for p in parts)


def _parse_box(text: str) -> Box:
    intervals = []
    for part in text.split(";"):
        ends = part.split(",")
        if len(ends) != 2:
            raise click.UsageError(
                "--box must be 'lo,hi' pairs separated by ';', e.g. '0,1;-1,1'"
            )
        intervals.append(
            (
                _parse_rational_arg(ends[0], "--box"),
                _parse_rational_arg(ends[1], "--box"),
            )
        )
    try:
        return Box(tuple(intervals))
    except ValueError as e:
        raise click.UsageError(f"--box: {e}")


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise click.UsageError("--param expects name=value, e.g. eps=1/10")
        out[name] = _parse_rational_arg(value, f"--param {name}")
    return out


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
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as e:
            _input_error(f"cannot write {out!r}: {e}")
    else:
        click.echo(text)


def _model_option(fn):
    return click.option("--model", required=True, help="Path to a model JSON file.")(fn)


def _common_options(fn):
    fn = click.option(
        "--decimal",
        type=click.IntRange(0),
        default=None,
        help="Add an approximate decimal rendering with this many places.",
    )(fn)
    fn = click.option(
        "--out", default=None, help="Write the JSON result here instead of stdout."
    )(fn)
    return fn


@click.group()
def main():
    """Exact queries and analyses over feedforward ReLU networks."""
    _check_threads_cap()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@main.command("eval")
@_model_option
@click.option("--input", "input_", required=True, help="Comma-separated rationals.")
@_common_options
def eval_cmd(model, input_, decimal, out):
    """Exact forward pass; result is the list of output values."""
    started = time.perf_counter()
    net = _load_model(model)
    x = _parse_vector(input_, "--input")
    try:
        result = forward(net, x)
    except ValueError as e:
        _input_error(str(e))
    _emit("eval", result, started, decimal, out)


@main.command("fosum")
@_model_option
@click.option("--term", default=None, help="Path to a weight-term/formula file.")
@click.option("--term-str", default=None, help="Inline weight term or formula.")
@click.option(
    "--input",
    "input_",
    default=None,
    help="Bind the val_i constants to this point (comma-separated rationals).",
)
@_common_options
def fosum_cmd(model, term, term_str, input_, decimal, out):
    """Evaluate a closed aggregate-logic weight term or formula against the
    model's weighted graph structure."""
    started = time.perf_counter()
    if (term is None) == (term_str is None):
        raise click.UsageError("provide exactly one of --term / --term-str")
    net = _load_model(model)
    text = term_str if term_str is not None else _read_text(term, "term")
    vals = _parse_vector(input_, "--input") if input_ is not None else None
    vocab = graph_vocabulary(net.inputs, len(net.outputs))
    try:
        ast = parse_fosum(text, vocab)
    except ParseError as e:
        _input_error(f"cannot parse term: {e}")
    if free_variables(ast):
        _input_error("term/formula must be closed (no free variables)")
    try:
        structure = to_structure(net, vals=vals)
        if isinstance(ast, Formula):
            result = eval_formula(structure, ast, {})
        else:
            result = eval_weight_term(structure, ast, {})
    except (ValueError, KeyError) as e:
        _input_error(str(e))
    _emit("fosum", result, started, decimal, out)


@main.command("extract-pwl")
@_model_option
@_common_options
def extract_pwl_cmd(model, decimal, out):
    """Exact piecewise-linear normal form: breakplanes plus one affine
    component per position."""
    started = time.perf_counter()
    net = _load_model(model)
    try:
        f = pwl_from_network(net)
    except ValueError as e:
        _input_error(str(e))
    _emit("extract-pwl", json.loads(pwl_to_json(f)), started, decimal, out)


@main.command("query")
@_model_option
@click.option("--query", "query_path", default=None, help="Path to a query file.")
@click.option("--query-str", default=None, help="Inline query text.")
@click.option("--param", multiple=True, help="Rational parameter, name=value.")
@click.option(
    "--free-order",
    default=None,
    help="Comma-separated free-variable order overriding first appearance.",
)
@click.option(
    "--strict", is_flag=True, help="Exit 1 when the answer is false/empty."
)
@_common_options
def query_cmd(model, query_path, query_str, param, free_order, strict, decimal, out):
    """Evaluate a first-order query: closed queries answer true/false, open
    queries list one exact sample point per satisfying cell."""
    started = time.perf_counter()
    if (query_path is None) == (query_str is None):
        raise click.UsageError("provide exactly one of --query / --query-str")
    net = _load_model(model)
    text = query_str if query_str is not None else _read_text(query_path, "query")
    params = _parse_params(param) or None
    order = None
    if free_order is not None:
        order = [v.strip() for v in free_order.split(",") if v.strip()]
    try:
        res = evaluate_query(net, text, parameters=params, free_order=order)
    except (QueryError, ValueError) as e:
        _input_error(str(e))
    if res.truth is not None:
        result = res.truth
        falsy = not res.truth
    else:
        result = {
            "free_vars": list(res.free_vars),
            "satisfiable": bool(res.cells),
            "cells": [
                {"id": list(cid), "sample": sample} for cid, sample in res.cells
            ],
        }
        falsy = not res.cells
    _emit("query", result, started, decimal, out)
    if strict and falsy:
        sys.exit(1)


@main.command("integrate")
@_model_option
@click.option("--box", required=True, help="'lo,hi' pairs separated by ';'.")
@click.option(
    "--method",
    type=click.Choice(["auto", "cells", "trapezoid"]),
    default="auto",
    show_default=True,
)
@_common_options
def integrate_cmd(model, box, method, decimal, out):
    """Exact integral of the network function over a box."""
    started = time.perf_counter()
    net = _load_model(model)
    b = _parse_box(box)
    try:
        result = integrate_box(pwl_from_network(net), b, method=method)
    except ValueError as e:
        _input_error(str(e))
    _emit("integrate", result, started, decimal, out)


@main.command("shap")
@_model_option
@click.option("--point", required=True, help="Evaluation point, comma-separated.")
@click.option("--box", required=True, help="'lo,hi' pairs separated by ';'.")
@click.option("--feature", type=int, required=True, help="1-based input index.")
@_common_options
def shap_cmd(model, point, box, feature, decimal, out):
    """Exact Shapley value of one input, inputs uniform on the box."""
    started = time.perf_counter()
    net = _load_model(model)
    y = _parse_vector(point, "--point")
    b = _parse_box(box)
    try:
        result = shap(net, y, b, feature)
    except ValueError as e:
        _input_error(str(e))
    _emit("shap", result, started, decimal, out)


@main.command("robust")
@_model_option
@click.option("--point", required=True, help="Center point, comma-separated.")
@click.option("--eps", required=True, help="Input radius (rational).")
@click.option("--delta", required=True, help="Output tolerance (rational).")
@click.option(
    "--metric",
    type=click.Choice(["linf", "l1"]),
    default="linf",
    show_default=True,
)
@click.option("--strict", is_flag=True, help="Exit 1 when not robust.")
@_common_options
def robust_cmd(model, point, eps, delta, metric, strict, decimal, out):
    """Decide ∀x (dist(x, point) < eps → |F(x) − F(point)| < delta)."""
    started = time.perf_counter()
    net = _load_model(model)
    a = _parse_vector(point, "--point")
    e = _parse_rational_arg(eps, "--eps")
    d = _parse_rational_arg(delta, "--delta")
    try:
        result = robustness_check(net, a, e, d, metric=metric)
    except ValueError as e_:
        _input_error(str(e_))
    _emit("robust", result, started, decimal, out)
    if strict and not result:
        sys.exit(1)


@main.command("counterfactual")
@_model_option
@click.option("--point", required=True, help="Reference point, comma-separated.")
@click.option("--threshold", required=True, help="Output threshold (rational).")
@click.option("--box", required=True, help="Search box, 'lo,hi' pairs ';'-separated.")
@click.option(
    "--metric",
    type=click.Choice(["linf", "l1"]),
    default="linf",
    show_default=True,
)
@_common_options
def counterfactual_cmd(model, point, threshold, box, metric, decimal, out):
    """Closest point (exact) of {F(x) > threshold} within the box."""
    started = time.perf_counter()
    net = _load_model(model)
    a = _parse_vector(point, "--point")
    thr = _parse_rational_arg(threshold, "--threshold")
    b = _parse_box(box)
    try:
        witness, distance = counterfactual_explain(net, a, thr, b, metric=metric)
    except ValueError as e:
        _input_error(str(e))
    _emit(
        "counterfactual",
        {"point": list(witness), "distance": distance},
        started,
        decimal,
        out,
    )


@main.command("contribution")
@_model_option
@click.option("--point", required=True, help="Reference point, comma-separated.")
@click.option("--feature", type=int, required=True, help="1-based input index.")
@click.option("--eps", required=True, help="Output movement threshold (rational).")
@_common_options
def contribution_cmd(model, point, feature, eps, decimal, out):
    """Least change of one input moving the output by more than eps
    (null when the output never moves that far)."""
    started = time.perf_counter()
    net = _load_model(model)
    a = _parse_vector(point, "--point")
    e = _parse_rational_arg(eps, "--eps")
    try:
        result = feature_contribution(net, a, feature, e)
    except ValueError as e_:
        _input_error(str(e_))
    _emit("contribution", result, started, decimal, out)


@main.command("useless-neurons")
@_model_option
@click.option("--input", "input_", required=True, help="Evaluation point.")
@click.option("--eps", required=True, help="Ablation tolerance (rational).")
@_common_options
def useless_neurons_cmd(model, input_, eps, decimal, out):
    """Hidden neurons whose ablation moves every output by less than eps."""
    started = time.perf_counter()
    net = _load_model(model)
    x = _parse_vector(input_, "--input")
    e = _parse_rational_arg(eps, "--eps")
    try:
        ids = useless_neurons(net, x, e)
    except ValueError as e_:
        _input_error(str(e_))
    result = [str(i) for i in sorted(ids, key=lambda n: (n.layer, n.index))]
    _emit("useless-neurons", result, started, decimal, out)


@main.command("cd-stats")
@_model_option
@_common_options
def cd_stats_cmd(model, decimal, out):
    """Size statistics of the cylindrical decomposition induced by the
    network function's graph query F(x1,…,xm) = z."""
    started = time.perf_counter()
    net = _load_model(model)
    try:
        f = pwl_from_network(net)
        d = f.m + 1
        cd = build_cd(make_arrangement(d, lift_graph(f, range(1, d), d, d)))
    except ValueError as e:
        _input_error(str(e))
    _emit("cd-stats", cd_stats(cd), started, decimal, out)


@main.command("gen-sawtooth")
@click.option("--s1", default="", help="Positive teeth, comma-separated in (0,1).")
@click.option("--s2", default="", help="Negative teeth, comma-separated in (0,1).")
@_common_options
def gen_sawtooth_cmd(s1, s2, decimal, out):
    """Build a sawtooth fixture model: positive unit-height teeth at --s1,
    negative at --s2; with no teeth, the zero function."""
    started = time.perf_counter()

    def teeth(text, what):
        text = text.strip()
        return _parse_vector(text, what) if text else ()

    try:
        net = build_sawtooth(teeth(s1, "--s1"), teeth(s2, "--s2"))
    except ValueError as e:
        _input_error(str(e))
    _emit("gen-sawtooth", network_to_json(net), started, decimal, out)


if __name__ == "__main__":
    main()
