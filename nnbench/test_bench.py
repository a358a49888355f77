"""Tests of the benchmark itself, on tiny runs.

    python3 -m pytest -q nnbench/test_bench.py
"""

from __future__ import annotations

import contextlib
import random
import io
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)


def _bench(*args):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_printed_with_units(name):
    summary, result = _bench("--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.split()[:2] == ["failed_share", "0.0000"] for line in summary)


def test_traced_run_reports_every_layer_metric():
    _summary, result = _bench("--workload", "verify-2d", "--seed", "7", "--seconds", "1", "--trace", "1")
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {n: u for n, u, _b in spans.PER_LAYER}
    assert metrics["geometry.build_cd.calls"]["value"] > 0
    assert metrics["query.select_cells_qfree.cells_evaluated"]["value"] > 0
    assert metrics["linprog.minimize.calls"]["value"] == 0
    assert metrics["network.load_network.self_s"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_wrong_expected_answer_shows_in_failed_share(monkeypatch):
    true_forward = workloads.oracles.oracle_forward
    monkeypatch.setattr(
        workloads.oracles, "oracle_forward", lambda net, x: [true_forward(net, x)[0] + 1]
    )
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run.main(["--workload", "pointwise", "--seed", "7", "--seconds", "0.5"]) == 0
    lines = stdout.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    share = next(float(line.split()[1]) for line in lines if line.split()[0] == "failed_share")
    assert share == pytest.approx(result["failed"] / result["attempted"], abs=5e-5)


def _fresh_lib():
    docs = [("t", workloads.model_doc(random.Random(1), 2, (2,)))]
    _secs, lib, nets, _state = run.set_up(workloads.VERIFY_2D, docs)
    return lib, nets


def test_tracer_wraps_every_binding_and_detects_stale_ones():
    lib, _nets = _fresh_lib()
    build_cd = lib.geometry.build_cd
    with spans.Tracer() as tracer:
        for module in (lib.geometry, lib.pwl, lib.query, lib.analysis):
            assert module.build_cd is not build_cd
            assert module.build_cd.__wrapped__ is build_cd
        lib.query.stale_copy = build_cd
        with pytest.raises(RuntimeError, match="stale_copy"):
            tracer.self_check()
        del lib.query.stale_copy
    assert lib.query.build_cd is build_cd


def test_recursive_evaluator_records_only_its_outermost_call():
    lib, nets = _fresh_lib()
    term = lib.network.build_eval_term(2, 2)
    with spans.Tracer() as tracer:
        structure = lib.network.to_structure(nets[0], (1, 2))
        value = tracer.run_op(0, lambda: lib.fosum.eval_weight_term(structure, term, {}))
    assert value == lib.network.forward(nets[0], (1, 2))[0]
    names = [tracer.names[i] for i in tracer.fn]
    assert names.count("fosum.eval_weight_term") == 1
    assert names.count("fosum.eval_formula") == 0  # only ever called inside the term


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
