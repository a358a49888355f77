"""End-to-end tests of the `nnq` command line through click's CliRunner.

Covers the JSON output contract (command/result/timings, exact "p/q"
rationals, labeled decimal approximations), the exit-code mapping
(0 success, 1 strict-false, 2 usage, 3 input), both documented
invariants (PWL round-trip against eval; byte-determinism modulo the
timings block), and one happy path per command.
"""

import json
import random
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from nnquery.cli import main
from nnquery.core import format_rational, rational
from nnquery.network import load_network, network_to_json
from nnquery.pwl import pwl_eval, pwl_from_json

from oracles import random_network, random_point

runner = CliRunner()

GOLDEN = Path(__file__).resolve().parent / "golden"


def invoke(args, env=None):
    return runner.invoke(main, args, env=env, catch_exceptions=False)


def payload_of(result):
    assert result.exit_code in (0, 1), result.output
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """Write a few model files once for the whole module."""
    root = tmp_path_factory.mktemp("models")

    def write(name, doc):
        p = root / name
        p.write_text(json.dumps(doc))
        return str(p)

    relu = write(
        "relu.json",
        {
            "inputs": 1,
            "hidden": [[{"bias": "0", "weights": ["1"]}]],
            "outputs": [{"bias": "0", "weights": ["1"]}],
        },
    )
    two_in = write(
        "two_in.json",
        {
            "inputs": 2,
            "hidden": [
                [
                    {"bias": "0", "weights": ["1", "1"]},
                    {"bias": "0", "weights": ["1", "-1"]},
                ]
            ],
            "outputs": [{"bias": "1/3", "weights": ["1", "1"]}],
        },
    )
    # Second hidden neuron has no path to the output.
    dead = write(
        "dead.json",
        {
            "inputs": 1,
            "hidden": [
                [
                    {"bias": "0", "weights": ["1"]},
                    {"bias": "2", "weights": ["3"]},
                ]
            ],
            "outputs": [{"bias": "0", "weights": ["1", "0"]}],
        },
    )
    bad_json = write("bad.json", {})  # placeholder, overwritten below
    (root / "bad.json").write_text("not json at all {")
    bad_shape = write("bad_shape.json", {"inputs": 1})
    return {
        "relu": relu,
        "two_in": two_in,
        "dead": dead,
        "bad_json": bad_json,
        "bad_shape": bad_shape,
        "root": root,
    }


# ---------------------------------------------------------------------------
# Output contract
# ---------------------------------------------------------------------------


class TestOutputContract:
    def test_eval_payload_shape(self, models):
        r = invoke(["eval", "--model", models["two_in"], "--input", "1,2"])
        doc = payload_of(r)
        assert set(doc) == {"command", "result", "timings"}
        assert doc["command"] == "eval"
        # relu(1+2) + relu(1-2) + 1/3 = 3 + 0 + 1/3
        assert doc["result"] == ["10/3"]
        assert isinstance(doc["timings"]["total_seconds"], float)

    def test_rationals_rendered_exactly(self, models):
        r = invoke(["eval", "--model", models["relu"], "--input", "1/3"])
        assert payload_of(r)["result"] == ["1/3"]
        r = invoke(["eval", "--model", models["relu"], "--input", "-2"])
        assert payload_of(r)["result"] == ["0"]

    def test_decimal_flag_adds_labeled_approximation(self, models):
        r = invoke(
            ["eval", "--model", models["relu"], "--input", "1/3", "--decimal", "2"]
        )
        doc = payload_of(r)
        assert doc["result"] == ["1/3"]
        approx = doc["approx"]
        assert "approximate" in approx["note"]
        assert approx["decimal_places"] == 2
        assert approx["result"] == ["0.33"]

    def test_decimal_on_nested_result(self, models):
        r = invoke(
            [
                "counterfactual",
                "--model",
                models["relu"],
                "--point",
                "-2",
                "--threshold",
                "9/10",
                "--box",
                "-10,10",
                "--decimal",
                "3",
            ]
        )
        doc = payload_of(r)
        assert doc["result"] == {"point": ["9/10"], "distance": "29/10"}
        assert doc["approx"]["result"] == {"point": ["0.900"], "distance": "2.900"}

    def test_breakplanes_rendered_as_strings(self, models):
        # canonical planes hold ints, which would render as bare JSON numbers
        r = invoke(["extract-pwl", "--model", models["two_in"], "--decimal", "2"])
        doc = payload_of(r)
        for result in (doc["result"], doc["approx"]["result"]):
            planes = result["breakplanes"]
            assert planes and all(isinstance(a, str) for h in planes for a in h)
        assert doc["result"]["breakplanes"] == [["0", "1", "1"], ["0", "1", "-1"]]

    def test_out_writes_file_instead_of_stdout(self, models, tmp_path):
        target = tmp_path / "res.json"
        r = invoke(
            [
                "integrate",
                "--model",
                models["relu"],
                "--box",
                "-1,1",
                "--out",
                str(target),
            ]
        )
        assert r.exit_code == 0
        assert r.stdout == ""
        doc = json.loads(target.read_text())
        assert doc["result"] == "1/2"

    def test_diagnostics_go_to_stderr(self, models):
        r = invoke(["eval", "--model", str(models["root"] / "nope.json"), "--input", "1"])
        assert r.exit_code == 3
        assert "error:" in r.stderr
        assert r.stdout == ""

    def test_undefined_value_renders_as_bot(self, models):
        r = invoke(["fosum", "--model", models["relu"], "--term-str", "val1"])
        assert payload_of(r)["result"] == "bot"


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


class TestExitCodes:
    def test_usage_errors_exit_2(self, models):
        cases = [
            ["eval", "--model", models["relu"]],  # missing --input
            ["no-such-command"],
            ["query", "--model", models["relu"]],  # neither query form
            [
                "query",
                "--model",
                models["relu"],
                "--query-str",
                "F(0) = 0",
                "--query",
                "x",
            ],  # both query forms
            [
                "query",
                "--model",
                models["relu"],
                "--query-str",
                "F(0) = 0",
                "--param",
                "eps",  # missing '='
            ],
            [
                "query",
                "--model",
                models["relu"],
                "--query-str",
                "F(0) = 0",
                "--param",
                "eps=oops",  # not a rational
            ],
            [
                "robust",
                "--model",
                models["relu"],
                "--point",
                "0",
                "--eps",
                "big",
                "--delta",
                "1",
            ],
            ["integrate", "--model", models["relu"], "--box", "0"],
            ["integrate", "--model", models["relu"], "--box", "0,1", "--method", "x"],
            [
                "shap",
                "--model",
                models["relu"],
                "--point",
                "0",
                "--box",
                "0,1",
                "--feature",
                "abc",
            ],
        ]
        for args in cases:
            r = invoke(args)
            assert r.exit_code == 2, (args, r.output)

    def test_input_errors_exit_3(self, models, tmp_path):
        zero = tmp_path / "zero.json"
        r = invoke(["gen-sawtooth", "--out", str(zero)])
        assert r.exit_code == 0
        zero_model = tmp_path / "zero_model.json"
        zero_model.write_text(json.dumps(json.loads(zero.read_text())["result"]))
        cases = [
            ["eval", "--model", str(tmp_path / "missing.json"), "--input", "1"],
            ["eval", "--model", models["bad_json"], "--input", "1"],
            ["eval", "--model", models["bad_shape"], "--input", "1"],
            ["eval", "--model", models["relu"], "--input", "1,2"],  # arity
            ["query", "--model", models["relu"], "--query-str", "exists x . F(x"],
            ["fosum", "--model", models["relu"], "--term-str", "sum{x : } 1"],
            ["fosum", "--model", models["relu"], "--term-str", "w(x, out1)"],  # free x
            # free x__2, not captured by the renamed inner binder
            ["fosum", "--model", models["relu"], "--term-str", "exists x (exists x E(x, x__2))"],
            [
                "counterfactual",
                "--model",
                str(zero_model),
                "--point",
                "0",
                "--threshold",
                "1",
                "--box",
                "0,1",
            ],
            [
                "shap",
                "--model",
                models["relu"],
                "--point",
                "5",
                "--box",
                "0,1",
                "--feature",
                "1",
            ],
            [
                "contribution",
                "--model",
                models["relu"],
                "--point",
                "0",
                "--feature",
                "2",
                "--eps",
                "1",
            ],
            [
                "robust",
                "--model",
                models["relu"],
                "--point",
                "0",
                "--eps",
                "0",
                "--delta",
                "1",
            ],
        ]
        for args in cases:
            r = invoke(args)
            assert r.exit_code == 3, (args, r.output)
            assert "error:" in r.stderr

    def test_non_rational_weight_exits_3(self, tmp_path):
        model = tmp_path / "bool_weight.json"
        model.write_text(
            json.dumps({"inputs": 1, "hidden": [], "outputs": [{"bias": "0", "weights": [True]}]})
        )
        r = invoke(["eval", "--model", str(model), "--input", "1"])
        assert r.exit_code == 3, r.output
        assert "output neuron 1" in r.stderr

    def test_counterfactual_reports_empty_region(self, models, tmp_path):
        zero = tmp_path / "z.json"
        invoke(["gen-sawtooth", "--out", str(zero)])
        model = tmp_path / "zm.json"
        model.write_text(json.dumps(json.loads(zero.read_text())["result"]))
        r = invoke(
            [
                "counterfactual",
                "--model",
                str(model),
                "--point",
                "0",
                "--threshold",
                "1",
                "--box",
                "0,1",
            ]
        )
        assert r.exit_code == 3
        assert "no counterfactual" in r.stderr

    def test_repeated_free_order_exits_3(self, models):
        r = invoke(
            ["query", "--model", models["relu"], "--query-str", "x > 0", "--free-order", "x,x"]
        )
        assert r.exit_code == 3, r.output
        assert "declared twice" in r.stderr

    def test_deeply_nested_query_exits_3(self, models):
        text = "(" * 400 + "x" + ")" * 400 + " > 0"
        r = invoke(["query", "--model", models["relu"], "--query-str", text])
        assert r.exit_code == 3, r.output
        assert "nests deeper" in r.stderr
        assert "Traceback" not in r.output

    def test_fosum_error_at_end_of_text_exits_3(self, models):
        r = invoke(["fosum", "--model", models["two_in"], "--term-str", "b(in1) < 1 and"])
        assert r.exit_code == 3, r.output
        assert "found 'end of input' (at position 14)" in r.stderr
        assert "Traceback" not in r.output

    def test_deeply_nested_fosum_term_exits_3(self, models):
        text = "(" * 300 + "1" + ")" * 300
        r = invoke(["fosum", "--model", models["two_in"], "--term-str", text])
        assert r.exit_code == 3, r.output
        assert "nests deeper" in r.stderr
        assert "Traceback" not in r.output

    def test_strict_false_exits_1(self, models):
        r = invoke(
            [
                "query",
                "--model",
                models["relu"],
                "--query-str",
                "forall x . F(x) > x",
                "--strict",
            ]
        )
        assert r.exit_code == 1
        assert json.loads(r.stdout)["result"] is False

        r = invoke(
            [
                "robust",
                "--model",
                models["relu"],
                "--point",
                "0",
                "--eps",
                "1",
                "--delta",
                "1/2",
                "--strict",
            ]
        )
        assert r.exit_code == 1
        assert json.loads(r.stdout)["result"] is False

    def test_strict_unsatisfiable_open_query_exits_1(self, models):
        r = invoke(
            [
                "query",
                "--model",
                models["relu"],
                "--query-str",
                "F(x) < x",
                "--strict",
            ]
        )
        assert r.exit_code == 1
        doc = json.loads(r.stdout)
        assert doc["result"]["satisfiable"] is False
        assert doc["result"]["cells"] == []

    def test_strict_true_exits_0(self, models):
        r = invoke(
            [
                "query",
                "--model",
                models["relu"],
                "--query-str",
                "forall x . F(x) >= x",
                "--strict",
            ]
        )
        assert r.exit_code == 0
        assert json.loads(r.stdout)["result"] is True

    def test_false_without_strict_exits_0(self, models):
        r = invoke(
            ["query", "--model", models["relu"], "--query-str", "forall x . F(x) > x"]
        )
        assert r.exit_code == 0
        assert json.loads(r.stdout)["result"] is False

    @pytest.mark.parametrize(
        "args",
        [
            ["eval", "--input", "1"],
            ["fosum", "--term-str", "val2", "--input", "1"],
            ["fosum", "--term-str", "val2", "--input", "1,2,3"],
            ["shap", "--point", "1", "--box", "0,1;0,1", "--feature", "1"],
            ["robust", "--point", "1", "--eps", "1", "--delta", "1"],
            ["counterfactual", "--point", "1", "--threshold", "5", "--box", "0,1;0,1"],
            ["contribution", "--point", "1", "--feature", "1", "--eps", "1"],
            ["useless-neurons", "--input", "1", "--eps", "1"],
            ["integrate", "--box", "0,1"],
            ["shap", "--point", "1,1", "--box", "0,1", "--feature", "1"],
            ["counterfactual", "--point", "1,1", "--threshold", "5", "--box", "0,1"],
        ],
        ids=" ".join,
    )
    def test_wrong_dimension_exits_3(self, models, args):
        # two_in has 2 inputs; every point or box above has 1 or 3 coordinates
        r = invoke([args[0], "--model", models["two_in"], *args[1:]])
        assert r.exit_code == 3, r.output
        assert "error:" in r.stderr
        assert r.stdout == ""

    def test_zero_denominator_option_exits_2(self, models):
        r = invoke(["eval", "--model", models["relu"], "--input", "1/0"])
        assert r.exit_code == 2, r.output

    def test_zero_denominator_in_the_model_exits_3(self, models):
        path = models["root"] / "zero_denominator.json"
        path.write_text(json.dumps({"inputs": 1, "outputs": [{"bias": "1/0", "weights": ["1"]}]}))
        r = invoke(["eval", "--model", str(path), "--input", "1"])
        assert r.exit_code == 3, r.output
        assert "error:" in r.stderr
        assert r.stdout == ""

    def test_malformed_value_is_checked_before_the_model_is_read(self, models):
        missing = str(models["root"] / "nope.json")
        r = invoke(["eval", "--model", missing, "--input", "1,oops"])
        assert r.exit_code == 2, r.output

    def test_unwritable_out_exits_3(self, models):
        out = str(models["root"] / "no-such-dir" / "res.json")
        r = invoke(["eval", "--model", models["relu"], "--input", "1", "--out", out])
        assert r.exit_code == 3, r.output
        assert "error:" in r.stderr
        assert r.stdout == ""


# ---------------------------------------------------------------------------
# Per-command behavior
# ---------------------------------------------------------------------------


class TestQueryCommand:
    def test_closed_query_with_parameters(self, models):
        base = [
            "query",
            "--model",
            models["relu"],
            "--query-str",
            "forall x . (abs(x) < eps -> abs(F(x)) < delta)",
            "--param",
            "eps=1/10",
        ]
        r = invoke(base + ["--param", "delta=1/2"])
        assert payload_of(r)["result"] is True
        r = invoke(base + ["--param", "delta=1/20"])
        assert payload_of(r)["result"] is False

    def test_open_query_lists_cells(self, models):
        r = invoke(
            [
                "query",
                "--model",
                models["relu"],
                "--query-str",
                "F(x) = x and x > 1",
            ]
        )
        doc = payload_of(r)["result"]
        assert doc["free_vars"] == ["x"]
        assert doc["satisfiable"] is True
        assert doc["cells"]
        for cell in doc["cells"]:
            assert rational(cell["sample"]["x"]) > 1

    def test_long_flat_chain(self, models, shallow_stack):
        text = "exists x . " + " and ".join(["F(x) > 1"] * 1500)
        r = invoke(["query", "--model", models["relu"], "--query-str", text])
        assert r.exit_code == 0, r.output
        assert payload_of(r)["result"] is True

    def test_query_file_input(self, models, tmp_path):
        qf = tmp_path / "q.txt"
        qf.write_text("exists x . F(x) = 2\n")
        r = invoke(["query", "--model", models["relu"], "--query", str(qf)])
        assert payload_of(r)["result"] is True

    def test_free_order_controls_sample_layout(self, models):
        r = invoke(
            [
                "query",
                "--model",
                models["relu"],
                "--query-str",
                "F(u) = z and u = 3",
                "--free-order",
                "z,u",
            ]
        )
        doc = payload_of(r)["result"]
        assert doc["free_vars"] == ["z", "u"]
        assert doc["cells"]
        for cell in doc["cells"]:
            sample = {k: rational(c) for k, c in cell["sample"].items()}
            assert list(cell["sample"]) == ["z", "u"]
            assert sample == {"z": 3, "u": 3}


class TestFosumCommand:
    def test_closed_weight_term(self, models):
        r = invoke(["fosum", "--model", models["two_in"], "--term-str", "b(out1)"])
        assert payload_of(r)["result"] == "1/3"
        # Hidden vertices are only reachable through quantification.
        r = invoke(
            [
                "fosum",
                "--model",
                models["dead"],
                "--term-str",
                "sum{x : E(x, out1)} b(x)",
            ]
        )
        assert payload_of(r)["result"] == "2"

    def test_vertex_count(self, models):
        r = invoke(
            ["fosum", "--model", models["two_in"], "--term-str", "sum{x : x = x} 1"]
        )
        # 2 inputs + 2 hidden + 1 output
        assert payload_of(r)["result"] == "5"

    def test_formula_yields_bool(self, models):
        r = invoke(
            ["fosum", "--model", models["two_in"], "--term-str", "exists x E(in1, x)"]
        )
        assert payload_of(r)["result"] is True
        r = invoke(
            ["fosum", "--model", models["two_in"], "--term-str", "E(out1, in1)"]
        )
        assert payload_of(r)["result"] is False

    def test_input_binds_point_constants(self, models):
        r = invoke(
            [
                "fosum",
                "--model",
                models["two_in"],
                "--term-str",
                "val1 + val2",
                "--input",
                "3,1/2",
            ]
        )
        assert payload_of(r)["result"] == "7/2"

    def test_long_flat_chain(self, models, shallow_stack):
        text = " or ".join(["E(out1, in1)"] * 1499 + ["exists x E(in1, x)"])
        r = invoke(["fosum", "--model", models["two_in"], "--term-str", text])
        assert r.exit_code == 0, r.output
        assert payload_of(r)["result"] is True

    def test_term_from_file(self, models, tmp_path):
        tf = tmp_path / "term.txt"
        tf.write_text("sum{x : E(x, out1)} w(x, out1)\n")
        r = invoke(["fosum", "--model", models["two_in"], "--term", str(tf)])
        assert payload_of(r)["result"] == "2"

    def test_term_options_are_exclusive(self, models):
        r = invoke(
            [
                "fosum",
                "--model",
                models["relu"],
                "--term-str",
                "1",
                "--term",
                "x",
            ]
        )
        assert r.exit_code == 2
        r = invoke(["fosum", "--model", models["relu"]])
        assert r.exit_code == 2


class TestAnalysisCommands:
    def test_integrate_methods_agree(self, models):
        res = {}
        for method in ("auto", "cells", "trapezoid"):
            r = invoke(
                [
                    "integrate",
                    "--model",
                    models["relu"],
                    "--box",
                    "-2,2",
                    "--method",
                    method,
                ]
            )
            res[method] = payload_of(r)["result"]
        assert res == {"auto": "2", "cells": "2", "trapezoid": "2"}

    def test_integrate_two_dimensional(self, models):
        r = invoke(["integrate", "--model", models["two_in"], "--box", "0,1;0,1"])
        # On [0,1]^2: relu(x+y) = x+y, relu(x-y) contributes |x-y|/2 halves;
        # integral of (x+y) is 1, of relu(x-y) is 1/6, bias adds 1/3.
        assert payload_of(r)["result"] == "3/2"

    def test_shap_linear_midpoint(self, models):
        # On [2,3]x[0,1] both hidden pre-activations stay positive, so
        # F = 2*x1 + 1/3 there and shap(i) = w_i * (y_i - midpoint_i).
        base = ["shap", "--model", models["two_in"], "--point", "3,1/2", "--box", "2,3;0,1"]
        r = invoke(base + ["--feature", "1"])
        assert payload_of(r)["result"] == "1"
        r = invoke(base + ["--feature", "2"])
        assert payload_of(r)["result"] == "0"

    def test_robust_true(self, models):
        r = invoke(
            [
                "robust",
                "--model",
                models["relu"],
                "--point",
                "0",
                "--eps",
                "1",
                "--delta",
                "2",
                "--metric",
                "l1",
            ]
        )
        assert payload_of(r)["result"] is True

    def test_contribution_value_and_null(self, models, tmp_path):
        r = invoke(
            [
                "contribution",
                "--model",
                models["relu"],
                "--point",
                "1",
                "--feature",
                "1",
                "--eps",
                "1/2",
            ]
        )
        assert payload_of(r)["result"] == "1/2"

        zero = tmp_path / "z.json"
        invoke(["gen-sawtooth", "--out", str(zero)])
        model = tmp_path / "zm.json"
        model.write_text(json.dumps(json.loads(zero.read_text())["result"]))
        r = invoke(
            [
                "contribution",
                "--model",
                str(model),
                "--point",
                "0",
                "--feature",
                "1",
                "--eps",
                "1",
            ]
        )
        assert payload_of(r)["result"] is None

    def test_useless_neurons(self, models):
        r = invoke(
            [
                "useless-neurons",
                "--model",
                models["dead"],
                "--input",
                "5",
                "--eps",
                "1/2",
            ]
        )
        assert payload_of(r)["result"] == ["h1_2"]

    def test_cd_stats_shape(self, models):
        r = invoke(["cd-stats", "--model", models["relu"]])
        doc = payload_of(r)["result"]
        assert doc["dimension"] == 2
        assert doc["cells_per_level"][0] == 1
        assert len(doc["cells_per_level"]) == 3
        assert doc["total_cells"] == sum(doc["cells_per_level"])
        assert set(doc["pool_sizes"]) == {"1", "2"}


class TestSawtoothFixture:
    def test_balanced_teeth_integrate_to_zero(self, tmp_path):
        gen = tmp_path / "gen.json"
        r = invoke(
            [
                "gen-sawtooth",
                "--s1",
                "1/8,3/8,5/8",
                "--s2",
                "1/4,1/2,3/4",
                "--out",
                str(gen),
            ]
        )
        assert r.exit_code == 0
        model = tmp_path / "saw.json"
        model.write_text(json.dumps(json.loads(gen.read_text())["result"]))
        r = invoke(["integrate", "--model", str(model), "--box", "0,1"])
        assert payload_of(r)["result"] == "0"
        # Peak of a positive tooth.
        r = invoke(["eval", "--model", str(model), "--input", "3/8"])
        assert payload_of(r)["result"] == ["1"]

    def test_unbalanced_teeth_integrate_positive(self, tmp_path):
        gen = tmp_path / "gen.json"
        invoke(
            ["gen-sawtooth", "--s1", "1/4,3/4", "--s2", "1/2", "--out", str(gen)]
        )
        model = tmp_path / "saw.json"
        model.write_text(json.dumps(json.loads(gen.read_text())["result"]))
        r = invoke(["integrate", "--model", str(model), "--box", "0,1"])
        assert rational(payload_of(r)["result"]) > 0

    def test_no_teeth_is_zero_function(self, tmp_path):
        gen = tmp_path / "gen.json"
        r = invoke(["gen-sawtooth", "--out", str(gen)])
        assert r.exit_code == 0
        model = tmp_path / "saw.json"
        model.write_text(json.dumps(json.loads(gen.read_text())["result"]))
        for x in ("0", "1/3", "-7"):
            r = invoke(["eval", "--model", str(model), "--input", x])
            assert payload_of(r)["result"] == ["0"]
        r = invoke(["integrate", "--model", str(model), "--box", "0,1"])
        assert payload_of(r)["result"] == "0"


# ---------------------------------------------------------------------------
# Documented invariants
# ---------------------------------------------------------------------------


class TestInvariants:
    @pytest.mark.parametrize("seed,m,depth", [(11, 1, 2), (12, 2, 2), (13, 3, 2)])
    def test_extracted_pwl_round_trips_against_eval(
        self, tmp_path, seed, m, depth
    ):
        rng = random.Random(seed)
        net = random_network(rng, m, depth)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(network_to_json(net)))

        r = invoke(["extract-pwl", "--model", str(path)])
        f = pwl_from_json(json.dumps(payload_of(r)["result"]))

        for _ in range(50):
            x = random_point(rng, m)
            r = invoke(
                [
                    "eval",
                    "--model",
                    str(path),
                    "--input",
                    ",".join(format_rational(c) for c in x),
                ]
            )
            (out,) = payload_of(r)["result"]
            assert rational(out) == pwl_eval(f, x)

    def test_output_is_deterministic_modulo_timings(self, models):
        path = models["two_in"]

        def normalized(args):
            r = invoke(args)
            assert r.exit_code == 0
            return re.sub(
                r'"total_seconds": [0-9.eE+-]+', '"total_seconds": _', r.stdout
            )

        for args in (
            ["extract-pwl", "--model", path],
            ["integrate", "--model", path, "--box", "-1,1;-1,1"],
            ["query", "--model", path, "--query-str", "F(x, y) = z and z > 0"],
            ["cd-stats", "--model", path],
        ):
            assert normalized(args) == normalized(args)

    @pytest.mark.parametrize(
        "golden, args",
        [
            (
                "query_open_two_in.json",
                ["query", "--query-str", "F(x, y) > 1/2 and x + y < 1 and x - y > -1 and y > 0"],
            ),
            ("cd_stats_two_in.json", ["cd-stats"]),
        ],
    )
    def test_output_matches_golden(self, models, golden, args):
        # cell ids and sample strings stay byte-identical, apart from timings
        r = invoke([args[0], "--model", models["two_in"], *args[1:]])
        assert r.exit_code == 0, r.output
        got = re.sub(r'"total_seconds": [0-9.eE+-]+', '"total_seconds": _', r.stdout)
        assert got == (GOLDEN / golden).read_text()


class TestThreadCap:
    def test_valid_cap_is_silent(self, models):
        r = invoke(
            ["eval", "--model", models["relu"], "--input", "1"],
            env={"NNQ_THREADS": "4"},
        )
        assert r.exit_code == 0
        assert r.stderr == ""

    def test_invalid_cap_warns_and_continues(self, models):
        r = invoke(
            ["eval", "--model", models["relu"], "--input", "1"],
            env={"NNQ_THREADS": "many"},
        )
        assert r.exit_code == 0
        assert "NNQ_THREADS" in r.stderr
        assert json.loads(r.stdout)["result"] == ["1"]


class TestDocs:
    def test_readme_command_table_names_every_command(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = set(re.findall(r"^\| `([a-z-]+)` \|", readme, flags=re.MULTILINE))
        assert table == set(main.commands)
