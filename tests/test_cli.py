"""End-to-end runs of every subcommand through cli.main."""

import csv
import io
import json
import random
from pathlib import Path

import pytest

from conftest import grid_instance, line_instance
from rbmedian.cli import (
    EXIT_CAP_REFUSED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VERIFICATION_FAILED,
    EXPERIMENT_CSV_SCHEMA,
    build_parser,
    main,
    run_experiment,
)
from rbmedian.exact import brute_force_opt, is_local_opt
from rbmedian.instance import Solution, serialize, serialize_solution
from rbmedian.local_search import SearchConfig, run


def put_instance(tmp_path, inst, name="instance.json"):
    path = tmp_path / name
    path.write_bytes(serialize(inst))
    return str(path)


def put_solution(tmp_path, sol, name):
    path = tmp_path / name
    path.write_bytes(serialize_solution(sol))
    return str(path)


def stdout_json(capsys):
    return json.loads(capsys.readouterr().out)


class TestSolve:
    def test_reaches_brute_force_cost_with_full_swaps(self, tmp_path, capsys):
        rng = random.Random(7)
        inst = grid_instance(rng, 6, 4, 4, 2, 2)
        path = put_instance(tmp_path, inst)
        assert main(["solve", path, "--p", "2", "--seed", "3"]) == EXIT_OK
        doc = stdout_json(capsys)
        assert doc["termination"] == "local-optimum"
        assert doc["cost"] == brute_force_opt(inst).cost
        assert doc["trace"][-1] == doc["cost"]

    def test_out_file_and_initial_solution(self, tmp_path, capsys):
        rng = random.Random(8)
        inst = grid_instance(rng, 5, 3, 3, 1, 1)
        path = put_instance(tmp_path, inst)
        init = put_solution(tmp_path, Solution(R={inst.red[0]}, B={inst.blue[0]}), "init.json")
        out = tmp_path / "result.json"
        code = main(["solve", path, "--initial", init, "--rule", "first", "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert set(doc) == {"solution", "cost", "iterations", "trace", "termination"}

    def test_bad_config_is_an_input_error(self, tmp_path, capsys):
        rng = random.Random(9)
        path = put_instance(tmp_path, grid_instance(rng, 3, 2, 2, 1, 1))
        assert main(["solve", path, "--p", "0"]) == EXIT_INPUT_ERROR

    def test_designated_gap_start_is_a_fixed_point_at_p1(self, tmp_path, capsys):
        from rbmedian.gap_gen import GapParams, build

        gap = build(GapParams(p=1, ell=2))
        ipath = put_instance(tmp_path, gap.instance)
        init = put_solution(tmp_path, gap.local_solution, "local.json")
        assert main(["solve", ipath, "--p", "1", "--initial", init]) == EXIT_OK
        doc = stdout_json(capsys)
        assert doc["cost"] == 11
        assert doc["iterations"] == 0

    def test_wider_swaps_escape_the_gap_fixed_point(self, tmp_path, capsys):
        from rbmedian.gap_gen import GapParams, build

        gap = build(GapParams(p=1, ell=2))
        ipath = put_instance(tmp_path, gap.instance)
        init = put_solution(tmp_path, gap.local_solution, "local.json")
        assert main(["solve", ipath, "--p", "2", "--initial", init]) == EXIT_OK
        doc = stdout_json(capsys)
        assert doc["cost"] < 11
        assert doc["iterations"] >= 1


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_no_value_leaks_between_calls(self, tmp_path, capsys):
        rng = random.Random(12)
        inst = grid_instance(rng, 7, 4, 4, 2, 2)
        path = put_instance(tmp_path, inst)
        sol = Solution(R=set(inst.red[:2]), B=set(inst.blue[:2]))
        spath = put_solution(tmp_path, sol, "sol.json")
        defaults = run(inst, SearchConfig()).to_doc()

        for _ in range(2):
            out = tmp_path / "first.json"
            argv = ["solve", path, "--p", "2", "--rule", "first", "--seed", "3",
                    "--epsilon", "0.5", "--max-iters", "1", "--initial", spath, "--out", str(out)]
            assert main(argv) == EXIT_OK
            assert capsys.readouterr().out == ""
            assert json.loads(out.read_text()) == run(
                inst, SearchConfig(p=2, rule="first", seed=3, epsilon=0.5, max_iters=1),
                initial=sol).to_doc()
            # every option back at its default
            assert main(["solve", path]) == EXIT_OK
            assert stdout_json(capsys) == defaults

            assert main(["verify", path, spath, "--p", "2", "--cap", "5"]) == EXIT_CAP_REFUSED
            code = main(["verify", path, spath])
            assert stdout_json(capsys) == is_local_opt(inst, sol, 1).to_doc()
            assert code in (EXIT_OK, EXIT_VERIFICATION_FAILED)

            assert main(["gengap", "--p", "1", "--ell", "2", "--verify"]) == EXIT_OK
            assert "checks" in stdout_json(capsys)
            assert main(["gengap", "--p", "1", "--ell", "2"]) == EXIT_OK
            assert "metric" in stdout_json(capsys)


class TestExact:
    def test_prints_optimum(self, tmp_path, capsys):
        inst = line_instance([0, 9], [1, 8], [4, 5], k_r=1, k_b=1)
        path = put_instance(tmp_path, inst)
        assert main(["exact", path]) == EXIT_OK
        doc = stdout_json(capsys)
        assert doc["cost"] == brute_force_opt(inst).cost
        assert doc["examined"] == 4

    def test_cap_refusal_exit_code(self, tmp_path, capsys):
        rng = random.Random(10)
        path = put_instance(tmp_path, grid_instance(rng, 4, 6, 6, 3, 3))
        assert main(["exact", path, "--cap", "100"]) == EXIT_CAP_REFUSED

    def test_missing_file_is_an_input_error(self, capsys):
        assert main(["exact", "/nonexistent/instance.json"]) == EXIT_INPUT_ERROR

    def test_int64_overflow_is_an_input_error(self, tmp_path, capsys):
        # 4 clients at 2^61 each would sum to 2^63, one past int64
        big = 2**61
        matrix = [[0 if i == j else big for j in range(6)] for i in range(6)]
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"n": 6, "metric": {"matrix": matrix},
                                    "clients": [0, 1, 2, 3], "red": [4], "blue": [5],
                                    "k_r": 1, "k_b": 1}))
        assert main(["exact", str(path)]) == EXIT_INPUT_ERROR
        assert "2^63" in capsys.readouterr().err


def write_doc(tmp_path, metric, n):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"n": n, "metric": metric, "clients": list(range(n - 2)),
                                "red": [n - 2], "blue": [n - 1], "k_r": 1, "k_b": 1}))
    return str(path)


class TestBadDistanceData:
    """Tables that int64 arithmetic, JSON decoding or the metric contract
    cannot represent are input errors (exit 2), never a wrong cost or a crash."""

    @pytest.mark.parametrize("entry", [True, None, [1], "abc", 2**63])
    def test_bad_matrix_entry(self, tmp_path, capsys, entry):
        path = write_doc(tmp_path, {"matrix": [[0, entry, 1], [entry, 0, 1], [1, 1, 0]]}, 3)
        assert main(["exact", path]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("metric, n, message", [
        # (a) sums of two entries wrapped, and a valid metric got a false witness
        ({"matrix": [[0, 2**62, 2**62], [2**62, 0, 2**62], [2**62, 2**62, 0]]}, 3, "2^62"),
        # (b) the auto sentinel 2^62 + 1 wrapped to an all-negative table
        ({"graph": {"edges": [[0, 1, 2**61], [2, 3, 2**61]]}}, 4, "2^62"),
        # (c) the auto sentinel 2^63 + 1 did not fit the table at all
        ({"graph": {"edges": [[0, 1, 2**62], [1, 2, 2**62]]}}, 3, "2^62"),
    ], ids=["matrix-2^62", "graph-sentinel-wraps", "graph-sentinel-overflows"])
    def test_int64_overflow(self, tmp_path, capsys, metric, n, message):
        assert main(["exact", write_doc(tmp_path, metric, n)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("value", ["inf", "nan", float("inf"), float("nan")])
    def test_non_finite_matrix_entry(self, tmp_path, capsys, value):
        path = write_doc(tmp_path, {"matrix": [[0, value, 1], [value, 0, 1], [1, 1, 0]]}, 3)
        assert main(["exact", path]) == EXIT_INPUT_ERROR
        assert "non-finite distance" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan", float("inf")])
    def test_non_finite_edge_length(self, tmp_path, capsys, value):
        path = write_doc(tmp_path, {"graph": {"edges": [[0, 1, 1], [1, 2, value]]}}, 3)
        assert main(["exact", path]) == EXIT_INPUT_ERROR
        assert "non-finite edge length" in capsys.readouterr().err

    @pytest.mark.parametrize("encode", [
        lambda text: text.encode("utf-8") + b"\xff",
        lambda text: text.encode("utf-16"),
        lambda text: text.encode("utf-8-sig"),
    ], ids=["bad-byte", "utf-16", "utf-8-bom"])
    def test_documents_must_be_plain_utf8(self, tmp_path, capsys, encode):
        inst = line_instance([0, 9], [1, 8], [4, 5], k_r=1, k_b=1)
        good = Path(put_instance(tmp_path, inst))
        bad = tmp_path / "encoded.json"
        bad.write_bytes(encode(good.read_text()))
        assert main(["exact", str(bad)]) == EXIT_INPUT_ERROR
        assert "malformed instance document" in capsys.readouterr().err
        sol = put_solution(tmp_path, Solution(R={2}, B={4}), "sol.json")
        bad.write_bytes(encode(Path(sol).read_text()))
        assert main(["verify", str(good), str(bad)]) == EXIT_INPUT_ERROR
        assert "malformed solution document" in capsys.readouterr().err
        spec = json.dumps({"generate": {"n_clients": 2, "n_red": 1, "n_blue": 1,
                                        "k_r": 1, "k_b": 1}})
        bad.write_bytes(encode(spec))
        assert main(["experiment", "--spec", str(bad)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert "malformed experiment spec" in captured.err
        assert captured.out == ""


class TestVerify:
    def test_optimal_solution_passes(self, tmp_path, capsys):
        inst = line_instance([0, 9], [1, 8], [4, 5], k_r=1, k_b=1)
        opt = brute_force_opt(inst).solution
        ipath = put_instance(tmp_path, inst)
        spath = put_solution(tmp_path, opt, "sol.json")
        assert main(["verify", ipath, spath, "--p", "1"]) == EXIT_OK
        assert stdout_json(capsys)["locally_optimal"] is True

    def test_witness_produces_failure_exit(self, tmp_path, capsys):
        # the red at 50 is clearly the wrong one to open
        inst = line_instance([0, 1, 2], [1, 50], [100], k_r=1, k_b=0)
        ipath = put_instance(tmp_path, inst)
        spath = put_solution(tmp_path, Solution(R={4}, B=set()), "sol.json")
        assert main(["verify", ipath, spath]) == EXIT_VERIFICATION_FAILED
        doc = stdout_json(capsys)
        assert doc["locally_optimal"] is False
        assert doc["witness"]["close_red"] == [4]
        assert doc["witness"]["open_red"] == [3]
        assert doc["witness"]["delta"] < 0


class TestChecksAtEntry:
    """A bad parameter or solution is an input error before any scan runs:
    feasibility is checked before the cap, so an infeasible solution is
    exit 2 even where the cap would refuse."""

    @pytest.mark.parametrize("argv, message", [
        (["verify", "{inst}", "{good}", "--p", "0"], "p must be >= 1, got 0"),
        (["verify", "{inst}", "{bad}", "--cap", "1"], "|R| = 2 != k_r = 1"),
        (["solve", "{inst}", "--initial", "{bad}"], "|R| = 2 != k_r = 1"),
    ], ids=["verify-p0", "verify-infeasible-under-refusing-cap", "solve-infeasible-initial"])
    def test_exit_2_with_nothing_on_stdout(self, tmp_path, capsys, argv, message):
        inst = line_instance([0, 9], [1, 8], [4, 5], k_r=1, k_b=1)
        paths = {
            "inst": put_instance(tmp_path, inst),
            "good": put_solution(tmp_path, Solution(R={2}, B={4}), "good.json"),
            "bad": put_solution(tmp_path, Solution(R={2, 3}, B={4}), "bad.json"),
        }
        assert main([arg.format(**paths) for arg in argv]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


class TestDecompose:
    def test_disjoint_pair_reports_ok(self, tmp_path, capsys):
        inst = line_instance([0], [10, 10, 40, 40], [50, 50], k_r=2, k_b=1)
        ipath = put_instance(tmp_path, inst)
        spath = put_solution(tmp_path, Solution(R={1, 3}, B={5}), "s.json")
        opath = put_solution(tmp_path, Solution(R={2, 4}, B={6}), "o.json")
        assert main(["decompose", ipath, spath, opath]) == EXIT_OK
        doc = stdout_json(capsys)
        assert doc["ok"] is True
        assert len(doc["blocks"]) == 3

    def test_overlap_needs_explicit_flag(self, tmp_path, capsys):
        inst = line_instance([0], [10, 20], [30, 40], k_r=1, k_b=1)
        ipath = put_instance(tmp_path, inst)
        spath = put_solution(tmp_path, Solution(R={1}, B={3}), "s.json")
        opath = put_solution(tmp_path, Solution(R={1}, B={4}), "o.json")
        assert main(["decompose", ipath, spath, opath]) == EXIT_INPUT_ERROR
        capsys.readouterr()
        assert main(["decompose", ipath, spath, opath, "--disjointify"]) == EXIT_OK
        doc = stdout_json(capsys)
        assert doc["ok"] is True


class TestGengap:
    def test_prints_instance_json(self, capsys):
        assert main(["gengap", "--p", "1", "--ell", "2"]) == EXIT_OK
        doc = stdout_json(capsys)
        assert doc["n"] == 17
        assert len(doc["metric"]["matrix"]) == 17

    def test_out_directory_bundle(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(["gengap", "--p", "1", "--ell", "2", "--out", str(out)]) == EXIT_OK
        names = {f.name for f in out.iterdir()}
        assert names == {"instance.json", "local.json", "global.json", "expected.json"}
        expected = json.loads((out / "expected.json").read_text())
        assert expected["expected_local_cost"] == 11
        assert expected["expected_global_cost"] == 3
        assert expected["expected_ratio_lower_bound"] == "11/3"
        local = json.loads((out / "local.json").read_text())
        assert set(local) == {"R", "B"}

    def test_verify_flag_passes_on_small_family(self, capsys):
        assert main(["gengap", "--p", "1", "--ell", "4", "--verify"]) == EXIT_OK
        doc = stdout_json(capsys)
        assert doc["ok"] is True
        assert doc["ratio"] == "5"

    def test_bad_params_are_input_errors(self, capsys):
        assert main(["gengap", "--p", "0", "--ell", "2"]) == EXIT_INPUT_ERROR
        assert main(["gengap", "--p", "2", "--ell", "2"]) == EXIT_INPUT_ERROR


class TestExperiment:
    def make_spec(self, tmp_path, body):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(body))
        return str(path)

    def test_generated_sweep_csv(self, tmp_path, capsys):
        spec = self.make_spec(tmp_path, {
            "generate": {"count": 2, "seed": 5, "n_clients": 6, "n_red": 3,
                         "n_blue": 3, "k_r": 1, "k_b": 1},
            "p_values": [1, 2],
            "seeds": [0, 1],
        })
        out = tmp_path / "results.csv"
        assert main(["experiment", "--spec", spec, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == f"# schema: {EXPERIMENT_CSV_SCHEMA}"
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == 2 * 2 * 2
        assert [r["instance"] for r in rows] == ["gen-5"] * 4 + ["gen-6"] * 4
        for r in rows:
            assert r["error"] == ""
            assert float(r["local_cost"]) >= float(r["opt_cost"])

    def test_no_ratio_below_one(self):
        # local and optimal costs of one solution come from the same sum
        spec = {
            "generate": {"count": 120, "seed": 0, "n_clients": 14, "n_red": 7,
                         "n_blue": 7, "k_r": 2, "k_b": 2, "box_size": 10.0},
            "p_values": [1, 2],
            "seeds": [0, 1],
        }
        rows = run_experiment(spec, io.StringIO())
        assert len(rows) == 480
        assert all(r["error"] == "" and float(r["ratio"]) >= 1 for r in rows)

    def test_result_columns_are_deterministic(self, tmp_path):
        spec_body = {
            "generate": {"count": 2, "seed": 0, "n_clients": 5, "n_red": 3,
                         "n_blue": 3, "k_r": 2, "k_b": 1},
            "p_values": [1],
            "seeds": [0, 1, 2],
        }
        def run_once():
            buf = io.StringIO()
            rows = run_experiment(spec_body, buf)
            return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]
        assert run_once() == run_once()

    def test_corpus_directory_sorted_order(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = random.Random(11)
        for name in ["b.json", "a.json"]:
            (corpus / name).write_bytes(serialize(grid_instance(rng, 4, 2, 2, 1, 1)))
        spec = self.make_spec(tmp_path, {"corpus": str(corpus)})
        assert main(["experiment", "--spec", spec]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        rows = list(csv.DictReader(lines[1:]))
        assert [r["instance"] for r in rows] == ["a.json", "b.json"]
        for r in rows:
            assert r["ratio"]  # integer costs always get an exact ratio

    def test_empty_corpus_gives_header_only(self, tmp_path, capsys):
        corpus = tmp_path / "empty"
        corpus.mkdir()
        spec = self.make_spec(tmp_path, {"corpus": str(corpus)})
        assert main(["experiment", "--spec", spec]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("# schema:")
        assert lines[1].startswith("instance,")

    def test_spec_without_source_is_an_input_error(self, tmp_path, capsys):
        spec = self.make_spec(tmp_path, {"p_values": [1]})
        assert main(["experiment", "--spec", spec]) == EXIT_INPUT_ERROR

    def test_malformed_spec_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        assert main(["experiment", "--spec", str(path)]) == EXIT_INPUT_ERROR

    GENERATE = {"n_clients": 4, "n_red": 2, "n_blue": 2, "k_r": 1, "k_b": 1}

    @pytest.mark.parametrize("body", [
        {"epsilon": "abc"},
        {"opt_cap": None},
        {"opt_cap": 1e8},
        {"p_values": ["1"]},
        {"p_values": [True]},
        {"seeds": [[1]]},
        {"corpus": 5},
        {"generate": 5},
        {"generate": {**GENERATE, "n_red": "2"}},
        {"generate": {**GENERATE, "count": True}},
        {"generate": {**GENERATE, "box_size": "nan"}},
        {"generate": {**GENERATE, "box_size": float("nan")}},
        {"generate": {**GENERATE, "box_size": float("inf")}},
        {"generate": {**GENERATE, "box_size": 1e200}},
        {"generate": {**GENERATE, "box_size": 10**400}},
        {"epsilon": 10**400},
    ], ids=["epsilon-string", "opt_cap-null", "opt_cap-float", "p-string", "p-bool",
            "seed-list", "corpus-number", "generate-number", "n_red-string", "count-bool",
            "box-string", "box-nan", "box-inf", "box-overflow", "box-401-digits",
            "epsilon-401-digits"])
    def test_mistyped_spec_field_is_an_input_error(self, tmp_path, capsys, body):
        # a corpus, when given, is read in place of the generator
        spec = self.make_spec(tmp_path, {"generate": self.GENERATE, **body})
        assert main(["experiment", "--spec", spec]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
