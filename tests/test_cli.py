"""End-to-end runs of every subcommand through cli.main."""

import csv
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import grid_instance, line_instance
from rbmedian import instance as instance_module
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
from rbmedian.exact import brute_force_opt, is_local_opt, lower_bound
from rbmedian.instance import Instance, Solution, gen_euclidean, serialize, serialize_solution
from rbmedian.local_search import ConfigError, SearchConfig, _plan, run
from rbmedian.metric import MetricError, MetricSpace, from_graph, from_matrix


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

    def test_float_ties_are_not_moves(self, tmp_path, capsys):
        # Points on a line; a move that only ties the cost once priced with
        # the sum `evaluate` uses was once accepted, giving the trace
        # [1.9000000000000001, 1.9000000000000001].
        xs = [2.3, 0.2, 1.6, 0.8, 0.5, 2.8, 0.2]
        doc = {"n": 7, "metric": {"matrix": [[repr(abs(a - b)) for b in xs] for a in xs]},
               "clients": [0, 1, 2], "red": [3, 4], "blue": [5, 6], "k_r": 1, "k_b": 1}
        path = tmp_path / "line.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path), "--p", "1", "--seed", "4697"]) == EXIT_OK
        out = stdout_json(capsys)
        assert out["iterations"] == 0 and out["trace"] == [out["cost"]]

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

    def test_relabelling_keeps_the_search(self, tmp_path, capsys):
        # Relabel the locations, keeping the order within each role: the
        # canonical order and the seeded start are the same, so the trace
        # is, and the solution maps through. The second solve has the
        # shape of the first, so its scans reuse the first one's plans.
        inst = gen_euclidean(200, 10, 10, 3, 3, box_size=100.0, seed=200)
        roles = ["clients"] * 200 + ["red"] * 10 + ["blue"] * 10
        random.Random(0).shuffle(roles)
        new = {}
        for role in ("clients", "red", "blue"):
            new.update(zip(getattr(inst, role), (i for i, r in enumerate(roles) if r == role)))
        perm = np.array([new[i] for i in range(220)])
        dist = np.empty_like(inst.space.dist)
        dist[np.ix_(perm, perm)] = inst.space.dist
        relabelled = Instance(MetricSpace(dist), *([new[i] for i in getattr(inst, role)]
                                                   for role in ("clients", "red", "blue")), 3, 3)
        docs = []
        for name, case in (("a.json", inst), ("b.json", relabelled)):
            hits = _plan.cache_info().hits
            assert main(["solve", put_instance(tmp_path, case, name), "--p", "2", "--seed", "4"]) == EXIT_OK
            docs.append(stdout_json(capsys))
        assert _plan.cache_info().hits > hits
        assert docs[0]["iterations"] == docs[1]["iterations"] > 0
        assert docs[0]["trace"] == docs[1]["trace"]
        assert {side: sorted(new[i] for i in ids) for side, ids in docs[0]["solution"].items()} \
            == docs[1]["solution"]


    @pytest.mark.parametrize("rule", ["best", "first"])
    def test_tripled_table_triples_the_trace(self, tmp_path, capsys, rule):
        # at epsilon 0 a move is taken iff its total falls, which scaling keeps
        base = solve_grid_200(tmp_path, capsys, rule, lambda rows: rows)
        tripled = solve_grid_200(tmp_path, capsys, rule, lambda rows: [[3 * v for v in row] for row in rows])
        assert base["iterations"] > 0 and base["termination"] == "local-optimum"
        assert [tripled[key] for key in SEARCH_KEYS] == [base[key] for key in SEARCH_KEYS]
        assert tripled["trace"] == [3 * cost for cost in base["trace"]]
        assert all(type(cost) is int for cost in base["trace"] + tripled["trace"])

    @pytest.mark.parametrize("rule", ["best", "first"])
    def test_float_strings_take_the_integer_path(self, tmp_path, capsys, rule):
        # the float sums of a small-integer table are exact
        base = solve_grid_200(tmp_path, capsys, rule, lambda rows: rows)
        as_text = solve_grid_200(tmp_path, capsys, rule, lambda rows: [[f"{v}.0" for v in row] for row in rows])
        assert [as_text[key] for key in SEARCH_KEYS] == [base[key] for key in SEARCH_KEYS]
        assert as_text["trace"] == base["trace"]
        assert all(type(cost) is float for cost in as_text["trace"])


SEARCH_KEYS = ("solution", "iterations", "termination")


def solve_grid_200(tmp_path, capsys, rule, write):
    """solve --p 2's document, by `rule`, for a seeded grid of 200 clients,
    10 red and 10 blue, k 3/3, whose integer table is written as write(rows)."""
    doc = json.loads(serialize(grid_instance(random.Random(200), 200, 10, 10, 3, 3, span=1000)))
    doc["metric"]["matrix"] = write(doc["metric"]["matrix"])
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--p", "2", "--epsilon", "0", "--seed", "2", "--rule", rule]) == EXIT_OK
    return stdout_json(capsys)

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

    @pytest.mark.parametrize("key, message", [
        ("clients", "clients/red/blue must cover exactly 0..2"),  # clients index no table
        ("red", "facility ids [{bad}] are outside 0..2"),
        ("blue", "facility ids [{bad}] are outside 0..2"),
    ], ids=["clients", "red", "blue"])
    @pytest.mark.parametrize("bad", [-1, 3], ids=["minus-1", "n"])
    def test_role_id_outside_the_table(self, tmp_path, capsys, key, message, bad):
        path = Path(write_doc(tmp_path, {"matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}, 3))
        doc = json.loads(path.read_text())
        doc[key] = [bad]  # -1 would wrap to the last row in numpy; 3 would not index at all
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message.format(bad=bad))


def put_value(value):
    def plant(table, i, j):
        table[i][j] = table[j][i] = value
    return plant


def put_diagonal(table, i, j):
    table[j][j] = 5


def put_asymmetry(table, i, j):
    table[i][j] += 1


# Ways to spoil a table at the position pair (i, j), (j, i).
SPOILERS = {"negative": put_value(-1), "nan": put_value("nan"), "2^63": put_value(2**63),
            "abc": put_value("abc"), "diagonal": put_diagonal, "asymmetric": put_asymmetry}
# Positions of each kind in `line_table`: clients 0-2, red 3, blue 4.
SPOTS = {"client-client": (0, 1), "client-facility": (0, 3), "facility-facility": (3, 4)}


def line_table(floats, spoiler=None, spot=None):
    """Distances between five points on a line, as JSON floats when
    `floats`, spoiled at one spot when given."""
    xs = [x + 0.5 for x in (0, 2, 5, 1, 4)] if floats else [0, 2, 5, 1, 4]
    table = [[abs(a - b) for b in xs] for a in xs]
    if spoiler:
        spoiler(table, *SPOTS[spot])
    return table


def run_table(tmp_path, capsys, table, command):
    """(exit code, stdout, stderr) of `command` on the line instance with `table`."""
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"n": 5, "metric": {"matrix": table}, "clients": [0, 1, 2],
                                "red": [3], "blue": [4], "k_r": 1, "k_b": 1}))
    code = main([command, str(path)])
    return (code, *capsys.readouterr())


class TestClientClientEntries:
    """Only distances with a facility at one end are read, so only those are
    checked beyond their JSON kind: a bad client-to-client entry is no input
    error, while the same value where a facility is at one end still is."""

    # a string makes the whole table float, so it is planted in float tables only
    @pytest.mark.parametrize("floats, spoiler", [(floats, spoiler) for floats in (False, True)
                                                 for spoiler in SPOILERS
                                                 if floats or spoiler not in ("nan", "abc")])
    def test_bad_entry_changes_no_output(self, tmp_path, capsys, floats, spoiler):
        table = line_table(floats, SPOILERS[spoiler], "client-client")
        for command in ("solve", "exact"):
            clean = run_table(tmp_path, capsys, line_table(floats), command)
            assert clean[0] == EXIT_OK
            assert run_table(tmp_path, capsys, table, command) == clean

    @pytest.mark.parametrize("floats, spot, spoiler, message", [
        (False, "client-facility", "negative", "negative distance -1 at (0, 3)"),
        (False, "client-facility", "2^63", "integer distance 9223372036854775808 does not fit int64"),
        (False, "client-facility", "diagonal", "nonzero diagonal 5 at (3, 3)"),
        (False, "client-facility", "asymmetric", "asymmetry at (0, 3): 2 != 1"),
        (False, "facility-facility", "negative", "negative distance -1 at (3, 4)"),
        (False, "facility-facility", "2^63", "integer distance 9223372036854775808 does not fit int64"),
        (False, "facility-facility", "diagonal", "nonzero diagonal 5 at (4, 4)"),
        (False, "facility-facility", "asymmetric", "asymmetry at (3, 4): 4 != 3"),
        (True, "client-facility", "negative", "negative distance -1.0 at (0, 3)"),
        (True, "client-facility", "nan", "non-finite distance nan at (0, 3)"),
        (True, "client-facility", "2^63", "triangle violation at (3, 0): 9.223372036854776e+18 > 3.0 + 4.0 via 4"),
        (True, "client-facility", "abc", "bad distance data: could not convert string to float: 'abc'"),
        (True, "client-facility", "diagonal", "nonzero diagonal 5.0 at (3, 3)"),
        (True, "client-facility", "asymmetric", "asymmetry at (0, 3): 2.0 != 1.0"),
        (True, "facility-facility", "negative", "negative distance -1.0 at (3, 4)"),
        (True, "facility-facility", "nan", "non-finite distance nan at (3, 4)"),
        (True, "facility-facility", "2^63", "triangle violation at (3, 4): 9.223372036854776e+18 > 1.0 + 2.0 via 1"),
        (True, "facility-facility", "abc", "bad distance data: could not convert string to float: 'abc'"),
        (True, "facility-facility", "diagonal", "nonzero diagonal 5.0 at (4, 4)"),
        (True, "facility-facility", "asymmetric", "asymmetry at (3, 4): 4.0 != 3.0"),
    ])
    def test_bad_entry_at_a_facility_keeps_its_message(self, tmp_path, capsys, floats, spot,
                                                       spoiler, message):
        # the messages are those of the full-table check that came before
        for command in ("solve", "exact"):
            table = line_table(floats, SPOILERS[spoiler], spot)
            assert run_table(tmp_path, capsys, table, command) == (EXIT_INPUT_ERROR, "",
                                                                   f"error: {message}\n")

    @pytest.mark.parametrize("spot", SPOTS)
    @pytest.mark.parametrize("entry", [True, None, [1]], ids=["true", "null", "list"])
    def test_bad_kind_anywhere_is_an_input_error(self, tmp_path, capsys, entry, spot):
        code, out, err = run_table(tmp_path, capsys, line_table(True, put_value(entry), spot), "exact")
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert "distance entries must be numbers or decimal strings" in err


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

    def verify_member(self, tmp_path, capsys, ell):
        """`verify` of the (1, ell) member's designated solution: (paths
        of the instance and the solution, stderr)."""
        out = tmp_path / "family"
        assert main(["gengap", "--p", "1", "--ell", str(ell), "--out", str(out)]) == EXIT_OK
        ipath, lpath = str(out / "instance.json"), str(out / "local.json")
        capsys.readouterr()
        assert main(["verify", ipath, lpath]) == EXIT_OK
        captured = capsys.readouterr()
        assert set(json.loads(captured.out)) == {"locally_optimal", "moves_checked"}
        return ipath, lpath, captured.err

    def test_stderr_names_the_route(self, tmp_path, capsys):
        # the (1, 4) member's 129 moves fit in the probe of the scan's first
        # block; with the hub traded for a reference red, the probe finds a witness
        ipath, lpath, err = self.verify_member(tmp_path, capsys, 4)
        assert err == "locally optimal under swaps of size <= 1 (129 moves checked, by enumeration)\n"
        local = json.loads(Path(lpath).read_text())
        worse = put_solution(tmp_path, Solution(R=set(local["R"]) - {min(local["R"])} | {13},
                                                B=set(local["B"])), "worse.json")
        assert main(["verify", ipath, worse]) == EXIT_VERIFICATION_FAILED
        captured = capsys.readouterr()
        assert set(json.loads(captured.out)) == {"locally_optimal", "moves_checked", "witness"}
        assert captured.err.startswith("improving move found by enumeration after ")

    def test_stderr_names_the_island_route(self, tmp_path, capsys):
        # the (1, 20) member's 2,209 moves pass one block (1,143 moves at 43
        # clients), and its designated solution passes by island tables
        *_, err = self.verify_member(tmp_path, capsys, 20)
        assert err == "locally optimal under swaps of size <= 1 (2209 moves checked, by island tables)\n"


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

    def test_shared_pair_is_checked_once_per_solution(self, tmp_path, capsys, monkeypatch):
        inst = line_instance([0], [10, 20], [30, 40], k_r=1, k_b=1)
        ipath = put_instance(tmp_path, inst)
        spath = put_solution(tmp_path, Solution(R={1}, B={3}), "s.json")
        opath = put_solution(tmp_path, Solution(R={1}, B={3}), "o.json")
        checked = []
        real = instance_module.check_feasible
        monkeypatch.setattr(instance_module, "check_feasible",
                            lambda inst, sol: checked.append(sol) or real(inst, sol))
        assert main(["decompose", ipath, spath, opath, "--disjointify"]) == EXIT_OK
        assert stdout_json(capsys)["ok"] is True
        assert len(checked) == 2

    def test_disjointify_leaves_a_stray_id_to_the_check(self, tmp_path, capsys):
        # 6 is past the last location, and is the id the copy of red 1 would take
        inst = line_instance([0], [10, 20, 25], [30, 40], k_r=2, k_b=1)
        ipath = put_instance(tmp_path, inst)
        spath = put_solution(tmp_path, Solution(R={1, 6}, B={4}), "s.json")
        opath = put_solution(tmp_path, Solution(R={1, 2}, B={5}), "o.json")
        assert main(["decompose", ipath, spath, opath, "--disjointify"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: R contains non-red locations [6]")

    def test_overlap_without_flag_writes_nothing(self, tmp_path, capsys):
        inst = line_instance([0], [10, 20], [30, 40], k_r=1, k_b=1)
        ipath = put_instance(tmp_path, inst)
        spath = put_solution(tmp_path, Solution(R={1}, B={3}), "s.json")
        opath = put_solution(tmp_path, Solution(R={1}, B={4}), "o.json")
        assert main(["decompose", ipath, spath, opath]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: solutions share facilities [1]")

    @pytest.mark.parametrize("flag", [[], ["--disjointify"]])
    def test_infeasible_solution_is_an_input_error(self, tmp_path, capsys, flag):
        inst = line_instance([0], [10, 20], [30, 40], k_r=1, k_b=1)
        ipath = put_instance(tmp_path, inst)
        spath = put_solution(tmp_path, Solution(R=set(), B={3}), "s.json")
        opath = put_solution(tmp_path, Solution(R={2}, B={4}), "o.json")
        assert main(["decompose", ipath, spath, opath, *flag]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


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

    @pytest.mark.parametrize("p, ell, digest", [
        (1, 2, "a082a7bc0aa890785b7b5465fb9cd36d984b8e84ccc0f1722bd9e8954093cfea"),
        (2, 4, "99e64cc239b2a85bfdb12b33c5ade4e09ee71a2ab706263357fb3663f61ac232"),
        (3, 6, "6bcf70d9f2b313522215393bb8ac498642793ae0e23ddf52fd1f94e25fcb08cf"),
    ], ids=["1-2", "2-4", "3-6"])
    def test_family_bytes_unchanged(self, tmp_path, capsys, p, ell, digest):
        # One digest over the four --out files, in this order, then the
        # --verify report at the default cap, whose locally_optimal check
        # passes by enumeration at (1, 2), whose 49 moves fit in the probe
        # of the scan's first block, and by island tables at (2, 4) and
        # (3, 6) (where the scan's 125,127,497 moves exceed the cap).
        argv = ["gengap", "--p", str(p), "--ell", str(ell)]
        out = tmp_path / "family"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        h = hashlib.sha256()
        for name in ("instance.json", "local.json", "global.json", "expected.json"):
            h.update((out / name).read_bytes())
        capsys.readouterr()
        assert main([*argv, "--verify"]) == EXIT_OK
        h.update(capsys.readouterr().out.encode())
        assert h.hexdigest() == digest


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

    def test_unreadable_corpus_entry_is_an_input_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        (corpus / "a.json").mkdir(parents=True)
        spec = self.make_spec(tmp_path, {"corpus": str(corpus)})
        assert main(["experiment", "--spec", spec]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read ")

    def test_malformed_corpus_entry_names_its_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.json").write_bytes(serialize(grid_instance(random.Random(5), 4, 2, 2, 1, 1)))
        (corpus / "b.json").write_text("{bad")
        spec = self.make_spec(tmp_path, {"corpus": str(corpus)})
        assert main(["experiment", "--spec", spec]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error: b.json: malformed instance document")

    def test_bad_later_corpus_entry_writes_nothing(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.json").write_bytes(serialize(grid_instance(random.Random(5), 4, 2, 2, 1, 1)))
        (corpus / "b.json").write_text("{bad")
        spec = self.make_spec(tmp_path, {"corpus": str(corpus)})
        assert main(["experiment", "--spec", spec]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: b.json: ")

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

    def test_bad_spec_leaves_an_existing_out_file_alone(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        out.write_bytes(b"# schema: rbmedian.experiment.v1\nprevious,results\n")
        spec = self.make_spec(tmp_path, {"generate": self.GENERATE, "epsilon": 1.5})
        assert main(["experiment", "--spec", spec, "--out", str(out)]) == EXIT_INPUT_ERROR
        assert out.read_bytes() == b"# schema: rbmedian.experiment.v1\nprevious,results\n"

    @pytest.mark.parametrize("body", [
        {"generate": GENERATE, "epsilon": 1.5},
        {"generate": GENERATE, "p_values": [1, 0]},
        {"generate": {k: v for k, v in GENERATE.items() if k != "k_b"}},
        {"generate": {**GENERATE, "box_size": -1}},
        {"generate": {**GENERATE, "k_r": 3}},
        {"generate": {**GENERATE, "count": -3}},
        {"corpus": "missing"},
        {"p_values": [1]},
    ], ids=["epsilon-range", "p-range", "generate-no-k_b", "box-negative", "budget-range",
            "count-negative", "corpus-missing", "no-source"])
    def test_spec_error_fails_before_any_output(self, tmp_path, capsys, body):
        if "corpus" in body:
            body = {"corpus": str(tmp_path / body["corpus"])}
        spec = self.make_spec(tmp_path, body)
        assert main(["experiment", "--spec", spec]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


    def test_refused_optimum_leaves_opt_and_ratio_blank(self, tmp_path, capsys):
        body = {"generate": {"count": 1, "seed": 100, "n_clients": 14, "n_red": 7, "n_blue": 7,
                             "k_r": 2, "k_b": 2, "box_size": 10.0},
                "p_values": [1, 2], "seeds": [0, 1]}
        rows = {}
        for cap_body in ({}, {"opt_cap": 10}):
            assert main(["experiment", "--spec", self.make_spec(tmp_path, {**body, **cap_body})]) == EXIT_OK
            rows[bool(cap_body)] = list(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))
        assert len(rows[True]) == 4 and not any(r["error"] for r in rows[False])
        for r in rows[True]:
            assert (r["opt_cost"], r["ratio"]) == ("", "")
            assert r["error"] == ("opt skipped: 441 candidate solutions exceed the cap of 10; "
                                  "raise the cap explicitly to force the scan")
        assert [r["local_cost"] for r in rows[True]] == [r["local_cost"] for r in rows[False]]


LINE_DOC = {"n": 3, "metric": {"matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
            "clients": [0], "red": [1], "blue": [2], "k_r": 1, "k_b": 1}


# Input errors at raise sites that no other test reaches: a document (an
# instance for solve, a spec for experiment) with its exact stderr line, or
# a library call with the error it raises.
INPUT_ERRORS = {
    "not-an-object": ("solve", [LINE_DOC], "instance document must be a JSON object"),
    "metric-number": ("solve", {**LINE_DOC, "metric": 5}, "'metric' must be an object"),
    "graph-without-edges": ("solve", {**LINE_DOC, "metric": {"graph": {"edges": 5}}},
                            "'graph' must be an object with an 'edges' list"),
    "float-endpoint": ("solve", {**LINE_DOC, "metric": {"graph": {"edges": [[0, 1.5, 1]]}}},
                       "graph edge endpoints must be integers in [0, 1.5, 1]"),
    "no-table": ("solve", {**LINE_DOC, "metric": {"rows": []}},
                 "'metric' must contain either 'matrix' or 'graph'"),
    "k_b-range": ("solve", {**LINE_DOC, "k_b": 2}, "budget k_b=2 out of range for 1 blue facilities"),
    "p_values-number": ("experiment", {"generate": TestExperiment.GENERATE, "p_values": 1},
                        "'p_values' and 'seeds' must be lists"),
    "max_iters": (lambda: SearchConfig(max_iters=-1), ConfigError, "max_iters must be nonnegative, got -1"),
    "row-not-held": (lambda: from_matrix(LINE_DOC["metric"]["matrix"], [1]).rows([0, 1]), MetricError,
                     r"no distance row held for locations \[0\]"),
    "vertex-count": (lambda: from_graph(-1, []), MetricError, "vertex count must be nonnegative, got -1"),
    "edge-pair": (lambda: from_graph(2, [(0, 1)]), MetricError, r"edge must be \(u, v, length\), got \(0, 1\)"),
}


@pytest.mark.parametrize("case, arg, message", INPUT_ERRORS.values(), ids=INPUT_ERRORS.keys())
def test_input_errors(tmp_path, capsys, case, arg, message):
    if callable(case):
        with pytest.raises(arg, match=message):
            case()
        return
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(arg))
    assert main([case, str(path)] if case == "solve" else [case, "--spec", str(path)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", f"error: {message}\n")

class TestUnwritableOut:
    """An --out the program cannot write is an input error: exit 2, with
    nothing on stdout and no traceback."""

    @pytest.mark.parametrize("argv", [
        ["solve", "{fam}/instance.json", "--out", "{missing}"],
        ["exact", "{fam}/instance.json", "--out", "{missing}"],
        ["verify", "{fam}/instance.json", "{fam}/local.json", "--out", "{missing}"],
        ["decompose", "{fam}/instance.json", "{fam}/local.json", "{fam}/global.json",
         "--out", "{missing}"],
        ["gengap", "--p", "1", "--ell", "2", "--out", "{file}"],
        ["experiment", "--spec", "{spec}", "--out", "{missing}"],
    ], ids=["solve", "exact", "verify", "decompose", "gengap-out-is-a-file", "experiment"])
    def test_exit_2_with_nothing_on_stdout(self, tmp_path, capsys, argv):
        fam, spec, file = tmp_path / "fam", tmp_path / "spec.json", tmp_path / "a-file"
        assert main(["gengap", "--p", "1", "--ell", "2", "--out", str(fam)]) == EXIT_OK
        spec.write_text(json.dumps({"generate": TestExperiment.GENERATE}))
        file.write_bytes(b"kept")
        capsys.readouterr()
        paths = {"fam": fam, "spec": spec, "file": file, "missing": tmp_path / "missing" / "out"}
        assert main([arg.format(**paths) for arg in argv]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ") and captured.err.count("\n") == 1
        assert file.read_bytes() == b"kept" and not (tmp_path / "missing").exists()


class TestLowerBound:
    """No cost that `solve`, `exact` or `experiment` reports falls below
    `lower_bound`: exactly for integer tables; for float ones, a float sum
    of n nonnegative terms may round below the exact sum by a relative
    (n-1)u/(1-(n-1)u) (u = 2^-53), which n/2^53 covers."""

    def test_no_reported_cost_falls_below_the_bound(self, tmp_path, capsys):
        rng = random.Random(0x1B0)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        insts = [grid_instance(rng, 30, 6, 6, 2, 2) for _ in range(3)]
        insts += [gen_euclidean(30, 6, 6, 2, 2, box_size=10.0, seed=seed) for seed in range(3)]
        floors = {}
        for i, inst in enumerate(insts):
            path = put_instance(corpus, inst, f"i{i}.json")
            bound = lower_bound(inst)
            floors[f"i{i}.json"] = bound - (0 if inst.space.integral else bound * Fraction(30, 2**53))
            for argv in (["solve", path, "--p", "1"], ["solve", path, "--p", "2", "--rule", "first"],
                         ["exact", path]):
                assert main(argv) == EXIT_OK
                assert Fraction(stdout_json(capsys)["cost"]) >= floors[f"i{i}.json"], (i, argv)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"corpus": str(corpus), "p_values": [1, 2], "seeds": [0, 1]}))
        assert main(["experiment", "--spec", str(spec)]) == EXIT_OK
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))
        assert len(rows) == 4 * len(insts)
        for row in rows:
            for key in ("local_cost", "opt_cost"):
                assert Fraction(json.loads(row[key])) >= floors[row["instance"]], row
