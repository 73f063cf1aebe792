"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Runs every workload's operations on toy inputs through the same code the
benchmark uses, shows that each output checker accepts the real output
and rejects corrupted copies of it, and checks the tracer and the metric
tables against BENCHMARK.json. Takes a few seconds.
"""

from __future__ import annotations

import copy
import json
import shutil
import tempfile
import unittest
from pathlib import Path

import run

run.import_package(run.ROOT)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import TOY, WORKLOADS  # noqa: E402


class ToyDir(unittest.TestCase):
    def setUp(self):
        run.WORK_ROOT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=run.WORK_ROOT))

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def ops(self, workload, seed=1):
        setup, _warmup = WORKLOADS[workload]
        wd = self.dir / workload
        wd.mkdir()
        return {op.name: op for op in setup(seed, wd, TOY)}

    def output(self, op):
        code, stdout, _s = run.run_cli(op.argv)
        self.assertEqual(op.check(code, stdout)[0], [], op.name)
        return code, stdout, self._out_path(op)

    @staticmethod
    def _out_path(op):
        return Path(op.argv[op.argv.index("--out") + 1]) if "--out" in op.argv else None


class CheckersRejectCorruptOutput(ToyDir):
    def assert_rejected(self, problems, what):
        self.assertNotEqual(problems, [], f"checker accepted {what}")

    def test_solve(self):
        op = self.ops("solve-best")["p1-00"]
        code, _stdout, out = self.output(op)
        doc = json.loads(out.read_text())
        inst = checks.InstanceData.from_doc(json.loads(Path(op.argv[1]).read_text()))
        self.assertEqual(checks.check_solve(code, doc, inst, checks.solve_summary(doc)), [])

        def tampered(edit):
            bad = copy.deepcopy(doc)
            edit(bad)
            return checks.check_solve(code, bad, inst)

        self.assert_rejected(tampered(lambda d: d.update(cost=d["cost"] * 1.001)), "a tampered cost")
        self.assert_rejected(tampered(lambda d: d["trace"].insert(0, d["trace"][0])), "a flat trace")
        self.assert_rejected(tampered(lambda d: d.update(termination="iteration-cap")), "a capped run")
        self.assert_rejected(tampered(lambda d: d["solution"]["R"].__setitem__(0, inst.blue[0])),
                             "a blue facility in R")
        self.assert_rejected(tampered(lambda d: d.update(iterations=d["iterations"] + 1)),
                             "an iteration count that does not match the trace")
        self.assert_rejected(checks.check_solve(1, doc, inst), "exit code 1")
        recorded = checks.solve_summary(doc)
        self.assert_rejected(checks.check_solve(code, doc, inst, {**recorded, "iterations": -1}),
                             "an iteration count other than the recorded one")
        self.assert_rejected(checks.check_solve(code, doc, inst, {**recorded, "R": []}),
                             "a solution other than the recorded one")

    def test_gap_report(self):
        op = self.ops("certify")["gengap-1-2"]
        code, stdout, _out = self.output(op)
        doc = json.loads(stdout)

        def tampered(edit, allowed=()):
            bad = copy.deepcopy(doc)
            edit(bad)
            return checks.check_gap_report(code, bad, 1, 2, allowed)

        self.assert_rejected(tampered(lambda d: d.update(local_cost=d["local_cost"] + 1)),
                             "a wrong local cost")
        self.assert_rejected(tampered(lambda d: d["checks"].update(locally_optimal="fail: x")),
                             "a failed check")
        self.assert_rejected(tampered(lambda d: d["checks"].update(global_is_optimum="skipped: x")),
                             "a skip that was not recorded")
        self.assertEqual(tampered(lambda d: d["checks"].update(global_is_optimum="skipped: x"),
                                  allowed=("global_is_optimum",)), [])
        self.assert_rejected(tampered(lambda d: d["checks"].pop("locally_optimal")), "a missing check")
        self.assert_rejected(checks.check_gap_report(1, doc, 1, 2, ()), "exit code 1")

    def test_decompose(self):
        op = self.ops("certify")["decompose-1-2"]
        code, _stdout, out = self.output(op)
        doc = json.loads(out.read_text())
        n_clients = doc["bound_checks"]["clients_checked"]
        violation = {"where": "client 0", "check": "anchor_bound", "detail": "x"}
        bad = copy.deepcopy(doc)
        bad["bound_checks"]["violations"].append(violation)
        self.assert_rejected(checks.check_decompose(code, bad, n_clients), "a violation")
        self.assert_rejected(checks.check_decompose(code, {**doc, "ok": False}, n_clients), "ok false")
        self.assert_rejected(checks.check_decompose(code, doc, n_clients + 1), "a skipped client")
        self.assert_rejected(checks.check_decompose(1, doc, n_clients), "exit code 1")

    def test_verify_witness(self):
        op = self.ops("certify")["verify-1-2"]
        code, _stdout, out = self.output(op)
        doc = json.loads(out.read_text())
        inst = checks.InstanceData.from_doc(json.loads(Path(op.argv[1]).read_text()))
        sol = json.loads(Path(op.argv[2]).read_text())
        R, B = sol["R"], sol["B"]

        def tampered(edit):
            bad = copy.deepcopy(doc)
            edit(bad)
            return checks.check_verify_witness(code, bad, inst, R, B)

        self.assert_rejected(tampered(lambda d: d["witness"].update(delta=d["witness"]["delta"] - 1)),
                             "a witness delta off by one")
        self.assert_rejected(tampered(lambda d: d["witness"].update(delta=1)), "a positive delta")
        self.assert_rejected(tampered(lambda d: d.update(locally_optimal=True)), "a local optimum")
        self.assert_rejected(checks.check_verify_witness(0, doc, inst, R, B), "exit code 0")

    def test_experiment(self):
        op = self.ops("sweep")["sweep-000"]
        code, _stdout, out = self.output(op)
        text = out.read_text()
        rows = 4
        summary = checks.experiment_summary(checks.read_experiment_csv(text))
        self.assertEqual(checks.check_experiment(code, text, rows, summary), [])
        header, columns, first = text.splitlines()[:3]
        fields = dict(zip(columns.split(","), first.split(",")))

        def with_first_row(**changes):
            row = ",".join(str(changes.get(k, v)) for k, v in fields.items())
            return "\n".join([header, columns, row] + text.splitlines()[3:]) + "\n"

        below = float(fields["opt_cost"]) * 0.5
        self.assert_rejected(checks.check_experiment(code, with_first_row(local_cost=below), rows),
                             "a local cost below the optimum")
        self.assert_rejected(checks.check_experiment(code, with_first_row(error="boom"), rows),
                             "a row error")
        self.assert_rejected(checks.check_experiment(code, text, rows + 1), "a missing row")
        self.assert_rejected(checks.check_experiment(code, text.replace("v1", "v0"), rows),
                             "another schema")
        wrong = [r[:2] + [r[2] + 1] + r[3:] for r in summary]
        self.assert_rejected(checks.check_experiment(code, text, rows, wrong),
                             "rows other than the recorded ones")


class ToyRuns(ToyDir):
    def test_every_workload_passes_untraced_and_traced(self):
        for name in WORKLOADS:
            for trace in (0, 1):
                attempted, failed, metrics, _report = run.measure(
                    name, 1, 0, trace, TOY, self.dir / f"{name}-{trace}")
                self.assertGreater(attempted, 0)
                self.assertEqual(failed, 0, name)
                wanted = run.PER_LAYER if trace else run.END_TO_END
                self.assertEqual(list(metrics), list(wanted))
                self.assertTrue(all(m["unit"] == wanted[k] for k, m in metrics.items()))

    def test_tracer_counts_and_restores(self):
        import rbmedian.cli as cli
        import rbmedian.local_search as ls

        op = self.ops("solve-first")["p1-00-eps0.0"]
        originals = (cli.run, cli.parse, ls.evaluate, ls.neighborhood, vars(ls.DeltaEvaluator)["delta"])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.output(op)
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.missing, [])
        self.assertEqual((cli.run, cli.parse, ls.evaluate, ls.neighborhood,
                          vars(ls.DeltaEvaluator)["delta"]), originals)
        self.assertEqual(tracer.calls("cli.main"), 1)
        self.assertEqual(tracer.calls("local_search.run"), 1)
        self.assertGreater(tracer.calls("local_search.delta"), 0)
        self.assertEqual(tracer.calls("local_search.delta"), tracer.counters["local_search.moves_priced"])
        self.assertGreater(tracer.counters["local_search.iterations"], 0)
        for name in tracer.stats:
            self.assertGreaterEqual(tracer.self_seconds(name), -1e-6, name)

    def test_missing_package_is_refused(self):
        with self.assertRaises(run.PackageMissing):
            run.import_package(self.dir)


class BenchmarkJson(unittest.TestCase):
    def test_tables_match(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in doc["workloads"]], list(WORKLOADS))

    def test_gap_closed_forms_match_the_package(self):
        from rbmedian.gap_gen import GapParams, expected_costs

        for p, ell in ((1, 2), (1, 10), (2, 6), (3, 9)):
            self.assertEqual(checks.gap_costs(p, ell), expected_costs(GapParams(p, ell)))


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(run.WORK_ROOT, ignore_errors=True)
