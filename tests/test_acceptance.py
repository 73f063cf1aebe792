"""Acceptance gate: one test per shipped claim, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test also stands alone as a plain pytest pass/fail.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import grid_instance, random_feasible
from oracle import delta_cost
from rbmedian.decomposition import build_phi, check_standard_bounds, decompose
from rbmedian.exact import brute_force_opt, is_local_opt
from rbmedian.gap_gen import GapParams, build, verify
from rbmedian.instance import Solution, disjointify, evaluate, gen_euclidean
from rbmedian.local_search import SearchConfig, SwapMove, run

REL_TOL = 1e-9


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL - {label}")
        raise
    print(f"\nACCEPTANCE {num}: PASS - {label}")


def rel_close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_criterion_1_smallest_family_instance_exact():
    with criterion(1, "p=1, ell=2 family: local 11, optimum 3, ratio 11/3, < 1 s"):
        t0 = time.perf_counter()
        gap = build(GapParams(p=1, ell=2))
        local = evaluate(gap.instance, gap.local_solution).total
        opt = brute_force_opt(gap.instance)
        elapsed = time.perf_counter() - t0
        assert local == 11
        assert opt.cost == 3
        assert Fraction(local, opt.cost) == Fraction(11, 3)
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_2_single_swap_tightness_series():
    with criterion(2, "p=1, ell in {2,4,10,20}: no improving swap, ratio 7 - 10/(ell+1)"):
        for ell in (2, 4, 10, 20):
            t0 = time.perf_counter()
            gap = build(GapParams(p=1, ell=ell))
            report = verify(gap)
            elapsed = time.perf_counter() - t0
            assert report.checks["local_cost"] == "pass", (ell, report.checks)
            assert report.checks["global_cost"] == "pass", (ell, report.checks)
            assert report.checks["locally_optimal"] == "pass", (ell, report.checks)
            if ell <= 10:
                assert report.checks["global_is_optimum"] == "pass", (ell, report.checks)
            else:
                # the full scan is beyond the enumeration cap; the report
                # must say so rather than silently claim optimality
                assert report.checks["global_is_optimum"].startswith("skipped"), ell
            ratio = Fraction(report.local_cost, report.global_cost)
            assert ratio == 7 - Fraction(10, ell + 1), (ell, ratio)
            assert elapsed < 10.0, f"ell={ell} took {elapsed:.2f} s"


def test_criterion_3_double_swap_family():
    with criterion(3, "p=2, ell=4 family: local 76, optimum 20, 2-swap optimal, "
                      "zero-delta move is exactly zero, < 5 min"):
        t0 = time.perf_counter()
        gap = build(GapParams(p=2, ell=4))
        inst, lay = gap.instance, gap.layout
        local = evaluate(inst, gap.local_solution).total
        assert local == 76
        opt = brute_force_opt(inst)
        assert opt.cost == 20
        verdict = is_local_opt(inst, gap.local_solution, 2)
        assert verdict.locally_optimal, verdict.to_doc()
        # the knife-edge move: retire the hub and one middle red for two
        # left reference reds while trading two right local blues for one
        # middle section's reference blues; its delta must be exactly zero
        move = SwapMove(
            close_red=(lay.hub_red, lay.middle_reds[0]),
            open_red=(lay.left_reference_reds[0], lay.left_reference_reds[1]),
            close_blue=(lay.right_local_blues[0], lay.right_local_blues[1]),
            open_blue=(lay.middle_reference_blues[0][0], lay.middle_reference_blues[0][1]),
        )
        assert delta_cost(inst, evaluate(inst, gap.local_solution), move) == 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"took {elapsed:.2f} s"


def _random_budgets(rng, n_red, n_blue):
    while True:
        k_r = rng.randint(0, n_red)
        k_b = rng.randint(0, n_blue)
        if k_r + k_b >= 1:
            return k_r, k_b


def test_criterion_4_full_swap_search_equals_brute_force():
    with criterion(4, "full-swap search equals the brute-force optimum, 100/100"):
        rng = random.Random(20260401)
        matched = 0
        for case in range(100):
            n_red = rng.randint(1, 8)
            n_blue = rng.randint(1, 8)
            k_r, k_b = _random_budgets(rng, n_red, n_blue)
            n_clients = rng.randint(1, 15)
            if case < 50:
                inst = grid_instance(rng, n_clients, n_red, n_blue, k_r, k_b)
            else:
                inst = gen_euclidean(n_clients, n_red, n_blue, k_r, k_b,
                                     box_size=10.0, seed=case)
            p = max(k_r, k_b)
            result = run(inst, SearchConfig(p=p, epsilon=0.0, seed=case))
            opt = brute_force_opt(inst)
            if inst.space.integral:
                assert result.assignment.total == opt.cost, (case, result.assignment.total, opt.cost)
            else:
                # one evaluator for both solutions; summation-order noise
                # between evaluators is capped at the documented tolerance
                got = evaluate(inst, result.solution).total
                want = evaluate(inst, opt.solution).total
                assert got == want or rel_close(got, want), (case, got, want)
            matched += 1
        assert matched == 100


def test_criterion_5_search_output_is_locally_optimal():
    with criterion(5, "search output at epsilon=0 passes the exhaustive "
                      "local-optimality check, 100/100"):
        rng = random.Random(555)
        passed = 0
        for case in range(100):
            n_red = rng.randint(1, 6)
            n_blue = rng.randint(1, 6)
            k_r, k_b = _random_budgets(rng, n_red, n_blue)
            n_clients = rng.randint(1, 12)
            if case % 2 == 0:
                inst = grid_instance(rng, n_clients, n_red, n_blue, k_r, k_b)
            else:
                inst = gen_euclidean(n_clients, n_red, n_blue, k_r, k_b,
                                     box_size=5.0, seed=case)
            p = rng.randint(1, 3)
            result = run(inst, SearchConfig(p=p, epsilon=0.0, seed=case))
            verdict = is_local_opt(inst, result.solution, p)
            assert verdict.locally_optimal, (case, verdict.to_doc())
            passed += 1
        assert passed == 100


def test_criterion_6_block_partition_suite():
    with criterion(6, "block structure checks clean on 500 seeded solution pairs"):
        rng = random.Random(606)
        for case in range(500):
            n_red = rng.randint(1, 7)
            n_blue = rng.randint(1, 7)
            k_r, k_b = _random_budgets(rng, n_red, n_blue)
            inst = grid_instance(rng, rng.randint(1, 10), n_red, n_blue, k_r, k_b)
            s = random_feasible(rng, inst)
            o = random_feasible(rng, inst)
            inst, s, o = disjointify(inst, s, o)
            report = decompose(inst, s, o)
            assert report.block_report.ok, (case, report.block_report.to_doc())


def test_criterion_7_reassignment_bound_suite():
    with criterion(7, "anchor and centre reassignment bounds hold for every "
                      "client of 500 seeded instances"):
        rng = random.Random(707)
        for case in range(500):
            n_red = rng.randint(1, 7)
            n_blue = rng.randint(1, 7)
            k_r, k_b = _random_budgets(rng, n_red, n_blue)
            if case % 5 == 4:
                inst = gen_euclidean(rng.randint(1, 10), n_red, n_blue, k_r, k_b,
                                     box_size=3.0, seed=case)
            else:
                inst = grid_instance(rng, rng.randint(1, 10), n_red, n_blue, k_r, k_b)
            s = random_feasible(rng, inst)
            o = random_feasible(rng, inst)
            inst, s, o = disjointify(inst, s, o)
            phi = build_phi(inst, s, o)
            report = check_standard_bounds(inst, s, o, phi)
            assert report.ok, (case, report.to_doc())


def test_criterion_8_iteration_bound_with_threshold():
    with criterion(8, "epsilon=0.1 iteration counts stay within "
                      "ceil((n/eps) ln(c0/cf)) + 1 on 50 instances"):
        rng = random.Random(808)
        eps = 0.1
        for case in range(50):
            n_red = rng.randint(2, 7)
            n_blue = rng.randint(2, 7)
            k_r, k_b = _random_budgets(rng, n_red, n_blue)
            inst = grid_instance(rng, rng.randint(2, 12), n_red, n_blue, k_r, k_b)
            result = run(inst, SearchConfig(p=1, epsilon=eps, seed=case))
            c0, cf = result.trace[0], result.assignment.total
            if cf <= 0 or c0 <= 0:
                continue  # the log bound is vacuous at zero cost
            bound = math.ceil((inst.space.n / eps) * math.log(c0 / cf)) + 1
            assert result.iterations <= bound, (case, result.iterations, bound)


def test_criterion_9_empirical_ratio_report():
    from rbmedian.cli import run_experiment
    import io

    with criterion(9, "experiment harness: max observed ratio per swap size "
                      "reported; nothing exceeds 7 + 1e-9 at p=1"):
        spec = {
            "generate": {"count": 20, "seed": 100, "n_clients": 14, "n_red": 7,
                         "n_blue": 7, "k_r": 2, "k_b": 2, "box_size": 10.0},
            "p_values": [1, 2],
            "seeds": [0, 1],
        }
        rows = run_experiment(spec, io.StringIO())
        assert len(rows) == 20 * 2 * 2
        assert all(r["error"] == "" for r in rows)

        def as_float(text):
            return float(Fraction(text)) if "/" in text else float(text)

        worst = {}
        for r in rows:
            p = int(r["p"])
            worst[p] = max(worst.get(p, 0.0), as_float(r["ratio"]))
        print("\nmax observed ratio by swap size: "
              + ", ".join(f"p={p}: {worst[p]:.6f}" for p in sorted(worst)))
        if worst[2] > worst[1]:
            # an expectation, not a guarantee: note it, do not fail on it
            print("note: larger swaps observed a worse max ratio on this corpus")
        flagged = [r for r in rows
                   if int(r["p"]) == 1 and as_float(r["ratio"]) > 7 + 1e-9]
        assert not flagged, f"ratios beyond the single-swap regime: {flagged}"
