"""Exhaustive oracles: brute force optimum and local-optimality verdicts."""

import random
from itertools import combinations

import pytest

import rbmedian.exact as exact
from conftest import grid_instance, line_instance, random_feasible, random_sized_grid
from oracle import delta_cost, neighborhood
from rbmedian.errors import CapExceeded
from rbmedian.exact import brute_force_opt, is_local_opt
from rbmedian.instance import Solution, evaluate, gen_euclidean
from rbmedian.local_search import SwapMove


def naive_opt(inst):
    """Independent reference: plain nested enumeration through evaluate."""
    best = None
    for R in combinations(inst.red, inst.k_r):
        for B in combinations(inst.blue, inst.k_b):
            cost = evaluate(inst, Solution(R=set(R), B=set(B))).total
            if best is None or cost < best[0]:
                best = (cost, R, B)
    return best


class TestBruteForce:
    def test_forced_single_facility(self):
        inst = line_instance([0, 10], [4], [], k_r=1, k_b=0)
        res = brute_force_opt(inst)
        assert res.cost == 4 + 6
        assert res.solution == Solution(R={2}, B=set())
        assert res.examined == 1

    def test_agrees_with_naive_enumeration(self):
        rng = random.Random(0xABCD)
        for _ in range(40):
            inst = random_sized_grid(rng, max_clients=7, max_per_colour=5)
            cost, R, B = naive_opt(inst)
            res = brute_force_opt(inst)
            assert res.cost == cost
            assert res.solution == Solution(R=set(R), B=set(B))

    def test_lexicographically_least_among_ties(self):
        # all four facilities equivalent: every pair costs the same
        inst = line_instance([0], [0, 0], [0, 0], k_r=1, k_b=1)
        res = brute_force_opt(inst)
        assert res.cost == 0
        assert res.solution == Solution(R={1}, B={3})

    def test_blue_only_instance(self):
        inst = line_instance([0, 4], [], [1, 7], k_r=0, k_b=1)
        res = brute_force_opt(inst)
        assert res.cost == 1 + 3
        assert res.solution == Solution(R=set(), B={2})

    def test_red_only_instance(self):
        inst = line_instance([0, 4], [1, 7], [], k_r=1, k_b=0)
        assert brute_force_opt(inst).cost == 4

    def test_examined_counts_all_pairs(self):
        rng = random.Random(3)
        inst = grid_instance(rng, 3, 4, 5, 2, 2)
        assert brute_force_opt(inst).examined == 6 * 10

    def test_cap_refusal(self):
        rng = random.Random(4)
        inst = grid_instance(rng, 3, 10, 10, 5, 5)
        with pytest.raises(CapExceeded):
            brute_force_opt(inst, cap=100)

    def test_gap_small_case_optimum(self):
        from rbmedian.gap_gen import GapParams, build

        gap = build(GapParams(p=1, ell=2))
        res = brute_force_opt(gap.instance)
        assert res.cost == 3
        assert res.solution == gap.global_solution

    def test_float_instance_matches_naive(self):
        from rbmedian.instance import gen_euclidean

        for seed in range(5):
            inst = gen_euclidean(6, 3, 3, 1, 2, seed=seed)
            cost, R, B = naive_opt(inst)
            res = brute_force_opt(inst)
            assert res.cost == pytest.approx(cost, rel=1e-12)
            assert res.solution == Solution(R=set(R), B=set(B))

    def test_float_cost_is_evaluate_total(self):
        for seed in range(30):
            inst = gen_euclidean(14, 7, 7, 2, 2, box_size=10.0, seed=seed)
            res = brute_force_opt(inst)
            assert res.cost == evaluate(inst, res.solution).total

    @pytest.mark.parametrize("batch", [1, 3, 7])
    def test_small_batches_agree_with_naive(self, batch, monkeypatch):
        # chunks end inside and across subset lists, so ties span chunks
        monkeypatch.setattr(exact, "_BATCH", batch)
        rng = random.Random(0xBA7C + batch)
        cases = [random_sized_grid(rng, max_clients=6, max_per_colour=5) for _ in range(40)]
        cases += [
            line_instance([0, 4, 9], [], [1, 7, 3, 5], k_r=0, k_b=2),
            line_instance([0, 4, 9], [1, 7, 3, 5], [2], k_r=2, k_b=0),
            line_instance([0, 4, 9], [1, 7, 3], [2, 6, 8], k_r=0, k_b=2),
            line_instance([], [1, 2, 3], [4, 5, 6], k_r=2, k_b=1),
            line_instance([0, 5], [2, 2, 2], [2, 2, 2], k_r=2, k_b=2),
            line_instance([3], [3, 3, 3, 3], [3, 3], k_r=2, k_b=1),
            # optimal at (red 2, blue 5) and (red 3, blue 4): the first comes
            # first lexicographically, the second in a blue-major scan
            line_instance([0, 10], [0, 10], [0, 10], k_r=1, k_b=1),
        ]
        for inst in cases:
            cost, R, B = naive_opt(inst)
            res = brute_force_opt(inst)
            assert res.cost == cost
            assert res.solution == Solution(R=set(R), B=set(B))


class TestIsLocalOpt:
    def test_global_optimum_is_locally_optimal_at_any_p(self):
        rng = random.Random(5)
        for _ in range(10):
            inst = random_sized_grid(rng, max_clients=6, max_per_colour=4)
            opt = brute_force_opt(inst)
            for p in (1, 2, 3):
                assert is_local_opt(inst, opt.solution, p).locally_optimal

    def test_witness_is_canonical_first_and_actually_improves(self):
        rng = random.Random(6)
        found = 0
        for _ in range(40):
            inst = random_sized_grid(rng, max_clients=8, max_per_colour=5)
            sol = random_feasible(rng, inst)
            verdict = is_local_opt(inst, sol, 1)
            if verdict.locally_optimal:
                continue
            found += 1
            a = evaluate(inst, sol)
            assert delta_cost(inst, a, verdict.witness) == verdict.witness_delta
            assert verdict.witness_delta < 0
            # no earlier move in canonical order improves
            for i, mv in enumerate(neighborhood(inst, sol, 1)):
                if i + 1 == verdict.moves_checked:
                    assert mv == verdict.witness
                    break
                assert delta_cost(inst, a, mv) >= 0
        assert found > 10

    def test_full_swap_verdict_equals_global_optimality(self):
        rng = random.Random(7)
        for _ in range(20):
            inst = random_sized_grid(rng, max_clients=6, max_per_colour=4)
            p = max(1, inst.k_r, inst.k_b)
            opt_cost = brute_force_opt(inst).cost
            sol = random_feasible(rng, inst)
            verdict = is_local_opt(inst, sol, p)
            assert verdict.locally_optimal == (evaluate(inst, sol).total == opt_cost)

    def test_zero_delta_moves_do_not_disqualify(self):
        # two co-located reds: swapping them changes nothing
        inst = line_instance([0, 5], [2, 2], [9], k_r=1, k_b=1)
        sol = Solution(R={2}, B={4})
        verdict = is_local_opt(inst, sol, 1)
        assert verdict.locally_optimal

    def test_gap_small_case_improvable_at_larger_p(self):
        from rbmedian.gap_gen import GapParams, build

        gap = build(GapParams(p=1, ell=2))
        verdict = is_local_opt(gap.instance, gap.local_solution, 2)
        assert not verdict.locally_optimal
        a = evaluate(gap.instance, gap.local_solution)
        assert delta_cost(gap.instance, a, verdict.witness) == verdict.witness_delta < 0

    def test_cap_refusal(self):
        rng = random.Random(8)
        inst = grid_instance(rng, 3, 8, 8, 4, 4)
        with pytest.raises(CapExceeded):
            is_local_opt(inst, random_feasible(rng, inst), 4, cap=10)
