"""Swap moves, neighborhood enumeration, and the search loop."""

import dataclasses
import math
import random
from itertools import combinations

import numpy as np
import pytest

from conftest import grid_instance, line_instance, random_feasible, random_sized_grid
from oracle import delta_cost, neighborhood
from rbmedian.exact import is_local_opt
from rbmedian.instance import Instance, Solution, evaluate, gen_euclidean
from rbmedian.local_search import (
    ConfigError,
    SearchConfig,
    SwapMove,
    apply_move,
    neighborhood_size,
    run,
)
from rbmedian.metric import MetricSpace


def random_move(rng, inst, sol):
    a = rng.randint(0, min(len(sol.R), len(inst.red_set - sol.R)))
    b = rng.randint(0, min(len(sol.B), len(inst.blue_set - sol.B)))
    return SwapMove(
        close_red=tuple(rng.sample(sorted(sol.R), a)),
        open_red=tuple(rng.sample(sorted(inst.red_set - sol.R), a)),
        close_blue=tuple(rng.sample(sorted(sol.B), b)),
        open_blue=tuple(rng.sample(sorted(inst.blue_set - sol.B), b)),
    )


class TestDeltaCost:
    def test_empty_move_is_zero(self):
        inst = line_instance([0, 3], [1, 9], [12], k_r=1, k_b=1)
        assert delta_cost(inst, Solution(R={2}, B={4}), SwapMove()) == 0

    def test_single_client_swap_matches_distance_difference(self):
        inst = line_instance([0], [2, 9], [30], k_r=1, k_b=0)
        mv = SwapMove(close_red=(1,), open_red=(2,))
        assert delta_cost(inst, Solution(R={1}, B=set()), mv) == (9 - 2)

    def test_matches_scratch_reevaluation_on_1000_random_triples(self):
        rng = random.Random(0xDE1)
        for _ in range(1000):
            inst = random_sized_grid(rng, max_clients=8, max_per_colour=5)
            sol = random_feasible(rng, inst)
            mv = random_move(rng, inst, sol)
            expected = evaluate(inst, apply_move(sol, mv)).total - evaluate(inst, sol).total
            assert delta_cost(inst, sol, mv) == expected


class TestNeighborhood:
    def test_minimal_instance_single_move(self):
        inst = line_instance([0], [1, 2], [], k_r=1, k_b=0)
        sol = Solution(R={1}, B=set())
        moves = list(neighborhood(inst, sol, 1))
        assert moves == [SwapMove(close_red=(1,), open_red=(2,))]
        assert neighborhood_size(inst, 1) == 1

    def test_count_matches_closed_form(self):
        # 2-of-4 red and 3-of-6 blue at p=1: (1 + 2*2) * (1 + 3*3) - 1 = 49
        rng = random.Random(1)
        inst = grid_instance(rng, 4, 4, 6, 2, 3)
        sol = random_feasible(rng, inst)
        moves = list(neighborhood(inst, sol, 1))
        assert len(moves) == 49
        assert neighborhood_size(inst, 1) == 49

    def test_count_matches_enumeration_at_larger_p(self):
        rng = random.Random(2)
        for p in (1, 2, 3):
            inst = random_sized_grid(rng, max_clients=3, max_per_colour=5)
            sol = random_feasible(rng, inst)
            assert neighborhood_size(inst, p) == sum(1 for _ in neighborhood(inst, sol, p))

    def test_canonical_order_sizes_ascending_then_lexicographic(self):
        inst = line_instance([0], [10, 20, 30], [40, 50], k_r=1, k_b=1)
        sol = Solution(R={1}, B={4})
        moves = list(neighborhood(inst, sol, 1))
        sizes = [(len(m.close_red), len(m.close_blue)) for m in moves]
        assert sizes == sorted(sizes)
        keys = [
            (len(m.close_red), len(m.close_blue),
             m.close_red, m.open_red, m.close_blue, m.open_blue)
            for m in moves
        ]
        assert keys == sorted(keys)

    def test_every_move_valid_and_distinct(self):
        rng = random.Random(3)
        inst = random_sized_grid(rng, max_clients=3, max_per_colour=5)
        sol = random_feasible(rng, inst)
        moves = list(neighborhood(inst, sol, 2))
        assert len(set(moves)) == len(moves)
        for mv in moves:
            for close, open_, current, pool in ((mv.close_red, mv.open_red, sol.R, inst.red_set),
                                                (mv.close_blue, mv.open_blue, sol.B, inst.blue_set)):
                assert len(close) == len(open_)
                assert list(close) == sorted(set(close)) and list(open_) == sorted(set(open_))
                assert set(close) <= current and set(open_) <= pool - current
            assert 0 < len(mv.close_red) + len(mv.close_blue)
            assert len(mv.close_red) <= 2 and len(mv.close_blue) <= 2


class TestRun:
    def test_designated_gap_solution_is_a_fixed_point(self):
        from rbmedian.gap_gen import GapParams, build

        gap = build(GapParams(p=1, ell=2))
        res = run(gap.instance, SearchConfig(p=1, epsilon=0.0), initial=gap.local_solution)
        assert res.iterations == 0
        assert res.cost == 11
        assert res.termination == "local-optimum"
        assert res.trace == [11]

    def test_trace_strictly_decreasing(self):
        rng = random.Random(4)
        for seed in range(25):
            inst = random_sized_grid(rng)
            res = run(inst, SearchConfig(p=1, seed=seed))
            assert all(a > b for a, b in zip(res.trace, res.trace[1:]))
            assert res.trace[-1] == evaluate(inst, res.solution).total
            assert len(res.trace) == res.iterations + 1

    def test_float_traces_strictly_decrease(self):
        # Random float line instances, with near ties: each accepted move
        # lowers the cost `evaluate` reports, and a stop is a local optimum.
        rng = random.Random(0xF1A7)
        for _ in range(300):
            n_c, n_r, n_b = rng.randint(3, 12), rng.randint(2, 5), rng.randint(2, 5)
            xs = [rng.randint(0, 30) / 10 for _ in range(n_c + n_r + n_b)]
            inst = Instance(MetricSpace(np.abs(np.subtract.outer(xs, xs))), tuple(range(n_c)),
                            tuple(range(n_c, n_c + n_r)), tuple(range(n_c + n_r, len(xs))),
                            rng.randint(1, n_r - 1), rng.randint(1, n_b - 1))
            config = SearchConfig(p=rng.randint(1, 2), rule=rng.choice(["best", "first"]),
                                  seed=rng.randrange(10**4))
            result = run(inst, config)
            assert all(a > b for a, b in zip(result.trace, result.trace[1:])), result.trace
            assert is_local_opt(inst, result.solution, config.p).locally_optimal

    def test_result_is_locally_optimal(self):
        from rbmedian.exact import is_local_opt

        rng = random.Random(5)
        for seed in range(15):
            inst = random_sized_grid(rng, max_clients=8, max_per_colour=5)
            res = run(inst, SearchConfig(p=1, seed=seed))
            assert is_local_opt(inst, res.solution, 1).locally_optimal

    def test_full_swap_power_reaches_global_optimum(self):
        from rbmedian.exact import brute_force_opt

        rng = random.Random(6)
        for seed in range(10):
            inst = random_sized_grid(rng, max_clients=8, max_per_colour=5)
            p = max(1, inst.k_r, inst.k_b)
            res = run(inst, SearchConfig(p=p, seed=seed))
            assert res.cost == brute_force_opt(inst).cost

    def test_first_improvement_agrees_on_final_local_optimality(self):
        from rbmedian.exact import is_local_opt

        rng = random.Random(7)
        inst = random_sized_grid(rng)
        res = run(inst, SearchConfig(p=1, rule="first", seed=1))
        assert is_local_opt(inst, res.solution, 1).locally_optimal

    def test_deterministic_across_repeats(self):
        rng = random.Random(8)
        for seed in range(5):
            inst = random_sized_grid(rng)
            for rule in ("best", "first"):
                config = SearchConfig(p=2, rule=rule, seed=seed)
                base = run(inst, config)
                again = run(inst, config)
                assert base.solution == again.solution
                assert base.trace == again.trace

    @pytest.mark.parametrize("n_clients, n_colour, k, p", [(14, 7, 2, 2), (120, 20, 4, 1), (60, 10, 3, 2)])
    def test_trace_prefixes_are_evaluates(self, n_clients, n_colour, k, p):
        # run carries each accepted move's priced total: stopped after t
        # moves, it must hold a solution that evaluate costs at trace[t]
        # exactly, floats included
        shape = (n_clients, n_colour, n_colour, k, k)
        for inst in (gen_euclidean(*shape, box_size=100.0, seed=n_clients),
                     grid_instance(random.Random(n_clients), *shape)):
            for rule in ("best", "first"):
                for epsilon in (0.0, 0.3):
                    config = SearchConfig(p=p, rule=rule, epsilon=epsilon, seed=1)
                    trace = run(inst, config).trace
                    for t in range(len(trace)):
                        stopped = run(inst, dataclasses.replace(config, max_iters=t))
                        assert stopped.trace == trace[: t + 1]
                        assert evaluate(inst, stopped.solution).total == trace[t]

    def test_iteration_cap_reported(self):
        rng = random.Random(10)
        inst = grid_instance(rng, 12, 6, 6, 3, 3)
        res = run(inst, SearchConfig(p=1, seed=0, max_iters=1))
        if res.iterations == 1 and res.termination == "iteration-cap":
            assert len(res.trace) == 2
        else:
            # landed on a local optimum in a single step; cap untouched
            assert res.termination == "local-optimum"

    def test_infeasible_initial_rejected(self):
        inst = line_instance([0], [1, 2], [3], k_r=1, k_b=1)
        from rbmedian.instance import InfeasibleSolutionError

        with pytest.raises(InfeasibleSolutionError):
            run(inst, SearchConfig(p=1), initial=Solution(R={1, 2}, B={3}))

    def test_threshold_rule_bounds_iterations(self):
        rng = random.Random(11)
        for seed in range(10):
            inst = random_sized_grid(rng)
            eps = 0.25
            res = run(inst, SearchConfig(p=1, epsilon=eps, seed=seed))
            c0, cf = res.trace[0], res.trace[-1]
            if cf > 0 and c0 > cf:
                bound = math.ceil((inst.space.n / eps) * math.log(c0 / cf)) + 1
                assert res.iterations <= bound

    def test_threshold_never_accepts_underwhelming_moves(self):
        rng = random.Random(12)
        for seed in range(10):
            inst = random_sized_grid(rng)
            eps = 0.5
            res = run(inst, SearchConfig(p=1, epsilon=eps, seed=seed))
            scale = 1.0 - eps / inst.space.n
            for prev, nxt in zip(res.trace, res.trace[1:]):
                assert nxt <= scale * prev

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            SearchConfig(p=0)
        with pytest.raises(ConfigError):
            SearchConfig(epsilon=1.0)
        with pytest.raises(ConfigError):
            SearchConfig(rule="steepest")
