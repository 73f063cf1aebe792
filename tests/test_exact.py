"""Exact oracles: the lower bound, the brute-force optimum and local-optimality verdicts."""

import json
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rbmedian.exact as exact
from conftest import grid_instance, line_instance, random_feasible, random_sized_grid
from oracle import census, delta_cost, neighborhood, reference_brute_force, reference_island_table
from rbmedian.errors import CapExceeded
from rbmedian.exact import _exact_sum, brute_force_opt, is_local_opt, lower_bound
from rbmedian.gap_gen import GapParams, build
from rbmedian.instance import Instance, Solution, evaluate, gen_euclidean
import rbmedian.local_search as local_search
from rbmedian.local_search import (SearchConfig, SwapMove, _block_moves, _client_rows, _scan, _swap_sizes,
                                   neighborhood_size, run)
from rbmedian.metric import MetricSpace, from_graph


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
        # blocks end inside and across subset lists, so ties span blocks
        monkeypatch.setattr(local_search, "_block_moves", lambda n_clients: batch)
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


class TestBruteForceIsTheScan:
    """`brute_force_opt`, the swap scan from the empty solution, against
    `reference_brute_force`, the chunk loop it replaced: the same document,
    JSON text and all, at the shipped block size and at blocks of 1 and 6
    pairs, where red states fold in runs against streamed open sets."""

    @staticmethod
    def same_as_reference(inst, blocks=(None, 1, 6)):
        want = json.dumps(reference_brute_force(inst).to_doc())
        for block in blocks:
            with pytest.MonkeyPatch.context() as m:
                if block:
                    m.setattr(local_search, "_block_moves", lambda n_clients: block)
                got = brute_force_opt(inst)
                assert json.dumps(got.to_doc()) == want, block
        return got

    def test_two_distance_tables(self):
        rng = random.Random(0x2D15)
        for _ in range(40):
            self.same_as_reference(two_distance_instance(rng, rng.randint(1, 3)))

    def test_seeded_integer_grids(self):
        rng = random.Random(0x6A1D)
        for _ in range(30):
            self.same_as_reference(random_sized_grid(rng, max_clients=8, max_per_colour=6))

    def test_float_euclidean_tables(self):
        rng = random.Random(0xE0C1)
        for seed in range(30):
            n_red, n_blue = rng.randint(1, 6), rng.randint(1, 6)
            k_r = rng.randint(0, n_red)
            inst = gen_euclidean(rng.randint(0, 12), n_red, n_blue, k_r, rng.randint(0 if k_r else 1, n_blue),
                                 box_size=rng.choice([3.0, 100.0]), seed=seed)
            self.same_as_reference(inst)

    @pytest.mark.parametrize("inst", [
        line_instance([0, 4, 9], [], [1, 7, 3, 5], k_r=0, k_b=2),
        line_instance([0, 4, 9], [1, 7, 3, 5], [2], k_r=2, k_b=0),
        line_instance([0, 4, 9], [1, 7, 3], [2, 6, 8], k_r=0, k_b=2),
        line_instance([0, 4, 9], [1, 7, 3], [2, 6, 8], k_r=3, k_b=0),
        line_instance([], [1, 2, 3], [4, 5, 6], k_r=0, k_b=1),
        grid_instance(random.Random(8), 6, 5, 6, 0, 3),
        gen_euclidean(7, 4, 5, 0, 2, seed=9),
        gen_euclidean(0, 4, 5, 2, 0, seed=10),
    ], ids=lambda inst: f"{len(inst.clients)}-{inst.k_r}-of-{len(inst.red)}-{inst.k_b}-of-{len(inst.blue)}")
    def test_budget_zero_colours(self, inst):
        self.same_as_reference(inst)

    @pytest.mark.parametrize("p, ell", [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 4)])
    def test_family_members(self, p, ell):
        # (2,4)'s 3,695,120 pairs run at the shipped block size only
        gap = build(GapParams(p=p, ell=ell))
        assert self.same_as_reference(gap.instance, (None,) if p > 1 else (None, 1, 6)).solution == gap.global_solution

    def test_ties_across_red_runs_go_to_the_lowest_index(self, monkeypatch):
        # at blocks of 2 pairs, red 2 against blues 3 and 4 is priced before
        # red 1 against blues 5 and 6; both runs reach the least total 1,
        # which red 1 with blue 5 reaches first in canonical order
        inst = line_instance([0], [5, 1], [9, 9, 1, 9], k_r=1, k_b=1)
        monkeypatch.setattr(local_search, "_block_moves", lambda n_clients: 2)
        res = brute_force_opt(inst)
        assert (res.cost, res.solution) == (1, Solution(R={1}, B={5}))
        assert res.to_doc() == reference_brute_force(inst).to_doc()

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_pick_is_the_census_least(self, ell):
        # of every solution of least total, the lexicographically least (R, then B)
        inst = build(GapParams(p=1, ell=ell)).instance
        judged = census(inst, 1)
        least = min(total for total, _ in judged.values())
        want = min((sorted(sol.R), sorted(sol.B)) for sol, (total, _) in judged.items() if total == least)
        res = brute_force_opt(inst)
        assert (res.cost, sorted(res.solution.R), sorted(res.solution.B)) == (least, *want)


def scalar_bound(inst):
    """Independent reference: each client's nearest facility, one at a time."""
    d = inst.space.dist
    cast = int if inst.space.integral else Fraction
    return sum((cast(min(d[f, c].item() for f in inst.red + inst.blue)) for c in inst.clients),
               cast(0))


def exact_opt_cost(inst):
    """The brute-force optimum's distances summed without rounding."""
    return _exact_sum(evaluate(inst, brute_force_opt(inst).solution).distance)


@st.composite
def small_instances(draw):
    n_clients = draw(st.integers(0, 6))
    n_red, n_blue = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k_r = draw(st.integers(0, n_red))
    k_b = draw(st.integers(0 if k_r else 1, n_blue))
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        return gen_euclidean(n_clients, n_red, n_blue, k_r, k_b, box_size=50.0, seed=seed)
    return grid_instance(random.Random(seed), n_clients, n_red, n_blue, k_r, k_b)


class TestLowerBound:
    def check(self, inst):
        bound = lower_bound(inst)
        assert type(bound) is (int if inst.space.integral else Fraction)
        assert bound == scalar_bound(inst)
        assert bound <= exact_opt_cost(inst)

    def test_seeded_integer_and_float_corpora(self):
        rng = random.Random(0x10B0)
        for _ in range(60):
            self.check(random_sized_grid(rng, max_clients=7, max_per_colour=5))
        for seed in range(30):
            self.check(gen_euclidean(rng.randint(0, 9), rng.randint(1, 5), rng.randint(2, 5),
                                     1, rng.randint(0, 2), box_size=10.0, seed=seed))

    @given(small_instances())
    @settings(max_examples=80, deadline=None)
    def test_hypothesis_corpus(self, inst):
        self.check(inst)

    def test_single_colour_budgets(self):
        # the closed colour still counts, so the bound may fall below the optimum
        red_only = line_instance([0, 10], [1, 9], [4], k_r=1, k_b=0)
        assert lower_bound(red_only) == 1 + 1
        assert brute_force_opt(red_only).cost == 1 + 9
        blue_only = line_instance([0, 10], [1, 9], [4, 8], k_r=0, k_b=2)
        assert lower_bound(blue_only) == 1 + 1
        assert brute_force_opt(blue_only).cost == 4 + 2
        self.check(red_only)
        self.check(blue_only)

    def test_met_on_the_worst_case_family(self):
        from rbmedian.gap_gen import GapParams, build, expected_costs

        for p, ell in [(1, 2), (1, 10), (2, 4), (2, 6), (1, 20), (3, 30)]:
            params = GapParams(p=p, ell=ell)
            assert lower_bound(build(params).instance) == expected_costs(params)[1], (p, ell)


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
            assert delta_cost(inst, sol, verdict.witness) == verdict.witness_delta
            assert verdict.witness_delta < 0
            # no earlier move in canonical order improves
            for i, mv in enumerate(neighborhood(inst, sol, 1)):
                if i + 1 == verdict.moves_checked:
                    assert mv == verdict.witness
                    break
                assert delta_cost(inst, sol, mv) >= 0
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
        assert delta_cost(gap.instance, gap.local_solution, verdict.witness) == verdict.witness_delta < 0

    def test_cap_refusal(self):
        rng = random.Random(8)
        inst = grid_instance(rng, 3, 8, 8, 4, 4)
        with pytest.raises(CapExceeded):
            is_local_opt(inst, random_feasible(rng, inst), 4, cap=10)


def island_instance(rng: random.Random, n_islands: int, most: int = 3, clients: int = 4):
    """An integer `from_graph` instance of n_islands components, each a
    random tree plus one chord over its clients, reds and blues. Any
    component but the first may have no client, and isolated red and
    blue vertices are facilities with no client nearer than the sentinel.
    Budgets are drawn over all facilities, so they span the components.
    A component has up to `clients` clients and up to `most` facilities
    of each colour."""
    roles, edges = [], []
    for i in range(n_islands):
        members = []
        for role, low, high in (("client", 0 if i else 1, clients), ("red", 0, most), ("blue", 0, most)):
            members += [(role, len(roles) + len(members) + j) for j in range(rng.randint(low, high))]
        members = members or [("red", len(roles))]
        ids = [v for _, v in members]
        edges += [(ids[j], rng.choice(ids[:j]), rng.randint(0, 9)) for j in range(1, len(ids))]
        edges += [(rng.choice(ids), rng.choice(ids), rng.randint(0, 9))]
        roles += members
    roles += [("red", len(roles) + j) for j in range(rng.randint(0, 2))]
    roles += [("blue", len(roles) + j) for j in range(rng.randint(0, 2))]
    by_role = {role: [v for r, v in roles if r == role] for role in ("client", "red", "blue")}
    while True:
        k_r, k_b = rng.randint(0, len(by_role["red"])), rng.randint(0, len(by_role["blue"]))
        if k_r + k_b:
            break
    return Instance(space=from_graph(len(roles), edges), clients=by_role["client"],
                    red=by_role["red"], blue=by_role["blue"], k_r=k_r, k_b=k_b)


def two_distance_instance(rng: random.Random, n_groups: int):
    """Locations in n_groups groups at distances 1 or 2, which is always a
    metric: 1 for a random third of the pairs within a group, 2 for every
    other pair. Islands are the components of the distance-1 graph between
    facilities and clients, so they may take several steps to grow."""
    n = rng.randint(6, 14)
    group = [rng.randrange(n_groups) for _ in range(n)]
    dist = np.full((n, n), 2, dtype=np.int64)
    for u in range(n):
        for v in range(u):
            if group[u] == group[v] and rng.random() < 0.35:
                dist[u, v] = dist[v, u] = 1
    np.fill_diagonal(dist, 0)
    roles = [rng.choice(("client", "red", "blue")) for _ in range(n)]
    by_role = {role: [v for v in range(n) if roles[v] == role] for role in ("client", "red", "blue")}
    k_r, k_b = rng.randint(0, len(by_role["red"])), rng.randint(0, len(by_role["blue"]))
    if not k_r + k_b:
        return two_distance_instance(rng, n_groups)
    return Instance(space=MetricSpace(dist), clients=by_role["client"], red=by_role["red"],
                    blue=by_role["blue"], k_r=k_r, k_b=k_b)


def wide_instance(rng: random.Random, n_islands: int):
    """An `island_instance` of up to 5 facilities of each colour and 10
    clients a component, each budget half its colour: its neighborhood
    often spans several blocks, so the probe alone cannot decide it."""
    inst = island_instance(rng, n_islands, most=5, clients=10)
    k_r, k_b = len(inst.red) // 2, len(inst.blue) // 2
    return replace(inst, k_r=k_r, k_b=k_b) if k_r + k_b else inst


def scan_route(inst, sol, p):
    """`is_local_opt` with the island route turned off: the scan's verdict."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(exact, "_island_totals", lambda *args: None)
        return is_local_opt(inst, sol, p)


class TestIslandTables:
    """The island route against the full scan, kept as the oracle: the
    least delta over every move, and the verdict with its witness."""

    sides = None  # islands whose state pairs fit one block (True) or not (False)

    def same_tables(self, rows, fill, kinds, p):
        """`_island_table` at the block size, at 10^9, where every island is
        one product, and just below the island's state pairs, checked
        against `reference_island_table`, the two-route pricer it replaced:
        all equal entry for entry, in uint64."""
        per, pairs = exact._block_moves(rows.shape[1]), math.prod(exact._reach(n, p) for n in kinds)
        want = reference_island_table(rows, fill, kinds, p)
        for block in (per, 10**9, max(1, min(per, pairs - 1))):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(exact, "_block_moves", lambda n_clients: block)
                got = self.real_table(rows, fill, kinds, p)
            assert got.dtype == np.uint64 and np.array_equal(got, want), (kinds, block)
        self.sides[pairs <= per] += 1
        return want

    def check(self, inst, sol, p) -> bool:
        """Both routes agree; True if `is_local_opt` took the island route.
        Where the tables apply, whatever their pair count, each swap size's
        least delta is the scan's over that size alone, and every island
        table passes `same_tables`."""
        if self.sides is None:
            self.sides, self.real_table = Counter(), exact._island_table
        with pytest.MonkeyPatch.context() as m:
            m.setattr(exact, "_island_table", self.same_tables)
            totals = exact._island_totals(inst, _client_rows(inst), sol, p, math.inf, 10**9)
            if totals is not None:
                total = evaluate(inst, sol).total
                for a, b in _swap_sizes(inst, p):
                    least = _scan(inst, _client_rows(inst), sol, total, ((a, b),))[2] - total
                    assert int(totals[a, a, b, b]) - int(totals[0, 0, 0, 0]) == least, (a, b)
            verdict, scanned = is_local_opt(inst, sol, p), scan_route(inst, sol, p)
        assert verdict.to_doc() == scanned.to_doc()
        assert scanned.method == "enumeration"
        return verdict.method == "island tables"

    def test_seeded_corpus_random_and_locally_optimal(self):
        # five cases in six have neighborhoods that often pass one block, so
        # the probe alone does not decide their local optima; the sixth is a
        # tie-prone two-distance table
        rng = random.Random(0x151A)
        routes = Counter()
        for case in range(90):
            inst = (wide_instance, two_distance_instance)[case % 6 == 5](rng, rng.randint(2, 4))
            p = rng.randint(1, 3)
            local = run(inst, SearchConfig(p=p, seed=rng.randrange(100))).solution
            for sol in (random_feasible(rng, inst), local):
                routes[self.check(inst, sol, p), sol is local] += 1
        # the island route certified local optima and handed random solutions to the scan
        assert routes[True, True] >= 20 and routes[False, False] >= 20, routes

    @given(st.integers(0, 10**6), st.sampled_from([island_instance, two_distance_instance]),
           st.integers(2, 4), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_hypothesis_corpus(self, seed, make, n_islands, p):
        rng = random.Random(seed)
        inst = make(rng, n_islands)
        self.check(inst, random_feasible(rng, inst), p)

    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_small_blocks_agree(self, batch, monkeypatch):
        # close and open sets in runs of a few, and states folded where a
        # run's product exceeds the block (the scan keeps its own blocks)
        monkeypatch.setattr(exact, "_block_moves", lambda n_clients: batch)
        rng = random.Random(0xB10C + batch)
        for _ in range(12):
            inst = island_instance(rng, rng.randint(2, 3), most=6)
            self.check(inst, random_feasible(rng, inst), rng.randint(1, 3))
        assert self.sides[False]

    @pytest.mark.parametrize("make", [island_instance, two_distance_instance])
    def test_islands_on_both_sides_of_the_block(self, make, monkeypatch):
        # a block of 6 state pairs: some islands fit it and are priced as one
        # product, the rest are streamed; two-distance tables tie everywhere
        monkeypatch.setattr(exact, "_block_moves", lambda n_clients: 6)
        rng = random.Random(0x51DE)
        for _ in range(30):
            inst = make(rng, rng.randint(2, 4))
            self.check(inst, random_feasible(rng, inst), rng.randint(1, 3))
        assert self.sides[True] >= 5 and self.sides[False] >= 5, self.sides

    def test_float_tables_take_the_scan(self):
        inst = island_instance(random.Random(5), 3)
        edges = [(u, v, d + 0.5) for u in range(inst.space.n) for v in range(u)
                 if (d := int(inst.space.dist[u, v])) < inst.space.dist.max()]
        halves = replace(inst, space=from_graph(inst.space.n, edges))
        sol = random_feasible(random.Random(6), halves)
        assert exact._island_totals(halves, _client_rows(halves), sol, 2, math.inf, 10**9) is None
        assert is_local_opt(halves, sol, 2).method == "enumeration"

    def test_clientless_pool_is_one_table(self, monkeypatch):
        # two islands and 30 isolated facilities: one pool table, not 30 steps
        base = island_instance(random.Random(11), 2)
        n = base.space.n
        spare = list(range(n, n + 30))
        edges = [(u, v, int(base.space.dist[u, v])) for u in range(n) for v in range(u)
                 if base.space.dist[u, v] < base.space.dist.max()]
        inst = replace(base, space=from_graph(n + 30, edges), red=base.red + tuple(spare[::2]),
                       blue=base.blue + tuple(spare[1::2]), k_r=base.k_r + 2, k_b=base.k_b + 1)
        calls = []
        real = exact._min_plus
        monkeypatch.setattr(exact, "_min_plus", lambda *args: calls.append(1) or real(*args))
        sol = random_feasible(random.Random(12), inst)
        assert exact._island_totals(inst, _client_rows(inst), sol, 3, math.inf, 10**9) is not None
        assert 1 <= len(calls) <= 2  # one step per island, onto the pool's table
        self.check(inst, sol, 3)

    def test_improving_member_falls_back_to_the_canonical_scan(self, monkeypatch):
        # the (2, 6) designated solution with right local blue 61 traded for
        # middle reference blue 49: witness, delta and moves_checked as
        # recorded before the island route existed
        gap = build(GapParams(p=2, ell=6))
        lay = gap.layout
        blues = (set(gap.local_solution.B) - {lay.right_local_blues[0]}) | {lay.middle_reference_blues[0][0]}
        sol = Solution(gap.local_solution.R, blues)
        tables, judged = [], []  # judged: per `_scan` call, the deltas its accept saw
        real, real_scan = exact._island_totals, exact._scan
        monkeypatch.setattr(exact, "_island_totals", lambda *args: tables.append(real(*args)) or tables[-1])

        def spy(*args, **kwargs):
            seen, accept = [], args[5]
            judged.append(seen)
            return real_scan(*args[:5], lambda delta: seen.extend(delta.tolist()) or accept(delta), *args[6:], **kwargs)

        monkeypatch.setattr(exact, "_scan", spy)
        verdict = is_local_opt(gap.instance, sol, 2)
        # the tables ran, and found a better move than the scan's first
        assert int(tables[0][0, 0, 2, 2]) - int(tables[0][0, 0, 0, 0]) == -4
        assert verdict.method == "enumeration"
        assert verdict.to_doc() == {
            "locally_optimal": False, "moves_checked": 1391,
            "witness": {"close_red": [], "open_red": [], "close_blue": [62, 63],
                        "open_blue": [50, 75], "delta": -2}}
        # the probe judged the first block, 1,143 moves, and the fallback scan
        # the rest up to the witness's block, each move once: together they
        # saw what one scan from move 0 sees
        whole = []
        total = evaluate(gap.instance, sol).total
        real_scan(gap.instance, _client_rows(gap.instance), sol, total, _swap_sizes(gap.instance, 2),
                  lambda delta: whole.extend(delta.tolist()) or delta < 0)
        assert [len(seen) for seen in judged] == [1143, len(whole) - 1143]
        assert judged[0] + judged[1] == whole
        # between the tables' 766 state pairs and the scan's 161,081 moves,
        # the cap refuses the scan, as it did before
        with pytest.raises(CapExceeded, match="^161081 neighborhood moves exceed the cap of 1000;") as e:
            is_local_opt(gap.instance, sol, 2, cap=1000)
        assert e.value.method == "enumeration"
        # the designated solution's tables need 526 state pairs
        with pytest.raises(CapExceeded, match="^526 island state pairs exceed the cap of 525;") as e:
            is_local_opt(gap.instance, gap.local_solution, 2, cap=525)
        assert e.value.method == "island tables"
        assert is_local_opt(gap.instance, gap.local_solution, 2, cap=526).method == "island tables"

    def test_one_island_takes_the_scan(self):
        rng = random.Random(9)
        inst = grid_instance(rng, 8, 4, 4, 2, 2)
        sol = random_feasible(rng, inst)
        assert exact._island_totals(inst, _client_rows(inst), sol, 2, math.inf, 10**9) is None


class TestProbe:
    """The probe of the scan's first block against the forced full scan."""

    @staticmethod
    def full_scan(inst, sol, p):
        """(locally optimal, witness, delta, moves checked) of the whole scan."""
        total = evaluate(inst, sol).total
        found = _scan(inst, _client_rows(inst), sol, total, _swap_sizes(inst, p), lambda delta: delta < 0)
        if found is None:
            return True, None, None, neighborhood_size(inst, p)
        index, move, new_total = found
        return False, move, new_total - total, index + 1

    def test_seeded_random_and_locally_optimal(self):
        rng = random.Random(0x9B0E)
        decided = Counter()
        for case in range(60):
            inst = ((wide_instance, two_distance_instance)[case % 3 == 2](rng, rng.randint(2, 4)) if case % 4
                    else grid_instance(rng, rng.randint(20, 40), 10, 10, rng.randint(2, 4), rng.randint(2, 4)))
            p = rng.randint(1, 3)
            local = run(inst, SearchConfig(p=p, seed=rng.randrange(100))).solution
            for sol in (random_feasible(rng, inst), local):
                verdict = is_local_opt(inst, sol, p, cap=10**12)
                got = (verdict.locally_optimal, verdict.witness, verdict.witness_delta, verdict.moves_checked)
                assert got == self.full_scan(inst, sol, p)
                per = _block_moves(len(inst.clients))
                decided[verdict.method, verdict.moves_checked <= per] += 1
        # witnesses and whole neighborhoods within the probe, and beyond it
        assert decided["enumeration", True] >= 40 and decided["enumeration", False] >= 5, decided
        assert decided["island tables", False] >= 10, decided

    def test_never_prices_more_than_the_cap(self, monkeypatch):
        judged, real = [], exact._scan

        def spy(*args):
            if len(args) == 7:  # the probe, with its stop
                accept = args[5]
                args = (*args[:5], lambda delta: judged.append(len(delta)) or accept(delta), args[6])
            return real(*args)

        monkeypatch.setattr(exact, "_scan", spy)
        rng = random.Random(0xCA9)
        for case in range(60):
            inst = wide_instance(rng, rng.randint(2, 4)) if case % 2 else grid_instance(rng, 12, 6, 6, 3, 3)
            p, cap = rng.randint(1, 3), rng.randint(1, 3000)
            sol = random_feasible(rng, inst) if case % 3 else run(inst, SearchConfig(p=p)).solution
            judged.clear()
            try:
                verdict = is_local_opt(inst, sol, p, cap=cap)
            except CapExceeded:
                verdict = None
            assert sum(judged) <= min(cap, _block_moves(len(inst.clients)))
            if verdict is not None:
                assert verdict.moves_checked <= cap or verdict.locally_optimal

    def test_plans_only_the_leading_swap_sizes(self, monkeypatch):
        # at (3, 12) the first swap size, (0, 1), has 1,521 moves against 313
        # in a block, so the probe plans that size alone; the island tables
        # decide, and no scan of the 5.8 * 10^9 moves is planned
        gap = build(GapParams(p=3, ell=12))
        planned, real = [], local_search._plan
        monkeypatch.setattr(local_search, "_plan", lambda *args: planned.append(args[2]) or real(*args))
        verdict = is_local_opt(gap.instance, gap.local_solution, 3)
        assert verdict.method == "island tables" and verdict.moves_checked == 5_800_962_755
        assert planned == [((0, 1),)]
        assert _swap_sizes(gap.instance, 3)[0] == (0, 1) and _block_moves(len(gap.instance.clients)) == 313


class TestCensus:
    """`is_local_opt` against `census`, which judges every solution at once
    and shares no pricing code with it, at the block size and at blocks of 1
    and 6 moves, where the island tables are streamed and folded."""

    @staticmethod
    def agree(inst, p):
        judged = census(inst, p)
        for block in (None, 1, 6):
            with pytest.MonkeyPatch.context() as m:
                if block:
                    m.setattr(exact, "_block_moves", lambda n_clients: block)
                for sol, (total, local) in judged.items():
                    assert is_local_opt(inst, sol, p).locally_optimal == local, (sol, block)
        return judged

    @pytest.mark.parametrize("ell, solutions", [(2, 120), (3, 420), (4, 1512)])
    def test_family_members_have_two_local_optima(self, ell, solutions):
        # every 1-swap local optimum of these members is the designated
        # solution or the optimum, so the designated one is the worst;
        # `is_local_opt` is checked on every solution up to (1,3), as three
        # passes over (1,4)'s would take about 3 s
        gap = build(GapParams(p=1, ell=ell))
        judged = self.agree(gap.instance, 1) if ell < 4 else census(gap.instance, 1)
        assert len(judged) == solutions
        assert {sol for sol, (_, local) in judged.items() if local} == {gap.local_solution, gap.global_solution}
        assert judged[gap.global_solution][0] == min(total for total, _ in judged.values())

    @pytest.mark.parametrize("p", [2, 3])
    def test_seeded_island_instances(self, p):
        rng = random.Random(0xCE5 + p)
        for _ in range(6):
            inst = island_instance(rng, rng.randint(2, 3))
            judged = self.agree(inst, p)
            assert all(total == evaluate(inst, sol).total for sol, (total, _) in judged.items())


def test_island_tables_hold_no_side_whole():
    # the (3, 12) right island has 39 open blues and 9,139 close sets of 3;
    # its kept minima are built a block of close sets at a time, so a cold
    # `is_local_opt` (empty plan cache) stays small
    gap = build(GapParams(p=3, ell=12))
    local_search._plan.cache_clear()
    tracemalloc.start()
    try:
        verdict = is_local_opt(gap.instance, gap.local_solution, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.method == "island tables"
    assert peak < 4 * 2**20


def test_each_count_minima_built_once_per_pricing(monkeypatch):
    # a p = 2 island of 2 open and 2 spare facilities of each colour, at a
    # block of 5 state pairs: no whole tables, and each side's states fit a
    # block, so each side's table is built from its counts' minima. Sides
    # (1, 0), (1, 1) and (1, 2) share close count 1, yet each (count,
    # closed) key is built once; a close count of 2 keeps nothing, whose
    # minima are the fill, so of 12 keys 10 are built: each colour's open
    # count 0, one empty set, and 8 keys of distinct positions
    rows = np.random.default_rng(7).integers(0, 9, (8, 5))
    kinds, p, real, built = [2, 2, 2, 2], 2, local_search._subset_minima, []
    want = reference_island_table(rows, 9, kinds, p)

    def spy(rows, combos, *args):
        built.append(str(np.asarray(combos).tolist()))
        return real(rows, combos, *args)

    monkeypatch.setattr(exact, "_block_moves", lambda n_clients: 5)
    monkeypatch.setattr(local_search, "_subset_minima", spy)
    assert np.array_equal(exact._island_table(rows, 9, kinds, p), want)
    assert len(built) == 10 and built.count("[[]]") == 2 and len(set(built)) == 9


@pytest.mark.parametrize("p, ell, most", [(2, 40, 2.9), (2, 4, 2.15)])
def test_cold_peaks_of_the_fold(p, ell, most):
    # cold `tracemalloc` peaks in MiB of `is_local_opt` at (2,40) and of the
    # brute force at (2,4): the island tables fold held close sets out of
    # place, a red run at a time, and streamed ones in place; the brute
    # force folds all its red states against each run of open sets
    gap = build(GapParams(p=p, ell=ell))
    local_search._plan.cache_clear()
    tracemalloc.start()
    try:
        got = brute_force_opt(gap.instance) if ell == 4 else is_local_opt(gap.instance, gap.local_solution, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert getattr(got, "method", "island tables") == "island tables"
    assert peak <= most * 2**20, peak / 2**20
