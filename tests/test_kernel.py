"""The block-pricing kernel against the scalar oracle in tests/oracle.py.

Integer metrics must agree exactly. Float metrics must agree within a
relative FLOAT_RTOL of the current cost, and the chosen move must match
whenever no competing delta or acceptance boundary lies that close.
"""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rbmedian.local_search as ls
from conftest import grid_instance, line_instance, random_feasible, random_sized_grid
from oracle import delta_cost, oracle_accepts, oracle_moves, oracle_pick
from rbmedian.exact import is_local_opt
from rbmedian.instance import Solution, evaluate, gen_euclidean
from rbmedian.local_search import SearchConfig

FLOAT_RTOL = 1e-9


def scan(inst, sol, p, accept=None):
    """`_scan` over sol's neighborhood, swaps of size at most p."""
    total = evaluate(inst, sol).total
    return ls._scan(inst, ls._client_rows(inst), sol, total, ls._swap_sizes(inst, p), accept)


def kernel_deltas(inst, sol, p):
    """Every delta the kernel computes, in the order it computes them."""
    seen = []

    def record(deltas):
        seen.extend(deltas.tolist())
        return np.zeros(len(deltas), dtype=bool)

    assert scan(inst, sol, p, record) is None
    return seen


def kernel_move_at(inst, sol, p, target):
    """What the kernel reports for the move at canonical index `target`."""
    seen = 0

    def hit(deltas):
        nonlocal seen
        mask = np.zeros(len(deltas), dtype=bool)
        if seen <= target < seen + len(deltas):
            mask[target - seen] = True
        seen += len(deltas)
        return mask

    index, move, new_total = scan(inst, sol, p, hit)
    return index, move, new_total - evaluate(inst, sol).total


def near_tie(moves, pick, rule, total, epsilon, n, tol):
    """Could float rounding change the pick? True when a competing delta,
    or a boundary of the acceptance test, lies within tol."""
    edges = [0.0] + ([(1.0 - epsilon / n) * total - total] if epsilon else [])
    deltas = [d for _mv, d in moves]
    if rule == "best":
        if not deltas:
            return False
        low = min(deltas)
        return (sum(abs(d - low) <= tol for d in deltas) > 1
                or any(abs(low - e) <= tol for e in edges))
    scanned = deltas if pick is None else deltas[: pick + 1]
    return any(abs(d - e) <= tol for d in scanned for e in edges)


def check_against_oracle(inst, sol, p):
    assignment, moves = oracle_moves(inst, sol, p)
    total = assignment.total
    tol = 0 if inst.space.integral else FLOAT_RTOL * max(1.0, abs(total))

    def same(got, want):
        return got == want if not tol else abs(got - want) <= tol

    # every move's delta, in canonical order
    got = kernel_deltas(inst, sol, p)
    assert len(got) == len(moves)
    for (mv, want), d in zip(moves, got):
        assert same(d, want), (mv, d, want)
        if inst.space.integral:
            assert type(d) is int

    # the move and index reported for a sample of positions
    targets = random.Random(len(moves)).sample(range(len(moves)), min(len(moves), 8))
    for target in sorted({0, len(moves) - 1, *targets} if moves else ()):
        index, move, delta = kernel_move_at(inst, sol, p, target)
        assert (index, move) == (target, moves[target][0])
        assert same(delta, moves[target][1])

    # the move each rule picks
    for rule in ("best", "first"):
        for epsilon in (0.0, 0.3):
            pick = oracle_pick(moves, rule, oracle_accepts(inst, total, epsilon))
            if tol and near_tie(moves, pick, rule, total, epsilon, inst.space.n, tol):
                continue
            picked = ls._select_move(inst, ls._client_rows(inst), sol, total, ls._swap_sizes(inst, p),
                                     SearchConfig(p=p, rule=rule, epsilon=epsilon))
            if pick is None:
                assert picked is None
            else:
                assert picked is not None and picked[0] == moves[pick][0]
                assert same(picked[1] - total, moves[pick][1])

    # the local-optimality verdict and its witness
    pick = oracle_pick(moves, "first", lambda d: d < 0)
    if tol and near_tie(moves, pick, "first", total, 0.0, inst.space.n, tol):
        return
    verdict = is_local_opt(inst, sol, p)
    if pick is None:
        assert verdict.locally_optimal and verdict.witness is None
        assert verdict.moves_checked == len(moves)
    else:
        assert not verdict.locally_optimal
        assert verdict.moves_checked == pick + 1
        assert verdict.witness == moves[pick][0]
        assert same(verdict.witness_delta, moves[pick][1])


# Moves per block, each forcing a different split of the reference group
# in test_block_sizes_force_each_split (and a mix of them in the corpora).
# At the shipped size the whole neighborhood is one block: 7 red states
# against 10 blue states, less the move that swaps nothing.
BLOCK_SPLITS = {
    None: [69],  # every group in one block
    2: [2, 1] * 18,  # within the open-blue axis
    3: [3] * 18,  # one close-blue set per block
    6: [6, 3] * 6,  # across close-blue sets
    27: [27, 27],  # across red states, against the whole blue-state table
}


@pytest.fixture(params=list(BLOCK_SPLITS), ids=lambda size: f"batch-{size or 'default'}")
def batch(request, monkeypatch):
    """Run with the shipped block size, and with ones small enough that
    blocks split within and across each axis of the canonical order."""
    if request.param is not None:
        monkeypatch.setattr(ls, "_block_moves", lambda n_clients: request.param)
    return request.param


def test_block_sizes_force_each_split(batch):
    # group (a, b) = (1, 1): 2 close_red x 3 open_red x 3 close_blue x 3 open_blue
    inst = line_instance([0, 13, 26], [1, 5, 9, 14, 20], [3, 8, 12, 17, 22, 25], k_r=2, k_b=3)
    sol = Solution(R={3, 4}, B={8, 9, 10})
    sizes = []

    def record(deltas):
        sizes.append(len(deltas))
        return np.zeros(len(deltas), dtype=bool)

    assert scan(inst, sol, 1, record) is None
    assert sum(sizes) == 9 + 6 + 54  # groups (0, 1), (1, 0), (1, 1)
    ends = np.cumsum(sizes).tolist()
    assert (sizes if batch is None else sizes[ends.index(15) + 1 :]) == BLOCK_SPLITS[batch]
    check_against_oracle(inst, sol, 1)


def test_seeded_integer_corpus(batch):
    rng = random.Random(0xB10C)
    for _ in range(40):
        inst = random_sized_grid(rng, max_clients=8, max_per_colour=5)
        check_against_oracle(inst, random_feasible(rng, inst), rng.randint(1, 3))


def test_seeded_float_corpus(batch):
    rng = random.Random(0xF10A7)
    for seed in range(20):
        n_red, n_blue = rng.randint(1, 6), rng.randint(1, 6)
        inst = gen_euclidean(rng.randint(1, 10), n_red, n_blue, rng.randint(1, n_red),
                             rng.randint(0, n_blue), box_size=100.0, seed=seed)
        check_against_oracle(inst, random_feasible(rng, inst), rng.randint(1, 2))


@st.composite
def instances(draw):
    n_red = draw(st.integers(0, 5))
    n_blue = draw(st.integers(0 if n_red else 1, 5))
    k_r = draw(st.integers(0 if n_blue else 1, n_red))
    k_b = draw(st.integers(0 if k_r else 1, n_blue))
    n_clients = draw(st.integers(0, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        inst = gen_euclidean(n_clients, n_red, n_blue, k_r, k_b, box_size=50.0, seed=seed)
    else:
        inst = grid_instance(random.Random(seed), n_clients, n_red, n_blue, k_r, k_b)
    sol = random_feasible(random.Random(seed), inst)
    return inst, sol, draw(st.integers(1, 4))


@settings(max_examples=80, deadline=None)
@given(instances())
def test_hypothesis_corpus(case):
    check_against_oracle(*case)


EDGE_CASES = {
    "no-red-budget": (line_instance([0, 5, 9], [2, 7], [1, 4, 8], k_r=0, k_b=2), 1),
    "no-blue-budget": (line_instance([0, 5, 9], [2, 7, 3], [1], k_r=2, k_b=0), 2),
    "p-above-budgets-and-pools": (line_instance([0, 3, 9], [1, 6], [2, 8, 11], k_r=1, k_b=2), 5),
    "empty-red-pool": (line_instance([0, 4], [1, 6], [3, 8], k_r=2, k_b=1), 2),
    "both-pools-empty": (line_instance([0, 4], [1, 6], [3], k_r=2, k_b=1), 1),
    "no-clients": (line_instance([], [1, 2, 3], [4, 5], k_r=1, k_b=1), 2),
    "no-clients-float": (gen_euclidean(0, 3, 3, 1, 2, seed=4), 2),
    "colocated-ties": (line_instance([0, 5], [2, 2, 2], [9, 9], k_r=1, k_b=1), 1),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases(name, batch):
    inst, p = EDGE_CASES[name]
    check_against_oracle(inst, Solution(R=set(inst.red[: inst.k_r]), B=set(inst.blue[: inst.k_b])), p)


def test_scan_from_a_first_move(batch):
    # from move `start` on, the scan judges exactly the full scan's deltas
    # from there, and picks as the full scan would among them
    rng = random.Random(0x57A7)
    for _ in range(12):
        inst = random_sized_grid(rng, max_clients=7, max_per_colour=5)
        sol, p = random_feasible(rng, inst), rng.randint(1, 2)
        total, deltas = evaluate(inst, sol).total, kernel_deltas(inst, sol, p)
        args = (inst, ls._client_rows(inst), sol, total, ls._swap_sizes(inst, p))
        for start in sorted({0, 1, len(deltas) // 2, max(len(deltas) - 1, 0), rng.randrange(len(deltas) + 1)}):
            seen = []
            ls._scan(*args, lambda d: seen.extend(d.tolist()) or np.zeros(len(d), dtype=bool), start=start)
            assert seen == deltas[start:]
            best = ls._scan(*args, start=start)
            if start < len(deltas):
                low = min(deltas[start:])
                assert best[0] == start + deltas[start:].index(low) and best[2] - total == low
            else:
                assert best is None


def empty_scan_totals(inst):
    """Every feasible (R, B)'s total in the order of the scan from the empty
    solution over the side pair ((0, k_r), (0, k_b)): red subset rank, then
    blue subset rank, as the brute force scans them."""
    return [evaluate(inst, Solution(R=set(R), B=set(B))).total
            for R in combinations(inst.red, inst.k_r) for B in combinations(inst.blue, inst.k_b)]


def scan_cases(rng, n, span=50):
    """(scan arguments, every move's new total in canonical order): a
    random solution's neighborhood, and the scan from the empty solution.
    The first instance's 6 red subsets against 10 blue ones fold in red
    runs against streamed open sets at blocks of 2 to 9 moves."""
    empty = Solution(R=set(), B=set())
    for case in range(n):
        n_red, n_blue = (4, 5) if not case else (rng.randint(1, 5), rng.randint(1, 5))
        k_r = 2 if not case else rng.randint(0, n_red)
        k_b = 2 if not case else rng.randint(0 if k_r else 1, n_blue)
        inst = grid_instance(rng, rng.randint(1, 7), n_red, n_blue, k_r, k_b, span)
        sol, p = random_feasible(rng, inst), rng.randint(1, 2)
        total, (_, moves) = evaluate(inst, sol).total, oracle_moves(inst, sol, p)
        yield (inst, ls._client_rows(inst), sol, total, ls._swap_sizes(inst, p)), [total + d for _mv, d in moves]
        sides = (((0, inst.k_r), (0, inst.k_b)),)
        yield (inst, ls._client_rows(inst), empty, 0, sides), empty_scan_totals(inst)


def test_blocks_sit_at_their_canonical_index(batch, monkeypatch):
    # Each block `_price` yields holds the moves from its canonical index,
    # its group's first move plus its offset, on; the blocks hold every move
    # once. A scan with `accept` sees them in canonical order; the best rule
    # takes red states in runs where a blue side is folded, out of order.
    blocks, plans, plan, price = [], [], ls._plan, ls._price
    monkeypatch.setattr(ls, "_plan", lambda *args: plans.append(plan(*args)) or plans[-1])

    def recorded(*args):
        for g, starts, totals, offset in price(*args):
            blocks.append((plans[-1][3][g] + offset, totals.tolist()))
            yield g, starts, totals, offset

    monkeypatch.setattr(ls, "_price", recorded)
    unordered = False
    for args, want in scan_cases(random.Random(0xB10C5), 25):
        for rule in ("best", "first"):
            seen, blocks[:] = [], []
            accept = None if rule == "best" else lambda d: seen.extend(d.tolist()) or np.zeros(len(d), dtype=bool)
            ls._scan(*args, accept)
            firsts = [index for index, _ in blocks]
            assert sorted(i for index, totals in blocks for i in range(index, index + len(totals))) == list(
                range(len(want)))
            assert all(totals == want[index : index + len(totals)] for index, totals in blocks)
            if rule == "first":
                assert firsts == sorted(firsts) and seen == [new - args[3] for new in want]
            unordered |= firsts != sorted(firsts)
    assert unordered == (batch in (2, 3, 6))


def test_red_runs_pick_as_runs_of_one(batch, monkeypatch):
    # On tie-prone tables (3 x 3 grids), the best rule over red runs picks
    # the (index, move, total) that runs of one red state pick, from any
    # first move: the least total, ties to the lowest index. In the last
    # case, at blocks of 2, red 1's least total 1 is priced before red 0's.
    price, tie = ls._price, line_instance([0], [5, 1], [9, 9, 1, 9], k_r=1, k_b=1)
    tie_args = (tie, ls._client_rows(tie), Solution(R=set(), B=set()), 0, (((0, 1), (0, 1)),))
    cases = [*scan_cases(random.Random(0x71E5), 30, span=3), (tie_args, [5, 5, 1, 5, 1, 1, 1, 1])]
    for args, want in cases:
        for start in sorted({0, 1, len(want) // 2}):
            picks = [ls._scan(*args, start=start)]
            with monkeypatch.context() as m:
                m.setattr(ls, "_price", lambda red, blue, steps, per, ordered: price(red, blue, steps, per, True))
                picks.append(ls._scan(*args, start=start))
            assert picks[0] == picks[1]
            if start < len(want):
                low = min(want[start:])
                assert picks[0][::2] == (start + want[start:].index(low), low)


def test_epsilon_test_is_exact_for_large_integers():
    # The bound is floor(A * (1 - Fraction(epsilon) / n)) for a current
    # cost A. At 2^55 float64 cannot tell one past the bound from the bound
    # itself; at 2^60 + 12345 the float product lands 28 below it.
    big = 2**60 + 12345
    at_big = 1124098466991687836
    assert at_big == math.floor(big * (1 - Fraction(0.1) / 4))
    assert at_big - math.floor((1.0 - 0.1 / 4) * big) == 28
    cases = [  # (current cost, cost after the swap, blue locations, epsilon, accepted)
        (2**55, int((1.0 - 0.3 / 3) * 2**55) + 1, [], 0.3, False),
        (big, at_big, [big], 0.1, True),
        (big, at_big + 1, [big], 0.1, False),
    ]
    for near, far, blue, epsilon, accepted in cases:
        inst = line_instance([0], [near, far], blue, k_r=1, k_b=0)
        sol = Solution(R={1}, B=set())
        assignment, moves = oracle_moves(inst, sol, 1)
        want = 0 if accepted else None
        for rule in ("best", "first"):
            assert oracle_pick(moves, rule, oracle_accepts(inst, near, epsilon)) == want
            rows, sizes = ls._client_rows(inst), ls._swap_sizes(inst, 1)
            args = (inst, rows, sol, assignment.total, sizes)
            picked = ls._select_move(*args, SearchConfig(rule=rule, epsilon=epsilon))
            assert (picked is not None) == accepted
            assert ls._select_move(*args, SearchConfig(rule=rule)) is not None


@pytest.mark.parametrize("n_clients, n_blue, k_b, p",
                         [(14, 7, 2, 2), (120, 20, 4, 1), (200, 8, 3, 2), (1000, 20, 3, 1)])
def test_priced_totals_are_evaluates(n_clients, n_blue, k_b, p):
    # A delta is the priced new total minus the current one; once the move
    # is made, `evaluate` must give that total bit for bit, whether its row
    # sat in a whole-table block, a per-group block or a folded one.
    inst = gen_euclidean(n_clients, 6, n_blue, 2, k_b, box_size=100.0, seed=n_clients)
    sol = ls._random_solution(inst, 0)
    assignment = evaluate(inst, sol)
    for target in random.Random(n_clients).sample(range(ls.neighborhood_size(inst, p)), 12):
        index, move, delta = kernel_move_at(inst, sol, p, target)
        assert evaluate(inst, ls.apply_move(sol, move)).total - assignment.total == delta


def test_delta_cost_matches_oracle_move_by_move():
    rng = random.Random(0xDC)
    for _ in range(15):
        inst = random_sized_grid(rng, max_clients=8, max_per_colour=5)
        sol = random_feasible(rng, inst)
        assignment, moves = oracle_moves(inst, sol, 2)
        for mv, want in moves:
            assert delta_cost(inst, sol, mv) == want


def test_scan_memory_is_bounded():
    # One colour, 72,144 moves at p=2: the scan holds each colour's close-set
    # and open-set minima plus a block, never a table of every state.
    inst = gen_euclidean(100, 0, 80, 0, 8, seed=1)
    sol = ls._random_solution(inst, 0)
    args = (inst, ls._client_rows(inst), sol, evaluate(inst, sol).total, ls._swap_sizes(inst, 2))
    assert ls.neighborhood_size(inst, 2) == 72144
    tracemalloc.start()
    try:
        ls._scan(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


@pytest.mark.parametrize("p, moves", [(1, 120), (2, 440)])
def test_sweep_shape_is_one_block_in_canonical_order(p, moves):
    # 14 clients, 7 red, 7 blue, k 2/2: every red state against every blue
    # state fits one block; accept sees the deltas once, canonical order
    for seed in range(3):
        inst = grid_instance(random.Random(seed), 14, 7, 7, 2, 2)
        sol = random_feasible(random.Random(seed), inst)
        calls = []

        def record(deltas):
            calls.append(deltas.tolist())
            return np.zeros(len(deltas), dtype=bool)

        _, want = oracle_moves(inst, sol, p)
        assert scan(inst, sol, p, record) is None
        assert calls == [[delta for _mv, delta in want]] and len(want) == moves


def test_per_group_blocks_give_the_same_outputs(monkeypatch):
    # Blocks too small for any run of groups (the blue table alone has 11 or
    # 21 states) take the per-group path; outputs must not change at all.
    cases = [(gen_euclidean(14, 7, 7, 2, 2, box_size=10.0, seed=seed), seed) for seed in range(4)]
    cases += [(grid_instance(random.Random(seed), 14, 7, 7, 2, 2), seed) for seed in range(4)]

    def outputs():
        got = []
        for inst, seed in cases:
            for p in (1, 2):
                for rule, epsilon in (("best", 0.0), ("first", 0.0), ("best", 0.3)):
                    result = ls.run(inst, SearchConfig(p=p, rule=rule, epsilon=epsilon, seed=seed))
                    got.append((result.trace, result.solution, result.termination))
                verdict = is_local_opt(inst, ls._random_solution(inst, seed), p)
                got.append((verdict.witness, verdict.witness_delta, verdict.moves_checked))
        return got

    shipped = outputs()
    monkeypatch.setattr(ls, "_block_moves", lambda n_clients: 10)
    assert outputs() == shipped
