"""The block-pricing kernel against the scalar oracle in tests/oracle.py.

Integer metrics must agree exactly. Float metrics must agree within a
relative FLOAT_RTOL of the current cost, and the chosen move must match
whenever no competing delta or acceptance boundary lies that close.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rbmedian.local_search as ls
from conftest import grid_instance, line_instance, random_feasible, random_sized_grid
from oracle import delta_cost, oracle_accepts, oracle_moves, oracle_pick
from rbmedian.exact import is_local_opt
from rbmedian.instance import Solution, gen_euclidean
from rbmedian.local_search import SearchConfig

FLOAT_RTOL = 1e-9


def kernel_deltas(inst, assignment, p):
    """Every delta the kernel computes, in the order it computes them."""
    seen = []

    def record(deltas):
        seen.extend(deltas.tolist())
        return np.zeros(len(deltas), dtype=bool)

    groups = ls._swap_groups(inst, assignment.solution, p)
    assert ls._scan(inst, assignment, groups, record) is None
    return seen


def kernel_move_at(inst, assignment, p, target):
    """What the kernel reports for the move at canonical index `target`."""
    seen = 0

    def hit(deltas):
        nonlocal seen
        mask = np.zeros(len(deltas), dtype=bool)
        if seen <= target < seen + len(deltas):
            mask[target - seen] = True
        seen += len(deltas)
        return mask

    return ls._scan(inst, assignment, ls._swap_groups(inst, assignment.solution, p), hit)


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
    got = kernel_deltas(inst, assignment, p)
    assert len(got) == len(moves)
    for (mv, want), d in zip(moves, got):
        assert same(d, want), (mv, d, want)
        if inst.space.integral:
            assert type(d) is int

    # the move and index reported for a sample of positions
    targets = random.Random(len(moves)).sample(range(len(moves)), min(len(moves), 8))
    for target in sorted({0, len(moves) - 1, *targets} if moves else ()):
        index, move, delta = kernel_move_at(inst, assignment, p, target)
        assert (index, move) == (target, moves[target][0])
        assert same(delta, moves[target][1])

    # the move each rule picks
    for rule in ("best", "first"):
        for epsilon in (0.0, 0.3):
            pick = oracle_pick(moves, rule, oracle_accepts(inst, total, epsilon))
            if tol and near_tie(moves, pick, rule, total, epsilon, inst.space.n, tol):
                continue
            picked = ls._select_move(inst, assignment, SearchConfig(p=p, rule=rule, epsilon=epsilon))
            if pick is None:
                assert picked is None
            else:
                assert picked is not None and picked[0] == moves[pick][0]
                assert same(picked[1], moves[pick][1])

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


@pytest.fixture(params=[None, 3], ids=["batch-default", "batch-3"])
def batch(request, monkeypatch):
    """Run with the shipped batch size, and with one small enough that
    blocks split both across and within rows."""
    if request.param is not None:
        monkeypatch.setattr(ls, "_BATCH", request.param)


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
            picked = ls._select_move(inst, assignment, SearchConfig(rule=rule, epsilon=epsilon))
            assert (picked is not None) == accepted
            assert ls._select_move(inst, assignment, SearchConfig(rule=rule)) is not None


def test_delta_cost_matches_oracle_move_by_move():
    rng = random.Random(0xDC)
    for _ in range(15):
        inst = random_sized_grid(rng, max_clients=8, max_per_colour=5)
        sol = random_feasible(rng, inst)
        assignment, moves = oracle_moves(inst, sol, 2)
        for mv, want in moves:
            assert delta_cost(inst, assignment, mv) == want
