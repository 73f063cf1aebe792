"""Exact oracles: a lower bound, the global optimum and local optimality.

A solution that costs `lower_bound` is optimal, with no search. The two
scans refuse instances whose enumeration exceeds a cap instead of running
forever. The optimum scan ranks red and blue subsets in lexicographic
order and keeps the pair of least (cost, red rank, blue rank), so among
all optimal solutions the lexicographically least (R, then B, by sorted
facility ids) is returned. Integer metrics are summed in int64, so the
choice is exact; the reported cost is `evaluate`'s total for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import comb

import numpy as np

from .errors import CapExceeded
from .instance import Instance, Solution, evaluate
from .local_search import (ConfigError, SwapMove, _block_moves, _client_rows, _scan,
                           _subset_minima, _swap_sizes, neighborhood_size)

DEFAULT_CAP = 10**8


@dataclass
class OptResult:
    solution: Solution
    cost: object  # int or float
    examined: int

    def to_doc(self) -> dict:
        return {
            "solution": self.solution.to_doc(),
            "cost": self.cost,
            "examined": self.examined,
        }


@dataclass
class LocalOptVerdict:
    locally_optimal: bool
    witness: SwapMove | None
    witness_delta: object
    moves_checked: int

    def to_doc(self) -> dict:
        doc = {"locally_optimal": self.locally_optimal, "moves_checked": self.moves_checked}
        if self.witness is not None:
            doc["witness"] = {**self.witness.to_doc(), "delta": self.witness_delta}
        return doc


def _refuse_over_cap(count: int, what: str, cap: int) -> None:
    if count > cap:
        raise CapExceeded(f"{count} {what} exceed the cap of {cap}; "
                          "raise the cap explicitly to force the scan")


def _exact_sum(values: np.ndarray):
    """The sum without rounding: an int for integer entries, else a Fraction."""
    exact = Fraction if values.dtype.kind == "f" else int
    return sum(map(exact, values.tolist()), exact(0))


def lower_bound(inst: Instance):
    """Each client's distance to its nearest facility of either colour,
    summed exactly. No solution costs less, as every client pays at least
    that; it is the natural LP's Lagrangian bound at v_j = that distance."""
    return _exact_sum(_client_rows(inst)[0].min(axis=0))


def brute_force_opt(inst: Instance, cap: int = DEFAULT_CAP) -> OptResult:
    """Scan every feasible (R, B) pair; refuse if there are more than cap.

    Blue subsets go in chunks of `width`, at most a block's worth
    (`_block_moves`), each chunk's per-client minima computed once; against
    each chunk, red subsets go in chunks that fill the block. A colour with
    budget 0 has one empty subset, whose minima are the fill value, so it
    never wins a client.
    """
    n_red = comb(len(inst.red), inst.k_r)
    n_blue = comb(len(inst.blue), inst.k_b)
    pairs = n_red * n_blue
    _refuse_over_cap(pairs, "candidate solutions", cap)

    rows, fill, _ = _client_rows(inst)  # rows of inst.red, then of inst.blue
    ids = inst.red + inst.blue
    per = _block_moves(len(inst.clients))
    width = min(n_blue, per)
    step = per // width
    blue_combos = combinations(range(len(inst.red), len(ids)), inst.k_b)
    best = None  # ((cost, red rank, blue rank), red subset, blue subset)
    for b_lo in range(0, n_blue, width):
        blues = list(islice(blue_combos, width))
        b_min = _subset_minima(rows, blues, fill)
        red_combos = combinations(range(len(inst.red)), inst.k_r)
        for r_lo in range(0, n_red, step):
            reds = list(islice(red_combos, step))
            totals = np.minimum(_subset_minima(rows, reds, fill)[:, None, :], b_min).sum(axis=-1)
            i_r, i_b = divmod(int(totals.argmin()), len(blues))
            key = (totals[i_r, i_b], r_lo + i_r, b_lo + i_b)
            if best is None or key < best[0]:
                best = (key, reds[i_r], blues[i_b])

    solution = Solution(*(frozenset(ids[x] for x in subset) for subset in best[1:]))
    return OptResult(solution, evaluate(inst, solution).total, pairs)


def is_local_opt(inst: Instance, sol: Solution, p: int, cap: int = DEFAULT_CAP) -> LocalOptVerdict:
    """Exhaustively certify local optimality under swaps of size at most p.

    Scans the canonical move order and returns on the first strictly
    improving move; zero-delta moves do not disqualify. For
    p >= max(k_r, k_b) the neighborhood reaches every feasible solution,
    so the verdict coincides with global optimality.
    """
    total = evaluate(inst, sol).total
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    size = neighborhood_size(inst, p)
    _refuse_over_cap(size, "neighborhood moves", cap)
    found = _scan(inst, _client_rows(inst), sol, total, _swap_sizes(inst, p), lambda delta: delta < 0)
    if found is None:
        return LocalOptVerdict(True, None, None, size)
    index, move, new_total = found
    return LocalOptVerdict(False, move, new_total - total, index + 1)
