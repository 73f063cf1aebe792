"""Exhaustive oracles: global optimum and local-optimality certification.

Both refuse instances whose enumeration exceeds a cap instead of running
forever. The optimum scan ranks red and blue subsets in lexicographic
order and keeps the pair of least (cost, red rank, blue rank), so among
all optimal solutions the lexicographically least (R, then B, by sorted
facility ids) is returned. Integer metrics are summed in int64, so the
choice is exact; the reported cost is `evaluate`'s total for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

import numpy as np

from .errors import CapExceeded
from .instance import Instance, Solution, evaluate
from .local_search import (_BATCH, ConfigError, SwapMove, _scan, _subset_minima, _swap_groups,
                           neighborhood_size)

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


def brute_force_opt(inst: Instance, cap: int = DEFAULT_CAP) -> OptResult:
    """Scan every feasible (R, B) pair; refuse if there are more than cap.

    Blue subsets go in chunks of `width`, each chunk's per-client minima
    computed once; against each chunk, red subsets go in chunks of
    _BATCH // width. A colour with budget 0 has one empty subset, whose
    minima are the fill value, so it never wins a client.
    """
    n_red = comb(len(inst.red), inst.k_r)
    n_blue = comb(len(inst.blue), inst.k_b)
    pairs = n_red * n_blue
    _refuse_over_cap(pairs, "candidate solutions", cap)

    rows = inst.space.dist[:, np.asarray(inst.clients, dtype=np.intp)]
    fill = np.iinfo(rows.dtype).max if inst.space.integral else np.inf
    width = min(n_blue, _BATCH)
    step = _BATCH // width
    blue_combos = combinations(inst.blue, inst.k_b)
    best = None  # ((cost, red rank, blue rank), red subset, blue subset)
    for b_lo in range(0, n_blue, width):
        blues = list(islice(blue_combos, width))
        b_min = _subset_minima(rows, blues, fill)
        red_combos = combinations(inst.red, inst.k_r)
        for r_lo in range(0, n_red, step):
            reds = list(islice(red_combos, step))
            totals = np.minimum(_subset_minima(rows, reds, fill)[:, None, :], b_min).sum(axis=-1)
            i_r, i_b = divmod(int(totals.argmin()), len(blues))
            key = (totals[i_r, i_b], r_lo + i_r, b_lo + i_b)
            if best is None or key < best[0]:
                best = (key, reds[i_r], blues[i_b])

    solution = Solution(R=frozenset(best[1]), B=frozenset(best[2]))
    return OptResult(solution, evaluate(inst, solution).total, pairs)


def is_local_opt(inst: Instance, sol: Solution, p: int, cap: int = DEFAULT_CAP) -> LocalOptVerdict:
    """Exhaustively certify local optimality under swaps of size at most p.

    Scans the canonical move order and returns on the first strictly
    improving move; zero-delta moves do not disqualify. For
    p >= max(k_r, k_b) the neighborhood reaches every feasible solution,
    so the verdict coincides with global optimality.
    """
    assignment = evaluate(inst, sol)
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    size = neighborhood_size(inst, p)
    _refuse_over_cap(size, "neighborhood moves", cap)
    found = _scan(inst, assignment, _swap_groups(inst, sol, p), lambda delta: delta < 0)
    if found is None:
        return LocalOptVerdict(True, None, None, size)
    index, move, delta = found
    return LocalOptVerdict(False, move, delta, index + 1)
