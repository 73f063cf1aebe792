"""Exhaustive oracles: global optimum and local-optimality certification.

Both refuse instances whose enumeration exceeds a cap instead of running
forever. The optimum scan visits red subsets in lexicographic order and,
per red subset, blue subsets in lexicographic order, keeping the first
minimum found, so among all optimal solutions the lexicographically least
(R, then B, by sorted facility ids) is returned. Integer metrics are
summed in int64, so reported costs are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

import numpy as np

from .errors import CapExceeded
from .instance import Instance, Solution, check_feasible, evaluate
from .local_search import _BATCH, SwapMove, _scan, _subset_minima, _swap_groups, neighborhood_size

DEFAULT_CAP = 10**8

# Precomputing per-subset minima for the inner colour is worth the memory
# only up to this bound; past it the scan streams in batches.
_MATERIALIZE_ENTRIES = 20_000_000


@dataclass
class OptResult:
    solution: Solution
    cost: object  # int or float
    examined: int

    def to_doc(self) -> dict:
        return {
            "solution": {"R": sorted(self.solution.R), "B": sorted(self.solution.B)},
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
            doc["witness"] = {
                "close_red": list(self.witness.close_red),
                "open_red": list(self.witness.open_red),
                "close_blue": list(self.witness.close_blue),
                "open_blue": list(self.witness.open_blue),
                "delta": self.witness_delta,
            }
        return doc


def brute_force_opt(inst: Instance, cap: int = DEFAULT_CAP) -> OptResult:
    """Scan every feasible (R, B) pair; refuse if there are more than cap."""
    n_red, n_blue = len(inst.red), len(inst.blue)
    pairs = comb(n_red, inst.k_r) * comb(n_blue, inst.k_b)
    if pairs > cap:
        raise CapExceeded(
            f"{pairs} candidate solutions exceed the cap of {cap}; "
            "raise the cap explicitly to force the scan"
        )

    red = list(inst.red)
    blue = list(inst.blue)
    clients = list(inst.clients)
    n_c = len(clients)
    dtype = np.int64 if inst.space.integral else np.float64

    if n_c == 0:
        first_r = tuple(red[: inst.k_r])
        first_b = tuple(blue[: inst.k_b])
        zero = 0 if inst.space.integral else 0.0
        return OptResult(Solution(R=frozenset(first_r), B=frozenset(first_b)), zero, pairs)

    D = inst.space.dist
    Dr = D[np.ix_(red, clients)].astype(dtype) if n_red else None
    Db = D[np.ix_(blue, clients)].astype(dtype) if n_blue else None

    def finish(cost, r_ids, b_ids):
        cost = int(cost) if inst.space.integral else float(cost)
        return OptResult(Solution(R=frozenset(r_ids), B=frozenset(b_ids)), cost, pairs)

    # Single-colour shortcuts keep the general path free of empty-set cases.
    if inst.k_r == 0:
        best_cost, best_idx = None, None
        it = combinations(range(n_blue), inst.k_b)
        while True:
            batch = list(islice(it, _BATCH))
            if not batch:
                break
            totals = _subset_minima(Db, batch).sum(axis=1)
            i = int(np.argmin(totals))
            if best_cost is None or totals[i] < best_cost:
                best_cost, best_idx = totals[i], batch[i]
        return finish(best_cost, (), tuple(blue[i] for i in best_idx))
    if inst.k_b == 0:
        best_cost, best_idx = None, None
        it = combinations(range(n_red), inst.k_r)
        while True:
            batch = list(islice(it, _BATCH))
            if not batch:
                break
            totals = _subset_minima(Dr, batch).sum(axis=1)
            i = int(np.argmin(totals))
            if best_cost is None or totals[i] < best_cost:
                best_cost, best_idx = totals[i], batch[i]
        return finish(best_cost, tuple(red[i] for i in best_idx), ())

    blue_count = comb(n_blue, inst.k_b)
    materialize = (
        blue_count * inst.k_b <= _MATERIALIZE_ENTRIES
        and blue_count * n_c <= _MATERIALIZE_ENTRIES
    )
    blue_combos_all = None
    bmin_all = None
    if materialize:
        blue_combos_all = list(combinations(range(n_blue), inst.k_b))
        bmin_all = np.empty((blue_count, n_c), dtype=dtype)
        for lo in range(0, blue_count, _BATCH):
            chunk = blue_combos_all[lo : lo + _BATCH]
            bmin_all[lo : lo + len(chunk)] = _subset_minima(Db, chunk)

    best_cost = None
    best_r, best_b = None, None
    for r_combo in combinations(range(n_red), inst.k_r):
        rmin = Dr[list(r_combo)].min(axis=0)
        if materialize:
            for lo in range(0, blue_count, _BATCH):
                bm = bmin_all[lo : lo + _BATCH]
                totals = np.minimum(bm, rmin[None, :]).sum(axis=1)
                i = int(np.argmin(totals))
                if best_cost is None or totals[i] < best_cost:
                    best_cost = totals[i]
                    best_r = r_combo
                    best_b = blue_combos_all[lo + i]
        else:
            it = combinations(range(n_blue), inst.k_b)
            while True:
                batch = list(islice(it, _BATCH))
                if not batch:
                    break
                bm = _subset_minima(Db, batch)
                totals = np.minimum(bm, rmin[None, :]).sum(axis=1)
                i = int(np.argmin(totals))
                if best_cost is None or totals[i] < best_cost:
                    best_cost = totals[i]
                    best_r = r_combo
                    best_b = batch[i]

    return finish(
        best_cost,
        tuple(red[i] for i in best_r),
        tuple(blue[i] for i in best_b),
    )


def is_local_opt(inst: Instance, sol: Solution, p: int, cap: int = DEFAULT_CAP) -> LocalOptVerdict:
    """Exhaustively certify local optimality under swaps of size at most p.

    Scans the canonical move order and returns on the first strictly
    improving move; zero-delta moves do not disqualify. For
    p >= max(k_r, k_b) the neighborhood reaches every feasible solution,
    so the verdict coincides with global optimality.
    """
    check_feasible(inst, sol)
    size = neighborhood_size(inst, p)
    if size > cap:
        raise CapExceeded(
            f"{size} neighborhood moves exceed the cap of {cap}; "
            "raise the cap explicitly to force the scan"
        )
    assignment = evaluate(inst, sol)
    found = _scan(inst, assignment, _swap_groups(inst, sol, p), lambda delta: delta < 0)
    if found is None:
        return LocalOptVerdict(True, None, None, size)
    index, move, delta = found
    return LocalOptVerdict(False, move, delta, index + 1)
