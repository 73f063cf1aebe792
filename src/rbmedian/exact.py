"""Exact oracles: a lower bound, the global optimum and local optimality.

A solution that costs `lower_bound` is optimal, with no search. The two
scans, and `is_local_opt`'s island tables, refuse work beyond a cap
instead of running forever. The optimum scan ranks red and blue subsets
in lexicographic order and keeps the pair of least (cost, red rank, blue
rank), so among all optimal solutions the lexicographically least (R,
then B, by sorted facility ids) is returned. Integer metrics are summed
in int64, so the choice is exact; the reported cost is `evaluate`'s
total for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, islice
from math import comb, prod

import numpy as np

from .errors import CapExceeded
from .instance import Instance, Solution, evaluate
from .local_search import (ConfigError, SwapMove, _block_moves, _blocks, _client_rows, _scan,
                           _states, _subset_minima, _swap_sizes, neighborhood_size)

DEFAULT_CAP = 10**8

# "No state" in an island table: above every integer total, which
# Instance's guard keeps below 2^63, so a total plus it fits in uint64.
_NONE = np.uint64(1 << 63)


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
    method: str = "enumeration"  # or "island tables"; not part of the document

    def to_doc(self) -> dict:
        doc = {"locally_optimal": self.locally_optimal, "moves_checked": self.moves_checked}
        if self.witness is not None:
            doc["witness"] = {**self.witness.to_doc(), "delta": self.witness_delta}
        return doc


def _refuse_over_cap(count: int, what: str, cap: int, method: str) -> None:
    if count > cap:
        raise CapExceeded(f"{count} {what} exceed the cap of {cap}; "
                          "raise the cap explicitly to force the scan", method)


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
    _refuse_over_cap(pairs, "candidate solutions", cap, "brute force")

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


def _colour_sides(rows, fill, open_at, spare_at, p: int, per: int):
    """Yield one colour's states on one island, per count (a, b) of its
    open rows `open_at` closed and spare rows `spare_at` opened, each at
    most p, in runs of at most `per` close sets and open sets: ((a, b),
    the (kept, added, states) tables `_blocks` takes)."""
    for a in range(min(p, len(open_at)) + 1):
        closes = combinations(open_at, len(open_at) - a)  # what each close set keeps
        while kept := list(islice(closes, per)):
            kept = _subset_minima(rows, kept, fill)
            for b in range(min(p, len(spare_at)) + 1):
                opens = combinations(spare_at, b)
                while added := list(islice(opens, per)):
                    added = _subset_minima(rows, added, fill)
                    yield (a, b), (kept, added, _states(kept, added) if len(kept) * len(added) <= per else None)


def _island_table(rows, fill, kinds, p: int) -> np.ndarray:
    """Least new total of one island per count tuple (close red, open red,
    close blue, open blue), _NONE where no state has those counts. `rows`
    are its facility rows over its clients and `kinds` its open red, spare
    red, open blue and spare blue rows. Working arrays stay within a block,
    so the red states are built again for each run of blue ones."""
    per = _block_moves(rows.shape[1])
    table = np.full((p + 1,) * 4, _NONE)
    for b_counts, blue in _colour_sides(rows, fill, *kinds[2:], p, per):
        for r_counts, red in _colour_sides(rows, fill, *kinds[:2], p, per):
            least = min(int(new.sum(axis=-1).min()) for *_, new in _blocks(red, blue, per))
            at = r_counts + b_counts
            table[at] = min(int(table[at]), least)
    return table


def _min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The table of least a[s] + b[t] over count tuples s + t, one slice
    sum per count tuple of the sparser table."""
    if np.count_nonzero(a < _NONE) > np.count_nonzero(b < _NONE):
        a, b = b, a
    out = np.full_like(a, _NONE)
    for s in zip(*np.nonzero(a < _NONE)):
        head = tuple(slice(i, None) for i in s)
        np.minimum(out[head], a[s] + b[tuple(slice(len(a) - i) for i in s)], out=out[head])
    return np.minimum(out, _NONE)


def _island_totals(inst: Instance, client_rows, sol: Solution, p: int, size: int, cap: int):
    """Least new totals over the islands' clients per count tuple (close
    red, open red, close blue, open blue), summed from per-island tables;
    None for a float table, one of fewer than two islands, or one with no
    fewer state pairs than the `size` moves. The all-zero tuple is `sol`;
    `client_rows` is `_client_rows(inst)`.

    With M the greatest facility-to-client distance, islands are the
    components of d(f, c) < M. A client is at M from every facility off its
    island, and some facility is always open, so a move's delta is the sum
    of its islands' deltas, each set by what the move closes and opens
    there. Each island prices its red states against its blue states over
    its own clients, and a min-plus knapsack over count tuples sums the
    islands. Facilities at M from every client form one free pool.
    """
    if not inst.space.integral:
        return None
    rows, _, row_of = client_rows
    fill = rows.max(initial=0)
    near = rows < fill
    red, opened = np.arange(len(rows)) < len(inst.red), np.zeros(len(rows), dtype=bool)
    opened[row_of[list(sol.facilities())]] = True
    kinds = (red & opened, red & ~opened, ~red & opened, ~red & ~opened)
    islands, left = [], near.any(axis=1)
    pool = [int(np.count_nonzero(k & ~left)) for k in kinds]
    while left.any():
        fac, seen = np.arange(len(rows)) == left.argmax(), 0
        while fac.sum() > seen:
            seen, clients = fac.sum(), near[fac].any(axis=0)
            fac = near[:, clients].any(axis=1)
        islands.append(([np.flatnonzero(k[fac]) for k in kinds], np.ix_(fac, clients)))
        left &= ~fac
    reach = [sum(comb(n, a) for a in range(min(p, n) + 1)) for n in range(len(rows) + 1)]
    pairs = sum(prod(reach[len(at)] for at in kind_at) for kind_at, _ in islands)
    if len(islands) + any(pool) < 2 or pairs >= size:
        return None
    _refuse_over_cap(pairs, "island state pairs", cap, "island tables")
    free = np.full((p + 1,) * 4, _NONE)
    free[tuple(slice(min(p, n) + 1) for n in pool)] = 0
    return reduce(_min_plus, (_island_table(rows[own], fill, kind_at, p) for kind_at, own in islands), free)


def is_local_opt(inst: Instance, sol: Solution, p: int, cap: int = DEFAULT_CAP) -> LocalOptVerdict:
    """Exactly certify local optimality under swaps of size at most p.

    Where `_island_totals` applies and no swap size lowers its total, that
    is the verdict, by "island tables". Otherwise the scan of the canonical
    move order decides, by "enumeration", and returns on the first strictly
    improving move; zero-delta moves do not disqualify. Each route refuses
    what it counts beyond the cap. For p >= max(k_r, k_b) the neighborhood
    reaches every feasible solution, so the verdict coincides with global
    optimality.
    """
    total = evaluate(inst, sol).total
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    size, sizes, rows = neighborhood_size(inst, p), _swap_sizes(inst, p), _client_rows(inst)
    totals = _island_totals(inst, rows, sol, p, size, cap)
    if totals is not None and min(int(totals[a, a, b, b]) for a, b in sizes) >= int(totals[0, 0, 0, 0]):
        return LocalOptVerdict(True, None, None, size, "island tables")
    _refuse_over_cap(size, "neighborhood moves", cap, "enumeration")
    found = _scan(inst, rows, sol, total, sizes, lambda delta: delta < 0)
    if found is None:
        return LocalOptVerdict(True, None, None, size)
    index, move, new_total = found
    return LocalOptVerdict(False, move, new_total - total, index + 1)
