"""Exact oracles: a lower bound, the global optimum and local optimality.

A solution that costs `lower_bound` is optimal, with no search. The two
scans, and `is_local_opt`'s island tables, refuse work beyond a cap
instead of running forever; the swap scan's plan and pricer price the
tables too. The optimum scan ranks red and blue subsets in lexicographic
order and keeps the pair of least (cost, red rank, blue rank), so among
all optimal solutions the lexicographically least (R, then B, by sorted
facility ids) is returned. Integer metrics are summed in int64, so the
choice is exact; the reported cost is `evaluate`'s total for it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, combinations, islice, product
from math import comb, inf, prod

import numpy as np

from .errors import CapExceeded
from .instance import Instance, Solution, evaluate
from .local_search import (_BLOCK_ENTRIES, ConfigError, SwapMove, _block_moves, _client_rows, _Colour, _plan, _price,
                           _scan, _size_moves, _subset_minima, _swap_sizes)

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


def _reach(n: int, p: int) -> int:  # subsets of at most p of n facilities
    return sum(comb(n, a) for a in range(min(p, n) + 1))


def _island_table(rows, fill, kinds, p: int) -> np.ndarray:
    """Least new total of one island per count tuple (close red, open red,
    close blue, open blue), _NONE where no state has those counts. `rows`
    are its facility rows over its clients, in `kinds` runs: open red,
    spare red, open blue, spare blue. Its plan's groups are every red side
    against every blue side, all (close, open) count pairs up to p."""
    per, table, reach = _block_moves(rows.shape[1]), np.full((p + 1,) * 4, _NONE), [min(p, n) + 1 for n in kinds]
    groups = tuple(product(*(tuple(product(range(reach[c]), range(reach[c + 1]))) for c in (0, 2))))
    *plan, steps, _ = _plan(tuple(kinds[:2]), tuple(kinds[2:]), groups, per)
    padded = np.vstack((rows, np.full(rows.shape[1], fill)))  # a fill row, each colour's pad position
    red, blue = (_Colour(padded, fill, np.r_[own, len(rows)], colour, per)
                 for own, colour in zip(np.split(np.arange(len(rows)), [kinds[0] + kinds[1]]), plan))
    least = np.full(len(groups), np.iinfo(np.int64).max)
    for g, starts, totals, _ in _price(red, blue, steps, per):
        end = g + len(starts)
        least[g:end] = np.minimum(least[g:end], np.minimum.reduceat(totals, starts))
    table[tuple(map(slice, reach))] = least.reshape(reach)  # groups run over the count tuples in C order
    return table


def _min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The table of least a[s] + b[t] over count tuples s + t, coded in
    base 2 len(a) - 1, where codes add as tuples do; pairs of entries
    below _NONE go a block's worth at a time."""
    shape, wide = a.shape, (2 * len(a) - 1,) * a.ndim
    code = np.ravel_multi_index(np.indices(shape).reshape(a.ndim, -1), wide)
    (at_a, a), (at_b, b) = ((np.flatnonzero(t < _NONE), t.ravel()) for t in (a, b))
    out = np.full(prod(wide), _NONE)
    step = max(1, _BLOCK_ENTRIES // max(len(at_b), 1))
    for s in (at_a[lo : lo + step, None] for lo in range(0, len(at_a), step)):
        np.minimum.at(out, (code[s] + code[at_b]).ravel(), (a[s] + b[at_b]).ravel())
    return out.reshape(wide)[tuple(map(slice, shape))]


def _island_totals(inst: Instance, client_rows, sol: Solution, p: int, blocks, cap: int):
    """Least new totals over the islands' clients per count tuple (close
    red, open red, close blue, open blue), summed from per-island tables;
    None for a float table, one of fewer than two islands, or one whose
    islands price no fewer blocks than `blocks`. The all-zero tuple is
    `sol`; `client_rows` is `_client_rows(inst)`.

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
    kind = 2 * (np.arange(len(rows)) >= len(inst.red)) + 1  # spare red 1, spare blue 3
    kind[row_of[list(sol.facilities())]] -= 1  # open red 0, open blue 2
    pool, island, grown = len(rows), len(rows), np.arange(len(rows))  # islands named by least facility
    while np.any(island != grown):  # to a fixed point; `pool` marks a facility or client off every island
        island, at = grown, np.where(near, grown[:, None], pool).min(axis=0, initial=pool)
        grown = np.where(near, at, pool).min(axis=1, initial=pool)
    kinds = np.bincount(4 * island + kind, minlength=4 * pool + 4).reshape(-1, 4)  # per island and kind
    n_clients = np.bincount(at, minlength=pool + 1)[:pool]
    labels = np.flatnonzero(n_clients)
    fac, clients = np.lexsort((kind, island)), np.argsort(at, kind="stable")  # by island, then kind
    islands = [(rows[np.ix_(f, c)], k) for f, c, k in zip(np.split(fac, np.cumsum(kinds[labels].sum(axis=1))),
               np.split(clients, np.cumsum(n_clients[labels])), kinds[labels].tolist())]
    pairs = [prod(_reach(count, p) for count in k) for _, k in islands]
    priced = sum(-(-n // _block_moves(own.shape[1])) for n, (own, _) in zip(pairs, islands))
    if len(islands) + any(kinds[pool]) < 2 or priced >= blocks:
        return None
    _refuse_over_cap(sum(pairs), "island state pairs", cap, "island tables")
    free = np.full((p + 1,) * 4, _NONE)
    free[tuple(slice(min(p, n) + 1) for n in kinds[pool])] = 0
    return reduce(_min_plus, (_island_table(own, fill, k, p) for own, k in islands), free)


def is_local_opt(inst: Instance, sol: Solution, p: int, cap: int = DEFAULT_CAP) -> LocalOptVerdict:
    """Exactly certify local optimality under swaps of size at most p.

    The scan of the canonical move order returns the first strictly
    improving move (zero-delta moves do not disqualify). Its first block,
    at most `cap` moves, is the probe: a witness there, or a neighborhood
    within it, decides "by enumeration". Else, if `_island_totals` prices
    fewer blocks than the scan (each swap size's moves in blocks) or the
    scan exceeds the cap, and no swap size lowers its total, the verdict
    is "island tables"; else the scan decides, resuming after the probe.
    Routes refuse work beyond the cap. For p >= max(k_r, k_b) this is
    global optimality.
    """
    total = evaluate(inst, sol).total
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    sizes, rows, per = _swap_sizes(inst, p), _client_rows(inst), _block_moves(len(inst.clients))
    moves = _size_moves(inst, sizes)
    counts = list(accumulate(moves, initial=0))  # moves before each swap size, then all of them
    size, probe, improves = counts[-1], min(cap, per), partial(np.greater, 0)  # improving: 0 > delta
    found = _scan(inst, rows, sol, total, sizes[: bisect_left(counts, probe)], improves, probe)  # the probe
    if found is None and size > probe:
        blocks = sum(-(-n // per) for n in moves) if size <= cap else inf
        totals = _island_totals(inst, rows, sol, p, blocks, cap)
        if totals is not None and min(int(totals[a, a, b, b]) for a, b in sizes) >= int(totals[0, 0, 0, 0]):
            return LocalOptVerdict(True, None, None, size, "island tables")
        _refuse_over_cap(size, "neighborhood moves", cap, "enumeration")
        found = _scan(inst, rows, sol, total, sizes, improves, start=probe)
    if found is None:
        return LocalOptVerdict(True, None, None, size)
    index, move, new_total = found
    return LocalOptVerdict(False, move, new_total - total, index + 1)
