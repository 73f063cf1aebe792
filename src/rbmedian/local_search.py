"""Multi-swap local search.

A move closes up to p open facilities of each colour and opens equally
many closed ones of the same colour, keeping both budgets intact. The
neighborhood is enumerated in a fixed canonical order: swap sizes (a, b)
ascending lexicographically, then the index tuples (close_red, open_red,
close_blue, open_blue) lexicographically. Every determinism guarantee in
this module (best-improvement tie-breaks, first-improvement selection,
witness reporting) is stated against that order, which `_plan` alone
defines.

One plan and one pricer serve this scan and `exact`'s island tables. A
plan (`_plan`, cached per shape) lays out groups of (close count, open
count) sides of each colour on positions: a colour's open ids ascending,
then its spare ids. A scan plans the sides (a, a) and (b, b) of its swap
sizes; an island plans every pair up to p. `_price` yields a plan's blocks
in order, runs of about _BLOCK_ENTRIES (moves x clients) entries so that
the working arrays stay in cache. A move's new distances are the
columnwise minimum of its red and blue states, what each colour leaves
open. Groups whose red states against all blue states fit a block are one
product of whole state tables; other groups are priced from minima over
what each close set keeps and over each open set, built a block of sets at
a time, and a blue side too large for a block has each red state folded
into its close-set minima. A move's new total sums its new distances over
one contiguous client row, as `evaluate` sums a solution's, so the priced
total is `evaluate`'s; integer metrics stay in int64, so deltas are exact.
`run` evaluates only its starting solution and then carries each accepted
move's priced total.

With epsilon > 0 a move is accepted only if it cuts cost by a relative
(epsilon / n) factor, which bounds the number of iterations; epsilon = 0
accepts any strict improvement.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, islice

import numpy as np

from .errors import InputError
from .instance import Instance, Solution, evaluate

TERMINATION_LOCAL_OPT = "local-optimum"
TERMINATION_ITERATION_CAP = "iteration-cap"

# Entries (moves or subsets x clients) in one working array: 384 KB at 8
# bytes, so blocks stay in cache. That is 409 moves at 120 clients and
# 1,585-2,137 subset pairs on the (2,4) and (1,10) families, whose brute
# force runs as fast as at the fixed 2,048 it used before (2-CPU host).
_BLOCK_ENTRIES = 3 << 14


def _block_moves(n_clients: int) -> int:
    """Moves (or subsets) in one block over n_clients clients."""
    return max(1, _BLOCK_ENTRIES // max(n_clients, 1))


class ConfigError(InputError):
    """Search configuration out of range."""


@dataclass(frozen=True)
class SwapMove:
    """A move; each side is an ascending id tuple, as `_scan` reports it."""

    close_red: tuple = ()
    open_red: tuple = ()
    close_blue: tuple = ()
    open_blue: tuple = ()

    def to_doc(self) -> dict:
        return {side: list(ids) for side, ids in vars(self).items()}


@dataclass(frozen=True)
class SearchConfig:
    p: int = 1
    epsilon: float = 0.0
    rule: str = "best"  # "best" or "first"
    seed: int = 0
    max_iters: int = 10**6

    def __post_init__(self):
        if self.p < 1:
            raise ConfigError(f"p must be >= 1, got {self.p}")
        if not (0.0 <= self.epsilon < 1.0):
            raise ConfigError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if self.rule not in ("best", "first"):
            raise ConfigError(f"rule must be 'best' or 'first', got {self.rule!r}")
        if self.max_iters < 0:
            raise ConfigError(f"max_iters must be nonnegative, got {self.max_iters}")


@dataclass
class SearchResult:
    solution: Solution
    trace: list  # cost before the first move and after each accepted one
    termination: str

    @property
    def cost(self):
        return self.trace[-1]

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1

    def to_doc(self) -> dict:
        return {
            "solution": self.solution.to_doc(),
            "cost": self.cost,
            "iterations": self.iterations,
            "trace": list(self.trace),
            "termination": self.termination,
        }


def apply_move(sol: Solution, move: SwapMove) -> Solution:
    return Solution(
        R=(sol.R - frozenset(move.close_red)) | frozenset(move.open_red),
        B=(sol.B - frozenset(move.close_blue)) | frozenset(move.open_blue),
    )


def neighborhood_size(inst: Instance, p: int) -> int:
    """Closed-form move count, summed over the swap sizes; matches
    enumeration exactly."""
    return sum(_size_moves(inst, _swap_sizes(inst, p)))


def _size_moves(inst: Instance, sizes) -> list:
    """Closed-form move count of each swap size in `sizes`: per colour, a
    of the k open to close and a of the rest to open."""
    return [math.prod(math.comb(k, a) * math.comb(len(pool) - k, a) for (k, pool), a in
                      zip(((inst.k_r, inst.red), (inst.k_b, inst.blue)), size)) for size in sizes]


def _swap_sizes(inst: Instance, p: int) -> tuple:
    """The neighborhood's swap sizes (a, b), canonical order: each up to p
    and to what its colour can swap, but not both 0."""
    reach = [range(min(p, k, len(pool) - k) + 1) for k, pool in ((inst.k_r, inst.red), (inst.k_b, inst.blue))]
    return tuple((a, b) for a in reach[0] for b in reach[1] if a or b)


def _client_rows(inst: Instance):
    """(rows, fill, at): rows[at[f]] holds facility f's distance to each
    client, in `inst.clients` order, C-contiguous so that rows gather fast,
    red rows first; fill, no less than any distance, is the empty minimum."""
    fac = inst.red + inst.blue
    rows = inst.space.rows(fac).take(np.asarray(inst.clients, dtype=np.intp), axis=1)
    at = np.zeros(inst.space.n, dtype=np.intp)
    at[list(fac)] = np.arange(len(fac))
    return rows, np.iinfo(rows.dtype).max if inst.space.integral else np.inf, at


def _subset_minima(rows: np.ndarray, combos, fill, out=None) -> np.ndarray:
    """Columnwise minimum of rows[c] per combination c, a running minimum
    over c's members, into `out`'s leading rows if given; `fill` if c is empty."""
    combos = np.asarray(combos, dtype=np.intp)
    if not combos.shape[1]:
        return np.full((len(combos), rows.shape[1]), fill)
    out = rows.take(combos[:, 0], axis=0, out=None if out is None else out[: len(combos)])
    for column in combos.T[1:]:
        np.minimum(out, rows.take(column, axis=0), out=out)
    return out


def _states(kept, added) -> np.ndarray:
    """Rows of every (close set, open set) state, C order: the columnwise
    minimum of the close set's `kept` row and the open set's `added` row."""
    return np.minimum(kept[:, None], added[None]).reshape(len(kept) * len(added), -1)


def _sets(first: int, n: int, size: int, per: int):
    """Runs of `per` (the last of at most `per`) of the `size`-subsets of
    positions first, ..., first + n - 1: ascending rows, lexicographic."""
    sets = combinations(range(first, first + n), size)
    while run := list(islice(sets, per)):
        yield np.array(run, dtype=np.intp).reshape(len(run), size)


@lru_cache(maxsize=256)
def _nth(first: int, n: int, size: int, index: int) -> tuple:  # set number `index` of `_sets(first, n, size, ...)`
    return next(islice(combinations(range(first, first + n), size), index, None))


def _kept(k: int, closes: np.ndarray) -> np.ndarray:
    """The positions among 0, ..., k - 1 that each row of `closes` keeps."""
    keep = np.ones((len(closes), k), dtype=bool)
    keep[np.arange(len(closes))[:, None], closes] = False
    return np.nonzero(keep)[1].reshape(len(closes), k - closes.shape[1])


@lru_cache(maxsize=16)
def _plan(red: tuple, blue: tuple, groups: tuple, per: int) -> tuple:
    """How to price `groups`, (red side, blue side) pairs, in blocks of
    `per` moves for colours of (open, spare) counts `red` and `blue`. A side
    (c, o) closes c open and opens o spare facilities, a side a is (a, a);
    its states are its (close set, open set) pairs, lexicographic, in C
    order. Groups run in order, red state major: a scan's canonical order.

    Returns (red, blue, steps, each step's first move, then the count). A
    colour is (open count, spare count, sides ascending, each side's first
    state, then the count, the positions each close set keeps and each
    open set per count of at most `per` sets, and, for whole tables, what
    each state leaves open, padded with position open + spare). A step is
    (first group, step, order, group starts): groups whose red states
    against all blue states fit a block, as ((first red state, end), their
    moves' positions among those states against all blue ones, each
    group's first move there); or groups of one red side whose blue sides
    share a close count, as ((red side, blue sides), None, [0]).
    """
    groups = [tuple(side if isinstance(side, tuple) else (side, side) for side in group) for group in groups]
    colours = []
    for (k, spare), own in ((red, {r for r, _ in groups}), (blue, {b for _, b in groups})):
        own = tuple(sorted(own))
        first = tuple(accumulate((math.comb(k, c) * math.comb(spare, o) for c, o in own), initial=0))
        held = {(n, closed): _kept(k, sets) if closed else sets
                for n, closed in {*((c, True) for c, _ in own), *((o, False) for _, o in own)}
                if math.comb(k if closed else spare, n) <= per
                for sets in _sets(0 if closed else k, k if closed else spare, n, per)}
        colours.append([k, spare, own, first, held, None])
    (*_, r_sides, rf, _, _), (*_, b_sides, bf, _, _) = colours
    pairs = [(r_sides.index(r), b_sides.index(b)) for r, b in groups]
    moves = [(rf[r + 1] - rf[r]) * (bf[b + 1] - bf[b]) for r, b in pairs]
    steps, i = [], 0
    while i < len(pairs):
        r, j = pairs[i][0], i
        while j < len(pairs) and rf[-1] <= per and (rf[pairs[j][0] + 1] - rf[r]) * bf[-1] <= per:
            j += 1
        if j > i + 1:
            order = np.concatenate([((np.arange(rf[r2], rf[r2 + 1]) - rf[r])[:, None] * bf[-1]
                                     + np.arange(bf[b], bf[b + 1])).ravel() for r2, b in pairs[i:j]])
            starts = np.array(list(accumulate(moves[i : j - 1], initial=0)))
            steps.append((i, (rf[r], rf[pairs[j - 1][0] + 1]), order, starts))
        else:
            c, j = b_sides[pairs[i][1]][0], i + 1
            while j < len(pairs) and pairs[j][0] == r and b_sides[pairs[j][1]][0] == c:
                j += 1
            steps.append((i, (r, tuple(b for _, b in pairs[i:j])), None, np.zeros(1, dtype=np.intp)))
        i = j
    for colour in colours if any(order is not None for _, _, order, _ in steps) else ():
        k, spare, own, _, held, _ = colour
        width, tables = max(k - c + o for c, o in own), []
        for c, o in own:
            kept, opens = held[c, True], held[o, False]
            table = np.full((len(kept), len(opens), width), k + spare, dtype=np.intp)
            table[..., : k - c] = kept[:, None]
            table[..., k - c : k - c + o] = opens
            tables.append(table.reshape(len(kept) * len(opens), width))
        colour[-1] = np.concatenate(tables)
    firsts = list(accumulate(moves, initial=0))
    return (*map(tuple, colours), tuple(steps), tuple(firsts[i] for i, *_ in steps) + (firsts[-1],))


class _Colour:
    """A colour's state rows in one pricing, through `at`, the row of each
    of its positions: whole tables, side tables, or minima over what each
    close set keeps and over each open set, streamed a block at a time."""

    def __init__(self, rows, fill, at, colour, per):
        self.rows, self.fill, self.at, self.per = rows, fill, at, per
        self.k, self.spare, self.sides, self.first, self.held, open_after = colour
        self.whole = None if open_after is None else _subset_minima(rows, at[open_after], fill)
        self.memo = {}

    def minima(self, count: int, closed: bool, out=None):
        """(first set, rows) per run of the close sets (closed) or open sets of
        size `count`: the minimum over what each keeps, or opens, in `out` if not held."""
        key = count, closed
        if key not in self.held:
            runs = enumerate(_sets(0 if closed else self.k, self.k if closed else self.spare, count, self.per))
            return ((i * self.per, _subset_minima(self.rows, self.at[_kept(self.k, run) if closed else run],
                                                  self.fill, out)) for i, run in runs)
        if key not in self.memo:
            self.memo[key] = [(0, _subset_minima(self.rows, self.at[self.held[key]], self.fill))]
        return self.memo[key]

    def states(self, i):
        """Side i's state table, which fits a block."""
        if self.whole is not None:
            return self.whole[self.first[i] : self.first[i + 1]]
        if i not in self.memo:
            c, o = self.sides[i]
            self.memo[i] = _states(_subset_minima(self.rows, self.at[self.held[c, True]], self.fill),
                                   _subset_minima(self.rows, self.at[self.held[o, False]], self.fill))
        return self.memo[i]

    def runs(self, i, per, kept=None):
        """(first state, rows) per run of at most `per` states of side i, C
        order; `kept`, runs of close-set minima, replaces the side's own."""
        if kept is None and self.first[i + 1] - self.first[i] <= self.per:
            states = self.states(i)
            for lo in range(0, len(states), per):
                yield lo, states[lo : lo + per]
            return
        n_open = math.comb(self.spare, self.sides[i][1])
        step = max(per // n_open, 1)
        for c0, run in kept or self.minima(self.sides[i][0], True):
            for c in range(0, len(run), step):
                for o0, added in self.minima(self.sides[i][1], False):
                    for lo in range(0, len(added), per):
                        yield (c0 + c) * n_open + o0 + lo, _states(run[c : c + step], added[lo : lo + per])

    def pick(self, state, ids):
        """State number `state` as (close set, open set) tuples of `ids`."""
        i = bisect_right(self.first, state) - 1
        (c, o), k = self.sides[i], self.k
        close, opened = divmod(state - self.first[i], math.comb(self.spare, o))
        return (tuple(map(ids.__getitem__, _nth(0, k, c, close))),
                tuple(map(ids.__getitem__, _nth(k, self.spare, o, opened))))


def _price(red: _Colour, blue: _Colour, steps, per):
    """Yield each block of `steps` in order as (first group, group starts,
    totals, (order, width, r0, b0)): its moves' new totals in canonical
    order, groups from the first on starting at `starts`; totals[q] is red
    state r0 + i // width against blue state b0 + i % width, i = order[q],
    or q where order is None. A blue side too large for a block is never
    built: each red state is folded into its close-set minima instead, and
    the step's groups take turns on each run (a scan's steps have one)."""
    for g, step, order, starts in steps:
        if order is not None:
            new = np.minimum(red.whole[slice(*step), None], blue.whole[None])
            yield g, starts, new.sum(axis=-1).ravel().take(order), (order, len(blue.whole), step[0], 0)
            continue
        r, bs = step
        if all(blue.first[b + 1] - blue.first[b] <= per for b in bs):
            for j, b in enumerate(bs):
                b_states = blue.states(b)
                for r0, r_rows in red.runs(r, per // len(b_states)):
                    totals = np.minimum(r_rows[:, None], b_states[None]).sum(axis=-1).ravel()
                    yield g + j, starts, totals, (None, len(b_states), red.first[r] + r0, blue.first[b])
            continue
        fold = np.empty((per, blue.rows.shape[1]), dtype=blue.rows.dtype)  # each run is built and folded here
        for r0, r_row in red.runs(r, 1):
            for c0, kept in blue.minima(blue.sides[bs[0]][0], True, fold):
                folded = [(c0, np.minimum(kept, r_row, out=fold[: len(kept)]))]
                for j, b in enumerate(bs):
                    for b0, new in blue.runs(b, per, folded):
                        yield g + j, starts, new.sum(axis=-1), (None, len(new), red.first[r] + r0, blue.first[b] + b0)


def _scan(inst: Instance, client_rows, sol: Solution, total, sizes: tuple, accept=None, stop=None, start=0):
    """Price the moves of swap sizes `sizes` from `sol`, which costs
    `total`, in canonical order from move `start` on; `client_rows` is
    `_client_rows(inst)`. A move's new total is the one `evaluate` gives
    the solution after it, bit for bit, and its delta that minus `total`.
    `accept` maps an array of deltas to a boolean mask. With it, the first
    move that passes is returned; without it, the move of least new total,
    ties to the lowest index; with `stop`, among the moves before move
    `stop`. Returns (canonical index, move, new total), or None."""
    rows, fill, at = client_rows
    per = _block_moves(rows.shape[1])
    colours = ((sol.R, inst.red), (sol.B, inst.blue))
    ids = [sorted(chosen) + [f for f in pool if f not in chosen] for chosen, pool in colours]
    *plan, steps, firsts = _plan(*((len(chosen), len(pool) - len(chosen)) for chosen, pool in colours), sizes, per)
    red, blue = (_Colour(rows, fill, at[np.array(own, dtype=np.intp)], colour, per) for own, colour in zip(ids, plan))
    s = bisect_right(firsts, start) - 1
    best, done = None, firsts[s]  # best: (canonical index, new total, red state, blue state)
    for _, _, totals, (order, width, r0, b0) in _price(red, blue, steps[s:], per):
        lo, done = done, done + len(totals)
        if done <= start:
            continue
        cut = max(start - lo, 0)
        totals = totals[cut : None if stop is None else stop - lo]
        if accept is None:
            q = int(totals.argmin())
            hit = best is None or totals[q] < best[1]
        else:
            hits = accept(totals - total)
            q = int(hits.argmax())
            hit = bool(hits[q])
        if hit:
            i = q + cut if order is None else int(order[q + cut])
            best = (lo + cut + q, totals[q], r0 + i // width, b0 + i % width)
        if hit and accept is not None or stop is not None and done >= stop:
            break
    if best is None:
        return None
    index, new_total, r, b = best
    return index, SwapMove(*red.pick(r, ids[0]), *blue.pick(b, ids[1])), new_total.item()


def _random_solution(inst: Instance, seed: int) -> Solution:
    rng = random.Random(seed)
    return Solution(
        R=frozenset(rng.sample(list(inst.red), inst.k_r)),
        B=frozenset(rng.sample(list(inst.blue), inst.k_b)),
    )


def _select_move(inst, rows, sol, total, sizes, config):
    """Return (move, new total) for the accepted move this iteration, or None.

    Acceptance: delta < 0 always, and with epsilon > 0 additionally
    new <= (1 - epsilon/n) * current, in exact rationals for integer
    costs and in float otherwise. Strict decrease is required even at
    the threshold so traces are strictly decreasing and cost-0 states
    cannot loop. A delta is new - current, so current + delta is the new
    total itself wherever it can meet the bound (Sterbenz, for n >= 3).
    """
    if config.epsilon:
        if inst.space.integral:
            bound = math.floor(total * (1 - Fraction(config.epsilon) / inst.space.n))
        else:
            bound = (1.0 - config.epsilon / inst.space.n) * total

        def accepted(delta):
            return (delta < 0) & (total + delta <= bound)
    else:
        def accepted(delta):
            return delta < 0

    if config.rule == "best":
        picked = _scan(inst, rows, sol, total, sizes)
        if picked is not None and not accepted(picked[2] - total):
            picked = None
    else:
        picked = _scan(inst, rows, sol, total, sizes, accepted)
    return None if picked is None else picked[1:]


def run(inst: Instance, config: SearchConfig, initial: Solution | None = None) -> SearchResult:
    """Iterate accepted swaps until none remains or max_iters is hit.

    Deterministic given (config, initial). The client rows and the swap
    sizes are taken once per run; each accepted move's cost is the total
    the scan priced it at, which is `evaluate`'s for the new solution.
    """
    sol = _random_solution(inst, config.seed) if initial is None else initial
    trace = [evaluate(inst, sol).total]
    rows, sizes = _client_rows(inst), _swap_sizes(inst, config.p)
    while len(trace) <= config.max_iters:
        picked = _select_move(inst, rows, sol, trace[-1], sizes, config)
        if picked is None:
            return SearchResult(sol, trace, TERMINATION_LOCAL_OPT)
        sol = apply_move(sol, picked[0])
        trace.append(picked[1])
    return SearchResult(sol, trace, TERMINATION_ITERATION_CAP)
