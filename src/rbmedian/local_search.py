"""Multi-swap local search.

A move closes up to p open facilities of each colour and opens equally
many closed ones of the same colour, keeping both budgets intact. The
neighborhood is enumerated in a fixed canonical order: swap sizes (a, b)
ascending lexicographically, then the index tuples (close_red, open_red,
close_blue, open_blue) lexicographically. Every determinism guarantee in
this module (best-improvement tie-breaks, first-improvement selection,
witness reporting) is stated against that order, which `_swap_groups`
alone defines.

A move's new distances are the columnwise minimum of its red and blue
states: what each colour leaves open after a (close set, open set) swap.
Blocks are contiguous runs of the canonical order of about _BLOCK_ENTRIES
(moves x clients) entries, so the working arrays stay in cache. A run of
groups whose red states against all blue states fit in a block is priced
as that one product, from whole state tables built at once, and put in
canonical order by a cached permutation. Other groups are priced one by
one from slices of those tables, or from minima over what each close set
leaves open and over each open set; a blue table too large for a block
is never built, each red state being folded into the blue close-set
minima. A move's new total sums its new distances over one contiguous
client row, as `evaluate` sums a solution's, so the scan and the search
loop see the same cost; integer metrics stay in int64, so their deltas
are exact.

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
from itertools import accumulate, combinations

import numpy as np

from .errors import InputError
from .instance import Assignment, Instance, Solution, evaluate

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
    """A move; each side is an ascending id tuple, as `_swap_groups` builds it."""

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
    assignment: Assignment
    trace: list  # cost before the first move and after each accepted one
    termination: str

    @property
    def solution(self) -> Solution:
        return self.assignment.solution

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1

    def to_doc(self) -> dict:
        return {
            "solution": self.solution.to_doc(),
            "cost": self.assignment.total,
            "iterations": self.iterations,
            "trace": list(self.trace),
            "termination": self.termination,
        }


def apply_move(sol: Solution, move: SwapMove) -> Solution:
    return Solution(
        R=(sol.R - frozenset(move.close_red)) | frozenset(move.open_red),
        B=(sol.B - frozenset(move.close_blue)) | frozenset(move.open_blue),
    )


def _swap_groups(inst: Instance, sol: Solution, p: int):
    """Yield the neighborhood as (red, blue) groups, one per swap size (a, b).

    Each side is (close sets, open sets) of one colour, ascending id
    tuples; a group's moves are the product close_red x open_red x
    close_blue x open_blue in C order, which is the canonical order. Every
    group of one swap size shares the same side object. `sol` is taken as
    feasible: callers have evaluated it.
    """
    def sides(chosen, pool):
        opened, spare = sorted(chosen), sorted(pool - chosen)
        return [(list(combinations(opened, a)), list(combinations(spare, a)))
                for a in range(min(p, len(opened), len(spare)) + 1)]

    reds, blues = sides(sol.R, inst.red_set), sides(sol.B, inst.blue_set)
    for red in reds:
        for blue in blues:
            if red is not reds[0] or blue is not blues[0]:
                yield red, blue


def neighborhood_size(inst: Instance, p: int) -> int:
    """Closed-form move count; matches enumeration exactly."""
    def one_colour(k, total):
        spare = total - k
        return sum(math.comb(k, a) * math.comb(spare, a) for a in range(min(p, k, spare) + 1))

    return one_colour(inst.k_r, len(inst.red)) * one_colour(inst.k_b, len(inst.blue)) - 1


def _client_rows(inst: Instance):
    """(rows, fill): rows[f] holds location f's distance to each client,
    in `inst.clients` order, C-contiguous so that rows gather fast; fill,
    no less than any distance, is the minimum over an empty set of
    locations."""
    rows = inst.space.dist.take(np.asarray(inst.clients, dtype=np.intp), axis=1)
    return rows, np.iinfo(rows.dtype).max if inst.space.integral else np.inf


def _subset_minima(rows: np.ndarray, combos, fill) -> np.ndarray:
    """Columnwise minimum of rows[c] per combination c, a running minimum
    over c's members; `fill` where c is empty."""
    combos = np.asarray(combos, dtype=np.intp)
    if not combos.shape[1]:
        return np.full((len(combos), rows.shape[1]), fill)
    out = rows.take(combos[:, 0], axis=0)
    for column in combos.T[1:]:
        np.minimum(out, rows.take(column, axis=0), out=out)
    return out


def _states(kept, added) -> np.ndarray:
    """Rows of every (close set, open set) state, C order: the columnwise
    minimum of the close set's `kept` row and the open set's `added` row."""
    return np.minimum(kept[:, None], added[None]).reshape(len(kept) * len(added), -1)


def _runs(kept, added, states, per):
    """Runs of at most `per` consecutive states of one colour, C order, as
    (first state, state rows): slices of `states` when the whole table was
    built, else states of whole close sets or of part of one."""
    if states is not None:
        for lo in range(0, len(states), per):
            yield lo, states[lo : lo + per]
        return
    n_open = len(added)
    step, width = max(per // n_open, 1), min(per, n_open)
    for c in range(0, len(kept), step):
        for o in range(0, n_open, width):
            yield c * n_open + o, _states(kept[c : c + step], added[o : o + width])


def _blocks(red, blue, per):
    """Yield (first red state, first blue state, new distances) per block of
    one group, canonical order; new is (red states, blue states, clients)
    and freshly allocated. A blue table too large for a block is never
    built: each red state is folded into the blue close-set minima."""
    r_kept, r_added, r_states = red
    b_kept, b_added, b_states = blue
    if b_states is not None:
        for r0, r_rows in _runs(r_kept, r_added, r_states, per // len(b_states)):
            yield r0, 0, np.minimum(r_rows[:, None], b_states[None])
    else:
        for r, r_row in _runs(r_kept, r_added, r_states, 1):
            for b0, b_rows in _runs(np.minimum(b_kept, r_row), b_added, None, per):
                yield r, b0, b_rows[None]


@lru_cache(maxsize=16)
def _open_after(k: int, spare: int, sizes: tuple) -> np.ndarray:
    """The k positions, among a colour's open then spare ids, that each
    state of its sides of swap sizes `sizes` leaves open, side after side."""
    opened, closed = range(k), range(k, k + spare)
    sets = [[i for i in opened if i not in c] + list(o) for a in sizes
            for c in combinations(opened, a) for o in combinations(closed, a)]
    table = np.array(sets, dtype=np.intp).reshape(len(sets), k)
    table.flags.writeable = False
    return table


class _Colour:
    """A colour's sides in a scan, numbered as its groups first name them,
    and their states, numbered side after side. Each side's minima are
    built when first needed, or sliced from the whole table once built."""

    def __init__(self, rows, fill, chosen, pool, sides, per):
        self.rows, self.fill, self.per = rows, fill, per
        self.chosen, self.pool, self.sides = chosen, pool, sides
        self.first = tuple(accumulate((len(cs) * len(os) for cs, os in sides), initial=0))
        self.at = {id(side): i for i, side in enumerate(sides)}
        self.memo, self.table = {}, None

    def whole(self):
        """The whole state table, which must fit in a block: per state, the
        minimum over the facilities it leaves open."""
        if self.table is None:
            opened, spare = sorted(self.chosen), sorted(self.pool - self.chosen)
            sets = _open_after(len(opened), len(spare), tuple(len(cs[0]) for cs, _ in self.sides))
            ids = np.array(opened + spare, dtype=np.intp)
            self.table = _subset_minima(self.rows, ids[sets], self.fill)
        return self.table

    def tables(self, i):
        """(kept, added, states) of side i for `_blocks`: its minima over what
        each close set leaves open and over each open set, and its states if
        they fit in a block."""
        if self.table is not None:
            return None, None, self.table[self.first[i] : self.first[i + 1]]
        if i not in self.memo:
            (closes, opens), rows, fill = self.sides[i], self.rows, self.fill
            kept = _subset_minima(rows, [[f for f in self.chosen if f not in c] for c in closes], fill)
            added = _subset_minima(rows, opens, fill)
            fits = len(closes) * len(opens) <= self.per
            self.memo[i] = (kept, added, _states(kept, added) if fits else None)
        return self.memo[i]

    def pick(self, state):
        """(close set, open set) of state number `state`."""
        i = bisect_right(self.first, state) - 1
        (closes, opens), at = self.sides[i], state - self.first[i]
        return closes[at // len(opens)], opens[at % len(opens)]


@lru_cache(maxsize=16)
def _slab_order(red_first: tuple, blue_first: tuple, pairs: tuple) -> np.ndarray:
    """Positions of the moves of groups (red side, blue side) `pairs`, in
    canonical order, among pairs[0]'s red states on against all blue ones."""
    lo, n_blue = red_first[pairs[0][0]], blue_first[-1]
    order = np.concatenate([((np.arange(red_first[r], red_first[r + 1]) - lo)[:, None] * n_blue
                             + np.arange(blue_first[b], blue_first[b + 1])).ravel() for r, b in pairs])
    order.flags.writeable = False
    return order


def _scan(inst: Instance, assignment: Assignment, groups, accept=None):
    """Price the moves of `groups`, each whole and in the order
    `_swap_groups` yields them for this assignment, block by block.

    A move is priced by its new total, which `evaluate` gives the solution
    after it bit for bit; its delta is that total minus the current one.
    `accept` maps an array of deltas to a boolean mask. With it, the first
    move that passes is returned; without it, the move of least new total,
    ties to the lowest index. Returns (canonical index, move, delta), or
    None when no move qualifies.
    """
    groups = list(groups)
    rows, fill = _client_rows(inst)
    per = _block_moves(len(assignment.distance))
    sol, total = assignment.solution, assignment.total
    sides = [list({id(group[c]): group[c] for group in groups}.values()) for c in (0, 1)]
    red = _Colour(rows, fill, sol.R, inst.red_set, sides[0], per)
    blue = _Colour(rows, fill, sol.B, inst.blue_set, sides[1], per)
    pairs = [(red.at[id(r)], blue.at[id(b)]) for r, b in groups]
    best, done, i = None, 0, 0  # best: (canonical index, new total, red state, blue state)
    while i < len(pairs) and (accept is None or best is None):
        (r, b), j, order = pairs[i], i, None
        # a run of groups whose red states against all blue states fit in a
        # block is one block, from whole tables, put in canonical order
        while (j < len(pairs) and red.first[-1] <= per
               and (red.first[pairs[j][0] + 1] - red.first[r]) * blue.first[-1] <= per):
            j += 1
        if j > i + 1:
            order = _slab_order(red.first, blue.first, tuple(pairs[i:j]))
            r_states = red.whole()[red.first[r] : red.first[pairs[j - 1][0] + 1]]
            tables, b_lo = ((None, None, r_states), (None, None, blue.whole())), 0
        else:
            j, tables, b_lo = i + 1, (red.tables(r), blue.tables(b)), blue.first[b]
        for r0, b0, new in _blocks(*tables, per):
            totals = new.sum(axis=-1).ravel()
            if order is not None:
                totals = totals.take(order)
            if accept is None:
                q = int(totals.argmin())
                hit = best is None or totals[q] < best[1]
            else:
                hits = accept(totals - total)
                q = int(hits.argmax())
                hit = bool(hits[q])
            if hit:
                at = divmod(q if order is None else int(order[q]), new.shape[1])
                best = (done + q, totals[q], red.first[r] + r0 + at[0], b_lo + b0 + at[1])
                if accept is not None:
                    break
            done += len(totals)
        i = j
    if best is None:
        return None
    index, new_total, r, b = best
    return index, SwapMove(*red.pick(r), *blue.pick(b)), (new_total - total).item()


def _random_solution(inst: Instance, seed: int) -> Solution:
    rng = random.Random(seed)
    return Solution(
        R=frozenset(rng.sample(list(inst.red), inst.k_r)),
        B=frozenset(rng.sample(list(inst.blue), inst.k_b)),
    )


def _select_move(inst, assignment, config):
    """Return (move, delta) for the accepted move this iteration, or None.

    Acceptance: delta < 0 always, and with epsilon > 0 additionally
    new <= (1 - epsilon/n) * current, in exact rationals for integer
    costs and in float otherwise. Strict decrease is required even at
    the threshold so traces are strictly decreasing and cost-0 states
    cannot loop. A delta is new - current, so current + delta is the new
    total itself wherever it can meet the bound (Sterbenz, for n >= 3).
    """
    total = assignment.total
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

    groups = _swap_groups(inst, assignment.solution, config.p)
    if config.rule == "best":
        picked = _scan(inst, assignment, groups)
        if picked is not None and not accepted(picked[2]):
            picked = None
    else:
        picked = _scan(inst, assignment, groups, accepted)
    return None if picked is None else picked[1:]


def run(inst: Instance, config: SearchConfig, initial: Solution | None = None) -> SearchResult:
    """Iterate accepted swaps until none remains or max_iters is hit.

    Deterministic given (config, initial).
    """
    sol = _random_solution(inst, config.seed) if initial is None else initial
    assignment = evaluate(inst, sol)
    trace = [assignment.total]
    while len(trace) <= config.max_iters:
        picked = _select_move(inst, assignment, config)
        if picked is None:
            return SearchResult(assignment, trace, TERMINATION_LOCAL_OPT)
        assignment = evaluate(inst, apply_move(assignment.solution, picked[0]))
        trace.append(assignment.total)
    return SearchResult(assignment, trace, TERMINATION_ITERATION_CAP)
