"""Multi-swap local search.

A move closes up to p open facilities of each colour and opens equally
many closed ones of the same colour, keeping both budgets intact. The
neighborhood is enumerated in a fixed canonical order: swap sizes (a, b)
ascending lexicographically, then the index tuples (close_red, open_red,
close_blue, open_blue) lexicographically. Every determinism guarantee in
this module (best-improvement tie-breaks, first-improvement selection,
witness reporting) is stated against that order, which `_plan` alone
defines.

A plan holds everything in a scan that depends only on its shape: each
colour's open and spare counts, the swap sizes and the block size. It is
built once per shape and cached, on positions among a colour's open ids
ascending, then its spare ids ascending. A scan lays out only the two id
arrays, gathers its state rows through them and maps the winning state
back to ids.

A move's new distances are the columnwise minimum of its red and blue
states: what each colour leaves open after a (close set, open set) swap.
Blocks are contiguous runs of the canonical order of about _BLOCK_ENTRIES
(moves x clients) entries, so the working arrays stay in cache. A run of
groups whose red states against all blue states fit in a block is priced
as that one product, from whole state tables built at once, and put in
canonical order by the plan's permutation. Other groups are priced one by
one from slices of those tables, or from minima over what each close set
leaves open and over each open set; a blue table too large for a block
is never built, each red state being folded into the blue close-set
minima. A move's new total sums its new distances over one contiguous
client row, as `evaluate` sums a solution's, so the priced total is the
one `evaluate` would give; integer metrics stay in int64, so their deltas
are exact. `run` therefore evaluates only its starting solution: it takes
the client rows once and carries each accepted move's priced total.

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


def _positions(sets) -> np.ndarray:
    """`sets`, each of one width, as a read-only array, for a cached plan."""
    table = np.array(sets, dtype=np.intp)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=16)
def _plan(red: tuple, blue: tuple, sizes: tuple, per: int) -> tuple:
    """The scan of swap sizes `sizes`, (a, b) pairs in canonical order, in
    blocks of `per` moves, for colours of (open, spare) counts `red` and
    `blue`. It holds positions only, among a colour's open ids ascending,
    then its spare ids ascending, so one plan serves every solution of its
    shape; it alone defines the canonical order.

    Returns (red sides, blue sides, groups, steps). A colour's sides, one
    per swap size, are (close sets, the open positions each close set
    keeps, open sets, first state of each side, the positions each state
    leaves open or None), states numbered side after side in C order; the
    last is built only where whole tables are priced. A group is (red side,
    blue side). A step is a run of groups whose red states against all
    blue states fit in a block, as ((first red state, end red state),
    positions of its moves in canonical order among those states against
    all blue ones), or one group, as ((red side, blue side), None).
    """
    sides = []
    for (k, spare), own in ((red, {a for a, _ in sizes}), (blue, {b for _, b in sizes})):
        own = sorted(own)
        closes = [list(combinations(range(k), a)) for a in own]
        opens = [list(combinations(range(k, k + spare), a)) for a in own]
        kept = [[[i for i in range(k) if i not in c] for c in cs] for cs in closes]
        first = tuple(accumulate((len(cs) * len(os) for cs, os in zip(closes, opens)), initial=0))
        sides.append((own, closes, kept, opens, first))
    (r_own, *_, rf), (b_own, *_, bf) = sides
    pairs = tuple((r_own.index(a), b_own.index(b)) for a, b in sizes)
    steps, i = [], 0
    while i < len(pairs):
        r, j = pairs[i][0], i
        while j < len(pairs) and rf[-1] <= per and (rf[pairs[j][0] + 1] - rf[r]) * bf[-1] <= per:
            j += 1
        if j > i + 1:
            order = _positions(np.concatenate([((np.arange(rf[r2], rf[r2 + 1]) - rf[r])[:, None] * bf[-1]
                                                + np.arange(bf[b], bf[b + 1])).ravel() for r2, b in pairs[i:j]]))
            steps.append(((rf[r], rf[pairs[j - 1][0] + 1]), order))
        else:
            j = i + 1
            steps.append((pairs[i], None))
        i = j
    whole = any(order is not None for _, order in steps)
    for c, (_, closes, kept, opens, first) in enumerate(sides):
        sides[c] = (*(tuple(map(_positions, sets)) for sets in (closes, kept, opens)), first,
                    _positions([kk + list(o) for kp, os in zip(kept, opens) for kk in kp for o in os])
                    if whole else None)
    return (*sides, pairs, tuple(steps))


class _Colour:
    """A colour's state rows in one scan, built from its plan sides through
    its ids and their rows `at`: the whole table where the plan prices
    whole tables, else each side's minima over what each close set keeps
    and over each open set, when first needed."""

    def __init__(self, rows, fill, ids, at, sides, per):
        self.rows, self.fill, self.ids, self.at, self.per = rows, fill, ids, at[ids], per
        self.closes, self.kept, self.opens, self.first, self.open_after = sides
        self.memo, self.table = {}, None

    def whole(self):
        if self.table is None:
            self.table = _subset_minima(self.rows, self.at[self.open_after], self.fill)
        return self.table

    def tables(self, i):
        """(kept, added, states) of side i for `_blocks`."""
        if self.open_after is not None:
            return None, None, self.whole()[self.first[i] : self.first[i + 1]]
        if i not in self.memo:
            kept = _subset_minima(self.rows, self.at[self.kept[i]], self.fill)
            added = _subset_minima(self.rows, self.at[self.opens[i]], self.fill)
            fits = len(kept) * len(added) <= self.per
            self.memo[i] = (kept, added, _states(kept, added) if fits else None)
        return self.memo[i]

    def pick(self, state):
        """(close set, open set) of state number `state`, as id tuples."""
        i = bisect_right(self.first, state) - 1
        at, n_open = state - self.first[i], len(self.opens[i])
        return (tuple(self.ids[self.closes[i][at // n_open]].tolist()),
                tuple(self.ids[self.opens[i][at % n_open]].tolist()))


def _scan(inst: Instance, client_rows, sol: Solution, total, sizes: tuple, accept=None, stop=None):
    """Price the moves of swap sizes `sizes` from `sol`, which costs
    `total`, block by block in canonical order; `client_rows` is
    `_client_rows(inst)`.

    A move is priced by its new total, which `evaluate` gives the solution
    after it bit for bit; its delta is that total minus `total`.
    `accept` maps an array of deltas to a boolean mask. With it, the first
    move that passes is returned; without it, the move of least new total,
    ties to the lowest index; with `stop`, among the first `stop` moves.
    Returns (canonical index, move, new total), or None when none qualifies.
    """
    rows, fill, at = client_rows
    per = _block_moves(rows.shape[1])
    colours = ((sol.R, inst.red), (sol.B, inst.blue))
    *sides, _, steps = _plan(*((len(chosen), len(pool) - len(chosen)) for chosen, pool in colours), sizes, per)
    red, blue = (_Colour(rows, fill, np.array(sorted(chosen) + [f for f in pool if f not in chosen],
                                              dtype=np.intp), at, own, per)
                 for (chosen, pool), own in zip(colours, sides))
    best, done = None, 0  # best: (canonical index, new total, red state, blue state)
    for step, order in steps:
        if order is None:
            r, b = step
            tables, r_lo, b_lo = (red.tables(r), blue.tables(b)), red.first[r], blue.first[b]
        else:
            (r_lo, r_hi), b_lo = step, 0
            tables = (None, None, red.whole()[r_lo:r_hi]), (None, None, blue.whole())
        for r0, b0, new in _blocks(*tables, per):
            totals = new.sum(axis=-1).ravel()
            if order is not None:
                totals = totals.take(order)
            totals = totals[: None if stop is None else stop - done]
            if accept is None:
                q = int(totals.argmin())
                hit = best is None or totals[q] < best[1]
            else:
                hits = accept(totals - total)
                q = int(hits.argmax())
                hit = bool(hits[q])
            if hit:
                at = divmod(q if order is None else int(order[q]), new.shape[1])
                best = (done + q, totals[q], r_lo + r0 + at[0], b_lo + b0 + at[1])
            done += len(totals)
            if hit and accept is not None or done == stop:
                break
        if done == stop or accept is not None and best is not None:
            break
    if best is None:
        return None
    index, new_total, r, b = best
    return index, SwapMove(*red.pick(r), *blue.pick(b)), new_total.item()


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
