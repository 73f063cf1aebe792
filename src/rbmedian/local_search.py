"""Multi-swap local search.

A move closes up to p open facilities of each colour and opens equally
many closed ones of the same colour, keeping both budgets intact. The
neighborhood is enumerated in a fixed canonical order: swap sizes (a, b)
ascending lexicographically, then the index tuples (close_red, open_red,
close_blue, open_blue) lexicographically. Every determinism guarantee in
this module (best-improvement tie-breaks, first-improvement selection,
witness reporting) is stated against that order, which `_swap_groups`
alone defines.

Each swap size (a, b) is priced as one outer minimum over (close_red,
open_red, close_blue, open_blue). Per colour and swap size, the scan
computes once, when first needed, the columnwise minimum over what each
close set leaves open and over each open set; a state (close, open) is the
minimum of the two, and a move's new distances are the minimum of its red
and blue states. Blocks are contiguous runs of the canonical order, cut
from broadcast slices of those minima and holding about _BLOCK_ENTRIES
(moves x clients) entries, so the working arrays stay in cache. A colour's
whole state table is built once when it fits in a block; when the blue one
does not, each red state is folded into the blue close-set minima instead.
A delta is the sum of new minus current distance over one contiguous client
row; integer metrics stay in int64, so their deltas are exact.

With epsilon > 0 a move is accepted only if it cuts cost by a relative
(epsilon / n) factor, which bounds the number of iterations; epsilon = 0
accepts any strict improvement.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

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
    in `inst.clients` order; fill, no less than any distance, is the
    minimum over an empty set of locations."""
    rows = inst.space.dist[:, np.asarray(inst.clients, dtype=np.intp)]
    return rows, np.iinfo(rows.dtype).max if inst.space.integral else np.inf


def _subset_minima(rows: np.ndarray, combos, fill=None) -> np.ndarray:
    """Columnwise minimum of rows[c] per combination c; `fill` where c is empty."""
    return rows[np.asarray(combos, dtype=np.intp)].min(axis=1, initial=fill)


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


def _scan(inst: Instance, assignment: Assignment, groups, accept=None):
    """Price the moves of `groups` block by block, in canonical order.

    `accept` maps an array of deltas to a boolean mask. With it, the first
    move that passes is returned; without it, the move of least delta,
    ties to the lowest index. Returns (canonical index, move, delta), or
    None when no move qualifies.
    """
    rows, fill = _client_rows(inst)
    cur = assignment.distance
    per = _block_moves(len(cur))
    memo = {}  # id(side) -> (side, kept, added, states): per colour and swap size

    def minima(side, chosen):
        if id(side) not in memo:
            closes, opens = side
            kept = _subset_minima(rows, [[f for f in chosen if f not in c] for c in closes], fill)
            added = _subset_minima(rows, opens, fill)
            fits = len(closes) * len(opens) <= per
            memo[id(side)] = (side, kept, added, _states(kept, added) if fits else None)
        return memo[id(side)][1:]

    best = None
    base = 0
    for red_side, blue_side in groups:
        red = minima(red_side, assignment.solution.R)
        blue = minima(blue_side, assignment.solution.B)
        n_or, n_ob = len(red[1]), len(blue[1])
        n_blue = len(blue[0]) * n_ob
        for r0, b0, new in _blocks(red, blue, per):
            new -= cur
            deltas = new.sum(axis=-1).ravel()
            if accept is None:
                q = int(deltas.argmin())
                if best is not None and not deltas[q] < best[2]:
                    continue
            else:
                hits = accept(deltas)
                q = int(hits.argmax())
                if not hits[q]:
                    continue
            r, b = r0 + q // new.shape[1], b0 + q % new.shape[1]
            (i_cr, i_or), (i_cb, i_ob) = divmod(r, n_or), divmod(b, n_ob)
            move = SwapMove(red_side[0][i_cr], red_side[1][i_or], blue_side[0][i_cb], blue_side[1][i_ob])
            best = (base + r * n_blue + b, move, deltas[q].item())
            if accept is not None:
                return best
        base += len(red[0]) * n_or * n_blue
    return best


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
    cannot loop.
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
