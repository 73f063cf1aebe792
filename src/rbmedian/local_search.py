"""Multi-swap local search.

A move closes up to p open facilities of each colour and opens equally
many closed ones of the same colour, keeping both budgets intact. The
neighborhood is enumerated in a fixed canonical order: swap sizes (a, b)
ascending lexicographically, then the index tuples (close_red, open_red,
close_blue, open_blue) lexicographically. Every determinism guarantee in
this module (best-improvement tie-breaks, first-improvement selection,
witness reporting) is stated against that order, which `_swap_groups`
alone defines.

Moves are priced in blocks: a block is every move sharing (a, b,
close_red). For each close_blue the columnwise minimum over the open
facilities that stay open is computed once; then every (open_red,
close_blue, open_blue) of the block is priced by one numpy minimum with
the opened facilities' rows and a sum of new minus current distance over
the clients. Working arrays hold at most _BATCH moves. Integer metrics
stay in int64, so their deltas are exact.

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

# Most moves (or subsets) held in one working array. Measured on a 2-CPU
# host against 16384: this size scans and brute-forces no slower, and
# repeated brute forces of the (p, ell) = (1, 10) family peak at a steady
# 257 MB instead of 290-306 MB.
_BATCH = 2048


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
    solution: Solution
    assignment: Assignment
    iterations: int
    trace: list
    termination: str

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
    """Yield the neighborhood as (close_reds, open_reds, close_blues, open_blues).

    One group per swap size (a, b); its moves are the product of the four
    lists in that order, which is the canonical order. Each close_red
    starts one block. `sol` is taken as feasible: callers have evaluated it.
    """
    r_open = sorted(sol.R)
    r_pool = sorted(inst.red_set - sol.R)
    b_open = sorted(sol.B)
    b_pool = sorted(inst.blue_set - sol.B)
    max_a = min(p, len(r_open), len(r_pool))
    max_b = min(p, len(b_open), len(b_pool))
    for a in range(max_a + 1):
        for b in range(max_b + 1):
            if a == 0 and b == 0:
                continue
            yield (list(combinations(r_open, a)), list(combinations(r_pool, a)),
                   list(combinations(b_open, b)), list(combinations(b_pool, b)))


def neighborhood_size(inst: Instance, p: int) -> int:
    """Closed-form move count; matches enumeration exactly."""
    def one_colour(k, total):
        spare = total - k
        return sum(math.comb(k, a) * math.comb(spare, a) for a in range(min(p, k, spare) + 1))

    return one_colour(inst.k_r, len(inst.red)) * one_colour(inst.k_b, len(inst.blue)) - 1


def _subset_minima(rows: np.ndarray, combos, fill=None) -> np.ndarray:
    """Columnwise minimum of rows[c] per combination c; `fill` where c is empty."""
    return rows[np.asarray(combos, dtype=np.intp)].min(axis=1, initial=fill)


def _without(ids, dropped) -> list:
    return [f for f in ids if f not in dropped]


def _scan(inst: Instance, assignment: Assignment, groups, accept=None):
    """Price the moves of `groups` block by block, in canonical order.

    `accept` maps an array of deltas to a boolean mask. With it, the first
    move that passes is returned; without it, the move of least delta,
    ties to the lowest index. Returns (canonical index, move, delta), or
    None when no move qualifies.
    """
    rows = inst.space.dist[:, np.asarray(inst.clients, dtype=np.intp)]
    fill = np.iinfo(rows.dtype).max if inst.space.integral else np.inf
    cur = assignment.distance
    r_open = sorted(assignment.solution.R)
    b_open = sorted(assignment.solution.B)
    best = None
    base = 0
    for close_reds, open_reds, close_blues, open_blues in groups:
        or_min = _subset_minima(rows, open_reds, fill)
        ob_min = _subset_minima(rows, open_blues, fill)
        b_kept = _subset_minima(rows, [_without(b_open, cb) for cb in close_blues], fill)
        n_cb, n_ob = len(close_blues), len(open_blues)
        n_outer = len(open_reds) * n_cb  # (open_red, close_blue) pairs
        width = min(n_ob, _BATCH)
        step = _BATCH // width
        for cr in close_reds:
            r_kept = rows[_without(r_open, cr)].min(axis=0, initial=fill)
            survivors = np.minimum(b_kept, r_kept)
            for lo in range(0, n_outer, step):
                outer = np.arange(lo, min(lo + step, n_outer))
                kept = np.minimum(or_min[outer // n_cb], survivors[outer % n_cb])
                for t in range(0, n_ob, width):
                    new = np.minimum(kept[:, None, :], ob_min[None, t : t + width, :])
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
                    o, i_ob = lo + q // width, t + q % width  # width < n_ob only if step == 1
                    i_or, i_cb = divmod(o, n_cb)
                    move = SwapMove(cr, open_reds[i_or], close_blues[i_cb], open_blues[i_ob])
                    best = (base + o * n_ob + i_ob, move, deltas[q].item())
                    if accept is not None:
                        return best
            base += n_outer * n_ob
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
    iterations = 0
    termination = TERMINATION_LOCAL_OPT
    while True:
        if iterations >= config.max_iters:
            termination = TERMINATION_ITERATION_CAP
            break
        picked = _select_move(inst, assignment, config)
        if picked is None:
            break
        move, _delta = picked
        sol = apply_move(sol, move)
        assignment = evaluate(inst, sol)
        trace.append(assignment.total)
        iterations += 1
    return SearchResult(
        solution=sol,
        assignment=assignment,
        iterations=iterations,
        trace=trace,
        termination=termination,
    )
