"""Scalar references, kept as oracles for the numpy kernels.

`scalar_evaluate` assigns clients one at a time in plain Python, the
reference for `evaluate` and its `instance.nearest`. `neighborhood`
enumerates the moves one by one in canonical order and `DeltaEvaluator`
prices one move at a time; the `oracle_*` helpers scan the first with the
second and apply the selection rules move by move, the way the search did
before it priced moves in numpy blocks. `delta_cost` prices any one move
with the search's numpy kernel instead. `deficiency` counts a location
set's blue imbalance straight from the two solutions.
`reference_decode` and `reference_triangle` are the entry-by-entry
decoder and the k-major triangle check that `metric` used before it
decoded a table in one step and checked it against the min-plus square.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from rbmedian.instance import Assignment, Instance, Solution, check_feasible, evaluate
from rbmedian.local_search import SwapMove, _scan, _swap_groups

_INF = float("inf")


def scalar_evaluate(inst: Instance, sol: Solution):
    """(facility, distance, total) as Python lists and scalars, aligned
    with inst.clients: nearest open facility, ties to the lowest index,
    summed left to right from int 0."""
    check_feasible(inst, sol)
    open_fac = sorted(sol.facilities())
    rows = inst.space.dist.tolist()
    facility, distance = [], []
    total = 0
    for j in inst.clients:
        row = rows[j]
        best_f = open_fac[0]
        best_d = row[best_f]
        for f in open_fac[1:]:
            d = row[f]
            if d < best_d:
                best_d, best_f = d, f
        facility.append(best_f)
        distance.append(best_d)
        total += best_d
    return facility, distance, total


class DeltaEvaluator:
    """Incremental cost deltas against one fixed assignment.

    Clients served by a surviving facility can only get cheaper via the
    opened set; clients whose facility closes rescan the survivors. Built
    once per assignment, then O(clients * swap size + closes * open count)
    per move.
    """

    def __init__(self, inst: Instance, assignment: Assignment):
        rows = inst.space.dist.tolist()
        self.client_rows = [rows[j] for j in inst.clients]
        self.current = assignment.distance.tolist()
        self.serving = assignment.facility.tolist()
        self.open_sorted = sorted(assignment.solution.facilities())

    def delta(self, move: SwapMove):
        closing = frozenset(move.close_red) | frozenset(move.close_blue)
        opens = move.open_red + move.open_blue
        survivors = [f for f in self.open_sorted if f not in closing] if closing else None
        total = 0
        for row, cur, srv in zip(self.client_rows, self.current, self.serving):
            if srv in closing:
                best = _INF
                for f in survivors:
                    d = row[f]
                    if d < best:
                        best = d
            else:
                best = cur
            for f in opens:
                d = row[f]
                if d < best:
                    best = d
            if best != cur:
                total += best - cur
        return total


def neighborhood(inst: Instance, sol: Solution, p: int):
    """Yield every valid move of size at most p per colour, canonical order."""
    for group in _swap_groups(inst, sol, p):
        for cr, orr, cb, ob in product(*group):
            yield SwapMove(cr, orr, cb, ob)


def delta_cost(inst: Instance, assignment: Assignment, move: SwapMove):
    """Cost change of one move, priced by the search's own kernel: `_scan`
    over a group holding just that move."""
    group = ([move.close_red], [move.open_red], [move.close_blue], [move.open_blue])
    return _scan(inst, assignment, [group])[2]


def deficiency(members, s_sol: Solution, o_sol: Solution) -> int:
    """Reference blues minus candidate blues inside a location set."""
    members = set(members)
    return len(members & o_sol.B) - len(members & s_sol.B)


def oracle_moves(inst: Instance, sol: Solution, p: int):
    """(assignment, [(move, delta), ...]) over the neighborhood, canonical order."""
    assignment = evaluate(inst, sol)
    ev = DeltaEvaluator(inst, assignment)
    return assignment, [(mv, ev.delta(mv)) for mv in neighborhood(inst, sol, p)]


def oracle_accepts(inst: Instance, total, epsilon: float):
    """The search's acceptance test on one delta, in Python scalars: the
    epsilon bound in exact rationals for integer metrics, in float otherwise."""
    def accepted(delta):
        if not delta < 0:
            return False
        if not epsilon:
            return True
        if inst.space.integral:
            return total + delta <= total * (1 - Fraction(epsilon) / inst.space.n)
        return total + delta <= (1.0 - epsilon / inst.space.n) * total

    return accepted


def oracle_pick(moves, rule: str, accepted):
    """Canonical index of the move a scan picks, or None."""
    if rule == "best":
        if not moves:
            return None
        i = min(range(len(moves)), key=lambda i: moves[i][1])  # first minimum
        return i if accepted(moves[i][1]) else None
    return next((i for i, (_mv, d) in enumerate(moves) if accepted(d)), None)


def _decode_value(x):
    if isinstance(x, bool):
        raise ValueError(f"distance entries must be numbers or decimal strings, got {x!r}")
    if isinstance(x, (int, float)):
        return x
    if isinstance(x, str):
        return float(x)
    raise ValueError(f"distance entries must be numbers or decimal strings, got {x!r}")


def reference_decode(rows) -> np.ndarray:
    """JSON distance rows decoded entry by entry, then made float in a
    second pass unless every entry is an int; the array's type as
    `from_matrix` inferred it. Entries must fit int64."""
    values = [[_decode_value(x) for x in row] for row in rows]
    integral = all(isinstance(x, int) for row in values for x in row)
    if not integral:
        values = [[float(x) for x in row] for row in values]
    arr = np.asarray(values)
    return arr.astype(np.int64 if np.issubdtype(arr.dtype, np.integer) else np.float64)


def reference_triangle(arr: np.ndarray, tau: float):
    """The first triangle violation (i, k, j) in k-major, then row-major
    order, or None: d(i, j) > d(i, k) + d(k, j) beyond the relative slack."""
    for k in range(arr.shape[0]):
        via = arr[:, k, None] + arr[None, k, :]
        allowed = via + tau * np.maximum(1.0, via) if tau else via
        bad = np.argwhere(arr > allowed)
        if len(bad):
            i, j = map(int, bad[0])
            return i, k, j
    return None


def violating_pairs(arr: np.ndarray, tau: float) -> np.ndarray:
    """Mask of every (i, j) that violates the triangle inequality via some k."""
    mask = np.zeros(arr.shape, dtype=bool)
    for k in range(arr.shape[0]):
        via = arr[:, k, None] + arr[None, k, :]
        mask |= arr > (via + tau * np.maximum(1.0, via) if tau else via)
    return mask
