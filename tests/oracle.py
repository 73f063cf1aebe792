"""Scalar references, kept as oracles for the numpy kernels.

`scalar_evaluate` assigns clients one at a time in plain Python, the
reference for `evaluate` and its `instance.nearest`. `DeltaEvaluator`
prices one move at a time; the `oracle_*` helpers scan the public
`neighborhood()` with it and apply the selection rules move by move, the
way the search did before it priced moves in numpy blocks.
"""

from __future__ import annotations

from rbmedian.instance import Assignment, Instance, Solution, check_feasible, evaluate
from rbmedian.local_search import SwapMove, neighborhood

_INF = float("inf")


def scalar_evaluate(inst: Instance, sol: Solution):
    """(facility, distance, total) as Python lists and scalars, aligned
    with inst.clients: nearest open facility, ties to the lowest index,
    summed left to right from int 0."""
    check_feasible(inst, sol)
    open_fac = sol.open_sorted()
    rows = inst.space.rows
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
        rows = inst.space.rows
        self.client_rows = [rows[j] for j in inst.clients]
        self.current = assignment.distance.tolist()
        self.serving = assignment.facility.tolist()
        self.open_sorted = assignment.solution.open_sorted()

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


def oracle_moves(inst: Instance, sol: Solution, p: int):
    """(assignment, [(move, delta), ...]) over the neighborhood, canonical order."""
    assignment = evaluate(inst, sol)
    ev = DeltaEvaluator(inst, assignment)
    return assignment, [(mv, ev.delta(mv)) for mv in neighborhood(inst, sol, p)]


def oracle_accepts(inst: Instance, total, epsilon: float):
    """The search's acceptance test on one delta, in Python scalars."""
    def accepted(delta):
        if not delta < 0:
            return False
        if epsilon:
            return total + delta <= (1.0 - epsilon / inst.space.n) * total
        return True

    return accepted


def oracle_pick(moves, rule: str, accepted):
    """Canonical index of the move a scan picks, or None."""
    if rule == "best":
        if not moves:
            return None
        i = min(range(len(moves)), key=lambda i: moves[i][1])  # first minimum
        return i if accepted(moves[i][1]) else None
    return next((i for i, (_mv, d) in enumerate(moves) if accepted(d)), None)
