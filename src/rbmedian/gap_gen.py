"""Worst-case instance family for the multi-swap heuristic.

For swap size p and a width parameter ell >= 2p, builds a graph-metric
instance with a designated solution that no swap of size at most p can
improve, yet whose cost exceeds the optimum by a factor approaching
5 + 2/p as ell grows. Costs are integers, so every claim is checkable
exactly.

Layout (three islands, no edges between them, cross-island distance is
the sentinel):

    left    one hub red; p+1 clients on spokes of length alpha; each
            client co-located with one reference red.
    middle  p sections: one local red, ell clients on spokes of length
            beta, each client co-located with one reference blue.
    right   p(ell+1) local blues, each with p dedicated clients at
            distance 1; the t-th client of every local blue also sits at
            distance 1 from the t-th of p shared reference blues.

The designated solution opens the hub, the middle reds, and all right
local blues; the reference solution opens the co-located facilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .errors import CapExceeded, InputError
from .exact import DEFAULT_CAP, brute_force_opt, is_local_opt
from .instance import Instance, Solution, evaluate
from .metric import from_graph


class GapParamError(InputError):
    """Parameters outside the family's validity range."""


@dataclass(frozen=True)
class GapParams:
    p: int
    ell: int

    def __post_init__(self):
        if self.p < 1:
            raise GapParamError(f"p must be >= 1, got {self.p}")
        if self.ell < 2 * self.p:
            raise GapParamError(f"ell must be >= 2p = {2 * self.p}, got {self.ell}")

    @property
    def beta(self) -> int:
        return 2 * self.p

    @property
    def alpha(self) -> int:
        return self.beta * (self.ell - self.p)

    @property
    def k_r(self) -> int:
        return self.p + 1

    @property
    def k_b(self) -> int:
        return self.p * (self.ell + 1)


@dataclass(frozen=True)
class GapLayout:
    """Location ids of every structural role, for tests and diagnostics."""

    left_clients: tuple
    middle_clients: tuple  # [section][position]
    right_clients: tuple  # [local blue][position]
    hub_red: int
    middle_reds: tuple
    left_reference_reds: tuple
    middle_reference_blues: tuple  # [section][position]
    right_local_blues: tuple
    right_reference_blues: tuple


@dataclass(eq=False)
class GapInstance:
    params: GapParams
    instance: Instance
    local_solution: Solution
    global_solution: Solution
    expected_local_cost: int
    expected_global_cost: int
    expected_ratio_lower_bound: Fraction
    layout: GapLayout


def expected_costs(params: GapParams):
    """Closed forms for the designated and reference solution costs."""
    p, ell = params.p, params.ell
    local = params.alpha * (p + 1) + params.beta * p * ell + p * p * (ell + 1)
    globl = p * p * (ell + 1)
    return local, globl


def ratio_lower_bound(p: int, ell: int) -> Fraction:
    return Fraction(5) + Fraction(2, p) - Fraction(10 * p, ell + 1)


def build(params: GapParams) -> GapInstance:
    p, ell = params.p, params.ell
    alpha, beta = params.alpha, params.beta

    n_left_c = p + 1
    n_mid_c = p * ell
    n_right_local = p * (ell + 1)
    n_right_c = n_right_local * p
    n_clients = n_left_c + n_mid_c + n_right_c

    ids = count()
    nxt = ids.__next__
    left_clients = tuple(nxt() for _ in range(n_left_c))
    middle_clients = tuple(
        tuple(nxt() for _ in range(ell)) for _ in range(p)
    )
    right_clients = tuple(
        tuple(nxt() for _ in range(p)) for _ in range(n_right_local)
    )
    hub_red = nxt()
    middle_reds = tuple(nxt() for _ in range(p))
    left_reference_reds = tuple(nxt() for _ in range(n_left_c))
    middle_reference_blues = tuple(
        tuple(nxt() for _ in range(ell)) for _ in range(p)
    )
    right_local_blues = tuple(nxt() for _ in range(n_right_local))
    right_reference_blues = tuple(nxt() for _ in range(p))
    n = nxt()  # ids are consecutive from 0, so the next one is the count

    edges = []
    for t, c in enumerate(left_clients):
        edges.append((c, hub_red, alpha))
        edges.append((c, left_reference_reds[t], 0))
    for s in range(p):
        for c_pos in range(ell):
            c = middle_clients[s][c_pos]
            edges.append((c, middle_reds[s], beta))
            edges.append((c, middle_reference_blues[s][c_pos], 0))
    for f in range(n_right_local):
        for t in range(p):
            c = right_clients[f][t]
            edges.append((c, right_local_blues[f], 1))
            edges.append((c, right_reference_blues[t], 1))

    space = from_graph(n, edges)
    clients = tuple(range(n_clients))
    red = (hub_red,) + middle_reds + left_reference_reds
    blue = (
        tuple(x for sec in middle_reference_blues for x in sec)
        + right_local_blues
        + right_reference_blues
    )
    inst = Instance(space=space, clients=clients, red=red, blue=blue,
                    k_r=params.k_r, k_b=params.k_b)

    local = Solution(
        R=frozenset((hub_red,) + middle_reds),
        B=frozenset(right_local_blues),
    )
    globl = Solution(
        R=frozenset(left_reference_reds),
        B=frozenset(
            tuple(x for sec in middle_reference_blues for x in sec)
            + right_reference_blues
        ),
    )
    exp_local, exp_global = expected_costs(params)
    layout = GapLayout(
        left_clients=left_clients,
        middle_clients=middle_clients,
        right_clients=right_clients,
        hub_red=hub_red,
        middle_reds=middle_reds,
        left_reference_reds=left_reference_reds,
        middle_reference_blues=middle_reference_blues,
        right_local_blues=right_local_blues,
        right_reference_blues=right_reference_blues,
    )
    return GapInstance(
        params=params,
        instance=inst,
        local_solution=local,
        global_solution=globl,
        expected_local_cost=exp_local,
        expected_global_cost=exp_global,
        expected_ratio_lower_bound=ratio_lower_bound(params.p, params.ell),
        layout=layout,
    )


@dataclass
class GapVerifyReport:
    """Per-check status: 'pass', 'fail', or 'skipped: <reason>'.

    Checks too large for the cap are skipped with the count that tripped
    it; a skip is not a pass and the report says which ran.
    """

    params: GapParams
    local_cost: object
    global_cost: object
    checks: dict
    witness: object = None

    @property
    def ok(self) -> bool:
        return all(not v.startswith("fail") for v in self.checks.values())

    def to_doc(self) -> dict:
        doc = {
            "p": self.params.p,
            "ell": self.params.ell,
            "local_cost": self.local_cost,
            "global_cost": self.global_cost,
            "ratio": f"{Fraction(self.local_cost, self.global_cost)}",
            "checks": dict(self.checks),
            "ok": self.ok,
        }
        if self.witness is not None:
            doc["witness"] = self.witness.to_doc()
        return doc


def verify(gap: GapInstance, exhaustive_cap: int = DEFAULT_CAP) -> GapVerifyReport:
    """Check the family's three claims on a built instance.

    (a) both designated solutions evaluate to their closed-form costs,
    (b) the reference solution is the exact optimum (brute force),
    (c) no swap of size at most p improves the designated solution.
    (b) and (c) are skipped, not failed, when their enumeration exceeds
    the cap.
    """
    inst = gap.instance
    checks = {}
    witness = None

    local_cost = evaluate(inst, gap.local_solution).total
    global_cost = evaluate(inst, gap.global_solution).total
    checks["local_cost"] = (
        "pass" if local_cost == gap.expected_local_cost
        else f"fail: evaluated {local_cost}, expected {gap.expected_local_cost}"
    )
    checks["global_cost"] = (
        "pass" if global_cost == gap.expected_global_cost
        else f"fail: evaluated {global_cost}, expected {gap.expected_global_cost}"
    )

    try:
        opt = brute_force_opt(inst, cap=exhaustive_cap)
    except CapExceeded as e:
        checks["global_is_optimum"] = f"skipped: {e}"
    else:
        checks["global_is_optimum"] = (
            "pass" if opt.cost == gap.expected_global_cost
            else f"fail: optimum {opt.cost}, expected {gap.expected_global_cost}"
        )

    try:
        verdict = is_local_opt(inst, gap.local_solution, gap.params.p, cap=exhaustive_cap)
    except CapExceeded as e:
        checks["locally_optimal"] = f"skipped: {e}"
    else:
        if verdict.locally_optimal:
            checks["locally_optimal"] = "pass"
        else:
            witness = verdict.witness
            checks["locally_optimal"] = (
                f"fail: improving move found with delta {verdict.witness_delta}"
            )

    return GapVerifyReport(
        params=gap.params,
        local_cost=local_cost,
        global_cost=global_cost,
        checks=checks,
        witness=witness,
    )
