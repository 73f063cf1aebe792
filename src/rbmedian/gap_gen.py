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
from .exact import DEFAULT_CAP, _exact_sum, brute_force_opt, is_local_opt, lower_bound
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
    """Location ids of every structural role, for tests and diagnostics.

    Ids run from 0 in field order, so the clients are the ids below hub_red.
    """

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
    """A built family member; its closed forms are `expected_costs(params)`."""

    params: GapParams
    instance: Instance
    local_solution: Solution
    global_solution: Solution
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
    nxt = count().__next__

    def ids(*shape):  # fresh consecutive ids, nested to this shape; ids() is one
        return tuple(ids(*shape[1:]) for _ in range(shape[0])) if shape else nxt()

    # keyword arguments are evaluated in order, so ids follow field order
    lay = GapLayout(
        left_clients=ids(p + 1),
        middle_clients=ids(p, ell),
        right_clients=ids(params.k_b, p),
        hub_red=ids(),
        middle_reds=ids(p),
        left_reference_reds=ids(p + 1),
        middle_reference_blues=ids(p, ell),
        right_local_blues=ids(params.k_b),
        right_reference_blues=ids(p),
    )
    n = nxt()  # ids are consecutive from 0, so the next one is the count

    edges = []
    for c, ref in zip(lay.left_clients, lay.left_reference_reds):
        edges += [(c, lay.hub_red, params.alpha), (c, ref, 0)]
    for section, red, refs in zip(lay.middle_clients, lay.middle_reds, lay.middle_reference_blues):
        for c, ref in zip(section, refs):
            edges += [(c, red, params.beta), (c, ref, 0)]
    for group, blue in zip(lay.right_clients, lay.right_local_blues):
        for c, ref in zip(group, lay.right_reference_blues):
            edges += [(c, blue, 1), (c, ref, 1)]

    middle_blues = sum(lay.middle_reference_blues, ())
    local_reds = (lay.hub_red, *lay.middle_reds)
    inst = Instance(space=from_graph(n, edges), clients=tuple(range(lay.hub_red)),
                    red=local_reds + lay.left_reference_reds,
                    blue=middle_blues + lay.right_local_blues + lay.right_reference_blues,
                    k_r=params.k_r, k_b=params.k_b)
    local = Solution(R=local_reds, B=lay.right_local_blues)
    globl = Solution(R=lay.left_reference_reds, B=middle_blues + lay.right_reference_blues)
    return GapInstance(params, inst, local, globl, lay)


def format_ratio(num, den) -> str:
    """num / den: an exact fraction for integers, else the float quotient's repr."""
    if isinstance(num, int) and isinstance(den, int):
        return str(Fraction(num, den))
    return repr(num / den)


@dataclass
class GapVerifyReport:
    """Per-check status: 'pass', 'fail', or 'skipped: <reason>'.

    Checks too large for the cap are skipped with the count that tripped
    it; a skip is not a pass. `methods` names the route each search took,
    or was refused on.
    """

    params: GapParams
    local_cost: object
    global_cost: object
    checks: dict
    methods: dict
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
            "ratio": format_ratio(self.local_cost, self.global_cost),
            "checks": dict(self.checks),
            "methods": dict(self.methods),
            "ok": self.ok,
        }
        if self.witness is not None:
            doc["witness"] = self.witness.to_doc()
        return doc


def _expect(what: str, got, want) -> str:
    return "pass" if got == want else f"fail: {what} {got}, expected {want}"


def verify(gap: GapInstance, exhaustive_cap: int = DEFAULT_CAP) -> GapVerifyReport:
    """Check the family's three claims on a built instance.

    (a) both designated solutions evaluate to their closed-form costs,
    (b) the reference solution is the exact optimum: by `lower_bound` when
        it meets the reference's exact cost (LB <= OPT <= cost), as on
        every member, else by brute force,
    (c) no swap of size at most p improves the designated solution.
    A search whose enumeration exceeds the cap is skipped, not failed.
    """
    inst = gap.instance
    want_local, want_global = expected_costs(gap.params)
    local_cost = evaluate(inst, gap.local_solution).total
    reference = evaluate(inst, gap.global_solution)
    global_cost = reference.total
    checks = {
        "local_cost": _expect("evaluated", local_cost, want_local),
        "global_cost": _expect("evaluated", global_cost, want_global),
    }
    witness = None
    bound_met = lower_bound(inst) == _exact_sum(reference.distance)
    methods = {"global_is_optimum": "lower bound" if bound_met else "brute force"}

    def optimum():
        opt = global_cost if bound_met else brute_force_opt(inst, cap=exhaustive_cap).cost
        return _expect("optimum", opt, want_global)

    def no_improving_swap():
        nonlocal witness
        verdict = is_local_opt(inst, gap.local_solution, gap.params.p, cap=exhaustive_cap)
        witness, methods["locally_optimal"] = verdict.witness, verdict.method
        if verdict.locally_optimal:
            return "pass"
        return f"fail: improving move found with delta {verdict.witness_delta}"

    for name, check in (("global_is_optimum", optimum), ("locally_optimal", no_improving_swap)):
        try:
            checks[name] = check()
        except CapExceeded as e:
            checks[name], methods[name] = f"skipped: {e}", e.method

    return GapVerifyReport(gap.params, local_cost, global_cost, checks, methods, witness)
