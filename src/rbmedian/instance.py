"""Problem instances, solutions, and assignments.

An instance partitions the locations of a metric space into clients, red
facilities, and blue facilities, and fixes per-colour opening budgets. A
solution opens exactly k_r red and k_b blue facilities; evaluating it
assigns every client to its nearest open facility (ties to the lowest
facility index) and sums the distances.

JSON formats (used by the CLI and the parse/serialize pair):

    instance: {"n": int,
               "metric": {"matrix": [[...]]} or {"graph": {"edges": [[u, v, len], ...]}},
               "clients": [ids], "red": [ids], "blue": [ids],
               "k_r": int, "k_b": int}
    solution: {"R": [ids], "B": [ids]}

`serialize` writes integer distances as JSON integers and fractional ones
as decimal strings, so round-trips are exact. orjson reads every document,
JSON floats as floats; json reads only what orjson refuses (NaN, Infinity,
1e400, a BOM, bad UTF-8, a lone surrogate, bad syntax), so each message is
json's, and what holds 19 digits in a row, as orjson reads an integer
outside [-2^63, 2^64) as a float. Values and types are json's either way.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import orjson

from .errors import FormatError, InputError
from .metric import MetricSpace, from_graph, from_matrix


class InstanceError(InputError):
    """Instance-level validation failure (partition, budgets, ranges)."""


class InfeasibleSolutionError(InputError):
    """Solution violates the budgets or the colour ground sets."""


def _duplicates(ids) -> list:
    """The ids that occur more than once, ascending."""
    return sorted(x for x, count in Counter(ids).items() if count > 1)


@dataclass(eq=False)
class Instance:
    space: MetricSpace
    clients: tuple
    red: tuple
    blue: tuple
    k_r: int
    k_b: int

    def __post_init__(self):
        self.clients = tuple(sorted(self.clients))
        self.red = tuple(sorted(self.red))
        self.blue = tuple(sorted(self.blue))
        n = self.space.n
        everything = list(self.clients) + list(self.red) + list(self.blue)
        dups = _duplicates(everything)
        if dups:
            raise InstanceError(f"clients/red/blue overlap on {dups}")
        if sorted(everything) != list(range(n)):
            raise InstanceError(
                f"clients/red/blue must cover exactly 0..{n - 1}, got {len(everything)} "
                f"ids over range {min(everything, default=0)}..{max(everything, default=-1)}"
            )
        if not (0 <= self.k_r <= len(self.red)):
            raise InstanceError(f"budget k_r={self.k_r} out of range for {len(self.red)} red facilities")
        if not (0 <= self.k_b <= len(self.blue)):
            raise InstanceError(f"budget k_b={self.k_b} out of range for {len(self.blue)} blue facilities")
        if self.k_r + self.k_b < 1:
            raise InstanceError("at least one facility must be opened: k_r + k_b >= 1")
        if self.space.integral:
            # every cost sums one facility-row entry per client in int64
            top = int(self.space.rows(self.red + self.blue).max(initial=0))
            if top * len(self.clients) >= 2**63:
                raise InstanceError(f"integer distances up to {top} over {len(self.clients)} clients "
                                    "can sum past int64: need max distance * clients < 2^63")

    @property
    def red_set(self) -> frozenset:
        return frozenset(self.red)

    @property
    def blue_set(self) -> frozenset:
        return frozenset(self.blue)


@dataclass(frozen=True)
class Solution:
    """Open facility sets, one per colour."""

    R: frozenset
    B: frozenset

    def __post_init__(self):
        object.__setattr__(self, "R", frozenset(self.R))
        object.__setattr__(self, "B", frozenset(self.B))

    def facilities(self) -> frozenset:
        return self.R | self.B

    def to_doc(self) -> dict:
        return {"R": sorted(self.R), "B": sorted(self.B)}


@dataclass
class Assignment:
    """Result of evaluating a solution.

    `facility` and `distance` are numpy arrays aligned with `inst.clients`:
    entry t is the nearest open facility of client `inst.clients[t]` and
    its distance.
    """

    facility: np.ndarray
    distance: np.ndarray
    total: object  # int or float


def check_feasible(inst: Instance, sol: Solution) -> None:
    for side, chosen, k, pool, colour in (
        ("R", sol.R, inst.k_r, inst.red_set, "red"),
        ("B", sol.B, inst.k_b, inst.blue_set, "blue"),
    ):
        if len(chosen) != k:
            raise InfeasibleSolutionError(
                f"|{side}| = {len(chosen)} != k_{side.lower()} = {k}, {side} = {sorted(chosen)}"
            )
        stray = chosen - pool
        if stray:
            raise InfeasibleSolutionError(f"{side} contains non-{colour} locations {sorted(stray)}")


def nearest(space: MetricSpace, targets, facilities):
    """Nearest of `facilities` to each of `targets`, ties to the lowest index.

    Returns (facility, distance) arrays aligned with `targets`.
    `facilities` must be nonempty, and `space` must hold their rows.
    """
    fac = np.asarray(sorted(facilities), dtype=np.intp)
    block = space.rows(fac).take(np.asarray(targets, dtype=np.intp), axis=1)
    pos = block.argmin(axis=0)  # first minimum, so the lowest index
    return fac[pos], block.min(axis=0)


def evaluate(inst: Instance, sol: Solution) -> Assignment:
    """Assign each client to its nearest open facility, ties to lowest index.

    Distances are summed by numpy's `sum` over the contiguous distance row,
    as the swap scan prices a move, so a float total is the scan's bit for
    bit (a per-client loop may differ in the last bits). Integer totals
    are exact; with no clients the total is int 0.
    """
    check_feasible(inst, sol)
    facility, distance = nearest(inst.space, inst.clients, sol.facilities())
    total = distance.sum().item() if len(distance) else 0
    return Assignment(facility=facility, distance=distance, total=total)


def disjointify(inst: Instance, s_sol: Solution, o_sol: Solution):
    """Make two solutions facility-disjoint by duplicating shared facilities.

    Each facility open in both solutions gets a copy at distance zero; the
    first solution keeps the original, the second is rewritten to use the
    copy. Both costs are preserved exactly. Returns (instance, s, o); the
    inputs come back untouched when already disjoint, or when either holds
    a location outside its colour, so no copy can stand for a bad id.
    Feasibility is the caller's to check, by evaluating the pair it gets
    back, as `decompose` does; a budget error in the second solution then
    names its copies.
    """
    shared = sorted((s_sol.R & o_sol.R) | (s_sol.B & o_sol.B))
    if not shared or not ((s_sol.R | o_sol.R) <= inst.red_set
                          and (s_sol.B | o_sol.B) <= inst.blue_set):
        return inst, s_sol, o_sol

    n = inst.space.n
    idx = list(range(n)) + shared  # copy n + t stands where shared[t] does
    held = inst.space.ids.tolist()  # the copies' rows are their originals'
    space = MetricSpace(inst.space.rows(held + shared)[:, idx], held + list(range(n, len(idx))))

    copy_of = {f: n + t for t, f in enumerate(shared)}
    red = list(inst.red) + [copy_of[f] for f in shared if f in inst.red_set]
    blue = list(inst.blue) + [copy_of[f] for f in shared if f in inst.blue_set]
    bigger = Instance(space=space, clients=inst.clients, red=tuple(red), blue=tuple(blue),
                      k_r=inst.k_r, k_b=inst.k_b)
    o_new = Solution(*(frozenset(copy_of.get(f, f) for f in side) for side in (o_sol.R, o_sol.B)))
    return bigger, s_sol, o_new


def gen_euclidean(n_clients: int, n_red: int, n_blue: int, k_r: int, k_b: int,
                  box_size: float = 1.0, seed: int = 0) -> Instance:
    """Random planar instance: points uniform in a box, Euclidean distances.

    Deterministic in seed. Index layout is clients, then red, then blue.
    """
    for name, v in (("n_clients", n_clients), ("n_red", n_red), ("n_blue", n_blue)):
        if v < 0:
            raise InstanceError(f"{name} must be nonnegative, got {v}")
    if box_size <= 0:
        raise InstanceError(f"box_size must be positive, got {box_size}")
    if not box_size < np.inf:  # also catches NaN
        raise InstanceError(f"box_size must be finite, got {box_size}")
    top = math.sqrt(np.finfo(np.float64).max / 2)  # the squared diagonal 2 * top**2 is finite
    if box_size > top:
        raise InstanceError(f"box_size must be at most {top!r}, so that squared "
                            f"distances stay finite, got {box_size}")
    n = n_clients + n_red + n_blue
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, float(box_size), size=(n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    return Instance(space=MetricSpace(dist), clients=tuple(range(n_clients)),
                    red=tuple(range(n_clients, n_clients + n_red)),
                    blue=tuple(range(n_clients + n_red, n)), k_r=k_r, k_b=k_b)


def serialize(inst: Instance) -> bytes:
    if len(inst.space.ids) < inst.space.n:  # a matrix document needs every row
        raise ValueError(f"cannot serialize a space holding {len(inst.space.ids)} of {inst.space.n} rows")
    rows = inst.space.dist.tolist()
    matrix = rows if inst.space.integral else [list(map(repr, row)) for row in rows]
    doc = {"n": inst.space.n, "metric": {"matrix": matrix}, "clients": list(inst.clients),
           "red": list(inst.red), "blue": list(inst.blue), "k_r": inst.k_r, "k_b": inst.k_b}
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def _require(doc: dict, key: str):
    if key not in doc:
        raise FormatError(f"missing required key {key!r}")
    return doc[key]


def _int_list(doc: dict, key: str) -> list:
    val = _require(doc, key)
    if not isinstance(val, list) or any(not isinstance(x, int) or isinstance(x, bool) for x in val):
        raise FormatError(f"{key!r} must be a list of integers")
    return val


def _load_object(data, what: str) -> dict:
    """The JSON object in `data`, bytes or str, read as the module docstring says."""
    raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    try:
        if b"0" * 19 in raw.translate(bytes.maketrans(b"123456789", b"0" * 9)):  # 19 digits in a row
            raise ValueError
        doc = orjson.loads(raw)
    except ValueError:  # orjson's JSONDecodeError included: json decides
        try:  # json takes the original str, which may hold a lone surrogate
            doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
        except ValueError as e:  # bad JSON or bad UTF-8
            raise FormatError(f"malformed {what}: {e}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be a JSON object")
    return doc


def parse(data) -> Instance:
    """Parse an instance document (bytes or str). Raises FormatError or
    InstanceError; both are input errors as far as callers are concerned.
    A matrix's JSON floats arrive as floats, its decimal strings as text;
    the module docstring says when json reads the document, and why."""
    return _instance(_load_object(data, "instance document"))


def _instance(doc: dict) -> Instance:
    n = _require(doc, "n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise FormatError(f"'n' must be a nonnegative integer, got {n!r}")
    metric_doc = _require(doc, "metric")
    if not isinstance(metric_doc, dict):
        raise FormatError("'metric' must be an object")
    roles = {key: _int_list(doc, key) for key in ("clients", "red", "blue")}

    if "matrix" in metric_doc:
        matrix = metric_doc["matrix"]
        if not isinstance(matrix, list) or len(matrix) != n:  # from_matrix checks the rows
            raise FormatError(f"metric matrix must be {n}x{n}")
        space = from_matrix(matrix, roles["red"] + roles["blue"])
    elif "graph" in metric_doc:
        graph = metric_doc["graph"]
        if not isinstance(graph, dict) or not isinstance(graph.get("edges"), list):
            raise FormatError("'graph' must be an object with an 'edges' list")
        for e in graph["edges"]:
            if not isinstance(e, list) or len(e) != 3:
                raise FormatError(f"graph edge must be [u, v, length], got {e!r}")
            if type(e[0]) is not int or type(e[1]) is not int:
                raise FormatError(f"graph edge endpoints must be integers in {e!r}")
        space = from_graph(n, tuple(map(tuple, graph["edges"])))
    else:
        raise FormatError("'metric' must contain either 'matrix' or 'graph'")

    for key in ("k_r", "k_b"):
        if type(_require(doc, key)) is not int:
            raise FormatError(f"{key!r} must be an integer, got {doc[key]!r}")

    return Instance(space=space, **{key: tuple(ids) for key, ids in roles.items()},
                    k_r=doc["k_r"], k_b=doc["k_b"])


def serialize_solution(sol: Solution) -> bytes:
    return json.dumps(sol.to_doc(), separators=(",", ":")).encode("utf-8")


def parse_solution(data) -> Solution:
    doc = _load_object(data, "solution document")
    sides = [_int_list(doc, key) for key in ("R", "B")]
    for key, ids in zip("RB", sides):
        if _duplicates(ids):
            raise FormatError(f"{key!r} lists facilities more than once: {_duplicates(ids)}")
    return Solution(*sides)
