"""Finite (pseudo)metric spaces over locations 0..n-1.

Distances live in a dense matrix: exact 64-bit integers below 2^62
whenever every input value is an integer, floats otherwise, and finite
either way. Zero distance between distinct locations is deliberately
allowed; several constructions in this package co-locate a client with a
facility.

Spaces come from one of two builders: `from_matrix` validates an explicit
table, `from_graph` closes a weighted graph under shortest paths and fills
cross-component pairs with a sentinel larger than any connected distance.
Both decode their entries with `_decode` and relax with `_relax`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add
from typing import Union

import numpy as np

from .errors import FormatError, InputError

# Relative slack for triangle checks on float tables.
FLOAT_TOL = 1e-9

# Full triangle validation is O(n^3); above this size it only runs on request.
TRIANGLE_CHECK_LIMIT = 512

# Integer entries stay below this, so any two of them add without leaving int64.
INT_LIMIT = 2**62

# Entry types a distance table may hold: the JSON numbers and decimal strings.
_ENTRY_TYPES = {int, float, str}


class MetricError(InputError):
    """Raised when a distance table fails validation.

    `witness` carries the offending indices: (i, j) for entry-level
    failures, (i, k, j) for a triangle violation d(i,j) > d(i,k) + d(k,j).
    """

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


@dataclass(eq=False)
class MetricSpace:
    """Validated symmetric distance table with zero diagonal.

    `dist` is an (n, n) numpy array, int64 when `integral` else float64.
    Treated as immutable after construction.
    """

    n: int
    dist: np.ndarray
    integral: bool

    def __post_init__(self):
        self.dist.flags.writeable = False


@dataclass(frozen=True)
class GraphSpec:
    """Undirected weighted graph over n vertices.

    edges: (u, v, length) triples, length >= 0; parallel edges collapse to
    the shortest. sentinel_policy is "auto" (one plus the sum of all edge
    lengths, strictly larger than any path) or an explicit numeric value
    for cross-component distances.
    """

    n: int
    edges: tuple
    sentinel_policy: Union[str, int, float] = "auto"


def _decode(rows) -> np.ndarray:
    """Nested rows of ints, floats or decimal strings (the JSON forms) as
    one array: int64 if every entry is an int, else float64, strings read as
    `float` reads them. Other entries, or ones that do not fit, are a FormatError."""
    for row in (rows if isinstance(rows, (list, tuple)) else [rows]):
        if not isinstance(row, (list, tuple)):
            raise FormatError(f"distance table rows must be lists, got {row!r}")
    kinds = set(map(type, chain.from_iterable(rows)))
    if not kinds <= _ENTRY_TYPES:
        bad = next(x for x in chain.from_iterable(rows) if type(x) not in _ENTRY_TYPES)
        raise FormatError(f"distance entries must be numbers or decimal strings, got {bad!r}")
    if not rows:  # no rows is the 0 x 0 table, not a 1-D array
        return np.zeros((0, 0), dtype=np.int64)
    dtype = np.int64 if kinds <= {int} else np.float64
    try:
        return np.array(rows, dtype=dtype)
    except OverflowError:
        big = max((x for x in chain.from_iterable(rows) if type(x) is int), key=abs)
        raise FormatError(f"integer distance {big} does not fit {dtype.__name__}") from None
    except ValueError as e:
        raise FormatError(f"bad distance data: {e}") from None


def _relax(d: np.ndarray, out: np.ndarray) -> None:
    """out[i, j] = min(out[i, j], d[i, k] + d[k, j]) for k = 0, 1, ... in turn:
    Floyd-Warshall when out is d, the min-plus square when out is a copy of d."""
    for k in range(len(d)):
        np.minimum(out, d[:, k, None] + d[None, k, :], out=out)


def from_matrix(table, tau: float | None = None, check_triangle: bool | None = None) -> MetricSpace:
    """Validate a square distance table and wrap it as a MetricSpace.

    table is nested rows of ints, floats or decimal strings, or a numpy
    array. tau is the relative triangle slack; defaults to 0 for integer
    tables and 1e-9 for float ones. check_triangle=None means "only when
    n <= TRIANGLE_CHECK_LIMIT"; pass True/False to force either way.
    Raises MetricError with witnessing indices on the first failure found.
    """
    if isinstance(table, np.ndarray):
        arr = _decode(table.tolist()).reshape(table.shape)  # tolist() flattens an empty table
    else:
        arr = _decode(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MetricError(f"distance table must be square, got shape {arr.shape}")
    integral = arr.dtype == np.int64
    n = arr.shape[0]
    if tau is None:
        tau = 0.0 if integral else FLOAT_TOL

    for bad, what in (
        (~np.isfinite(arr), "non-finite distance"),
        (arr < 0, "negative distance"),
        (np.eye(n, dtype=bool) & (arr != 0), "nonzero diagonal"),
    ):
        hit = np.argwhere(bad)
        if len(hit):
            i, j = map(int, hit[0])
            raise MetricError(f"{what} {arr[i, j]} at ({i}, {j})", witness=(i, j))
    asym = np.argwhere(arr != arr.T)
    if len(asym):
        i, j = map(int, asym[0])
        raise MetricError(f"asymmetry at ({i}, {j}): {arr[i, j]} != {arr[j, i]}", witness=(i, j))
    if integral and arr.max(initial=0) >= INT_LIMIT:
        raise MetricError(
            f"integer distance {arr.max()} is not below 2^62: two could overflow int64")

    if check_triangle is None:
        check_triangle = n <= TRIANGLE_CHECK_LIMIT
    if check_triangle:
        _check_triangle(arr, tau)

    return MetricSpace(n=n, dist=arr, integral=integral)


def _check_triangle(arr: np.ndarray, tau: float) -> None:
    """Reject the first (i, j) in row-major order with d(i, j) above
    M[i, j] = min_k d(i, k) + d(k, j) plus slack tau * max(1, M); the slack
    grows with M, so this decides as checking every k would."""
    via = arr.copy()
    _relax(arr, via)
    allowed = via + tau * np.maximum(1.0, via) if tau else via
    bad = np.argwhere(arr > allowed)
    if len(bad):
        i, j = map(int, bad[0])
        k = int(np.argmin(arr[i, :] + arr[:, j]))  # the lowest k attaining M[i, j]
        raise MetricError(
            f"triangle violation at ({i}, {j}): {arr[i, j]} > "
            f"{arr[i, k]} + {arr[k, j]} via {k}",
            witness=(i, k, j),
        )


def from_graph(spec: GraphSpec) -> MetricSpace:
    """Shortest-path closure of a weighted graph.

    Output satisfies the full metric contract by construction; vertices in
    different components sit at exactly the sentinel distance, which exceeds
    every connected shortest path under the "auto" policy. Lengths are
    decoded as `from_matrix` entries are.
    """
    n = spec.n
    if n < 0:
        raise MetricError(f"vertex count must be nonnegative, got {n}")
    for e in spec.edges:
        if len(e) != 3:
            raise MetricError(f"edge must be (u, v, length), got {e!r}")
        if not (0 <= e[0] < n and 0 <= e[1] < n):
            raise MetricError(f"edge endpoint out of range in {e!r}")
    policy = spec.sentinel_policy
    auto = policy == "auto"
    if not auto and type(policy) not in (int, float):
        raise MetricError(f"sentinel_policy must be 'auto' or a number, got {policy!r}")

    # An explicit sentinel is decoded with the lengths: a float one makes the table float.
    weights = _decode([[e[2] for e in spec.edges] + [0 if auto else policy]])[0]
    lengths = weights[:-1]
    for bad, what in ((~np.isfinite(lengths), "non-finite"), (lengths < 0, "negative")):
        if bad.any():
            raise MetricError(f"{what} edge length in {spec.edges[int(bad.argmax())]!r}")
    integral = weights.dtype == np.int64
    # summed left to right, exactly for integers
    sentinel = 1 + reduce(add, lengths.tolist(), 0) if auto else weights[-1].item()
    if not 0 <= sentinel < (INT_LIMIT if integral else math.inf):
        raise MetricError(f"sentinel distance {sentinel} must be nonnegative and below "
                          + ("2^62 in an integer table" if integral else "infinity"))

    dist = np.full((n, n), sentinel, dtype=weights.dtype)
    u, v = np.array([e[:2] for e in spec.edges], dtype=np.intp).reshape(-1, 2).T
    np.minimum.at(dist, (u, v), lengths)
    np.minimum.at(dist, (v, u), lengths)
    np.fill_diagonal(dist, 0)
    # Every entry is at most the sentinel, below 2^62 for integers, so no sum leaves int64.
    _relax(dist, dist)
    return MetricSpace(n=n, dist=dist, integral=integral)
