"""Finite (pseudo)metric spaces over locations 0..n-1.

Distances live in a dense matrix: exact 64-bit integers whenever every
input value is integral, floats otherwise. Zero distance between distinct
locations is deliberately allowed; several constructions in this package
co-locate a client with a facility.

Spaces come from one of two builders: `from_matrix` validates an explicit
table, `from_graph` closes a weighted graph under shortest paths and fills
cross-component pairs with a sentinel larger than any connected distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import InputError

# Relative slack for triangle checks on float tables.
FLOAT_TOL = 1e-9

# Full triangle validation is O(n^3); above this size it only runs on request.
TRIANGLE_CHECK_LIMIT = 512


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

    @cached_property
    def rows(self) -> list:
        """Distance table as nested lists of Python scalars, for serialization
        and single lookups."""
        return self.dist.tolist()

    def d(self, i: int, j: int):
        return self.rows[i][j]


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


def _is_integral_value(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def from_matrix(table, tau: float | None = None, check_triangle: bool | None = None) -> MetricSpace:
    """Validate a square distance table and wrap it as a MetricSpace.

    tau is the relative triangle slack; defaults to 0 for integer tables
    and 1e-9 for float ones. check_triangle=None means "only when
    n <= TRIANGLE_CHECK_LIMIT"; pass True/False to force either way.
    Raises MetricError with witnessing indices on the first failure found.
    """
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MetricError(f"distance table must be square, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.number):
        raise MetricError(f"distance table must be numeric, got dtype {arr.dtype}")
    integral = np.issubdtype(arr.dtype, np.integer)
    arr = arr.astype(np.int64 if integral else np.float64)
    n = arr.shape[0]
    if tau is None:
        tau = 0.0 if integral else FLOAT_TOL

    if n:
        neg = np.argwhere(arr < 0)
        if len(neg):
            i, j = map(int, neg[0])
            raise MetricError(f"negative distance {arr[i, j]} at ({i}, {j})", witness=(i, j))
        diag = np.argwhere(np.diagonal(arr) != 0)
        if len(diag):
            i = int(diag[0][0])
            raise MetricError(f"nonzero diagonal {arr[i, i]} at ({i}, {i})", witness=(i, i))
        asym = np.argwhere(arr != arr.T)
        if len(asym):
            i, j = map(int, asym[0])
            raise MetricError(
                f"asymmetry at ({i}, {j}): {arr[i, j]} != {arr[j, i]}", witness=(i, j)
            )

    if check_triangle is None:
        check_triangle = n <= TRIANGLE_CHECK_LIMIT
    if check_triangle:
        _check_triangle(arr, tau)

    return MetricSpace(n=n, dist=arr, integral=integral)


def _check_triangle(arr: np.ndarray, tau: float) -> None:
    n = arr.shape[0]
    for k in range(n):
        via = arr[:, k, None] + arr[None, k, :]
        if tau:
            allowed = via + tau * np.maximum(1.0, via)
        else:
            allowed = via
        bad = np.argwhere(arr > allowed)
        if len(bad):
            i, j = map(int, bad[0])
            raise MetricError(
                f"triangle violation at ({i}, {j}): {arr[i, j]} > "
                f"{arr[i, k]} + {arr[k, j]} via {k}",
                witness=(i, k, j),
            )


def from_graph(spec: GraphSpec) -> MetricSpace:
    """Shortest-path closure of a weighted graph.

    Output satisfies the full metric contract by construction; vertices in
    different components sit at exactly the sentinel distance, which exceeds
    every connected shortest path under the "auto" policy.
    """
    n = spec.n
    if n < 0:
        raise MetricError(f"vertex count must be nonnegative, got {n}")
    integral = True
    total = 0
    for e in spec.edges:
        if len(e) != 3:
            raise MetricError(f"edge must be (u, v, length), got {e!r}")
        u, v, w = e
        if not (0 <= u < n and 0 <= v < n):
            raise MetricError(f"edge endpoint out of range in {e!r}")
        if w < 0:
            raise MetricError(f"negative edge length in {e!r}")
        if not _is_integral_value(w):
            integral = False
        total += w

    if spec.sentinel_policy == "auto":
        sentinel = 1 + total
    else:
        sentinel = spec.sentinel_policy
        if not isinstance(sentinel, (int, float)) or isinstance(sentinel, bool):
            raise MetricError(f"sentinel_policy must be 'auto' or a number, got {sentinel!r}")
        if not _is_integral_value(sentinel):
            integral = False

    dtype = np.int64 if integral else np.float64
    dist = np.full((n, n), sentinel, dtype=dtype)
    np.fill_diagonal(dist, 0)
    for u, v, w in spec.edges:
        if u == v:
            continue
        if w < dist[u, v]:
            dist[u, v] = dist[v, u] = w
    # Floyd-Warshall; sentinel entries only ever relax to true path lengths,
    # sums stay below 2 * sentinel so int64 cannot overflow at sane scales.
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)

    return MetricSpace(n=n, dist=dist, integral=integral)
