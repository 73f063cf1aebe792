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

import numpy as np

from .errors import FormatError, InputError

# Relative slack for triangle checks on float tables.
FLOAT_TOL = 1e-9

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

    `dist` is an (n, n) int64 or float64 numpy array; `n` and `integral`
    are read off it. Treated as immutable after construction.
    """

    dist: np.ndarray

    def __post_init__(self):
        self.dist.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.dist)

    @property
    def integral(self) -> bool:
        return self.dist.dtype == np.int64


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


def _relax(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out[i, j] = min(out[i, j], a[k, i] + b[k, j]) for k = 0, 1, ... in
    turn: Floyd-Warshall when a, b and out are one symmetric table, else
    the min-plus product if out starts as entries that some k term equals."""
    for k in range(len(a)):
        np.minimum(out, a[k, :, None] + b[k, None, :], out=out)


def from_matrix(table, facilities=None) -> MetricSpace:
    """Validate a square distance table and wrap it as a MetricSpace.

    table is nested rows of ints, floats or decimal strings, the JSON
    form. Every entry is checked for type, finiteness, sign, symmetry and
    the diagonal; the triangle inequality only where one end is among
    `facilities`, ids in 0..n-1 (all locations when None), as
    `_check_triangle` says. Raises MetricError with witnessing indices on
    the first failure found.
    """
    arr = _decode(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MetricError(f"distance table must be square, got shape {arr.shape}")
    n = arr.shape[0]

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
    if arr.dtype == np.int64 and arr.max(initial=0) >= INT_LIMIT:
        raise MetricError(
            f"integer distance {arr.max()} is not below 2^62: two could overflow int64")

    _check_triangle(arr, range(n) if facilities is None else facilities)
    return MetricSpace(arr)


def _check_triangle(arr: np.ndarray, facilities) -> None:
    """Check the entries with a facility at one end in two O(F^2 n) passes:
    (1) d(f, g) <= d(f, x) + d(x, g) for facilities f, g, any location x;
    (2) d(f, c) <= d(f, g) + d(g, c) for a client c, any facility g; a
    bound M has slack tau * max(1, M), tau 0 for int64, FLOAT_TOL for
    floats. The first failure, by pass then row-major (f, j), gets witness
    (f, k, j), k the lowest id attaining M. The passes decide exactly
    whether some metric contains those entries: a path through them has no
    client-client edge, so (1) bounds one between facilities, by induction
    over its inner facilities, and (2) one ending at a client, whose last
    hop leaves a facility. With every location a facility, (2) is empty
    and (1) is the full check."""
    tau = 0.0 if arr.dtype == np.int64 else FLOAT_TOL
    stray = [f for f in facilities if not 0 <= f < len(arr)]
    if stray:  # numpy would wrap a negative id to a real row
        raise MetricError(f"facility ids {stray} are outside 0..{len(arr) - 1}")
    is_facility = np.zeros(len(arr), dtype=bool)
    is_facility[list(facilities)] = True
    fac, cli = np.flatnonzero(is_facility), np.flatnonzero(~is_facility)
    to_fac = arr[:, fac]  # d(x, f), a row per location
    ff, fc = to_fac[fac], arr[np.ix_(fac, cli)]
    for entries, col_ids, k_ids, a, b in ((ff, fac, np.arange(len(arr)), to_fac, to_fac),
                                          (fc, cli, fac, ff, fc)):
        via = entries.copy()  # the k = f term equals the entry, so via is the 2-hop minimum
        _relax(a, b, via)
        allowed = via + tau * np.maximum(1.0, via) if tau else via
        bad = np.argwhere(entries > allowed)
        if len(bad):
            r, c = map(int, bad[0])
            i, j, k = int(fac[r]), int(col_ids[c]), int(k_ids[np.argmin(a[:, r] + b[:, c])])
            raise MetricError(
                f"triangle violation at ({i}, {j}): {arr[i, j]} > "
                f"{arr[i, k]} + {arr[k, j]} via {k}",
                witness=(i, k, j),
            )


def from_graph(n: int, edges) -> MetricSpace:
    """Shortest-path closure of an undirected weighted graph over n vertices.

    edges are (u, v, length) triples, length >= 0, decoded as `from_matrix`
    entries are; parallel edges collapse to the shortest. Vertices in
    different components sit at the sentinel distance, one plus the sum of
    all edge lengths, which exceeds every connected shortest path.
    """
    if n < 0:
        raise MetricError(f"vertex count must be nonnegative, got {n}")
    for e in edges:
        if len(e) != 3:
            raise MetricError(f"edge must be (u, v, length), got {e!r}")
        if not (0 <= e[0] < n and 0 <= e[1] < n):
            raise MetricError(f"edge endpoint out of range in {e!r}")

    lengths = _decode([[e[2] for e in edges]])[0]
    for bad, what in ((~np.isfinite(lengths), "non-finite"), (lengths < 0, "negative")):
        if bad.any():
            raise MetricError(f"{what} edge length in {edges[int(bad.argmax())]!r}")
    integral = lengths.dtype == np.int64
    sentinel = 1 + reduce(add, lengths.tolist(), 0)  # summed left to right, exactly for integers
    if not sentinel < (INT_LIMIT if integral else math.inf):
        raise MetricError(f"sentinel distance {sentinel} must be nonnegative and below "
                          + ("2^62 in an integer table" if integral else "infinity"))

    dist = np.full((n, n), sentinel, dtype=lengths.dtype)
    u, v = np.array([e[:2] for e in edges], dtype=np.intp).reshape(-1, 2).T
    np.minimum.at(dist, (u, v), lengths)
    np.minimum.at(dist, (v, u), lengths)
    np.fill_diagonal(dist, 0)
    # Every entry is at most the sentinel, below 2^62 for integers, so no sum leaves int64.
    _relax(dist, dist, dist)
    return MetricSpace(dist)
