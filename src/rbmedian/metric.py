"""Finite (pseudo)metric spaces over locations 0..n-1.

Distances live in dense rows: exact 64-bit integers below 2^62 whenever
every input value is an integer, floats otherwise, and finite either way.
Zero distance between distinct locations is deliberately allowed; several
constructions in this package co-locate a client with a facility.

Spaces come from one of two builders: `from_matrix` validates an explicit
table, `from_graph` closes a weighted graph under shortest paths and fills
cross-component pairs with a sentinel larger than any connected distance.
Both decode their entries, ints, floats or decimal strings, with `_decode`.
As the package reads only distances with a facility at one end, `from_matrix`
decodes, checks and keeps only those: a client-to-client entry is checked
for its JSON kind alone, and a bad value there does not exit 2.
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

_TWO_HOP_ENTRIES = 1 << 15  # sums (k terms x entries checked) at once in a triangle check pass

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
    """Validated distance rows, symmetric with zero diagonal where read.

    `dist` is a (len(ids), n) int64 or float64 numpy array holding the
    rows of the ascending ids `ids`, every location when left out; `rows`
    reads it by id. A space from a matrix document holds its facility rows
    alone, and a client-to-client entry there was checked for its JSON kind
    only, so a bad value there does not exit 2. `n` and `integral` are
    read off the rows. Treated as immutable after construction.
    """

    dist: np.ndarray
    ids: np.ndarray | None = None

    def __post_init__(self):
        self.dist.flags.writeable = False
        self.ids = np.arange(len(self.dist)) if self.ids is None else np.asarray(self.ids, dtype=np.intp)
        self._at = np.full(self.n, -1, dtype=np.intp)  # the row of each id, -1 where none
        self._at[self.ids] = np.arange(len(self.ids))

    @property
    def n(self) -> int:
        return self.dist.shape[1]

    @property
    def integral(self) -> bool:
        return self.dist.dtype == np.int64

    def rows(self, ids) -> np.ndarray:
        """A new array of d(i, x) for each i of `ids`, an id array of any
        shape, and every location x. A MetricError if some i has no row."""
        at = np.asarray(ids, dtype=np.intp)
        if len(self.ids) < self.n:  # not every row is held: find each, and refuse a missing one
            at = self._at[at]
            if at.min(initial=0) < 0:
                raise MetricError(f"no distance row held for locations {np.asarray(ids)[at < 0].tolist()}")
        return self.dist.take(at, axis=0)


def _kind(rows):
    """int64 if every entry of the nested rows is an int, else float64; rows
    that are not lists, or entries not of a JSON form, are a FormatError."""
    for row in (rows if isinstance(rows, (list, tuple)) else [rows]):
        if not isinstance(row, (list, tuple)):
            raise FormatError(f"distance table rows must be lists, got {row!r}")
    kinds = set(map(type, chain.from_iterable(rows)))
    if not kinds <= _ENTRY_TYPES:
        bad = next(x for x in chain.from_iterable(rows) if type(x) not in _ENTRY_TYPES)
        raise FormatError(f"distance entries must be numbers or decimal strings, got {bad!r}")
    return np.int64 if kinds <= {int} else np.float64


def _decode(rows, dtype=None) -> np.ndarray:
    """Nested rows of JSON-form entries as one array of `dtype`, by default
    `_kind`'s, strings read as `float` reads them; a FormatError if one does not fit."""
    dtype = dtype or _kind(rows)
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
    """Validate a square distance table and wrap the rows of `facilities`,
    ids in 0..n-1 (every row when None), as a MetricSpace.

    table is nested rows of ints, floats or decimal strings, the JSON form
    as `parse` reads it, int64 only if every entry is an int. Every entry
    is checked for its kind; only those with a facility at one end, which
    the package reads, are decoded, as the rows d(f, ·) and their mirror
    d(·, f) (decoded only where its entry differs from d(f, x)'s), and
    checked for finiteness, sign, the diagonal, symmetry and, as
    `_check_triangle` says, the triangle inequality. Raises MetricError
    with witnessing indices on the first failure found, row-major within
    a check.
    """
    dtype = _kind(table)
    n = len(table)
    if any(len(row) != n for row in table):
        raise MetricError(f"distance table must be square, got {n} rows of sizes {sorted({*map(len, table)})}")
    facilities = range(n) if facilities is None else facilities
    stray = [f for f in facilities if not 0 <= f < n]
    if stray:  # numpy would wrap a negative id to a real row
        raise MetricError(f"facility ids {stray} are outside 0..{n - 1}")
    fac = np.array(sorted(set(facilities)), dtype=np.intp)

    rows = _decode([table[f] for f in fac.tolist()], dtype).reshape(len(fac), n)  # d(f, x)
    cols = rows.copy()  # d(x, f), which is d(f, x) where the two texts agree
    for a, f in enumerate(fac.tolist()):
        row, col = list(table[f]), [r[f] for r in table]
        if row != col:
            xs = [x for x in range(n) if row[x] != col[x]]
            cols[a, xs] = _decode([[col[x] for x in xs]], dtype)[0]

    asym, diag = rows != cols, (fac[:, None] == np.arange(n)) & (rows != 0)
    for bad_rows, bad_cols, message in (
        (~np.isfinite(rows), ~np.isfinite(cols), "non-finite distance {2} at ({0}, {1})"),
        (rows < 0, cols < 0, "negative distance {2} at ({0}, {1})"),
        (diag, diag, "nonzero diagonal {2} at ({0}, {1})"),
        (asym, asym, "asymmetry at ({0}, {1}): {2} != {3}"),
    ):  # bad_rows flags (fac[a], x), bad_cols (x, fac[a]); the first (i, j) row-major fails
        hits = [(int(fac[a]), int(x), rows[a, x], cols[a, x]) for a, x in np.argwhere(bad_rows)[:1]]
        hits += [(int(x), int(fac[a]), cols[a, x], rows[a, x]) for x, a in np.argwhere(bad_cols.T)[:1]]
        if hits:
            hit = min(hits, key=lambda h: h[:2])  # (i, j, d(i, j), d(j, i))
            raise MetricError(message.format(*hit), witness=hit[:2])
    if rows.dtype == np.int64 and rows.max(initial=0) >= INT_LIMIT:
        raise MetricError(
            f"integer distance {rows.max()} is not below 2^62: two could overflow int64")

    _check_triangle(rows, fac)
    return MetricSpace(rows, fac)


def _check_triangle(rows: np.ndarray, fac: np.ndarray) -> None:
    """Check the entries with a facility at one end, given as the rows
    d(f, ·) of the ascending ids fac, symmetric where they meet, in two
    O(F^2 n) passes:
    (1) d(f, g) <= d(f, x) + d(x, g) for facilities f, g, any location x;
    (2) d(f, c) <= d(f, g) + d(g, c) for a client c, any facility g; a
    bound M has slack tau * max(1, M), tau 0 for int64, FLOAT_TOL for
    floats. The first failure, by pass then row-major (f, j), gets witness
    (f, k, j), k the lowest id attaining M. The passes decide exactly
    whether some metric contains those entries: a path through them has no
    client-client edge, so (1) bounds one between facilities, by induction
    over its inner facilities, and (2) one ending at a client, whose last
    hop leaves a facility. With every location a facility, (2) is empty
    and (1) is the full check. Each pass sums the k terms of its 2-hop
    minimum in chunks of about _TWO_HOP_ENTRIES entries, reduced over k."""
    tau = 0.0 if rows.dtype == np.int64 else FLOAT_TOL
    every = np.arange(rows.shape[1])
    cli = np.delete(every, fac)
    ff, fc = rows[:, fac], rows[:, cli]
    for entries, col_ids, k_ids, a, b in ((ff, fac, every, rows.T, rows.T), (fc, cli, fac, ff, fc)):
        via = entries.copy()  # the k = f term equals the entry, so via is the 2-hop minimum
        per = max(1, _TWO_HOP_ENTRIES // max(entries.size, 1))  # k terms at a time
        buf = np.empty((min(per, len(a)), *entries.shape), dtype=entries.dtype)
        for k in range(0, len(a), per):
            sums = np.add(a[k : k + per, :, None], b[k : k + per, None, :], out=buf[: len(a) - k])
            low = np.minimum.reduce(sums, axis=0) if len(sums) > 1 else sums[0]  # one k needs no copy
            np.minimum(via, low, out=via)
        allowed = via + tau * np.maximum(1.0, via) if tau else via
        bad = np.argwhere(entries > allowed)
        if len(bad):
            r, c = map(int, bad[0])
            at = int(np.argmin(a[:, r] + b[:, c]))
            i, j, k = int(fac[r]), int(col_ids[c]), int(k_ids[at])
            raise MetricError(
                f"triangle violation at ({i}, {j}): {entries[r, c]} > {a[at, r]} + {b[at, c]} via {k}",
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
