"""Scalar references, kept as oracles for the numpy kernels.

`scalar_evaluate` assigns clients one at a time in plain Python, the
reference for `evaluate` and its `instance.nearest`. `neighborhood`
enumerates the moves one by one in canonical order, from the order's
definition (`plan_moves`), and `DeltaEvaluator`
prices one move at a time; the `oracle_*` helpers scan the first with the
second and apply the selection rules move by move, the way the search did
before it priced moves in numpy blocks. `delta_cost` prices any one move
with the search's numpy kernel instead. `deficiency` counts a location
set's blue imbalance straight from the two solutions.
`reference_decode` and `reference_triangle` are the entry-by-entry
decoder and the k-major triangle check that `metric` used before it
decoded a table in one step and checked it against the min-plus square.
`reference_facility_check` decides the facility-rows check from its
definition, shortest paths over the entries with a facility at one end.
`reference_from_matrix` is `from_matrix` as it was when it checked a
table as an n x n array, client-to-client entries held as zeros: the
slow oracle for its messages, witnesses and rows.
`reference_make_groups` and `reference_make_blocks` are the grouping
and block assembly that `decomposition` used before one filler rule
replaced the class-driven fallback cascade.
`reference_island_table` is the island pricer `exact` used before the
swap scan's plan and pricer served the islands too: one product of whole
padded state tables where an island fits a block, else streamed
`_colour_sides`, red states built again for each run of blue ones.
`census` judges every feasible solution of a small instance at once,
from subset bitmasks and the facility rows, sharing no pricing code with
the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, islice, product
from math import prod

import numpy as np

from rbmedian.decomposition import BLUE, RED, FacilityClass, GroupKind
from rbmedian.errors import InternalInvariantError
from rbmedian.instance import Assignment, Instance, Solution, check_feasible, evaluate
from rbmedian.exact import _NONE, _reach
from rbmedian.local_search import SwapMove, _block_moves, _client_rows, _scan, _states, _subset_minima, _swap_sizes
from rbmedian.metric import FLOAT_TOL, INT_LIMIT, MetricError, MetricSpace, _decode, _kind, _relax

_INF = float("inf")


def facility_distances(inst: Instance) -> list:
    """Per client, in inst.clients order, a dict from each facility id to
    its distance, read from the facility rows, which every space holds."""
    fac = inst.red + inst.blue
    rows = inst.space.rows(fac).tolist()
    return [{f: row[j] for f, row in zip(fac, rows)} for j in inst.clients]


def scalar_evaluate(inst: Instance, sol: Solution):
    """(facility, distance, total) as Python lists and scalars, aligned
    with inst.clients: nearest open facility, ties to the lowest index,
    summed left to right from int 0."""
    check_feasible(inst, sol)
    open_fac = sorted(sol.facilities())
    facility, distance = [], []
    total = 0
    for row in facility_distances(inst):
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

    def __init__(self, inst: Instance, sol: Solution, assignment: Assignment):
        self.client_rows = facility_distances(inst)
        self.current = assignment.distance.tolist()
        self.serving = assignment.facility.tolist()
        self.open_sorted = sorted(sol.facilities())

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


def plan_moves(inst: Instance, sol: Solution, sizes):
    """Yield the moves of swap sizes `sizes` in canonical order, from the
    order's definition: swap size by swap size, then close red, open red,
    close blue and open blue sets, each listed lexicographically over its
    colour's open (or spare) ids ascending."""
    colours = [(sorted(chosen), sorted(pool - chosen)) for chosen, pool in
               ((sol.R, inst.red_set), (sol.B, inst.blue_set))]
    for a, b in sizes:
        for move in product(*(combinations(ids, n) for (opened, spare), n in zip(colours, (a, b))
                              for ids in (opened, spare))):
            yield SwapMove(*move)


def neighborhood(inst: Instance, sol: Solution, p: int):
    """Yield every valid move of size at most p per colour, canonical order."""
    return plan_moves(inst, sol, _swap_sizes(inst, p))


def delta_cost(inst: Instance, sol: Solution, move: SwapMove):
    """Cost change of one move from `sol`, priced by the search's own
    kernel: `_scan` over the move's swap-size group alone, so that the
    identity move, which no neighborhood holds, is priced too, accepting
    that move alone. Each side of `move` may list its ids in any order."""
    total = evaluate(inst, sol).total
    sizes = ((len(move.close_red), len(move.close_blue)),)
    move = SwapMove(*(tuple(sorted(ids)) for ids in vars(move).values()))
    target = list(plan_moves(inst, sol, sizes)).index(move)
    seen = 0

    def only(deltas):
        nonlocal seen
        hits = np.arange(seen, seen + len(deltas)) == target
        seen += len(deltas)
        return hits

    return _scan(inst, _client_rows(inst), sol, total, sizes, only)[2] - total


def _runs(kept, added, states, per):
    """Runs of at most `per` consecutive states of one colour, C order, as
    (first state, state rows): slices of `states` when the whole table was
    built, else states of whole close sets or of part of one."""
    if states is not None:
        for lo in range(0, len(states), per):
            yield lo, states[lo : lo + per]
        return
    n_open = len(added)
    step, width = max(per // n_open, 1), min(per, n_open)
    for c in range(0, len(kept), step):
        for o in range(0, n_open, width):
            yield c * n_open + o, _states(kept[c : c + step], added[o : o + width])


def _blocks(red, blue, per):
    """Yield (first red state, first blue state, new distances) per block of
    one group, canonical order; new is (red states, blue states, clients)
    and freshly allocated. A blue table too large for a block is never
    built: each red state is folded into the blue close-set minima."""
    r_kept, r_added, r_states = red
    b_kept, b_added, b_states = blue
    if b_states is not None:
        for r0, r_rows in _runs(r_kept, r_added, r_states, per // len(b_states)):
            yield r0, 0, np.minimum(r_rows[:, None], b_states[None])
    else:
        for r, r_row in _runs(r_kept, r_added, r_states, 1):
            for b0, b_rows in _runs(np.minimum(b_kept, r_row), b_added, None, per):
                yield r, b0, b_rows[None]


def _positions(sets) -> np.ndarray:
    """`sets`, each of one width, as a read-only array, for a cached plan."""
    table = np.array(sets, dtype=np.intp)
    table.flags.writeable = False
    return table


def _colour_sides(rows, fill, open_at, spare_at, p: int, per: int):
    """Yield one colour's island states per count (a, b), at most p, of
    open rows `open_at` closed and spare rows `spare_at` opened, in runs of
    at most `per` sets: ((a, b), the (kept, added, states) `_blocks` takes)."""
    for a in range(min(p, len(open_at)) + 1):
        closes = combinations(open_at, len(open_at) - a)  # what each close set keeps
        while kept := list(islice(closes, per)):
            kept = _subset_minima(rows, kept, fill)
            for b in range(min(p, len(spare_at)) + 1):
                opens = combinations(spare_at, b)
                while added := list(islice(opens, per)):
                    added = _subset_minima(rows, added, fill)
                    yield (a, b), (kept, added, _states(kept, added) if len(kept) * len(added) <= per else None)


@lru_cache(maxsize=32)
def _island_states(n_open: int, n_spare: int, first: int, pad: int, p: int) -> tuple:
    """A colour's island states, open rows from `first`, then spare ones:
    (the rows each leaves open, padded with `pad`; each count's first
    state; the counts (a, b) closed and opened, 2 rows in C order)."""
    counts = [(a, b) for a in range(min(p, n_open) + 1) for b in range(min(p, n_spare) + 1)]
    runs = [[kept + added for kept in combinations(range(first, first + n_open), n_open - a)
             for added in combinations(range(first + n_open, first + n_open + n_spare), b)] for a, b in counts]
    width = max(len(run[0]) for run in runs)
    padded = [state + (pad,) * (width - len(state)) for run in runs for state in run]
    return _positions(padded), _positions(list(accumulate(map(len, runs), initial=0))[:-1]), _positions(counts).T


def reference_island_table(rows, fill, kinds, p: int) -> np.ndarray:
    """Least new total of one island per count tuple (close red, open red,
    close blue, open blue), _NONE where no state has those counts. `rows`
    are its facility rows over its clients, in `kinds` runs: open red,
    spare red, open blue, spare blue. Red states x blue states that fit a
    block are one product of whole state tables, grouped by count; more
    are streamed, the red states built again for each run of blue ones."""
    per, table = _block_moves(rows.shape[1]), np.full((p + 1,) * 4, _NONE)
    if prod(_reach(n, p) for n in kinds) > per:
        open_r, spare_r, open_b, spare_b = np.split(np.arange(len(rows)), np.cumsum(kinds[:3]))
        for b_counts, blue in _colour_sides(rows, fill, open_b, spare_b, p, per):
            for r_counts, red in _colour_sides(rows, fill, open_r, spare_r, p, per):
                least = min(int(new.sum(axis=-1).min()) for *_, new in _blocks(red, blue, per))
                table[r_counts + b_counts] = min(int(table[r_counts + b_counts]), least)
        return table
    padded = np.vstack((rows, np.full(rows.shape[1], fill)))
    (red, r_starts, r_counts), (blue, b_starts, b_counts) = (
        (_subset_minima(padded, states, fill), starts, counts) for states, starts, counts in
        (_island_states(*kinds[:2], 0, len(rows), p), _island_states(*kinds[2:], sum(kinds[:2]), len(rows), p)))
    totals = np.minimum(red[:, None], blue[None]).sum(axis=-1)
    table[(*r_counts[..., None], *b_counts[:, None])] = np.minimum.reduceat(
        np.minimum.reduceat(totals, r_starts, axis=0), b_starts, axis=1)
    return table


def census(inst: Instance, p: int) -> dict:
    """Every feasible (R, B) of `inst`, mapped to (its total, whether no
    swap of at most p facilities of each colour improves it), all judged
    at once from subset bitmasks and the facility rows. A p-swap neighbour
    keeps each budget and shares at least k - p of each colour's k
    facilities (its masks differ in at most 2p bits), so the neighbourhood
    is a red ball times a blue ball; each solution's least total over it is
    a minimum over the red ball, then over the blue ball. Totals are int64
    sums, exact on integer tables."""
    clients, big = list(inst.clients), np.iinfo(np.int64).max
    sides = []
    for pool, k in ((inst.red, inst.k_r), (inst.blue, inst.k_b)):
        subsets = list(combinations(pool, k))
        rows = inst.space.rows(pool)[:, clients] if pool else np.zeros((0, len(clients)), dtype=np.int64)
        masks = np.array([[f in s for f in pool] for s in subsets], dtype=np.int64)
        minima = np.array([rows[mask.astype(bool)].min(axis=0) if k else np.full(len(clients), big) for mask in masks])
        sides.append((subsets, minima, masks @ masks.T >= k - p))
    (reds, r_min, r_ball), (blues, b_min, b_ball) = sides
    totals = np.minimum(r_min[:, None], b_min[None]).sum(axis=-1)
    least = np.where(r_ball[:, :, None], totals[None], big).min(axis=1)
    least = np.where(b_ball[None], least[:, None], big).min(axis=2)
    return {Solution(frozenset(R), frozenset(B)): (int(totals[r, b]), bool(totals[r, b] <= least[r, b]))
            for r, R in enumerate(reds) for b, B in enumerate(blues)}


def deficiency(members, s_sol: Solution, o_sol: Solution) -> int:
    """Reference blues minus candidate blues inside a location set."""
    members = set(members)
    return len(members & o_sol.B) - len(members & s_sol.B)


def oracle_moves(inst: Instance, sol: Solution, p: int):
    """(assignment, [(move, delta), ...]) over the neighborhood, canonical order."""
    assignment = evaluate(inst, sol)
    ev = DeltaEvaluator(inst, sol, assignment)
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


def reference_facility_check(arr: np.ndarray, facilities, tau: float) -> bool:
    """Whether every entry of arr with one of facilities at an end is
    within the relative slack of its shortest path in the graph of those
    entries: Floyd-Warshall with the client-client entries left out.
    Paths are summed in float64, exactly for the small integers tested."""
    fac = np.zeros(len(arr), dtype=bool)
    fac[list(facilities)] = True
    readable = fac[:, None] | fac[None, :]
    path = np.where(readable, arr.astype(np.float64), np.inf)
    for k in range(len(arr)):
        path = np.minimum(path, path[:, k, None] + path[None, k, :])
    allowed = path + tau * np.maximum(1.0, path) if tau else path
    return not (readable & (arr > allowed)).any()


def reference_from_matrix(table, facilities=None) -> MetricSpace:
    """`from_matrix` over an n x n array: the facility rows and their
    mirror entries decoded into it, every other entry 0, each check run
    over the whole array, then the facility rows sliced out."""
    dtype = _kind(table)
    n = len(table)
    if any(len(row) != n for row in table):
        raise MetricError(f"distance table must be square, got {n} rows of sizes {sorted({*map(len, table)})}")
    facilities = range(n) if facilities is None else facilities
    stray = [f for f in facilities if not 0 <= f < n]
    if stray:
        raise MetricError(f"facility ids {stray} are outside 0..{n - 1}")
    is_facility = np.zeros(n, dtype=bool)
    is_facility[list(facilities)] = True
    fac = np.flatnonzero(is_facility)

    arr = np.zeros((n, n), dtype=dtype)
    arr[fac] = _decode([table[f] for f in fac.tolist()], dtype).reshape(len(fac), n)
    arr[:, fac] = arr[fac].T
    for f in fac.tolist():
        row, col = list(table[f]), [r[f] for r in table]
        if row != col:
            xs = [x for x in range(n) if row[x] != col[x]]
            arr[xs, f] = _decode([[col[x] for x in xs]], dtype)[0]

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

    _reference_check_triangle(arr, is_facility)
    return MetricSpace(arr[fac], fac)


def _reference_check_triangle(arr: np.ndarray, is_facility: np.ndarray) -> None:
    """The two 2-hop passes of `_check_triangle`, read from the n x n array."""
    tau = 0.0 if arr.dtype == np.int64 else FLOAT_TOL
    fac, cli = np.flatnonzero(is_facility), np.flatnonzero(~is_facility)
    to_fac = arr[:, fac]
    ff, fc = to_fac[fac], arr[np.ix_(fac, cli)]
    for entries, col_ids, k_ids, a, b in ((ff, fac, np.arange(len(arr)), to_fac, to_fac),
                                          (fc, cli, fac, ff, fc)):
        via = entries.copy()
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


@dataclass(eq=False)
class ReferenceGroup:
    members: frozenset
    representative: int
    kind: GroupKind
    rep_colour: str
    blue_deficiency: int


@dataclass(eq=False)
class ReferenceBlock:
    groups: tuple
    leader: int
    members: frozenset


def reference_make_groups(phi, classes: dict, colours: dict) -> list:
    """Groups as the fallback cascade built them: exact balance first, then
    an all-opposite fill for a good representative, else drain the short
    colour (found from the class and the pools) and top up."""
    pools = {
        RED: [i for i, mine in phi.pre.items() if not mine and colours[i] == RED],
        BLUE: [i for i, mine in phi.pre.items() if not mine and colours[i] == BLUE],
    }
    groups = []
    for rep, mine in phi.pre.items():
        if not mine:
            continue
        need = len(mine) - 1
        rep_col = colours[rep]
        other_col = BLUE if rep_col == RED else RED
        same_pre = sum(1 for o in mine if colours[o] == rep_col)
        other_pre = len(mine) - same_pre
        want_same, want_other = same_pre - 1, other_pre

        if (
            want_same >= 0
            and len(pools[rep_col]) >= want_same
            and len(pools[other_col]) >= want_other
        ):
            fill = pools[rep_col][:want_same] + pools[other_col][:want_other]
            kind = GroupKind.BALANCED
        elif classes[rep] is FacilityClass.GOOD and len(pools[other_col]) >= need:
            fill = pools[other_col][:need]
            kind = GroupKind.GOOD
        else:
            if classes[rep] is FacilityClass.GOOD:
                short_col = other_col
            elif len(pools[other_col]) < want_other:
                short_col = other_col
            elif want_same >= 0 and len(pools[rep_col]) < want_same:
                short_col = rep_col
            else:
                raise InternalInvariantError(
                    f"group fallback reached with no short colour at representative {rep}"
                )
            rest_col = BLUE if short_col == RED else RED
            fill = list(pools[short_col])
            missing = need - len(fill)
            if missing > len(pools[rest_col]):
                raise InternalInvariantError(
                    f"filler pools cannot supply {need} facilities for representative {rep}"
                )
            fill += pools[rest_col][:missing]
            kind = GroupKind.BAD
        for f in fill:
            pools[colours[f]].remove(f)
        members = frozenset([rep]) | frozenset(mine) | frozenset(fill)
        blue_ref = sum(1 for o in mine if colours[o] == BLUE)
        blue_cand = (1 if rep_col == BLUE else 0) + sum(1 for f in fill if colours[f] == BLUE)
        groups.append(ReferenceGroup(members, rep, kind, rep_col, blue_ref - blue_cand))
    leftover = pools[RED] or pools[BLUE]
    if leftover:
        raise InternalInvariantError(
            f"zero-degree facilities left over after grouping: {leftover}"
        )
    return groups


def _reference_merge(groups, leader) -> ReferenceBlock:
    members = frozenset().union(*(g.members for g in groups))
    return ReferenceBlock(groups=tuple(groups), leader=leader, members=members)


def reference_make_blocks(groups: list) -> list:
    """Blocks as assembled from groups split by representative colour and
    re-sorted by representative."""
    blocks = []
    good_red = sorted(
        (g for g in groups if g.kind is GroupKind.GOOD and g.rep_colour == RED),
        key=lambda g: g.representative,
    )
    good_blue = sorted(
        (g for g in groups if g.kind is GroupKind.GOOD and g.rep_colour == BLUE),
        key=lambda g: g.representative,
    )

    for g in groups:
        if g.kind is GroupKind.BALANCED:
            blocks.append(_reference_merge([g], g.representative))

    paired = min(len(good_red), len(good_blue))
    for gr, gb in zip(good_red[:paired], good_blue[:paired]):
        blocks.append(_reference_merge([gr, gb], min(gr.representative, gb.representative)))
    good_red = good_red[paired:]
    good_blue = good_blue[paired:]

    for g in sorted(
        (g for g in groups if g.kind is GroupKind.BAD), key=lambda g: g.representative
    ):
        d = g.blue_deficiency
        if d == 0:
            raise InternalInvariantError(
                f"bad group at representative {g.representative} has zero deficiency"
            )
        donors = good_blue if d > 0 else good_red
        take = abs(d)
        if take > len(donors):
            raise InternalInvariantError(
                f"bad group at representative {g.representative} needs {take} "
                f"offsetting good groups, {len(donors)} available"
            )
        absorbed, remaining = donors[:take], donors[take:]
        if d > 0:
            good_blue = remaining
        else:
            good_red = remaining
        blocks.append(_reference_merge([g] + absorbed, g.representative))

    if good_red or good_blue:
        reps = [g.representative for g in good_red + good_blue]
        raise InternalInvariantError(f"good groups left over after block assembly: {reps}")
    return blocks
