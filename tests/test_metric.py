"""Metric construction and validation."""

import json
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import grid_instance
from oracle import (_reference_check_triangle, reference_decode, reference_facility_check, reference_from_matrix,
                    reference_triangle, violating_pairs)
from rbmedian.exact import brute_force_opt, is_local_opt
from rbmedian.instance import FormatError, Instance, Solution, gen_euclidean, parse, serialize
from rbmedian import metric
from rbmedian.local_search import SearchConfig, run
from rbmedian.metric import (
    FLOAT_TOL,
    MetricError,
    MetricSpace,
    _check_triangle,
    _decode,
    _kind,
    from_graph,
    from_matrix,
)


class TestFromMatrix:
    def test_single_point(self):
        space = from_matrix([[0]])
        assert space.n == 1
        assert space.integral
        assert space.dist[0, 0].item() == 0

    def test_two_points(self):
        space = from_matrix([[0, 1], [1, 0]])
        assert space.dist[0, 1].item() == 1

    def test_zero_distance_between_distinct_points_allowed(self):
        space = from_matrix([[0, 0], [0, 0]])
        assert space.dist[0, 1].item() == 0

    def test_float_input_uses_float_path(self):
        space = from_matrix([[0.0, 1.5], [1.5, 0.0]])
        assert not space.integral
        assert space.dist[0, 1].item() == 1.5

    def test_triangle_violation_reports_witness(self):
        with pytest.raises(MetricError) as exc:
            from_matrix([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert exc.value.witness == (0, 1, 2)
        assert "3" in str(exc.value)

    def test_asymmetry_reports_witness(self):
        with pytest.raises(MetricError) as exc:
            from_matrix([[0, 2], [1, 0]])
        assert exc.value.witness == (0, 1)

    def test_negative_entry_reports_witness(self):
        with pytest.raises(MetricError) as exc:
            from_matrix([[0, -1], [-1, 0]])
        assert exc.value.witness == (0, 1)

    def test_nonzero_diagonal_reports_witness(self):
        with pytest.raises(MetricError) as exc:
            from_matrix([[1]])
        assert exc.value.witness == (0, 0)

    def test_non_square_rejected(self):
        with pytest.raises(MetricError):
            from_matrix([[0, 1]])

    def test_facility_row_violation_found_at_513_locations(self):
        # the check runs at every size, 513 locations included
        rng = np.random.default_rng(513)
        pts = rng.integers(0, 100, size=(513, 2))
        dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(-1)
        f, c = 500, 17
        others = np.setdiff1d(np.arange(493, 513), [f])  # the other 9 red and 10 blue
        via = dist[f, others] + dist[others, c]
        dist[f, c] = dist[c, f] = via.min() + 1
        doc = {"n": 513, "metric": {"matrix": dist.tolist()}, "clients": list(range(493)),
               "red": list(range(493, 503)), "blue": list(range(503, 513)), "k_r": 1, "k_b": 1}
        with pytest.raises(MetricError, match="triangle violation at \\(500, 17\\)") as exc:
            parse(json.dumps(doc))
        assert exc.value.witness == (f, int(others[np.argmin(via)]), c)

    def test_float_tolerance_accepts_tiny_violations(self):
        def table(eps):
            return [[0.0, 1.0, 2.0 + eps], [1.0, 0.0, 1.0], [2.0 + eps, 1.0, 0.0]]
        assert not from_matrix(table(1e-13)).integral
        with pytest.raises(MetricError):
            from_matrix(table(1e-6))


class TestFromGraph:
    def test_path_graph_closure(self):
        space = from_graph(3, ((0, 1, 1), (1, 2, 1)))
        assert space.dist[0, 2].item() == 2
        assert space.integral

    def test_disconnected_pair_gets_sentinel(self):
        # no edges at all: sentinel is 1 + 0
        space = from_graph(2, ())
        assert space.dist[0, 1].item() == 1

    def test_sentinel_exceeds_every_edge_sum(self):
        space = from_graph(4, ((0, 1, 3), (1, 2, 4)))
        assert space.dist[0, 3].item() == 1 + 3 + 4
        assert space.dist[0, 2].item() == 7

    def test_parallel_edges_collapse_to_shortest(self):
        space = from_graph(2, ((0, 1, 5), (0, 1, 2)))
        assert space.dist[0, 1].item() == 2

    def test_fractional_lengths_produce_float_space(self):
        space = from_graph(2, ((0, 1, 0.5),))
        assert not space.integral
        assert space.dist[0, 1].item() == 0.5

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(MetricError):
            from_graph(2, ((0, 2, 1),))

    def test_negative_length_rejected(self):
        with pytest.raises(MetricError):
            from_graph(2, ((0, 1, -1),))

    def test_gap_graph_distances(self):
        # smallest member of the worst-case family: co-located pairs at 0,
        # cross-island pairs at the sentinel (sum of edges is 14)
        from rbmedian.gap_gen import GapParams, build

        gap = build(GapParams(p=1, ell=2))
        lay = gap.layout
        d = gap.instance.space.dist
        assert d[lay.left_clients[0], lay.left_reference_reds[0]] == 0
        assert d[lay.left_clients[0], lay.right_local_blues[0]] == 15
        assert d[lay.left_clients[0], lay.hub_red] == gap.params.alpha


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    n_edges = draw(st.integers(min_value=0, max_value=20))
    edges = []
    for _ in range(n_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        w = draw(st.integers(min_value=0, max_value=30))
        edges.append((u, v, w))
    return n, tuple(edges)


class TestClosureProperties:
    @given(graphs())
    @settings(max_examples=150, deadline=None)
    def test_graph_closure_is_a_valid_metric(self, graph):
        space = from_graph(*graph)
        # exact revalidation: symmetry, zero diagonal, triangle with no slack
        revalidated = from_matrix(space.dist.tolist())
        assert np.array_equal(revalidated.dist, space.dist)

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_closure_is_idempotent(self, graph):
        space = from_graph(*graph)
        # feed the closed metric back in as a complete graph
        edges = tuple(
            (i, j, space.dist[i, j].item())
            for i in range(space.n)
            for j in range(i + 1, space.n)
        )
        again = from_graph(space.n, edges)
        assert np.array_equal(again.dist, space.dist)


class TestMetricSpaceSurface:
    def test_rows_are_plain_python_scalars(self):
        space = from_matrix([[0, 2], [2, 0]])
        assert space.dist.dtype == np.int64
        assert type(space.dist.tolist()[0][1]) is int  # what serialize writes

    def test_size_and_kind_are_read_off_the_table(self):
        floats = MetricSpace(np.zeros((3, 3)))
        assert floats.n == 3 and not floats.integral
        ints = MetricSpace(np.zeros((2, 2), dtype=np.int64))
        assert ints.n == 2 and ints.integral

    def test_dist_array_is_read_only(self):
        space = from_matrix([[0, 2], [2, 0]])
        with pytest.raises(ValueError):
            space.dist[0, 1] = 5


def same_array(a, b):
    """Equal in type and bit for bit."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def mixed_rows(rng, n, integral):
    """An n x n table of JSON entry forms: ints, floats and decimal strings,
    all ints when integral. Values span small, large and fractional ones."""
    def entry():
        v = rng.choice([rng.randint(0, 60), rng.randint(-(2**62), 2**62)])
        if integral:
            return v
        v = rng.choice([v, rng.random() * 10 ** rng.randint(-8, 30)])
        return rng.choice([v, float(v), repr(float(v)), str(int(v)), f"{v:.6e}"])
    return [[entry() for _ in range(n)] for _ in range(n)]


class TestDecodeOracle:
    def test_serialized_tables_match_reference(self):
        rng = random.Random(0xDEC0)
        docs = [serialize(grid_instance(rng, rng.randint(1, 12), rng.randint(1, 5),
                                        rng.randint(1, 5), 1, 1, span=rng.choice([5, 10**9])))
                for _ in range(20)]
        docs += [serialize(gen_euclidean(rng.randint(1, 12), 3, 3, 1, 1,
                                         box_size=rng.choice([1.0, 1e-3, 1e12]), seed=s))
                 for s in range(20)]
        for doc in docs:
            rows = json.loads(doc)["metric"]["matrix"]
            assert same_array(_decode(rows), reference_decode(rows))

    def test_mixed_rows_match_reference(self):
        rng = random.Random(0xD1CE)
        for t in range(200):
            rows = mixed_rows(rng, rng.randint(1, 8), integral=t % 4 == 0)
            got = _decode(rows)
            assert (got.dtype == np.int64) == all(type(x) is int for row in rows for x in row)
            assert same_array(got, reference_decode(rows))

    def test_big_integers_in_a_float_table_round_like_float(self):
        rows = [[2**70 + 1, 2**53 + 1, "0.5"], [-(2**64) - 3, 0, 1.0]]
        assert same_array(_decode(rows), reference_decode(rows))

    @given(st.lists(st.lists(st.one_of(
        st.integers(-(2**63), 2**63 - 1),
        st.floats(),
        st.floats().map(repr),
        st.integers(-(10**30), 10**30).map(str),
    ), min_size=3, max_size=3), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_rows_match_reference(self, rows):
        assert same_array(_decode(rows), reference_decode(rows))

    @pytest.mark.parametrize("entry", [True, None, [1], {"a": 1}, "abc", "1,5", 2**63, -(2**63) - 1])
    def test_bad_entries_are_format_errors(self, entry):
        with pytest.raises(FormatError):
            from_matrix([[0, entry], [entry, 0]])

    @pytest.mark.parametrize("table", [[1, 2], np.array([1, 2]), np.array(5), 5, ["ab", "cd"],
                                       np.array([[0, 1], [1, 0]])],
                             ids=["list", "1-d-array", "0-d-array", "scalar", "strings",
                                  "2-d-array"])
    def test_tables_without_rows_are_format_errors(self, table):
        with pytest.raises(FormatError):
            from_matrix(table)


def value_forms(rng, table):
    """The metric `table` with each entry written in a JSON form picked at
    random among those of its value, so that an entry and its mirror image
    often differ in text but never in value."""
    def form(v):
        v = float(v) if type(v) is str else v  # serialize writes floats as repr strings
        if type(v) is int:
            return rng.choice([v, str(v)] + ([float(v), repr(float(v))] if abs(v) < 2**53 else []))
        return rng.choice([v, repr(v), f"{v:.17e}", f"{v:.17g}"])
    return [[form(v) for v in row] for row in table]


def float_document(seed, n_clients=30, n_red=5, n_blue=5, k=2):
    """A seeded Euclidean document with raw JSON floats, as perfbench writes one."""
    n = n_clients + n_red + n_blue
    pts = np.random.default_rng(seed).uniform(0.0, 100.0, size=(n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    return json.dumps({"n": n, "metric": {"matrix": np.sqrt((diff * diff).sum(axis=2)).tolist()},
                       "clients": list(range(n_clients)),
                       "red": list(range(n_clients, n_clients + n_red)),
                       "blue": list(range(n_clients + n_red, n)), "k_r": k, "k_b": k})


def documents():
    """Serialized grids and Euclidean instances, the same tables in mixed
    JSON forms, and documents with raw JSON floats."""
    rng = random.Random(0xFAC0)
    insts = [grid_instance(rng, rng.randint(1, 12), rng.randint(1, 5), rng.randint(1, 5), 1, 1,
                           span=rng.choice([5, 10**9])) for _ in range(12)]
    insts += [gen_euclidean(rng.randint(1, 12), 3, 3, 1, 1, box_size=rng.choice([1.0, 1e-3, 1e12]),
                            seed=s) for s in range(12)]
    docs = [serialize(inst) for inst in insts]
    for doc in docs[:]:
        mixed = json.loads(doc)
        mixed["metric"]["matrix"] = value_forms(rng, mixed["metric"]["matrix"])
        docs.append(json.dumps(mixed))
    return docs + [float_document(seed) for seed in range(6)]


class TestFacilityRowDecode:
    """A document's space holds its facility rows, decoded from text; the
    full decode of every entry stays the oracle."""

    def test_facility_rows_match_the_full_decode(self):
        for doc in documents():
            rows = json.loads(doc)["metric"]["matrix"]
            inst = parse(doc)
            fac = sorted(inst.red + inst.blue)
            assert inst.space.ids.tolist() == fac
            assert same_array(inst.space.dist, reference_decode(rows)[fac])

    def test_searches_match_the_full_table(self):
        for doc in documents():
            inst = parse(doc)
            full = Instance(from_matrix(json.loads(doc)["metric"]["matrix"]), inst.clients,
                            inst.red, inst.blue, inst.k_r, inst.k_b)
            assert brute_force_opt(inst).to_doc() == brute_force_opt(full).to_doc()
            for p in (1, 2):
                for rule in ("best", "first"):
                    config = SearchConfig(p=p, rule=rule, seed=p)
                    got = run(inst, config)
                    assert got.to_doc() == run(full, config).to_doc()
                    start = Solution(*(frozenset(ids[:k]) for ids, k in
                                       ((inst.red, inst.k_r), (inst.blue, inst.k_b))))
                    for sol in (start, got.solution):
                        assert (is_local_opt(inst, sol, p).to_doc()
                                == is_local_opt(full, sol, p).to_doc())

    def test_facility_rows_of_mixed_rows_decode_as_the_whole_table(self):
        # from_matrix decodes a few rows in the type the whole table calls for
        rng = random.Random(0xD1CF)
        for t in range(200):
            rows = mixed_rows(rng, rng.randint(1, 8), integral=t % 4 == 0)
            fac = sorted(rng.sample(range(len(rows)), rng.randint(1, len(rows))))
            got = _decode([rows[f] for f in fac], _kind(rows))
            assert same_array(got, reference_decode(rows)[fac])


def perturbed(rng, dist, tau, cross):
    """dist with one pair (i, j) set to the largest value the triangle check
    allows via the other points, or to the next float or integer above it."""
    d = dist.copy()
    n = len(d)
    i, j = rng.sample(range(n), 2)
    others = [k for k in range(n) if k not in (i, j)]
    via = (d[i, others] + d[others, j]).min()
    top = via + tau * max(1.0, via) if tau else via
    if cross:
        top = top + 1 if d.dtype == np.int64 else np.nextafter(top, np.inf)
    d[i, j] = d[j, i] = top
    return d


def slack(arr):
    """The relative triangle slack from_matrix allows a table of arr's type."""
    return 0.0 if arr.dtype == np.int64 else FLOAT_TOL


def check_witness(arr):
    """from_matrix decides as the k-major reference does, and its witness
    is a real violation at the lowest violating (i, j), via the lowest k
    attaining min_k d(i, k) + d(k, j)."""
    tau = slack(arr)
    expected = reference_triangle(arr, tau)
    if expected is None:
        from_matrix(arr.tolist())
        return False
    with pytest.raises(MetricError) as exc:
        from_matrix(arr.tolist())
    i, k, j = exc.value.witness
    via = arr[i, k] + arr[k, j]
    assert arr[i, j] > (via + tau * max(1.0, via) if tau else via)
    assert (i, j) == tuple(np.argwhere(violating_pairs(arr, tau))[0])
    assert k == np.argmin(arr[i, :] + arr[:, j])
    return True


class TestTriangleOracle:
    @pytest.mark.parametrize("floats", [False, True])
    def test_boundary_perturbations_match_reference(self, floats):
        rng = random.Random(0x7A1 + floats)
        rejected = accepted = 0
        for t in range(120):
            inst = grid_instance(rng, rng.randint(1, 8), rng.randint(1, 3), rng.randint(1, 3), 1, 1,
                                 span=rng.choice([10, 1000]))
            dist = inst.space.dist.astype(np.float64 if floats else np.int64)
            if t % 3 == 0 and floats:
                dist = gen_euclidean(rng.randint(2, 12), 1, 1, 1, 1, box_size=50.0, seed=t).space.dist
            for cross in (False, True):
                hit = check_witness(perturbed(rng, dist, slack(dist), cross))
                rejected += hit
                accepted += not hit
        assert rejected > 100 and accepted > 100

    def test_tables_with_many_violations(self):
        rng = random.Random(0xBAD)
        for t in range(150):
            n = rng.randint(1, 9)
            d = np.zeros((n, n), dtype=np.int64 if t % 2 else np.float64)
            for i in range(n):
                for j in range(i + 1, n):
                    d[i, j] = d[j, i] = rng.randint(1, 40) if t % 2 else rng.uniform(1, 40)
            check_witness(d)

    @given(st.integers(1, 7), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_tables_match_reference(self, n, seed, floats, near_metric):
        rng = np.random.default_rng(seed)
        if near_metric:
            pts = rng.integers(0, 20, size=(n, 2))
            d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(-1)
            d = np.maximum(d + np.triu(rng.integers(-1, 2, size=(n, n)), 1), 0)
        else:
            d = np.triu(rng.integers(0, 30, size=(n, n)), 1)
        d = d + d.T
        if floats:
            d = d * rng.uniform(0.5, 2.0)
            d = np.triu(d, 1) + np.triu(d, 1).T
        check_witness(d)


def planted_roles_table(rng, floats):
    """(table, facilities): Manhattan distances between grid points, halved
    for floats so that every sum stays exact, over 1-12 clients and 1-4
    facilities of each colour at shuffled ids, with one entry at a
    facility-facility, facility-client or client-client position set at,
    above or below its shortest path through the other entries."""
    n_clients = rng.randint(1, 12)
    n = n_clients + rng.randint(1, 4) + rng.randint(1, 4)
    pts = [(rng.randrange(20), rng.randrange(20)) for _ in range(n)]
    dist = np.array([[abs(ax - bx) + abs(ay - by) for bx, by in pts] for ax, ay in pts])
    dist = dist / 2 if floats else dist
    facilities = rng.sample(range(n), n - n_clients)
    fac = set(facilities)
    ends = [(i, j) for i in range(n) for j in range(i + 1, n)]
    kind = rng.choice(["ff", "fc", "cc"])
    want = {"ff": 2, "fc": 1, "cc": 0}[kind]
    spots = [(i, j) for i, j in ends if (i in fac) + (j in fac) == want]
    if spots:
        i, j = rng.choice(spots)
        path = dist.astype(np.float64)
        path[i, j] = path[j, i] = np.inf
        for k in range(n):
            path = np.minimum(path, path[:, k, None] + path[None, k, :])
        step = 0.5 if floats else 1
        top = path[i, j] if path[i, j] < np.inf else dist.max() * 2
        value = rng.choice([top, top + step, top + 7 * step, top / 2, 0])
        dist[i, j] = dist[j, i] = value
    return dist, facilities


class TestFacilityRows:
    @pytest.mark.parametrize("floats", [False, True])
    def test_planted_corpus_matches_shortest_paths(self, floats):
        rng = random.Random(0xFAC + floats)
        rejected = accepted = 0
        for _ in range(400):
            dist, facilities = planted_roles_table(rng, floats)
            tau = slack(dist)
            if reference_facility_check(dist, facilities, tau):
                from_matrix(dist.tolist(), facilities)
                accepted += 1
                continue
            with pytest.raises(MetricError) as exc:
                from_matrix(dist.tolist(), facilities)
            i, k, j = exc.value.witness
            via = dist[i, k] + dist[k, j]
            assert dist[i, j] > (via + tau * max(1.0, via) if tau else via)
            assert i in facilities and (j in facilities or k in facilities)
            rejected += 1
        assert rejected > 100 and accepted > 100

    def test_client_client_entries_are_not_triangle_checked(self):
        table = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]  # d(0, 2) > d(0, 1) + d(1, 2)
        assert from_matrix(table, [1]).rows([1]).tolist() == [[1, 0, 1]]  # 0 and 2 are clients
        with pytest.raises(MetricError) as exc:
            from_matrix(table, [0, 1])
        assert exc.value.witness == (0, 1, 2)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_facility_ids_outside_the_table_rejected(self, bad):
        with pytest.raises(MetricError, match=r"facility ids \[-?\d\] are outside 0\.\.1"):
            from_matrix([[0, 1], [1, 0]], [0, bad])

    @pytest.mark.parametrize("seed", range(40))
    def test_every_location_a_facility_is_the_full_check(self, seed):
        rng = random.Random(seed)
        dist, _ = planted_roles_table(rng, seed % 2)
        outcomes = []
        for facilities in (None, range(len(dist))):
            try:
                from_matrix(dist.tolist(), facilities)
                outcomes.append(None)
            except MetricError as e:
                outcomes.append((str(e), e.witness))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is None) == (reference_triangle(dist, slack(dist)) is None)


class TestTwoHopChunks:
    """`_check_triangle` takes each pass's 2-hop minimum over chunks of k;
    one k per chunk and every k in one chunk decide, word for word and
    witness for witness, as the k-by-k loop of the reference does."""

    @pytest.mark.parametrize("entries", [1, 10**9], ids=["one-k", "all-k"])
    @pytest.mark.parametrize("floats", [False, True])
    def test_chunks_match_the_reference_loop(self, monkeypatch, entries, floats):
        monkeypatch.setattr(metric, "_TWO_HOP_ENTRIES", entries)
        rng = random.Random(0x2C0 + floats)
        verdicts = Counter()
        for _ in range(300):
            dist, facilities = planted_roles_table(rng, floats)
            is_facility = np.zeros(len(dist), dtype=bool)
            is_facility[facilities] = True
            fac = np.flatnonzero(is_facility)
            got, want = (raised(check, *args) for check, args in (
                (_check_triangle, (dist[fac], fac)), (_reference_check_triangle, (dist, is_facility))))
            assert got == want
            verdicts[got is None] += 1
        assert verdicts[True] > 50 and verdicts[False] > 50, verdicts


def raised(check, *args):
    """The message and witness of the MetricError `check` raises, or None."""
    try:
        check(*args)
    except MetricError as e:
        return str(e), e.witness
    return None


def outcome(build, table, facilities):
    """What `build` makes of a table: the error's type, message and
    witness, or the held rows' type, shape and bytes with their ids."""
    try:
        space = build(table, facilities)
    except (MetricError, FormatError) as e:
        return type(e).__name__, str(e), getattr(e, "witness", None)
    return str(space.dist.dtype), space.dist.shape, space.dist.tobytes(), space.ids.tolist()


def entry_value(x):
    return float(x) if type(x) is str else x


def plant(rng, table, facilities, fault):
    """Spoil `table` in place with one fault of the named kind, set on one
    side or both of a random spot with a facility at one end, or between
    two clients for "client-client", which no check reads."""
    n, fac = len(table), set(facilities)
    cli = [x for x in range(n) if x not in fac]
    f = rng.choice(sorted(fac))
    i, j = rng.choice([(f, rng.randrange(n)), (rng.randrange(n), f)])
    both = rng.random() < 0.5
    if fault == "client-client":
        if len(cli) < 2:
            return
        i, j = rng.sample(cli, 2)
        fault = rng.choice(["non-finite", "negative", "asymmetric", "2^62", "triangle"])
    if fault == "diagonal":
        table[f][f] = rng.choice([1, 3, "0.5", 2.0])
        return
    value = {
        "non-finite": lambda: rng.choice(["inf", "-inf", "nan", "1e400", float("inf"), float("nan")]),
        "negative": lambda: rng.choice([-1, -3, "-0.5", -2.0]),
        "asymmetric": lambda: entry_value(table[i][j]) + rng.choice([1, 0.5]),
        "2^62": lambda: 2**62,
        "triangle": lambda: max(entry_value(x) for row in table for x in row) * 2 + 1,
    }[fault]()
    table[i][j] = value
    if both and fault != "asymmetric":
        table[j][i] = value


FAULTS = ["non-finite", "negative", "diagonal", "asymmetric", "2^62", "triangle", "client-client"]


def faulty_table(rng, floats):
    """(table, facilities): Manhattan distances between 4-14 grid points,
    halved and each written in a random JSON float form for floats, with a
    random facility set (None for every location now and then) and 0-3
    planted faults, often of one kind, so that row-major order picks the
    witness among them."""
    n = rng.randint(4, 14)
    pts = [(rng.randrange(20), rng.randrange(20)) for _ in range(n)]
    table = [[abs(ax - bx) + abs(ay - by) for bx, by in pts] for ax, ay in pts]
    if floats:
        table = value_forms(rng, [[v / 2 for v in row] for row in table])
    facilities = sorted(rng.sample(range(n), rng.randint(1, n)))
    kinds = rng.choices(FAULTS, k=rng.randint(0, 3))
    if kinds and rng.random() < 0.5:
        kinds = [kinds[0]] * len(kinds)
    for fault in kinds:
        plant(rng, table, facilities, fault)
    return table, None if rng.random() < 0.1 else facilities


class TestAgainstTheSquareTable:
    """from_matrix checks the facility rows and their mirror entries as two
    F x n arrays; the n x n checker it replaced is the oracle for every
    message, witness and accepted row."""

    @pytest.mark.parametrize("floats", [False, True])
    def test_seeded_faults_match_the_square_check(self, floats):
        rng = random.Random(0x5A0 + floats)
        seen = {}
        for _ in range(600):
            table, facilities = faulty_table(rng, floats)
            got = outcome(from_matrix, table, facilities)
            assert got == outcome(reference_from_matrix, table, facilities)
            kind = "accepted" if len(got) == 4 else got[1].split()[0]
            seen[kind] = seen.get(kind, 0) + 1
            if kind != "accepted" and got[2] and facilities and got[2][0] not in facilities:
                seen["mirror witness"] = seen.get("mirror witness", 0) + 1
        want = ["accepted", "non-finite", "negative", "nonzero", "asymmetry", "triangle",
                "mirror witness"] + ([] if floats else ["integer"])
        assert all(seen.get(kind, 0) >= 10 for kind in want), seen

    @given(st.integers(4, 10), st.integers(0, 2**32 - 1), st.booleans(),
           st.lists(st.booleans(), min_size=10, max_size=10),
           st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.booleans(), st.sampled_from(
               [-1, 0, 1, 3, 40, 2**62, "inf", "nan", "-0.5", "2.5", "3.0", 2.0])), max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_faults_match_the_square_check(self, n, seed, floats, is_facility, faults):
        rng = random.Random(seed)
        pts = [(rng.randrange(20), rng.randrange(20)) for _ in range(n)]
        table = [[abs(ax - bx) + abs(ay - by) for bx, by in pts] for ax, ay in pts]
        if floats:
            table = value_forms(rng, [[v / 2 for v in row] for row in table])
        for i, j, both, value in faults:
            table[i % n][j % n] = value
            if both:
                table[j % n][i % n] = value
        facilities = [x for x in range(n) if is_facility[x]]
        assert outcome(from_matrix, table, facilities) == outcome(reference_from_matrix, table, facilities)

    def test_no_square_table_when_few_locations_are_facilities(self):
        n, n_fac = 400, 30
        pts = np.random.default_rng(400).integers(0, 1000, size=(n, 2))
        table = np.abs(pts[:, None, :] - pts[None, :, :]).sum(-1).tolist()
        facilities = list(range(n - n_fac, n))
        peaks = []
        for build in (from_matrix, reference_from_matrix):
            tracemalloc.start()
            try:
                build(table, facilities)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < n * n * 8 <= peaks[1], peaks


class TestInt64Bounds:
    def test_entries_of_2_62_rejected_not_misreported(self):
        b = 2**62
        with pytest.raises(MetricError, match=r"2\^62") as exc:
            from_matrix([[0, b, b], [b, 0, b], [b, b, 0]])
        assert exc.value.witness is None
        space = from_matrix([[0, b - 1, b - 1], [b - 1, 0, b - 1], [b - 1, b - 1, 0]])
        assert space.dist[0, 1].item() == b - 1

    def test_graph_whose_sentinel_would_wrap_rejected(self):
        b = 2**61
        with pytest.raises(MetricError, match=r"2\^62"):
            from_graph(4, ((0, 1, b), (2, 3, b)))
        with pytest.raises(MetricError, match=r"2\^62"):
            from_graph(3, ((0, 1, 2**62), (1, 2, 2**62)))
        space = from_graph(4, ((0, 1, b), (2, 3, b - 2)))
        assert space.dist[0, 2].item() == 2**62 - 1
        via = space.dist[0, 1].item() + space.dist[1, 2].item()
        assert via == 2**62 + b - 1  # exact in Python ints

    def test_large_float_tables_need_no_bound(self):
        b = 2.0**70
        space = from_matrix([[0.0, b], [b, 0.0]])
        assert space.dist[0, 1].item() == b


class TestNonFinite:
    @pytest.mark.parametrize("entry", [float("inf"), float("nan"), "inf", "nan", "-inf", "1e400"])
    def test_matrix_entries_rejected(self, entry):
        with pytest.raises(MetricError, match="non-finite distance") as exc:
            from_matrix([[0, 1, entry], [1, 0, 1], [entry, 1, 0]])
        assert exc.value.witness == (0, 2)

    @pytest.mark.parametrize("length", [float("inf"), float("nan"), "inf", "nan", "-inf"])
    def test_graph_lengths_rejected(self, length):
        with pytest.raises(MetricError, match="non-finite edge length") as exc:
            from_graph(3, ((0, 1, 1), (1, 2, length)))
        assert "(1, 2, " in str(exc.value)

    def test_graph_whose_sentinel_sums_past_float_range_rejected(self):
        with pytest.raises(MetricError, match="infinity"):
            from_graph(3, ((0, 1, 1e308), (1, 2, 1e308)))
