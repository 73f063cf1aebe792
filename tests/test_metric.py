"""Metric construction and validation."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import grid_instance
from oracle import reference_decode, reference_triangle, violating_pairs
from rbmedian import metric
from rbmedian.instance import FormatError, gen_euclidean, serialize
from rbmedian.metric import (
    FLOAT_TOL,
    MetricError,
    MetricSpace,
    _decode,
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

    def test_triangle_check_runs_up_to_the_size_limit(self, monkeypatch):
        monkeypatch.setattr(metric, "TRIANGLE_CHECK_LIMIT", 3)
        bad = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
        with pytest.raises(MetricError, match="triangle violation"):
            from_matrix(bad)
        space = from_matrix([row + [2] for row in bad] + [[2, 2, 2, 0]])
        assert space.n == 4 and space.dist[0, 2].item() == 3

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
