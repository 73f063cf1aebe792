"""Instance model: evaluation, disjointification, generation, JSON formats."""

import hashlib
import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import grid_instance, line_instance, random_feasible, random_sized_grid, same_instance
from oracle import scalar_evaluate
from rbmedian.cli import EXIT_INPUT_ERROR, EXIT_OK, main
from rbmedian.errors import InputError
from rbmedian.instance import (
    FormatError,
    InfeasibleSolutionError,
    Instance,
    InstanceError,
    Solution,
    _instance,
    _load_object,
    disjointify,
    evaluate,
    gen_euclidean,
    parse,
    parse_solution,
    serialize,
    serialize_solution,
)
from rbmedian.metric import MetricSpace, from_matrix

# Frozen at first generation; any change to the generator or the format is a break.
GOLDEN_SHA256 = "bfb2b717dc1cd86a85a9876033637839e154484b0c7af6307fe8230ae06c094a"


@st.composite
def tiny_instances(draw):
    n_clients = draw(st.integers(1, 5))
    n_red = draw(st.integers(1, 4))
    n_blue = draw(st.integers(1, 4))
    k_r = draw(st.integers(0, n_red))
    k_b = draw(st.integers(0 if k_r else 1, n_blue))
    seed = draw(st.integers(0, 10**6))
    return grid_instance(random.Random(seed), n_clients, n_red, n_blue, k_r, k_b)


def shuffled_roles(rng, inst):
    """The same instance with its locations renumbered at random, so client
    ids no longer coincide with their positions in inst.clients."""
    perm = list(range(inst.space.n))
    rng.shuffle(perm)  # old id i becomes perm[i]
    inv = np.argsort(perm)
    dist = inst.space.dist[np.ix_(inv, inv)]
    return Instance(MetricSpace(dist),
                    clients=tuple(perm[j] for j in inst.clients),
                    red=tuple(perm[f] for f in inst.red),
                    blue=tuple(perm[f] for f in inst.blue), k_r=inst.k_r, k_b=inst.k_b)


def check_against_scalar(inst, sol):
    """evaluate equals the scalar loop: the same facility and distance per
    client position and an exactly equal integer total. A float total is
    numpy's pairwise sum, the one the swap scan prices, so it may differ
    from the loop's left-to-right sum in the last bits: within 1e-12."""
    a = evaluate(inst, sol)
    facility, distance, total = scalar_evaluate(inst, sol)
    assert a.facility.tolist() == facility
    assert a.distance.tolist() == distance
    assert type(a.total) is type(total)
    if inst.space.integral:
        assert a.total == total
    else:
        assert a.total == pytest.approx(total, rel=1e-12, abs=0)
        assert a.total == np.asarray(distance).sum()


class TestInstanceValidation:
    def test_overlapping_roles_rejected(self):
        space = MetricSpace(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(InstanceError):
            Instance(space, clients=(0,), red=(0, 1), blue=(), k_r=1, k_b=0)

    def test_partition_must_cover_range(self):
        space = MetricSpace(np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(InstanceError):
            Instance(space, clients=(0,), red=(2,), blue=(), k_r=1, k_b=0)

    def test_integer_overflow_rejected(self):
        # every cost would sum 4 entries of 2^61: exactly 2^63
        n = 6
        dist = np.full((n, n), 2**61, dtype=np.int64)
        np.fill_diagonal(dist, 0)
        space = MetricSpace(dist)
        with pytest.raises(InstanceError, match=r"2\^63"):
            Instance(space, clients=(0, 1, 2, 3), red=(4,), blue=(5,), k_r=1, k_b=1)
        # one client fewer stays below the bound
        Instance(space, clients=(0, 1, 2), red=(3, 4), blue=(5,), k_r=1, k_b=1)

    def test_overflow_guard_reads_facility_rows(self):
        # 4 clients, so a cost holding one entry of 2^61 would reach 2^63
        def doc(*pairs):
            dist = np.ones((6, 6), dtype=np.int64)
            np.fill_diagonal(dist, 0)
            for i, j in pairs:
                dist[i, j] = dist[j, i] = 2**61
            return json.dumps({"n": 6, "metric": {"matrix": dist.tolist()}, "clients": [0, 1, 2, 3],
                               "red": [4], "blue": [5], "k_r": 1, "k_b": 1})
        # a client-client entry is in no cost, and the space holds no client's row
        assert parse(doc((0, 1))).space.ids.tolist() == [4, 5]
        # in both facility rows, so that d(4, 0) <= d(4, 5) + d(5, 0) still holds
        with pytest.raises(InstanceError, match=r"2\^63"):
            parse(doc((4, 0), (5, 0)))

    def test_budget_over_pool_rejected(self):
        space = MetricSpace(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(InstanceError) as exc:
            Instance(space, clients=(0,), red=(1,), blue=(), k_r=2, k_b=0)
        assert "k_r" in str(exc.value)

    def test_zero_total_budget_rejected(self):
        space = MetricSpace(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(InstanceError):
            Instance(space, clients=(0,), red=(1,), blue=(), k_r=0, k_b=0)


class TestEvaluate:
    def test_colocated_client_pays_zero(self):
        inst = line_instance([5], [5], [30], k_r=1, k_b=0)
        a = evaluate(inst, Solution(R={1}, B=set()))
        assert a.total == 0
        assert a.facility[0] == 1

    def test_ties_go_to_lowest_facility_index(self):
        # both open facilities at distance 7 from the client
        inst = line_instance([0], [7, -7], [30], k_r=2, k_b=0)
        a = evaluate(inst, Solution(R={1, 2}, B=set()))
        assert a.distance[0] == 7
        assert a.facility[0] == 1

    def test_infeasible_solution_names_offending_set(self):
        inst = line_instance([0], [1, 2], [3], k_r=1, k_b=1)
        with pytest.raises(InfeasibleSolutionError) as exc:
            evaluate(inst, Solution(R={1, 2}, B={3}))
        assert "[1, 2]" in str(exc.value)

    def test_wrong_colour_rejected(self):
        inst = line_instance([0], [1, 2], [3], k_r=1, k_b=1)
        with pytest.raises(InfeasibleSolutionError):
            evaluate(inst, Solution(R={3}, B={1}))

    def test_matches_independent_linear_scan(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(60):
            inst = random_sized_grid(rng)
            sol = random_feasible(rng, inst)
            a = evaluate(inst, sol)
            open_fac = sorted(sol.R | sol.B)
            total = 0
            for t, j in enumerate(inst.clients):
                best = min(inst.space.dist[j, f].item() for f in open_fac)
                assert a.distance[t] == best
                assert inst.space.dist[j, a.facility[t]].item() == best
                total += best
            assert a.total == total

    def test_zero_clients_cost_int_zero(self):
        for inst in (line_instance([], [1, 2], [3], k_r=1, k_b=1),
                     gen_euclidean(0, 2, 2, 1, 1, seed=2)):
            a = evaluate(inst, Solution(R={inst.red[0]}, B={inst.blue[0]}))
            assert type(a.total) is int and a.total == 0
            assert a.facility.shape == a.distance.shape == (0,)

    def test_seeded_corpora_match_scalar_oracle(self):
        rng = random.Random(0xE7A1)
        for _ in range(60):
            inst = shuffled_roles(rng, random_sized_grid(rng))
            check_against_scalar(inst, random_feasible(rng, inst))
        for seed in range(40):
            inst = shuffled_roles(rng, gen_euclidean(rng.randint(1, 30), rng.randint(1, 6),
                                                     rng.randint(1, 6), 1, 1, seed=seed))
            check_against_scalar(inst, random_feasible(rng, inst))

    @given(tiny_instances(), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_hypothesis_corpus_matches_scalar_oracle(self, inst, seed, floats):
        rng = random.Random(seed)
        if floats:
            inst = gen_euclidean(len(inst.clients), len(inst.red), len(inst.blue),
                                 inst.k_r, inst.k_b, box_size=50.0, seed=seed)
        inst = shuffled_roles(rng, inst)
        check_against_scalar(inst, random_feasible(rng, inst))

    def test_monotone_in_open_set(self):
        rng = random.Random(77)
        for _ in range(40):
            inst = random_sized_grid(rng)
            sol = random_feasible(rng, inst)
            base = evaluate(inst, sol).total
            if inst.k_r >= 1 and inst.k_r - 1 + inst.k_b >= 1:
                shrunk = replace(inst, k_r=inst.k_r - 1)
                smaller = Solution(R=frozenset(sorted(sol.R)[1:]), B=sol.B)
                assert evaluate(shrunk, smaller).total >= base
            spare = sorted(inst.red_set - sol.R)
            if spare:
                grown = replace(inst, k_r=inst.k_r + 1)
                bigger = Solution(R=sol.R | {spare[0]}, B=sol.B)
                assert evaluate(grown, bigger).total <= base

    def test_gap_family_designated_costs(self):
        from rbmedian.gap_gen import GapParams, build

        gap = build(GapParams(p=1, ell=2))
        assert evaluate(gap.instance, gap.local_solution).total == 11
        assert evaluate(gap.instance, gap.global_solution).total == 3


class TestDisjointify:
    def test_disjoint_pair_returned_unchanged(self):
        inst = line_instance([0], [1, 2], [3, 4], k_r=1, k_b=1)
        s = Solution(R={1}, B={3})
        o = Solution(R={2}, B={4})
        inst2, s2, o2 = disjointify(inst, s, o)
        assert inst2 is inst and s2 is s and o2 is o

    def test_identical_solutions_fully_duplicated(self):
        inst = line_instance([0, 9], [4], [7], k_r=1, k_b=1)
        s = Solution(R={2}, B={3})
        inst2, s2, o2 = disjointify(inst, s, s)
        assert not (s2.facilities() & o2.facilities())
        assert inst2.space.n == inst.space.n + 2
        assert evaluate(inst2, s2).total == evaluate(inst, s).total
        assert evaluate(inst2, o2).total == evaluate(inst, s).total
        # copies sit at distance zero from their originals
        for orig, copy in zip(sorted(s.facilities()), sorted(o2.facilities())):
            assert inst2.space.dist[orig, copy].item() == 0

    def test_costs_preserved_exactly_on_random_pairs(self):
        rng = random.Random(31337)
        for _ in range(50):
            inst = random_sized_grid(rng)
            s, o = random_feasible(rng, inst), random_feasible(rng, inst)
            cs, co = evaluate(inst, s).total, evaluate(inst, o).total
            inst2, s2, o2 = disjointify(inst, s, o)
            assert not (s2.facilities() & o2.facilities())
            assert evaluate(inst2, s2).total == cs
            assert evaluate(inst2, o2).total == co


class TestGenerator:
    def test_deterministic_in_seed(self):
        a = gen_euclidean(6, 3, 3, 1, 1, seed=9)
        b = gen_euclidean(6, 3, 3, 1, 1, seed=9)
        assert same_instance(a, b)
        c = gen_euclidean(6, 3, 3, 1, 1, seed=10)
        assert not same_instance(a, c)

    def test_golden_checksum(self):
        inst = gen_euclidean(12, 5, 6, 2, 3, box_size=10.0, seed=42)
        assert hashlib.sha256(serialize(inst)).hexdigest() == GOLDEN_SHA256

    def test_single_colour_special_case(self):
        # no red facilities at all: plain one-colour median instance
        inst = gen_euclidean(8, 0, 4, 0, 2, seed=3)
        assert inst.red == ()
        sol = Solution(R=set(), B=set(inst.blue[:2]))
        assert evaluate(inst, sol).total > 0

    def test_bad_budget_rejected(self):
        with pytest.raises(InstanceError):
            gen_euclidean(5, 2, 2, 3, 0, seed=0)

    @pytest.mark.parametrize("box_size", [0, -1.0, float("inf"), float("nan"), 1e200, 10**400],
                             ids=["0", "-1.0", "inf", "nan", "1e+200", "401-digit-int"])
    def test_box_size_outside_zero_to_infinity_rejected(self, box_size):
        with pytest.raises(InstanceError, match="box_size"):
            gen_euclidean(5, 2, 2, 1, 1, box_size=box_size, seed=0)


class TestSerialization:
    def test_round_trip_integer(self):
        rng = random.Random(5)
        for _ in range(30):
            inst = random_sized_grid(rng)
            assert same_instance(parse(serialize(inst)), inst)

    def test_every_entry_round_trips_through_from_matrix(self):
        # without facilities, from_matrix decodes and checks every entry
        rng = random.Random(11)
        for inst in [random_sized_grid(rng) for _ in range(10)] + [
                gen_euclidean(6, 3, 3, 1, 1, box_size=50.0, seed=seed) for seed in range(10)]:
            space = from_matrix(json.loads(serialize(inst))["metric"]["matrix"])
            assert space.ids.tolist() == list(range(inst.space.n))
            assert space.dist.dtype == inst.space.dist.dtype
            assert space.dist.tobytes() == inst.space.dist.tobytes()

    def test_a_space_without_every_row_is_not_serialized(self):
        inst = parse(serialize(grid_instance(random.Random(3), 4, 2, 2, 1, 1)))
        assert inst.space.ids.tolist() == [4, 5, 6, 7]
        with pytest.raises(ValueError, match="holding 4 of 8 rows"):
            serialize(inst)

    def test_round_trip_float(self):
        for seed in range(10):
            inst = gen_euclidean(5, 3, 3, 1, 1, seed=seed)
            again = parse(serialize(inst))
            assert same_instance(again, inst)
            assert not again.space.integral

    def test_graph_metric_document(self):
        doc = (
            b'{"n": 3, "metric": {"graph": {"edges": [[1, 2, 1], [2, 0, 1]]}},'
            b' "clients": [0], "red": [1], "blue": [2], "k_r": 1, "k_b": 1}'
        )
        inst = parse(doc)
        assert inst.space.dist[0, 1].item() == 2
        assert inst.space.integral

    def test_malformed_json_rejected(self):
        with pytest.raises(FormatError):
            parse(b"{not json")

    def test_missing_key_rejected(self):
        with pytest.raises(FormatError):
            parse(b'{"n": 1}')

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(FormatError):
            parse(b'{"n": 2, "metric": {"matrix": [[0]]}, "clients": [0], "red": [1], "blue": [], "k_r": 1, "k_b": 0}')

    @pytest.mark.parametrize("metric", ['{"matrix": []}', '{"graph": {"edges": []}}'],
                             ids=["matrix", "graph"])
    def test_empty_instance_needs_a_facility(self, metric):
        doc = '{"n": 0, "metric": %s, "clients": [], "red": [], "blue": [], "k_r": 0, "k_b": 0}'
        with pytest.raises(InstanceError, match=r"k_r \+ k_b >= 1"):
            parse(doc % metric)

    def test_budget_violation_names_budget(self):
        doc = (
            b'{"n": 2, "metric": {"matrix": [[0, 1], [1, 0]]},'
            b' "clients": [0], "red": [1], "blue": [], "k_r": 2, "k_b": 0}'
        )
        with pytest.raises(InstanceError) as exc:
            parse(doc)
        assert "k_r" in str(exc.value)

    @pytest.mark.parametrize("k_r, k_b, key", [
        ("true", "0", "k_r"), ("1", "0.0", "k_b"), ('"1"', "0", "k_r"), ("1", "null", "k_b"),
    ])
    def test_budget_must_be_an_integer(self, k_r, k_b, key):
        doc = (
            b'{"n": 2, "metric": {"matrix": [[0, 1], [1, 0]]},'
            b' "clients": [0], "red": [1], "blue": [], "k_r": %s, "k_b": %s}'
        ) % (k_r.encode(), k_b.encode())
        with pytest.raises(FormatError, match=f"'{key}' must be an integer"):
            parse(doc)

    @pytest.mark.parametrize("old, new, message", [
        ('"n": 2', '"n": 2.5', "'n' must be a nonnegative integer, got 2.5"),
        ('"n": 2', '"n": "2.5"', "'n' must be a nonnegative integer, got '2.5'"),
        ('"k_r": 1', '"k_r": 1.0', "'k_r' must be an integer, got 1.0"),
        ('"k_b": 0', '"k_b": 1e400', "'k_b' must be an integer, got inf"),
        ('"red": [1]', '"red": [1.0]', "'red' must be a list of integers"),
    ], ids=["n", "n-string", "k_r", "k_b", "red"])
    def test_json_floats_outside_the_matrix_read_as_numbers(self, old, new, message):
        doc = ('{"n": 2, "metric": {"matrix": [[0, 1.5], [1.5, 0]]},'
               ' "clients": [0], "red": [1], "blue": [], "k_r": 1, "k_b": 0}')
        assert parse(doc).space.rows([1]).tolist() == [[1.5, 0.0]]
        with pytest.raises(FormatError) as exc:
            parse(doc.replace(old, new))
        assert str(exc.value) == message

    def test_fractional_distances_survive_as_decimal_strings(self):
        inst = gen_euclidean(3, 2, 2, 1, 1, seed=1)
        raw = serialize(inst)
        assert b'"' in raw.split(b'"matrix"')[1][:200]
        assert same_instance(parse(raw), inst)

    @pytest.mark.parametrize("make, digest", [
        (lambda: grid_instance(random.Random(17), 6, 3, 4, 1, 2),
         "660d7d63fc94f1b2732157ccb4fe085a498ebb260c07cd307d9f3b4b43f4e445"),
        (lambda: gen_euclidean(7, 3, 3, 1, 1, box_size=3.0, seed=5),
         "862dffcb7fed5ca1afa464752cda82f9092616ade7de42bb78846edef37fb53f"),
    ], ids=["integer", "float"])
    def test_bytes_unchanged(self, make, digest):
        # Digests of the per-entry encoder that serialize used to call.
        assert hashlib.sha256(serialize(make())).hexdigest() == digest

    def test_solution_doc_bytes_unchanged(self):
        from rbmedian.exact import brute_force_opt
        from rbmedian.local_search import SearchConfig, run

        sol = Solution(R={4, 2}, B={9})
        assert serialize_solution(sol) == b'{"R":[2,4],"B":[9]}'
        assert json.dumps(sol.to_doc()) == '{"R": [2, 4], "B": [9]}'
        inst = line_instance([0, 9, 20], [1, 8, 15], [4, 5], k_r=2, k_b=1)
        for result in (run(inst, SearchConfig()), brute_force_opt(inst)):
            doc = json.dumps(result.to_doc())
            assert doc.startswith('{"solution": ' + json.dumps(result.solution.to_doc()) + ', "cost": ')

    def test_solution_round_trip(self):
        sol = Solution(R={4, 2}, B={9})
        assert parse_solution(serialize_solution(sol)) == sol

    def test_solution_bad_document(self):
        with pytest.raises(FormatError):
            parse_solution(b'{"R": [1]}')

    @pytest.mark.parametrize("doc", [b'{"R": [2, 2], "B": [4]}', b'{"R": [2], "B": [4, 5, 4]}'],
                             ids=["repeated-R", "repeated-B"])
    def test_solution_with_duplicate_ids_rejected(self, doc):
        with pytest.raises(FormatError, match="more than once"):
            parse_solution(doc)


class TestRoundTripProperty:
    @given(tiny_instances())
    @settings(max_examples=60, deadline=None)
    def test_serialize_parse_identity(self, inst):
        assert same_instance(parse(serialize(inst)), inst)


def json_route(data) -> Instance:
    """`parse` by the standard library alone: json.loads, floats as floats,
    every message json's. It is what `parse` made of every document before
    orjson read them, and what it makes of those orjson refuses."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except ValueError as e:
        raise FormatError(f"malformed instance document: {e}") from None
    if not isinstance(doc, dict):
        raise FormatError("instance document must be a JSON object")
    return _instance(doc)


def parsed(read, data) -> tuple:
    """What `read` makes of a document: the error's type and message, or
    the space's dtype, ids and bytes with the roles and budgets."""
    try:
        inst = read(data)
    except InputError as e:
        return type(e).__name__, str(e)
    return ("ok", *space_of(inst), inst.clients, inst.red, inst.blue, inst.k_r, inst.k_b)


def space_of(inst) -> tuple:
    return str(inst.space.dist.dtype), inst.space.ids.tolist(), inst.space.dist.tobytes()


def typed(x):
    """A JSON value with each scalar tagged by its type, a float by its
    bits, so that 1 and 1.0, or 0.0 and -0.0, compare unequal."""
    if isinstance(x, dict):
        return {key: typed(v) for key, v in x.items()}
    if isinstance(x, list):
        return [typed(v) for v in x]
    return ("float", x.hex()) if type(x) is float else (type(x).__name__, x)


LINE_FLOATS = [[0, 1.5, 0.5, 2.5], [1.5, 0, 1.0, 1.0], [0.5, 1.0, 0, 2.0], [2.5, 1.0, 2.0, 0]]
LINE_INTS = [[0, 3, 1, 5], [3, 0, 2, 2], [1, 2, 0, 4], [5, 2, 4, 0]]


def line_doc(matrix=LINE_INTS, at=None, text=None, metric=None, **over) -> str:
    """A 4-location document (clients 0 and 1, red 2, blue 3, k 1/1), with
    the literal `text` written at both (i, j) and (j, i) for at=(i, j), or
    with the metric object's text `metric`."""
    rows = [list(map(json.dumps, row)) for row in matrix]
    if at:
        i, j = at
        rows[i][j] = rows[j][i] = text
    doc = {"n": 4, "metric": "@", "clients": [0, 1], "red": [2], "blue": [3], "k_r": 1, "k_b": 1, **over}
    table = "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"
    return json.dumps(doc).replace('"@"', metric or '{"matrix": %s}' % table)


def edge_doc(length: str) -> str:
    return line_doc(metric='{"graph": {"edges": [[0, 2, 1], [1, 2, 2], [2, 3, %s]]}}' % length)


OK_INT, OK_FLOAT = ("ok", "int64"), ("ok", "float64")
NOT_OBJECT = ("FormatError", "instance document must be a JSON object")
LOADER_CASES = {
    **{f"{lit}-facility-row": (line_doc(LINE_FLOATS, (0, 2), lit),
                               ("MetricError", f"non-finite distance {value} at (0, 2)"))
       for lit, value in (("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf"))},
    **{f"{lit}-client-client": (line_doc(LINE_FLOATS, (0, 1), lit), OK_FLOAT)
       for lit in ("NaN", "Infinity", "1e400")},
    **{f"{big}-{where}": case for big in ("18446744073709551616", "-9223372036854775809") for where, case in (
        ("client-client", (line_doc(at=(0, 1), text=big), OK_INT)),
        ("edge", (edge_doc(big), ("FormatError", f"integer distance {big} does not fit int64"))),
        ("id", (line_doc(red=[2, int(big)]), ("MetricError", f"facility ids [{big}] are outside 0..3"))),
    )},
    "2^64-n": (line_doc(n=2**64), ("FormatError", f"metric matrix must be {2**64}x{2**64}")),
    "-2^63-1-n": (line_doc(n=-2**63 - 1), ("FormatError", f"'n' must be a nonnegative integer, got {-2**63 - 1}")),
    "lone-surrogate-escape": (line_doc(note="\ud800"), OK_INT),
    "bom": (b"\xef\xbb\xbf" + line_doc().encode(), (
        "FormatError", "malformed instance document: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                       "line 1 column 1 (char 0)")),
    "invalid-utf8": (line_doc().encode().replace(b"{", b'{"note": "\xff", ', 1), (
        "FormatError", "malformed instance document: 'utf-8' codec can't decode byte 0xff in position 10: "
                       "invalid start byte")),
    "raw-lone-surrogate-str": (line_doc().replace("{", '{"note": "\ud800", ', 1), OK_INT),
    "top-list": ("[" + line_doc() + "]", NOT_OBJECT),
    "top-int": ("7", NOT_OBJECT),
    "top-string": ('"{}"', NOT_OBJECT),
    "duplicate-keys": (line_doc().replace("{", '{"k_r": 7, "n": 9, ', 1), OK_INT),
}


def json_documents():
    """JSON object text: integers across and beyond 64 bits, floats written
    by repr, %.17e and %.25g, zeros of both signs, decimal strings and
    escaped unicode, nested in lists and objects."""
    floats = st.floats(allow_nan=False, allow_infinity=False)
    scalars = st.one_of(
        st.integers(-2**70, 2**70).map(str),
        st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, -2**63, -2**63 - 1, 10**18, 10**19]).map(str),
        st.tuples(st.sampled_from(["%r", "%.17e", "%.25g"]), floats).map(lambda f: f[0] % f[1]),
        st.sampled_from(["-0.0", "0.0", "-0", "-0e0", "0E-5", "-0.000"]),
        st.tuples(st.integers(-10**40, 10**40), st.integers(0, 10**40)).map(lambda d: json.dumps("%d.%d" % d)),
        st.text(max_size=8).map(json.dumps),  # escaped: json.dumps writes ASCII
        st.sampled_from(["true", "false", "null"]),
    )
    keys = st.text(max_size=5).map(json.dumps)

    def obj(inner):
        return st.lists(st.tuples(keys, inner), max_size=5).map(
            lambda kvs: "{" + ", ".join(f"{k}: {v}" for k, v in kvs) + "}")

    values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=5).map(
        lambda xs: "[" + ", ".join(xs) + "]") | obj(inner), max_leaves=12)
    return obj(values)


def planted_entry_doc(rng, n_clients, n_red, n_blue, k, box, close=None) -> bytes:
    """A perfbench-shaped document: points uniform in a box and their
    Euclidean distances written as raw JSON floats; with `close`, point 1
    sits at that offset from point 0."""
    n = n_clients + n_red + n_blue
    pts = rng.uniform(0.0, box, size=(n, 2))
    if close is not None:
        pts[1] = pts[0] + close
    diff = pts[:, None, :] - pts[None, :, :]
    return json.dumps({"n": n, "metric": {"matrix": np.sqrt((diff * diff).sum(axis=2)).tolist()},
                       "clients": list(range(n_clients)), "red": list(range(n_clients, n_clients + n_red)),
                       "blue": list(range(n_clients + n_red, n)), "k_r": k, "k_b": k}).encode()


class TestLoader:
    """Every document is read by orjson, and json reads what orjson refuses
    or could misread (a run of 19 digits); either way `parse` makes of it
    what the json route makes, message for message and bit for bit."""

    @given(json_documents())
    @settings(max_examples=200, deadline=None)
    def test_reads_as_json_reads(self, text):
        want = typed(json.loads(text))
        assert typed(_load_object(text, "document")) == want
        assert typed(_load_object(text.encode(), "document")) == want

    @pytest.mark.parametrize("data, want", LOADER_CASES.values(), ids=LOADER_CASES)
    def test_fixed_cases_keep_their_message_and_exit_code(self, data, want, tmp_path, capsys):
        got = parsed(parse, data)
        assert got == parsed(json_route, data)
        assert got[:2] == want
        if isinstance(data, str) and "\ud800" in data:
            return  # a raw lone surrogate has no UTF-8 file form
        path = tmp_path / "instance.json"
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        assert main(["solve", str(path)]) == (EXIT_OK if want[0] == "ok" else EXIT_INPUT_ERROR)
        capsys.readouterr()

    def test_documents_make_the_json_routes_space(self, tmp_path):
        rng = np.random.default_rng(160)
        docs = [planted_entry_doc(rng, 120, 20, 20, 4, 100.0), planted_entry_doc(rng, 60, 10, 10, 3, 100.0)]
        for p, ell in ((1, 10), (2, 6), (1, 20)):
            out = tmp_path / f"g{p}-{ell}"
            assert main(["gengap", "--p", str(p), "--ell", str(ell), "--out", str(out)]) == EXIT_OK
            docs.append((out / "instance.json").read_bytes())
        docs += [serialize(gen_euclidean(8, 4, 4, 2, 2, box_size=box, seed=seed))
                 for seed, box in enumerate((1.0, 3.0, 100.0, 1e-3, 1e6))]
        unit_box = planted_entry_doc(rng, 20, 5, 5, 1, 1.0, close=(3e-4, 2e-4))
        assert re.search(rb"\b0\.000\d{16}", unit_box)  # an entry in [1e-4, 1e-3): 20 digits, json's route
        for data in docs + [unit_box]:
            want = space_of(json_route(data))
            assert space_of(parse(data)) == want
            assert space_of(parse(data.decode())) == want
