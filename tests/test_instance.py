"""Instance model: evaluation, disjointification, generation, JSON formats."""

import hashlib
import json
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import grid_instance, line_instance, random_feasible, random_sized_grid, same_instance
from oracle import scalar_evaluate
from rbmedian.instance import (
    FormatError,
    InfeasibleSolutionError,
    Instance,
    InstanceError,
    Solution,
    disjointify,
    evaluate,
    gen_euclidean,
    parse,
    parse_solution,
    serialize,
    serialize_solution,
)
from rbmedian.metric import MetricSpace

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
    client position, an exactly equal integer total, a bit-identical float one."""
    a = evaluate(inst, sol)
    facility, distance, total = scalar_evaluate(inst, sol)
    assert a.facility.tolist() == facility
    assert a.distance.tolist() == distance
    assert type(a.total) is type(total)
    assert a.total == total


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
