"""Nearest-facility map, classification, grouping, blocks, and checkers."""

import json
import random

import numpy as np
import pytest

from conftest import grid_instance, line_instance, random_feasible, random_sized_grid
from oracle import deficiency
from rbmedian.decomposition import (
    BLUE,
    RED,
    Block,
    BlockCheckReport,
    BoundsReport,
    FacilityClass,
    Group,
    GroupKind,
    OverlapError,
    PhiMap,
    Violation,
    build_phi,
    check_block_properties,
    check_standard_bounds,
    classify,
    colour_map,
    decompose,
    make_blocks,
    make_groups,
)
from rbmedian.errors import InternalInvariantError
from rbmedian.instance import Instance, Solution, disjointify
from rbmedian.metric import MetricSpace


def disjoint_pair(rng, inst):
    s = random_feasible(rng, inst)
    o = random_feasible(rng, inst)
    return disjointify(inst, s, o)


def manual_phi(phi, colours):
    """PhiMap from an explicit mapping; degrees derived, centres by index.

    Only for fixtures that never touch the distance-based centre bound.
    """
    s_fac = sorted(set(colours) - set(phi))
    deg = {i: 0 for i in s_fac}
    for tgt in phi.values():
        deg[tgt] += 1
    pre = {i: sorted(o for o, t in phi.items() if t == i) for i in s_fac}
    cent = {i: pre[i][0] for i in s_fac if deg[i]}
    return PhiMap(
        phi=dict(phi),
        deg=deg,
        cent=cent,
        pre=pre,
        s_facilities=tuple(s_fac),
        o_facilities=tuple(sorted(phi)),
    )


class TestBuildPhi:
    def test_overlapping_solutions_rejected(self):
        inst = line_instance([0], [1, 2], [3, 4], k_r=1, k_b=1)
        s = Solution(R={1}, B={3})
        with pytest.raises(OverlapError):
            build_phi(inst, s, s)

    def test_colocated_pairs_map_to_their_partner(self):
        # each reference facility sits exactly on one candidate facility
        inst = line_instance([0], [10, 10, 40, 40], [50, 50], k_r=2, k_b=1)
        s = Solution(R={1, 3}, B={5})
        o = Solution(R={2, 4}, B={6})
        phi = build_phi(inst, s, o)
        assert phi.phi == {2: 1, 4: 3, 6: 5}
        assert phi.deg == {1: 1, 3: 1, 5: 1}
        assert phi.cent == {1: 2, 3: 4, 5: 6}

    def test_star_preimage_and_nearest_centre(self):
        # three reference reds cluster around one candidate red
        inst = line_instance([0], [100, 97, 101, 106, 500, 600], [], k_r=3, k_b=0)
        s = Solution(R={1, 5, 6}, B=set())
        o = Solution(R={2, 3, 4}, B=set())
        phi = build_phi(inst, s, o)
        assert phi.phi == {2: 1, 3: 1, 4: 1}
        assert phi.deg == {1: 3, 5: 0, 6: 0}
        assert phi.cent == {1: 3}  # distance 1 beats 3 and 6

    def test_ties_break_to_lowest_candidate_index(self):
        inst = line_instance([0], [10, 10, 15, 20], [], k_r=2, k_b=0)
        s = Solution(R={1, 2}, B=set())
        o = Solution(R={3, 4}, B=set())
        # facilities 1 and 2 are co-located, so both references tie
        phi = build_phi(inst, s, o)
        assert phi.phi == {3: 1, 4: 1}

    def test_matches_independent_nearest_scan(self):
        rng = random.Random(0xFEED)
        for _ in range(40):
            inst, s, o = disjoint_pair(rng, random_sized_grid(rng))
            phi = build_phi(inst, s, o)
            s_fac = sorted(s.facilities())
            for of in sorted(o.facilities()):
                best = min(s_fac, key=lambda i: (inst.space.dist[of, i].item(), i))
                assert phi.phi[of] == best
            for i in s_fac:
                pre = [of for of in sorted(o.facilities()) if phi.phi[of] == i]
                assert phi.deg[i] == len(pre)
                if pre:
                    assert phi.cent[i] == min(pre, key=lambda of: (inst.space.dist[i, of].item(), of))
                else:
                    assert i not in phi.cent


class TestClassify:
    def test_all_three_classes_in_one_instance(self):
        inst = line_instance(
            [0], [0, 1000, 2001, 2002], [500, 2000, 1, 501], k_r=2, k_b=2
        )
        # reds 1(0) 2(1000) 3(2001) 4(2002); blues 5(500) 6(2000) 7(1) 8(501)
        s = Solution(R={1, 2}, B={5, 6})
        o = Solution(R={3, 4}, B={7, 8})
        phi = build_phi(inst, s, o)
        assert phi.phi == {3: 6, 4: 6, 7: 1, 8: 5}
        classes = classify(phi, colour_map(inst))
        assert classes == {
            1: FacilityClass.GOOD,       # red serving one blue reference
            2: FacilityClass.VERY_GOOD,  # nothing mapped here
            5: FacilityClass.BAD,        # blue serving a blue reference
            6: FacilityClass.GOOD,       # blue serving two red references
        }

    def test_mixed_preimage_is_bad(self):
        colours = {1: RED, 2: RED, 10: RED, 11: BLUE}
        phi = manual_phi({10: 1, 11: 1}, colours)
        classes = classify(phi, colours)
        assert classes[1] is FacilityClass.BAD
        assert classes[2] is FacilityClass.VERY_GOOD


class TestMakeGroups:
    def test_matched_pairs_all_balanced(self):
        inst = line_instance([0], [10, 10, 40, 40], [50, 50], k_r=2, k_b=1)
        s = Solution(R={1, 3}, B={5})
        o = Solution(R={2, 4}, B={6})
        phi = build_phi(inst, s, o)
        colours = colour_map(inst)
        groups = make_groups(phi, classify(phi, colours), colours)
        assert [g.kind for g in groups] == [GroupKind.BALANCED] * 3
        assert all(g.blue_deficiency == 0 for g in groups)
        assert {g.members for g in groups} == {
            frozenset({1, 2}),
            frozenset({3, 4}),
            frozenset({5, 6}),
        }

    def test_good_branch_fires_for_good_representative(self):
        # red representative with two blue preimages, one spare blue filler
        colours = {1: RED, 2: BLUE, 10: BLUE, 11: BLUE}
        phi = manual_phi({10: 1, 11: 1}, colours)
        classes = classify(phi, colours)
        assert classes[1] is FacilityClass.GOOD
        groups = make_groups(phi, classes, colours)
        assert len(groups) == 1
        g = groups[0]
        assert g.kind is GroupKind.GOOD
        assert g.members == frozenset({1, 2, 10, 11})
        assert g.blue_deficiency == +1

    def test_good_blue_representative_has_negative_deficiency(self):
        colours = {1: BLUE, 2: RED, 10: RED, 11: RED}
        phi = manual_phi({10: 1, 11: 1}, colours)
        groups = make_groups(phi, classify(phi, colours), colours)
        assert groups[0].kind is GroupKind.GOOD
        assert groups[0].blue_deficiency == -1

    def test_bad_branch_substitutes_for_the_short_colour(self):
        # bad red rep: preimages one red, two blues; only red fillers exist,
        # so the empty blue pool forces two red substitutes
        colours = {1: RED, 2: RED, 3: RED, 10: RED, 11: BLUE, 12: BLUE}
        phi = manual_phi({10: 1, 11: 1, 12: 1}, colours)
        classes = classify(phi, colours)
        assert classes[1] is FacilityClass.BAD
        groups = make_groups(phi, classes, colours)
        g = groups[0]
        assert g.kind is GroupKind.BAD
        assert g.members == frozenset({1, 2, 3, 10, 11, 12})
        assert g.blue_deficiency == +2

    def test_balanced_wins_even_for_a_bad_representative(self):
        # bad red rep with one red and one blue preimage; the blue pool can
        # restore exact colour balance, so the group is not bad
        colours = {1: RED, 3: BLUE, 10: RED, 11: BLUE}
        phi = manual_phi({10: 1, 11: 1}, colours)
        classes = classify(phi, colours)
        assert classes[1] is FacilityClass.BAD
        groups = make_groups(phi, classes, colours)
        assert groups[0].kind is GroupKind.BALANCED
        assert groups[0].members == frozenset({1, 3, 10, 11})
        assert groups[0].blue_deficiency == 0

    def test_leftover_zero_degree_facilities_are_an_invariant_breach(self):
        # an extra zero-degree facility nothing can absorb
        colours = {1: RED, 2: RED, 3: RED, 10: RED}
        phi = manual_phi({10: 1}, colours)
        with pytest.raises(InternalInvariantError):
            make_groups(phi, classify(phi, colours), colours)

    def test_representatives_processed_in_ascending_order(self):
        rng = random.Random(0xBEEF)
        inst, s, o = disjoint_pair(rng, grid_instance(rng, 6, 6, 6, 3, 3))
        phi = build_phi(inst, s, o)
        colours = colour_map(inst)
        groups = make_groups(phi, classify(phi, colours), colours)
        reps = [g.representative for g in groups]
        assert reps == sorted(reps)

    def test_partition_covers_both_solutions(self):
        rng = random.Random(0xF00D)
        for _ in range(100):
            inst, s, o = disjoint_pair(rng, random_sized_grid(rng))
            phi = build_phi(inst, s, o)
            colours = colour_map(inst)
            groups = make_groups(phi, classify(phi, colours), colours)
            seen = [f for g in groups for f in g.members]
            assert len(seen) == len(set(seen))
            assert set(seen) == s.facilities() | o.facilities()
            assert sum(g.blue_deficiency for g in groups) == 0
            for g in groups:
                assert deficiency(g.members, s, o) == g.blue_deficiency


class TestMakeBlocks:
    def test_balanced_groups_stand_alone(self):
        inst = line_instance([0], [10, 10, 40, 40], [50, 50], k_r=2, k_b=1)
        s = Solution(R={1, 3}, B={5})
        o = Solution(R={2, 4}, B={6})
        report = decompose(inst, s, o)
        assert len(report.blocks) == 3
        assert all(len(b.groups) == 1 for b in report.blocks)
        assert report.ok

    def test_opposite_colour_good_groups_pair_up(self):
        # red rep catching a blue, blue rep catching a red; no fillers needed
        colours = {1: RED, 2: BLUE, 10: BLUE, 11: RED}
        phi = manual_phi({10: 1, 11: 2}, colours)
        classes = classify(phi, colours)
        groups = make_groups(phi, classes, colours)
        assert [g.kind for g in groups] == [GroupKind.GOOD, GroupKind.GOOD]
        assert [g.blue_deficiency for g in groups] == [+1, -1]
        blocks = make_blocks(groups)
        assert len(blocks) == 1
        assert blocks[0].leader == 1
        assert blocks[0].members == frozenset({1, 2, 10, 11})
        rep = check_block_properties(blocks, phi, classes, colours)
        assert rep.ok, rep.to_doc()

    def test_bad_group_absorbs_matching_good_groups(self):
        # candidate reds at 0/300/400 and blues at 500/600; reference reds
        # at 1/501/601 and blues at 2/3. The red at 0 catches one red and
        # two blue references but only red fillers exist, so its group goes
        # bad with deficiency +2 and must swallow both blue-rep good groups.
        inst = line_instance(
            [0], [0, 300, 400, 1, 501, 601], [500, 600, 2, 3], k_r=3, k_b=2
        )
        # reds 1(0) 2(300) 3(400) 4(1) 5(501) 6(601); blues 7(500) 8(600) 9(2) 10(3)
        s = Solution(R={1, 2, 3}, B={7, 8})
        o = Solution(R={4, 5, 6}, B={9, 10})
        phi = build_phi(inst, s, o)
        assert phi.deg == {1: 3, 2: 0, 3: 0, 7: 1, 8: 1}
        colours = colour_map(inst)
        classes = classify(phi, colours)
        groups = make_groups(phi, classes, colours)
        assert sorted(g.kind.value for g in groups) == ["bad", "good", "good"]
        bad = next(g for g in groups if g.kind is GroupKind.BAD)
        assert bad.members == frozenset({1, 2, 3, 4, 9, 10})
        assert bad.blue_deficiency == +2
        assert all(
            g.blue_deficiency == -1 for g in groups if g.kind is GroupKind.GOOD
        )
        blocks = make_blocks(groups)
        assert len(blocks) == 1
        assert blocks[0].leader == bad.representative == 1
        assert len(blocks[0].groups) == 3
        assert deficiency(blocks[0].members, s, o) == 0
        rep = check_block_properties(blocks, phi, classes, colours)
        assert rep.ok, rep.to_doc()

    def test_bad_group_with_zero_deficiency_is_rejected(self):
        g = Group(
            members=frozenset({1, 10}),
            representative=1,
            kind=GroupKind.BAD,
            rep_colour=RED,
            blue_deficiency=0,
        )
        with pytest.raises(InternalInvariantError):
            make_blocks([g])

    def test_blocks_partition_on_random_pairs(self):
        rng = random.Random(0xBA5E)
        for _ in range(100):
            inst, s, o = disjoint_pair(rng, random_sized_grid(rng))
            report = decompose(inst, s, o)
            assert report.block_report.ok, report.block_report.to_doc()
            covered = [f for b in report.blocks for f in b.members]
            assert len(covered) == len(set(covered))
            assert set(covered) == s.facilities() | o.facilities()
            assert all(deficiency(b.members, s, o) == 0 for b in report.blocks)


class TestCheckBlockProperties:
    def test_dropped_member_is_caught(self):
        rng = random.Random(0xD00D)
        inst, s, o = disjoint_pair(rng, grid_instance(rng, 5, 5, 5, 2, 2))
        report = decompose(inst, s, o)
        donor = next(b for b in report.blocks if len(b.members) > 1)
        victim = sorted(donor.members & set(report.phi.o_facilities))[0]
        mutated = [
            Block(groups=b.groups, leader=b.leader, members=b.members - {victim})
            if b is donor
            else b
            for b in report.blocks
        ]
        rep = check_block_properties(mutated, report.phi, report.classes, colour_map(inst))
        assert not rep.ok
        checks = {v.check for v in rep.violations}
        assert "partition" in checks       # the victim is in no block now
        assert "colour_balance" in checks  # the donor block lost one side

    def test_foreign_leader_reported(self):
        colours = {1: RED, 2: BLUE, 10: BLUE, 11: RED}
        phi = manual_phi({10: 1, 11: 2}, colours)
        classes = classify(phi, colours)
        blocks = make_blocks(make_groups(phi, classes, colours))
        bad = [Block(groups=blocks[0].groups, leader=99, members=blocks[0].members)]
        rep = check_block_properties(bad, phi, classes, colours)
        assert any(v.check == "leader" for v in rep.violations)


class TestStandardBounds:
    def test_colocated_triple_has_zero_slack(self):
        # client, candidate, and reference all at the same point
        inst = line_instance([10], [10, 10], [99], k_r=1, k_b=0)
        s = Solution(R={1}, B=set())
        o = Solution(R={2}, B=set())
        phi = build_phi(inst, s, o)
        rep = check_standard_bounds(inst, s, o, phi)
        assert rep.ok
        assert rep.clients_checked == 1
        assert rep.max_slack_anchor == 0
        assert rep.max_slack_centre == 0

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_violations_name_client_and_bound(self, dtype):
        # not a metric: client 0 sits far from its anchor 3, client 5 far
        # from its centre 2
        table = [[0, 1, 1, 100, 50, 9],
                 [1, 0, 10, 10, 10, 1],
                 [1, 10, 0, 1, 1, 7],
                 [100, 10, 1, 0, 1, 2],
                 [50, 10, 1, 1, 0, 1],
                 [9, 1, 7, 2, 1, 0]]
        integral = dtype is np.int64
        inst = Instance(MetricSpace(6, np.array(table, dtype=dtype), integral),
                        clients=(0, 5), red=(1, 2), blue=(3, 4), k_r=1, k_b=1)
        s, o = Solution(R={1}, B={3}), Solution(R={2}, B={4})
        doc = check_standard_bounds(inst, s, o, build_phi(inst, s, o)).to_doc()
        num = str if integral else (lambda x: str(float(x)))
        assert doc["violations"] == [
            {"where": "client 0", "check": "anchor_bound",
             "detail": f"d(j, phi(o_j)) = {num(100)} > c + 2c* = {num(3)}"},
            {"where": "client 5", "check": "centre_bound",
             "detail": f"d(j, cent(phi(o_j))) = {num(7)} > 2c + 3c* = {num(5)}"},
        ]
        assert doc["max_slack_anchor"] == 1 and doc["max_slack_centre"] == 4
        assert type(doc["max_slack_anchor"]) is (int if integral else float)

    def test_integer_slack_is_exact_past_int64(self):
        big = 2**62
        dist = np.array([[0, big, big], [big, 0, 0], [big, 0, 0]], dtype=np.int64)
        inst = Instance(MetricSpace(3, dist, True), clients=(0,), red=(1, 2), blue=(),
                        k_r=1, k_b=0)
        s, o = Solution(R={1}, B=set()), Solution(R={2}, B=set())
        rep = check_standard_bounds(inst, s, o, build_phi(inst, s, o))
        assert rep.ok
        assert rep.max_slack_anchor == 2 * big  # c + 2c* - c
        assert rep.max_slack_centre == 4 * big  # 2c + 3c* - c*

    def test_holds_on_random_pairs(self):
        rng = random.Random(0xACE)
        for _ in range(150):
            inst, s, o = disjoint_pair(rng, random_sized_grid(rng))
            phi = build_phi(inst, s, o)
            rep = check_standard_bounds(inst, s, o, phi)
            assert rep.ok, rep.to_doc()

    def test_holds_on_float_instances(self):
        from rbmedian.instance import gen_euclidean

        rng = random.Random(0xFADE)
        for seed in range(30):
            inst = gen_euclidean(8, 4, 4, 2, 2, seed=seed)
            inst, s, o = disjoint_pair(rng, inst)
            phi = build_phi(inst, s, o)
            rep = check_standard_bounds(inst, s, o, phi)
            assert rep.ok, rep.to_doc()

    def test_holds_on_gap_instance(self):
        from rbmedian.gap_gen import GapParams, build

        gap = build(GapParams(p=1, ell=10))
        phi = build_phi(gap.instance, gap.local_solution, gap.global_solution)
        rep = check_standard_bounds(
            gap.instance, gap.local_solution, gap.global_solution, phi
        )
        assert rep.ok, rep.to_doc()


class TestViolationDocs:
    def test_both_reports_write_the_same_bytes(self):
        v = [Violation("client 3", "anchor_bound", "d = 9 > 7")]
        block = BlockCheckReport(blocks_checked=2, violations=v).to_doc()
        bounds = BoundsReport(clients_checked=4, violations=v, max_slack_anchor=-2,
                              max_slack_centre=1).to_doc()
        entry = '[{"where": "client 3", "check": "anchor_bound", "detail": "d = 9 > 7"}]'
        assert json.dumps(block) == '{"blocks_checked": 2, "ok": false, "violations": ' + entry + "}"
        assert json.dumps(bounds) == ('{"clients_checked": 4, "ok": false, "max_slack_anchor": -2, '
                                      '"max_slack_centre": 1, "violations": ' + entry + "}")


class TestDecomposeReport:
    def test_document_shape(self):
        rng = random.Random(1)
        inst, s, o = disjoint_pair(rng, grid_instance(rng, 4, 4, 4, 2, 2))
        doc = decompose(inst, s, o).to_doc()
        assert set(doc) >= {
            "phi", "deg", "cent", "classes", "groups", "blocks",
            "block_checks", "bound_checks", "ok",
        }
        assert doc["ok"] is True
        assert doc["block_checks"]["violations"] == []
        assert doc["bound_checks"]["violations"] == []

    def test_random_campaign_all_clean(self):
        rng = random.Random(0xCAFE)
        for _ in range(100):
            inst, s, o = disjoint_pair(rng, random_sized_grid(rng))
            report = decompose(inst, s, o)
            assert report.ok, report.to_doc()
