"""Worst-case family: construction, closed forms, and verification."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

import rbmedian.gap_gen as gap_gen
from rbmedian.gap_gen import (
    GapParamError,
    GapParams,
    build,
    expected_costs,
    ratio_lower_bound,
    verify,
)
from rbmedian.exact import lower_bound
from rbmedian.instance import Solution, evaluate, serialize
from rbmedian.metric import MetricSpace


def worse_reference(gap):
    """The member with its reference's first middle blue traded for a right
    local blue: still feasible, but 2 * beta dearer, so the bound is not met."""
    lay, ref = gap.layout, gap.global_solution
    blues = (set(ref.B) - {lay.middle_reference_blues[0][0]}) | {lay.right_local_blues[0]}
    return replace(gap, global_solution=Solution(R=ref.R, B=blues))


def count_brute_force(monkeypatch) -> list:
    """Record each brute_force_opt call verify makes; returns the record."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = gap_gen.brute_force_opt
    monkeypatch.setattr(gap_gen, "brute_force_opt", counted)
    return calls


class TestParams:
    def test_rejects_nonpositive_swap_size(self):
        with pytest.raises(GapParamError):
            GapParams(p=0, ell=4)

    def test_rejects_narrow_width(self):
        with pytest.raises(GapParamError):
            GapParams(p=2, ell=3)

    def test_boundary_width_allowed(self):
        params = GapParams(p=2, ell=4)
        assert params.beta == 4
        assert params.alpha == 8
        assert params.k_r == 3
        assert params.k_b == 10

    def test_closed_forms_small(self):
        assert expected_costs(GapParams(p=1, ell=2)) == (11, 3)
        assert expected_costs(GapParams(p=1, ell=4)) == (25, 5)
        assert expected_costs(GapParams(p=1, ell=10)) == (67, 11)
        assert expected_costs(GapParams(p=2, ell=4)) == (76, 20)


class TestBuild:
    def test_smallest_instance_shape(self):
        gap = build(GapParams(p=1, ell=2))
        inst = gap.instance
        assert inst.space.n == 17
        assert len(inst.clients) == 7
        assert len(inst.red) == 4
        assert len(inst.blue) == 6
        assert inst.k_r == 2
        assert inst.k_b == 3

    def test_layout_distances(self):
        gap = build(GapParams(p=2, ell=4))
        inst, lay, params = gap.instance, gap.layout, gap.params
        d = inst.space.dist
        assert inst.space.n == 57
        assert len(lay.left_clients) == 3
        assert len(lay.middle_clients) == 2
        assert all(len(sec) == 4 for sec in lay.middle_clients)
        assert len(lay.right_clients) == 10
        assert all(len(grp) == 2 for grp in lay.right_clients)

        for t, c in enumerate(lay.left_clients):
            assert d[c, lay.hub_red] == params.alpha
            assert d[c, lay.left_reference_reds[t]] == 0
        for s, sec in enumerate(lay.middle_clients):
            for c_pos, c in enumerate(sec):
                assert d[c, lay.middle_reds[s]] == params.beta
                assert d[c, lay.middle_reference_blues[s][c_pos]] == 0
        for f, grp in enumerate(lay.right_clients):
            for t, c in enumerate(grp):
                assert d[c, lay.right_local_blues[f]] == 1
                assert d[c, lay.right_reference_blues[t]] == 1
        # two clients sharing a reference blue are two hops apart
        assert d[lay.right_clients[0][0], lay.right_clients[5][0]] == 2
        # islands are unreachable from each other
        assert d[lay.hub_red, lay.right_local_blues[0]] > expected_costs(params)[0]

    def test_designated_costs_evaluate_to_closed_forms(self):
        for p, ell in [(1, 2), (1, 4), (2, 4), (3, 6)]:
            gap = build(GapParams(p=p, ell=ell))
            local, globl = expected_costs(gap.params)
            assert evaluate(gap.instance, gap.local_solution).total == local
            assert evaluate(gap.instance, gap.global_solution).total == globl

    def test_build_is_deterministic(self):
        a = build(GapParams(p=1, ell=3))
        b = build(GapParams(p=1, ell=3))
        assert serialize(a.instance) == serialize(b.instance)
        assert a.local_solution == b.local_solution
        assert a.global_solution == b.global_solution


class TestRatioArithmetic:
    def test_ratio_meets_bound_tight_only_for_single_swaps(self):
        for p in range(1, 6):
            for ell in range(2 * p, 51):
                local, globl = expected_costs(GapParams(p=p, ell=ell))
                ratio = Fraction(local, globl)
                bound = ratio_lower_bound(p, ell)
                assert ratio >= bound, (p, ell)
                if p == 1:
                    assert ratio == bound, (p, ell)
                else:
                    assert ratio > bound, (p, ell)

    def test_ratio_grows_with_width_below_limit(self):
        for p in range(1, 5):
            limit = Fraction(5) + Fraction(2, p)
            prev = None
            for ell in range(2 * p, 41):
                local, globl = expected_costs(GapParams(p=p, ell=ell))
                ratio = Fraction(local, globl)
                assert ratio < limit, (p, ell)
                if prev is not None:
                    assert ratio >= prev, (p, ell)
                prev = ratio

    def test_quarter_gap_hits_five(self):
        local, globl = expected_costs(GapParams(p=1, ell=4))
        assert Fraction(local, globl) == 5

    def test_width_ten_single_swap_value(self):
        local, globl = expected_costs(GapParams(p=1, ell=10))
        assert Fraction(local, globl) == Fraction(67, 11)
        assert ratio_lower_bound(1, 10) == 7 - Fraction(10, 11)


class TestVerify:
    def test_smallest_instance_passes_all_checks(self):
        report = verify(build(GapParams(p=1, ell=2)))
        assert report.checks == {
            "local_cost": "pass",
            "global_cost": "pass",
            "global_is_optimum": "pass",
            "locally_optimal": "pass",
        }
        assert report.ok
        assert report.local_cost == 11 and report.global_cost == 3
        doc = report.to_doc()
        assert doc["ratio"] == "11/3"
        assert "witness" not in doc

    def test_ratio_five_instance_passes(self):
        report = verify(build(GapParams(p=1, ell=4)))
        assert report.ok
        assert all(v == "pass" for v in report.checks.values())
        assert Fraction(report.local_cost, report.global_cost) == 5

    def test_wide_member_optimum_is_certified_by_the_bound(self, monkeypatch):
        calls = count_brute_force(monkeypatch)
        report = verify(build(GapParams(p=1, ell=20)))
        assert all(v == "pass" for v in report.checks.values()), report.checks
        assert report.methods == {"global_is_optimum": "lower bound",
                                  "locally_optimal": "island tables"}
        assert report.to_doc()["methods"] == report.methods
        assert calls == []

    def test_unmet_bound_falls_back_to_the_brute_force(self, monkeypatch):
        calls = count_brute_force(monkeypatch)
        gap = worse_reference(build(GapParams(p=1, ell=2)))
        report = verify(gap)
        assert report.checks["global_cost"] == "fail: evaluated 7, expected 3"
        assert report.checks["global_is_optimum"] == "pass"  # the optimum is still 3
        assert report.methods["global_is_optimum"] == "brute force"
        # claimed as the (1, 3) member, whose closed-form optimum is 4
        report = verify(replace(gap, params=GapParams(p=1, ell=3)))
        assert report.checks["global_is_optimum"] == "fail: optimum 3, expected 4"
        assert len(calls) == 2

    def test_float_table_meets_the_bound_exactly(self):
        # at a tenth of the scale the reference's float total rounds
        # (0.1 + 0.1 + 0.1 > 0.3), but its exact sum still meets the bound
        gap = build(GapParams(p=1, ell=2))
        space = MetricSpace(gap.instance.space.dist * 0.1)
        gap = replace(gap, instance=replace(gap.instance, space=space))
        assert evaluate(gap.instance, gap.global_solution).total != lower_bound(gap.instance)
        assert verify(gap).methods["global_is_optimum"] == "lower bound"

    def test_float_table_report_formats_its_ratio(self):
        gap = build(GapParams(p=1, ell=2))
        space = MetricSpace(gap.instance.space.dist * 0.1)
        report = verify(replace(gap, instance=replace(gap.instance, space=space)))
        doc = report.to_doc()
        assert isinstance(report.local_cost, float)
        assert doc["ratio"] == repr(report.local_cost / report.global_cost)
        assert float(doc["ratio"]) == pytest.approx(float(Fraction(*expected_costs(gap.params))))
        assert json.loads(json.dumps(doc)) == doc

    def test_oversized_optimum_check_is_skipped_not_failed(self):
        report = verify(worse_reference(build(GapParams(p=1, ell=20))))
        assert report.checks["global_is_optimum"].startswith(
            "skipped: 3229547246640 candidate solutions exceed the cap of 100000000")
        assert report.checks["locally_optimal"] == "pass"

    def test_tiny_cap_skips_both_searches(self):
        # the reason is the refusal's own message, with the count that tripped it
        # (49 moves, priced as 20 island state pairs), and the method refused
        report = verify(worse_reference(build(GapParams(p=1, ell=2))), exhaustive_cap=10)
        assert report.checks["global_is_optimum"].startswith(
            "skipped: 120 candidate solutions exceed the cap of 10")
        assert report.checks["locally_optimal"].startswith(
            "skipped: 20 island state pairs exceed the cap of 10")
        assert report.methods == {"global_is_optimum": "brute force",
                                  "locally_optimal": "island tables"}
        # a met bound needs no enumeration, so no cap can skip it
        report = verify(build(GapParams(p=1, ell=2)), exhaustive_cap=10)
        assert report.checks["global_is_optimum"] == "pass"
        assert report.checks["locally_optimal"].startswith("skipped: 20 ")
        assert report.ok  # skipped is not failed, and the report says so

    @pytest.mark.parametrize("p, ell", [(2, 40), (3, 12)])
    def test_wide_members_are_certified_by_island_tables(self, p, ell):
        # 209,679,553 and 5,800,962,755 moves: beyond any scan the cap admits
        report = verify(build(GapParams(p=p, ell=ell)))
        assert all(v == "pass" for v in report.checks.values()), report.checks
        assert report.methods == {"global_is_optimum": "lower bound",
                                  "locally_optimal": "island tables"}

    def test_failures_are_reported_with_the_witness(self):
        # the (1, 2) instance claimed as the (1, 3) member, with a designated
        # solution whose middle clients have no open facility on their island
        gap = build(GapParams(p=1, ell=2))
        lay = gap.layout
        bad = replace(gap, params=GapParams(p=1, ell=3), local_solution=Solution(
            R={lay.hub_red, lay.left_reference_reds[0]}, B=lay.right_local_blues))
        report = verify(bad)
        assert report.checks == {
            "local_cost": "fail: evaluated 35, expected 18",
            "global_cost": "fail: evaluated 3, expected 4",
            "global_is_optimum": "fail: optimum 3, expected 4",
            "locally_optimal": "fail: improving move found with delta -24",
        }
        assert report.ok is False
        doc = report.to_doc()
        assert doc["ok"] is False
        assert doc["witness"] == {
            "close_red": [],
            "open_red": [],
            "close_blue": [lay.right_local_blues[0]],
            "open_blue": [lay.middle_reference_blues[0][0]],
        }
