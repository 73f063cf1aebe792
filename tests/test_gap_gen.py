"""Worst-case family: construction, closed forms, and verification."""

from fractions import Fraction

import pytest

from rbmedian.gap_gen import (
    GapParamError,
    GapParams,
    build,
    expected_costs,
    ratio_lower_bound,
    verify,
)
from rbmedian.instance import evaluate, serialize


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
        assert gap.expected_local_cost == 11
        assert gap.expected_global_cost == 3
        assert gap.expected_ratio_lower_bound == ratio_lower_bound(1, 2)

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
        assert d[lay.hub_red, lay.right_local_blues[0]] > gap.expected_local_cost

    def test_designated_costs_evaluate_to_closed_forms(self):
        for p, ell in [(1, 2), (1, 4), (2, 4), (3, 6)]:
            gap = build(GapParams(p=p, ell=ell))
            assert evaluate(gap.instance, gap.local_solution).total == gap.expected_local_cost
            assert evaluate(gap.instance, gap.global_solution).total == gap.expected_global_cost

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

    def test_oversized_optimum_check_is_skipped_not_failed(self):
        report = verify(build(GapParams(p=1, ell=20)))
        assert report.checks["local_cost"] == "pass"
        assert report.checks["global_cost"] == "pass"
        assert report.checks["global_is_optimum"].startswith("skipped")
        assert report.checks["locally_optimal"] == "pass"
        assert report.ok

    def test_tiny_cap_skips_both_searches(self):
        report = verify(build(GapParams(p=1, ell=2)), exhaustive_cap=10)
        # the reason is the refusal's own message, with the count that tripped it
        assert report.checks["global_is_optimum"].startswith(
            "skipped: 120 candidate solutions exceed the cap of 10")
        assert report.checks["locally_optimal"].startswith(
            "skipped: 49 neighborhood moves exceed the cap of 10")
        assert report.ok  # skipped is not failed, and the report says so
