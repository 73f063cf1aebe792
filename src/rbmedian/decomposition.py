"""Structural decomposition of a solution pair into groups and blocks.

Given two facility-disjoint feasible solutions S (candidate) and O
(reference), every reference facility is mapped to its nearest candidate
facility (phi, ties to the lowest index). Facilities of S are classified
by their preimages, S u O is then partitioned into small groups around
each positive-degree facility, and groups are merged into blocks that are
colour-balanced between the two solutions. The block and bound checkers
at the bottom turn the guarantees this construction is supposed to give
into executable reports with explicit witnesses.

All tie-breaks are to the lowest index and all processing orders are
ascending by index, so the whole pipeline is deterministic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import InputError, InternalInvariantError
from .instance import Instance, Solution, check_feasible, evaluate, nearest
from .metric import FLOAT_TOL

RED = "red"
BLUE = "blue"


class OverlapError(InputError):
    """The two solutions share facilities; disjointify first."""


class FacilityClass(Enum):
    # very_good: no preimage; good: preimages exist, none shares the
    # facility's colour; bad: some preimage shares it.
    VERY_GOOD = "very_good"
    GOOD = "good"
    BAD = "bad"


class GroupKind(Enum):
    # balanced: equal red counts and equal blue counts on both sides;
    # good: representative is a good facility, filler all opposite colour;
    # bad: everything else (one colour's filler pool ran dry).
    BALANCED = "balanced"
    GOOD = "good"
    BAD = "bad"


@dataclass(eq=False)
class PhiMap:
    """Nearest-candidate map for a disjoint solution pair.

    phi: reference facility -> nearest candidate facility; its keys are
    the reference facilities, ascending.
    cent: candidate facility with a preimage -> its nearest preimage.
    pre: candidate facility -> its preimages, ascending; its keys are the
    candidate facilities, ascending, and len(pre[i]) is the degree of i.
    """

    phi: dict
    cent: dict
    pre: dict


@dataclass(eq=False)
class Group:
    """One cell of the partition of S u O.

    members mixes both sides; exactly one candidate member has positive
    degree (the representative). blue_deficiency is the reference blue
    count minus the candidate blue count inside the group.
    """

    members: frozenset
    representative: int
    kind: GroupKind
    rep_colour: str
    blue_deficiency: int


@dataclass(eq=False)
class Block:
    groups: tuple
    leader: int
    members: frozenset


def colour_map(inst: Instance) -> dict:
    colours = {f: RED for f in inst.red}
    colours.update({f: BLUE for f in inst.blue})
    return colours


def build_phi(inst: Instance, s_sol: Solution, o_sol: Solution) -> PhiMap:
    """Map each facility of o_sol to its nearest facility of s_sol.

    Requires the two solutions to be facility-disjoint; evaluate costs are
    oblivious to duplication, so disjointify() is the standard fix.
    """
    check_feasible(inst, s_sol)
    check_feasible(inst, o_sol)
    s_fac = sorted(s_sol.facilities())
    o_fac = sorted(o_sol.facilities())
    overlap = set(s_fac) & set(o_fac)
    if overlap:
        raise OverlapError(
            f"solutions share facilities {sorted(overlap)}; disjointify the pair first"
        )
    anchor, _ = nearest(inst.space.dist, o_fac, s_fac)
    phi = dict(zip(o_fac, anchor.tolist()))
    pre = {i: [] for i in s_fac}
    for o, i in phi.items():  # o ascends, so each list comes out sorted
        pre[i].append(o)
    dist = inst.space.dist
    # cent(i) is the first preimage of i in (distance to i, index) order
    cent = {i: min(mine, key=lambda o: (dist[i, o], o)) for i, mine in pre.items() if mine}
    return PhiMap(phi=phi, cent=cent, pre=pre)


def classify(phi: PhiMap, colours: dict) -> dict:
    out = {}
    for i, mine in phi.pre.items():
        if not mine:
            out[i] = FacilityClass.VERY_GOOD
        elif all(colours[o] != colours[i] for o in mine):
            out[i] = FacilityClass.GOOD
        else:
            out[i] = FacilityClass.BAD
    return out


def make_groups(phi: PhiMap, classes: dict, colours: dict) -> list:
    """Partition S u O into groups, one per positive-degree facility.

    Representatives are processed in ascending index order. Each takes its
    full preimage plus deg - 1 zero-degree fillers, drawn in ascending
    index order. Filler composition prefers an exact colour balance, then
    an all-opposite-colour fill for a good representative, and otherwise
    drains whichever colour pool fell short before topping up from the
    other, which is the only way a group goes bad.
    """
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
        # exact balance wants same_pre - 1 fillers of rep's colour (the rep
        # itself covers one) and other_pre of the other colour
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
        groups.append(
            Group(
                members=members,
                representative=rep,
                kind=kind,
                rep_colour=rep_col,
                blue_deficiency=blue_ref - blue_cand,
            )
        )
    leftover = pools[RED] or pools[BLUE]
    if leftover:
        raise InternalInvariantError(
            f"zero-degree facilities left over after grouping: {leftover}"
        )
    return groups


def _merge(groups, leader) -> Block:
    members = frozenset().union(*(g.members for g in groups))
    return Block(groups=tuple(groups), leader=leader, members=members)


def make_blocks(groups: list) -> list:
    """Assemble groups into blocks with zero blue deficiency.

    Three phases: balanced groups stand alone; good groups with opposite
    rep colours pair up (leader is the lower-indexed rep); each bad group
    absorbs exactly as many leftover good groups as its deficiency needs.
    Group arithmetic guarantees everything is consumed; anything left over
    is a bug, not bad input.
    """
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
            blocks.append(_merge([g], g.representative))

    paired = min(len(good_red), len(good_blue))
    for gr, gb in zip(good_red[:paired], good_blue[:paired]):
        blocks.append(_merge([gr, gb], min(gr.representative, gb.representative)))
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
        blocks.append(_merge([g] + absorbed, g.representative))

    if good_red or good_blue:
        reps = [g.representative for g in good_red + good_blue]
        raise InternalInvariantError(f"good groups left over after block assembly: {reps}")
    return blocks


@dataclass
class Violation:
    where: str
    check: str
    detail: str


@dataclass
class BlockCheckReport:
    blocks_checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_doc(self) -> dict:
        return {
            "blocks_checked": self.blocks_checked,
            "ok": self.ok,
            "violations": [asdict(v) for v in self.violations],
        }


def check_block_properties(blocks: list, phi: PhiMap, classes: dict,
                           colours: dict) -> BlockCheckReport:
    """Verify the structural guarantees every block must satisfy.

    Per block: equal red counts and equal blue counts across the two
    sides; closure under phi in both directions; exactly one positive
    degree leader whose fellow candidate members are good or very good,
    with all good ones sharing a colour. Globally: blocks partition S u O.
    `classes` is `classify(phi, colours)`.
    """
    s_set = set(phi.pre)
    o_set = set(phi.phi)
    violations = []

    seen = {}
    for bi, blk in enumerate(blocks):
        where = f"block[{bi}] (leader {blk.leader})"
        for f in blk.members:
            if f in seen:
                violations.append(
                    Violation(where, "partition", f"location {f} also in {seen[f]}")
                )
            seen[f] = where

        cand = blk.members & s_set
        ref = blk.members & o_set
        if len(cand) + len(ref) != len(blk.members):
            stray = sorted(blk.members - s_set - o_set)
            violations.append(
                Violation(where, "membership", f"locations outside both solutions: {stray}")
            )
        cand_red = sum(1 for f in cand if colours[f] == RED)
        ref_red = sum(1 for f in ref if colours[f] == RED)
        if cand_red != ref_red or (len(cand) - cand_red) != (len(ref) - ref_red):
            violations.append(
                Violation(
                    where,
                    "colour_balance",
                    f"candidate {cand_red}r/{len(cand) - cand_red}b vs "
                    f"reference {ref_red}r/{len(ref) - ref_red}b",
                )
            )
        for i in cand:
            out = [o for o in phi.pre[i] if o not in blk.members]
            if out:
                violations.append(
                    Violation(where, "phi_closure", f"preimages of {i} escape the block: {out}")
                )
        for o in ref:
            if phi.phi[o] not in blk.members:
                violations.append(
                    Violation(where, "phi_closure", f"phi({o}) = {phi.phi[o]} outside the block")
                )
        if blk.leader not in cand:
            violations.append(Violation(where, "leader", f"leader {blk.leader} not a candidate member"))
        elif not phi.pre[blk.leader]:
            violations.append(Violation(where, "leader", f"leader {blk.leader} has degree 0"))
        good_cols = set()
        for i in cand:
            if i == blk.leader:
                continue
            if classes[i] is FacilityClass.BAD:
                violations.append(
                    Violation(where, "leader", f"non-leader candidate member {i} is bad")
                )
            elif classes[i] is FacilityClass.GOOD:
                good_cols.add(colours[i])
        if len(good_cols) > 1:
            violations.append(
                Violation(where, "leader", "good non-leader members of both colours present")
            )

    missing = (s_set | o_set) - set(seen)
    if missing:
        violations.append(
            Violation("partition", "partition", f"locations in no block: {sorted(missing)}")
        )
    return BlockCheckReport(blocks_checked=len(blocks), violations=violations)


@dataclass
class BoundsReport:
    clients_checked: int
    violations: list
    max_slack_anchor: object
    max_slack_centre: object

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_doc(self) -> dict:
        return {
            "clients_checked": self.clients_checked,
            "ok": self.ok,
            "max_slack_anchor": self.max_slack_anchor,
            "max_slack_centre": self.max_slack_centre,
            "violations": [asdict(v) for v in self.violations],
        }


def check_standard_bounds(inst: Instance, s_sol: Solution, o_sol: Solution,
                          phi: PhiMap) -> BoundsReport:
    """Per-client reassignment bounds that triangle inequality must force.

    With c the candidate distance, c* the reference distance, o the
    client's reference facility: moving the client to phi(o) costs at most
    c + 2c* (anchor bound), and moving it to cent(phi(o)) costs at most
    2c + 3c* (centre bound). Slack is bound minus actual; the maximum over
    clients is reported per bound. Slack below zero is a violation, or for
    float tables below -FLOAT_TOL * max(1, c + c*).
    """
    tol = 0.0 if inst.space.integral else FLOAT_TOL
    a_s = evaluate(inst, s_sol)
    a_o = evaluate(inst, o_sol)
    # O and S are disjoint, so one table holds phi on O and cent on S.
    lookup = np.zeros(inst.space.n, dtype=np.intp)
    lookup[list(phi.phi)] = list(phi.phi.values())
    lookup[list(phi.cent)] = list(phi.cent.values())
    anchor = lookup[a_o.facility]
    centre = lookup[anchor]
    cols = np.asarray(inst.clients, dtype=np.intp)
    # Object arrays compute in Python scalars: integer slack stays exact
    # past int64, and every number reported is a plain int or float.
    c = a_s.distance.astype(object)
    c_star = a_o.distance.astype(object)
    d_anchor = inst.space.dist[cols, anchor].astype(object)
    d_centre = inst.space.dist[cols, centre].astype(object)
    slack_anchor = (c + 2 * c_star) - d_anchor
    slack_centre = (2 * c + 3 * c_star) - d_centre
    allowance = tol * np.maximum(1.0, abs(c) + abs(c_star)) if tol else 0
    low_anchor = slack_anchor < -allowance
    low_centre = slack_centre < -allowance
    violations = []
    for t in np.flatnonzero(low_anchor | low_centre).tolist():
        where = f"client {inst.clients[t]}"
        if low_anchor[t]:
            violations.append(Violation(
                where, "anchor_bound",
                f"d(j, phi(o_j)) = {d_anchor[t]} > c + 2c* = {c[t] + 2 * c_star[t]}",
            ))
        if low_centre[t]:
            violations.append(Violation(
                where, "centre_bound",
                f"d(j, cent(phi(o_j))) = {d_centre[t]} > 2c + 3c* = {2 * c[t] + 3 * c_star[t]}",
            ))
    return BoundsReport(
        clients_checked=len(inst.clients),
        violations=violations,
        max_slack_anchor=max(slack_anchor, default=None),
        max_slack_centre=max(slack_centre, default=None),
    )


@dataclass
class DecompositionReport:
    phi: PhiMap
    classes: dict
    groups: list
    blocks: list
    block_report: BlockCheckReport
    bounds_report: BoundsReport

    @property
    def ok(self) -> bool:
        return self.block_report.ok and self.bounds_report.ok

    def to_doc(self) -> dict:
        return {
            "phi": {str(o): i for o, i in sorted(self.phi.phi.items())},
            "deg": {str(i): len(pre) for i, pre in sorted(self.phi.pre.items())},
            "cent": {str(i): c for i, c in sorted(self.phi.cent.items())},
            "classes": {str(i): cls.value for i, cls in sorted(self.classes.items())},
            "groups": [
                {
                    "members": sorted(g.members),
                    "representative": g.representative,
                    "kind": g.kind.value,
                    "blue_deficiency": g.blue_deficiency,
                }
                for g in self.groups
            ],
            "blocks": [
                {
                    "leader": b.leader,
                    "members": sorted(b.members),
                    "groups": [g.representative for g in b.groups],
                }
                for b in self.blocks
            ],
            "block_checks": self.block_report.to_doc(),
            "bound_checks": self.bounds_report.to_doc(),
            "ok": self.ok,
        }


def decompose(inst: Instance, s_sol: Solution, o_sol: Solution) -> DecompositionReport:
    """Full pipeline: phi, classes, groups, blocks, and both checkers.

    Solutions must already be facility-disjoint; apply disjointify first
    when they are not.
    """
    phi = build_phi(inst, s_sol, o_sol)
    colours = colour_map(inst)
    classes = classify(phi, colours)
    groups = make_groups(phi, classes, colours)
    blocks = make_blocks(groups)
    block_report = check_block_properties(blocks, phi, classes, colours)
    bounds_report = check_standard_bounds(inst, s_sol, o_sol, phi)
    return DecompositionReport(
        phi=phi,
        classes=classes,
        groups=groups,
        blocks=blocks,
        block_report=block_report,
        bounds_report=bounds_report,
    )
