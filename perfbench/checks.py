"""Output checks for the benchmark's operations.

Every checker takes what one operation produced and returns a list of
problems; an empty list means the output is correct. Costs are
recomputed with numpy from the benchmark's own copy of each instance,
so the checks share no code with the package they check.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-9
EXPERIMENT_SCHEMA_LINE = "# schema: rbmedian.experiment.v1"
GAP_CHECKS = ("local_cost", "global_cost", "global_is_optimum", "locally_optimal")


@dataclass(frozen=True)
class InstanceData:
    """The benchmark's copy of an instance: distances and roles."""

    dist: np.ndarray
    clients: tuple
    red: tuple
    blue: tuple
    k_r: int
    k_b: int

    @property
    def integral(self) -> bool:
        return np.issubdtype(self.dist.dtype, np.integer)

    def cost(self, R, B):
        open_ = sorted(set(R) | set(B))
        total = self.dist[np.ix_(self.clients, open_)].min(axis=1).sum()
        return int(total) if self.integral else float(total)

    def to_doc(self) -> dict:
        return {
            "n": int(self.dist.shape[0]),
            "metric": {"matrix": self.dist.tolist()},
            "clients": list(self.clients),
            "red": list(self.red),
            "blue": list(self.blue),
            "k_r": self.k_r,
            "k_b": self.k_b,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "InstanceData":
        return cls(
            dist=np.asarray(doc["metric"]["matrix"]),
            clients=tuple(doc["clients"]),
            red=tuple(doc["red"]),
            blue=tuple(doc["blue"]),
            k_r=doc["k_r"],
            k_b=doc["k_b"],
        )


def costs_match(a, b) -> bool:
    """Exact for two integers, else within a relative REL_TOL."""
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def feasibility_problems(inst: InstanceData, R, B) -> list:
    problems = []
    if len(set(R)) != len(R) or len(set(B)) != len(B):
        problems.append(f"duplicate facilities in R={R} B={B}")
    if len(set(R)) != inst.k_r or len(set(B)) != inst.k_b:
        problems.append(f"budget violated: |R|={len(R)} |B|={len(B)}, want {inst.k_r}/{inst.k_b}")
    if not set(R) <= set(inst.red):
        problems.append(f"R has non-red locations {sorted(set(R) - set(inst.red))}")
    if not set(B) <= set(inst.blue):
        problems.append(f"B has non-blue locations {sorted(set(B) - set(inst.blue))}")
    return problems


def check_solve(code, doc, inst: InstanceData, expected: dict | None = None) -> list:
    """A `solve` result: feasible, cost reproduced, strictly decreasing
    trace, local-optimum termination and, when recorded, the expected
    solution, iteration count and cost."""
    if code != 0:
        return [f"exit code {code}, want 0"]
    try:
        R, B = doc["solution"]["R"], doc["solution"]["B"]
        cost, trace, iterations = doc["cost"], doc["trace"], doc["iterations"]
        termination = doc["termination"]
    except (KeyError, TypeError) as e:
        return [f"malformed result: missing {e}"]
    problems = feasibility_problems(inst, R, B)
    if problems:
        return problems
    actual = inst.cost(R, B)
    if not costs_match(actual, cost):
        problems.append(f"reported cost {cost!r} but the solution costs {actual!r}")
    if any(b >= a for a, b in zip(trace, trace[1:])):
        problems.append("trace is not strictly decreasing")
    if not trace or not costs_match(trace[-1], cost):
        problems.append("trace does not end at the reported cost")
    if len(trace) != iterations + 1:
        problems.append(f"trace has {len(trace)} entries for {iterations} iterations")
    if termination != "local-optimum":
        problems.append(f"termination {termination!r}, want 'local-optimum'")
    if expected is not None:
        if sorted(R) != expected["R"] or sorted(B) != expected["B"]:
            problems.append(f"solution R={sorted(R)} B={sorted(B)}, recorded "
                            f"R={expected['R']} B={expected['B']}")
        if iterations != expected["iterations"]:
            problems.append(f"{iterations} iterations, recorded {expected['iterations']}")
        if not costs_match(cost, expected["cost"]):
            problems.append(f"cost {cost!r}, recorded {expected['cost']!r}")
    return problems


def solve_summary(doc) -> dict:
    return {"R": sorted(doc["solution"]["R"]), "B": sorted(doc["solution"]["B"]),
            "iterations": doc["iterations"], "cost": doc["cost"]}


def gap_costs(p: int, ell: int):
    """Closed-form costs of the family's designated and reference solutions."""
    beta = 2 * p
    alpha = beta * (ell - p)
    globl = p * p * (ell + 1)
    return alpha * (p + 1) + beta * p * ell + globl, globl


def check_gap_report(code, doc, p: int, ell: int, allowed_skips) -> list:
    """A `gengap --verify` report: closed-form costs, every check passed
    or skipped, and no skip outside the recorded set (a recorded skip
    that now passes is fine: fewer skips is better)."""
    if code != 0:
        return [f"exit code {code}, want 0"]
    problems = []
    want_local, want_global = gap_costs(p, ell)
    if doc.get("local_cost") != want_local:
        problems.append(f"local_cost {doc.get('local_cost')!r}, want {want_local}")
    if doc.get("global_cost") != want_global:
        problems.append(f"global_cost {doc.get('global_cost')!r}, want {want_global}")
    checks = doc.get("checks", {})
    for name in GAP_CHECKS:
        status = checks.get(name)
        if status == "pass":
            continue
        if isinstance(status, str) and status.startswith("skipped"):
            if name not in allowed_skips:
                problems.append(f"check {name} skipped, recorded as run")
            continue
        problems.append(f"check {name}: {status!r}")
    if doc.get("ok") is not True:
        problems.append("report not ok")
    return problems


def skipped_checks(doc) -> list:
    """Names of the checks a gap report skipped, sorted."""
    return sorted(k for k, v in doc.get("checks", {}).items()
                  if isinstance(v, str) and v.startswith("skipped"))


def check_decompose(code, doc, n_clients: int) -> list:
    """A `decompose` report: ok, every client checked, no violations."""
    if code != 0:
        return [f"exit code {code}, want 0"]
    problems = []
    if doc.get("ok") is not True:
        problems.append("report not ok")
    blocks, bounds = doc.get("block_checks", {}), doc.get("bound_checks", {})
    violations = len(blocks.get("violations", [None])) + len(bounds.get("violations", [None]))
    if violations:
        problems.append(f"{violations} violations")
    if bounds.get("clients_checked") != n_clients:
        problems.append(f"{bounds.get('clients_checked')} clients checked, want {n_clients}")
    return problems


def check_verify_witness(code, doc, inst: InstanceData, R, B) -> list:
    """`verify` on a non-optimal solution: exit 1 and a witness move that
    really changes the cost by its reported, negative delta."""
    if code != 1:
        return [f"exit code {code}, want 1"]
    if doc.get("locally_optimal") is not False:
        return ["solution reported locally optimal"]
    w = doc.get("witness")
    if not isinstance(w, dict):
        return ["no witness"]
    delta = w.get("delta")
    if not isinstance(delta, (int, float)) or not delta < 0:
        return [f"witness delta {delta!r} is not negative"]
    new_R = (set(R) - set(w["close_red"])) | set(w["open_red"])
    new_B = (set(B) - set(w["close_blue"])) | set(w["open_blue"])
    if (not set(w["close_red"]) <= set(R) or not set(w["close_blue"]) <= set(B)
            or set(w["open_red"]) & set(R) or set(w["open_blue"]) & set(B)):
        return ["witness closes a closed or opens an open facility"]
    problems = feasibility_problems(inst, sorted(new_R), sorted(new_B))
    if problems:
        return ["witness leads to an infeasible solution: " + p for p in problems]
    actual = inst.cost(new_R, new_B) - inst.cost(R, B)
    if not costs_match(actual, delta):
        problems.append(f"witness delta {delta!r}, but the move changes cost by {actual!r}")
    return problems


def read_experiment_csv(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != EXPERIMENT_SCHEMA_LINE:
        raise ValueError(f"first line {lines[:1]!r}, want {EXPERIMENT_SCHEMA_LINE!r}")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def experiment_summary(rows) -> list:
    return [[int(r["p"]), int(r["seed"]), int(r["iterations"]),
             float(r["local_cost"]), float(r["opt_cost"])] for r in rows]


def check_experiment(code, text: str, n_rows: int, expected: list | None = None) -> list:
    """An `experiment` CSV: schema line, one error-free row per (p, seed),
    local cost at least the optimum and, when recorded, the same rows."""
    if code != 0:
        return [f"exit code {code}, want 0"]
    try:
        rows = read_experiment_csv(text)
        summary = experiment_summary(rows)
    except (ValueError, KeyError, TypeError) as e:
        return [f"malformed CSV: {e}"]
    problems = []
    if len(rows) != n_rows:
        problems.append(f"{len(rows)} rows, want {n_rows}")
    for row, (_p, _seed, _its, local, opt) in zip(rows, summary):
        if row["error"]:
            problems.append(f"row error: {row['error']}")
        if local < opt and not costs_match(local, opt):
            problems.append(f"local cost {local!r} below optimum {opt!r}")
    if expected is not None:
        for got, want in zip(summary, expected):
            if got[:3] != want[:3] or not all(map(costs_match, got[3:], want[3:])):
                problems.append(f"row {got}, recorded {want}")
    return problems


def load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None
