"""The benchmark's workloads: seeded inputs, operations and their checks.

A workload's `setup(seed, workdir, sizes)` writes every input file the
program will read and returns the fixed list of operations one pass
runs. An operation is one `rbmedian` command line run in-process through
`rbmedian.cli.main`, plus a check of what it produced. Inputs depend only
on the seed and on the benchmark's own code, except the worst-case
family files, which the program's `gengap --out` writes.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import InstanceData

# Recorded outputs for the default seed live next to this file.
EXPECTED_PATH = Path(__file__).with_name("expected.json")
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Shape:
    p: int
    n_clients: int
    n_red: int
    n_blue: int
    k: int


@dataclass(frozen=True)
class Sizes:
    """Everything that sets how much work one pass does."""

    solve_shapes: tuple = (Shape(p=1, n_clients=120, n_red=20, n_blue=20, k=4),
                           Shape(p=2, n_clients=60, n_red=10, n_blue=10, k=3))
    box: float = 100.0
    # Instances per shape; solve-first runs a superset of solve-best's files.
    # A p=1 best-improvement solve takes 3-6 iterations (28%, 45%, 22%, 5%
    # over 40 seeds) and its latency steps with them; with 22 p=1 and 4 p=2
    # solves the median op falls inside the 4-iteration step, not on an edge.
    best_per_shape: tuple = (22, 4)
    first_per_shape: tuple = (22, 11)
    first_epsilons: tuple = (0.0, 0.5)
    families: tuple = ((1, 10), (2, 4), (2, 6), (1, 20))
    verify_family: tuple = (2, 6)
    sweep_ops: int = 120
    sweep_shape: tuple = (14, 7, 7, 2, 2)  # clients, red, blue, k_r, k_b
    sweep_box: float = 10.0
    sweep_p_values: tuple = (1, 2)
    sweep_seeds: tuple = (0, 1)


TOY = Sizes(
    solve_shapes=(Shape(p=1, n_clients=12, n_red=4, n_blue=4, k=2),
                  Shape(p=2, n_clients=10, n_red=4, n_blue=4, k=2)),
    best_per_shape=(2, 1),
    first_per_shape=(2, 2),
    families=((1, 2), (2, 4)),
    verify_family=(1, 2),
    sweep_ops=3,
)


class SetupError(RuntimeError):
    """The program failed while the benchmark prepared its inputs."""


@dataclass
class Op:
    """One timed command line and the check of its output.

    `check(code, stdout)` returns (problems, info): a list of problems
    (empty when the output is right) and a dict of counts to report.
    `summary(code, stdout)` gives what `--record` stores for the op.
    """

    name: str
    argv: list
    check: Callable
    summary: Callable | None = None


# -- input generation ---------------------------------------------------------

def euclidean_instance(rng: np.random.Generator, shape: Shape, box: float) -> InstanceData:
    """Points uniform in a box, Euclidean float distances; clients, then red, then blue."""
    n_c, n_r, n_b = shape.n_clients, shape.n_red, shape.n_blue
    n = n_c + n_r + n_b
    pts = rng.uniform(0.0, box, size=(n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    return InstanceData(
        dist=np.sqrt((diff * diff).sum(axis=2)),
        clients=tuple(range(n_c)),
        red=tuple(range(n_c, n_c + n_r)),
        blue=tuple(range(n_c + n_r, n)),
        k_r=shape.k,
        k_b=shape.k,
    )


def write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_doc(path: Path):
    try:
        return checks.load_json(path.read_text(encoding="utf-8"))
    except OSError:
        return None


def load_expected(workload: str, seed: int | None = None) -> dict:
    """Recorded outputs of a workload's ops; seed-specific ones only for
    the default seed (seed=None asks for seed-independent records)."""
    if (seed is not None and seed != DEFAULT_SEED) or not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8")).get(workload, {})


def _doc_check(path: Path, checker, *args, info=None):
    """Check the JSON document the op wrote to `path`; `info(doc)` gives
    counts to report."""
    def check(code, _stdout):
        doc = read_doc(path)
        if doc is None:
            return [f"no JSON output in {path.name} (exit code {code})"], {}
        problems = checker(code, doc, *args)
        return problems, (info(doc) if info and not problems else {})
    return check


# -- solve-best and solve-first ------------------------------------------------

def _solve_instances(seed, workdir, sizes, per_shape):
    """Instance files for both solve workloads: the i-th instance of a
    shape is the same file content in solve-best and solve-first."""
    out = []
    for s, (shape, count) in enumerate(zip(sizes.solve_shapes, per_shape)):
        for i in range(count):
            rng = np.random.default_rng([seed, s, i])
            inst = euclidean_instance(rng, shape, sizes.box)
            start_seed = int(rng.integers(2**31))
            path = write_json(workdir / f"p{shape.p}-{i:02d}.json", inst.to_doc())
            out.append((f"p{shape.p}-{i:02d}", shape.p, inst, path, start_seed))
    return out


def _solve_ops(seed, workdir, sizes, workload, rule, per_shape, epsilons):
    expected = load_expected(workload, seed)
    ops = []
    for name, p, inst, path, start_seed in _solve_instances(seed, workdir, sizes, per_shape):
        for eps in epsilons:
            op_name = name if len(epsilons) == 1 else f"{name}-eps{eps}"
            out = workdir / f"{op_name}.out.json"
            argv = ["solve", str(path), "--p", str(p), "--rule", rule,
                    "--epsilon", repr(eps), "--seed", str(start_seed), "--out", str(out)]
            ops.append(Op(
                name=op_name,
                argv=argv,
                check=_doc_check(out, checks.check_solve, inst, expected.get(op_name),
                                 info=lambda doc: {"iterations": doc["iterations"]}),
                summary=lambda code, _s, out=out: checks.solve_summary(read_doc(out)),
            ))
    return ops


def _solve_warmup(workdir, sizes):
    shape = Shape(p=1, n_clients=10, n_red=3, n_blue=3, k=1)
    inst = euclidean_instance(np.random.default_rng(0), shape, sizes.box)
    path = write_json(workdir / "warmup.json", inst.to_doc())
    return [["solve", str(path), "--out", str(workdir / "warmup.out.json")]]


def setup_solve_best(seed, workdir, sizes):
    return _solve_ops(seed, workdir, sizes, "solve-best", "best", sizes.best_per_shape, (0.0,))


def setup_solve_first(seed, workdir, sizes):
    return _solve_ops(seed, workdir, sizes, "solve-first", "first",
                      sizes.first_per_shape, sizes.first_epsilons)


# -- certify --------------------------------------------------------------------

def _has_improving_swap(inst: InstanceData, R, B) -> bool:
    base = inst.cost(R, B)
    for current, pool, is_red in ((R, inst.red, True), (B, inst.blue, False)):
        for out in current:
            for into in set(pool) - set(current):
                moved = (set(current) - {out}) | {into}
                cost = inst.cost(moved, B) if is_red else inst.cost(R, moved)
                if cost < base:
                    return True
    return False


def _nonoptimal_solution(rng, inst: InstanceData, designated):
    """A seeded random solution that a single swap improves."""
    while True:
        R = sorted(int(x) for x in rng.choice(inst.red, size=inst.k_r, replace=False))
        B = sorted(int(x) for x in rng.choice(inst.blue, size=inst.k_b, replace=False))
        if (R, B) != designated and _has_improving_swap(inst, R, B):
            return R, B


def setup_certify(seed, workdir, sizes):
    import rbmedian.cli as cli

    allowed = load_expected("certify")  # op name -> checks it may skip
    family_files = {}
    for p, ell in sizes.families:
        out = workdir / f"gap-{p}-{ell}"
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["gengap", "--p", str(p), "--ell", str(ell), "--out", str(out)])
        if code != 0:
            raise SetupError(f"gengap --p {p} --ell {ell} --out exited {code}")
        family_files[(p, ell)] = out

    ops = []
    for p, ell in sizes.families:
        def check(code, stdout, p=p, ell=ell):
            doc = checks.load_json(stdout)
            if not isinstance(doc, dict):
                return [f"no JSON report on stdout (exit code {code})"], {}
            problems = checks.check_gap_report(code, doc, p, ell,
                                               allowed.get(f"gengap-{p}-{ell}", ()))
            return problems, {"checks_skipped": len(checks.skipped_checks(doc))}
        ops.append(Op(f"gengap-{p}-{ell}",
                      ["gengap", "--p", str(p), "--ell", str(ell), "--verify"], check,
                      lambda _code, stdout: checks.skipped_checks(checks.load_json(stdout))))

    # Each family's designated solution against its reference, and back.
    for (p, ell), out in family_files.items():
        inst = InstanceData.from_doc(read_doc(out / "instance.json"))
        for name, s_sol, o_sol in ((f"decompose-{p}-{ell}", "local", "global"),
                                   (f"decompose-ref-{p}-{ell}", "global", "local")):
            report = workdir / f"{name}.out.json"
            ops.append(Op(
                name,
                ["decompose", str(out / "instance.json"), str(out / f"{s_sol}.json"),
                 str(out / f"{o_sol}.json"), "--out", str(report)],
                _doc_check(report, checks.check_decompose, len(inst.clients)),
            ))

    p, ell = sizes.verify_family
    out = family_files[(p, ell)]
    inst = InstanceData.from_doc(read_doc(out / "instance.json"))
    local = read_doc(out / "local.json")
    R, B = _nonoptimal_solution(np.random.default_rng([seed, 7]), inst,
                                (sorted(local["R"]), sorted(local["B"])))
    sol = write_json(workdir / "nonoptimal.json", {"R": R, "B": B})
    report = workdir / "verify.out.json"
    ops.append(Op(
        f"verify-{p}-{ell}",
        ["verify", str(out / "instance.json"), str(sol), "--p", str(p), "--out", str(report)],
        _doc_check(report, checks.check_verify_witness, inst, R, B),
    ))
    return ops


def _certify_warmup(workdir, sizes):
    return [["gengap", "--p", "1", "--ell", "2", "--verify"]]


# -- sweep ------------------------------------------------------------------------

def _sweep_spec(sizes, instance_seed):
    n_c, n_r, n_b, k_r, k_b = sizes.sweep_shape
    return {
        "generate": {"count": 1, "seed": instance_seed, "n_clients": n_c, "n_red": n_r,
                     "n_blue": n_b, "k_r": k_r, "k_b": k_b, "box_size": sizes.sweep_box},
        "p_values": list(sizes.sweep_p_values),
        "seeds": list(sizes.sweep_seeds),
    }


def setup_sweep(seed, workdir, sizes):
    expected = load_expected("sweep", seed)
    rng = np.random.default_rng([seed, 99])
    n_rows = len(sizes.sweep_p_values) * len(sizes.sweep_seeds)
    ops = []
    for i in range(sizes.sweep_ops):
        spec = write_json(workdir / f"sweep-{i:03d}.json",
                          _sweep_spec(sizes, int(rng.integers(2**31))))
        csv_path = workdir / f"sweep-{i:03d}.csv"
        name = f"sweep-{i:03d}"

        def check(code, _stdout, csv_path=csv_path, want=expected.get(name)):
            try:
                text = csv_path.read_text(encoding="utf-8")
            except OSError as e:
                return [f"no CSV output: {e}"], {}
            return checks.check_experiment(code, text, n_rows, want), {}

        def summary(_code, _stdout, csv_path=csv_path):
            rows = checks.read_experiment_csv(csv_path.read_text(encoding="utf-8"))
            return checks.experiment_summary(rows)

        ops.append(Op(name, ["experiment", "--spec", str(spec), "--out", str(csv_path)],
                      check, summary))
    return ops


def _sweep_warmup(workdir, sizes):
    spec = {"generate": {"count": 1, "seed": 0, "n_clients": 6, "n_red": 3, "n_blue": 3,
                         "k_r": 1, "k_b": 1}, "p_values": [1], "seeds": [0]}
    path = write_json(workdir / "warmup-spec.json", spec)
    return [["experiment", "--spec", str(path), "--out", str(workdir / "warmup.csv")]]


# name -> (setup, warm-up command lines)
WORKLOADS = {
    "solve-best": (setup_solve_best, _solve_warmup),
    "solve-first": (setup_solve_first, _solve_warmup),
    "certify": (setup_certify, _certify_warmup),
    "sweep": (setup_sweep, _sweep_warmup),
}
