"""Command-line interface: file-based workflows over the library.

Subcommands: solve, exact, verify, decompose, gengap, experiment.
Exit codes: 0 success, 1 verification failed or improving witness found,
2 input error, 3 enumeration refused by a cap.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .decomposition import decompose
from .errors import CapExceeded, InputError, InternalInvariantError
from .exact import DEFAULT_CAP, brute_force_opt, is_local_opt
from .gap_gen import GapParams, build as build_gap, verify as verify_gap
from .instance import (
    _load_object,
    disjointify as _disjointify,
    gen_euclidean,
    parse,
    parse_solution,
    serialize,
    serialize_solution,
)
from .local_search import SearchConfig, run

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP_REFUSED = 3

EXPERIMENT_CSV_SCHEMA = "rbmedian.experiment.v1"
_CSV_FIELDS = ["instance", "p", "seed", "local_cost", "opt_cost", "ratio",
               "iterations", "wall_time_s", "error"]


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None


def _load_instance(path: str):
    return parse(_read(path))


def _emit(doc, out: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if out is None or out == "-":
        print(text)
    else:
        Path(out).write_text(text + "\n", encoding="utf-8")


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    initial = parse_solution(_read(args.initial)) if args.initial else None
    config = SearchConfig(
        p=args.p,
        epsilon=args.epsilon,
        rule=args.rule,
        seed=args.seed,
        max_iters=args.max_iters,
    )
    result = run(inst, config, initial=initial)
    _emit(result.to_doc(), args.out)
    return EXIT_OK


def cmd_exact(args) -> int:
    inst = _load_instance(args.instance)
    result = brute_force_opt(inst, cap=args.cap)
    _emit(result.to_doc(), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    sol = parse_solution(_read(args.solution))
    verdict = is_local_opt(inst, sol, args.p, cap=args.cap)
    _emit(verdict.to_doc(), args.out)
    if verdict.locally_optimal:
        print(f"locally optimal under swaps of size <= {args.p} "
              f"({verdict.moves_checked} moves checked)", file=sys.stderr)
        return EXIT_OK
    print(f"improving move found after {verdict.moves_checked} moves, "
          f"delta {verdict.witness_delta}", file=sys.stderr)
    return EXIT_VERIFICATION_FAILED


def cmd_decompose(args) -> int:
    inst = _load_instance(args.instance)
    s_sol = parse_solution(_read(args.s_solution))
    o_sol = parse_solution(_read(args.o_solution))
    shared = (s_sol.R & o_sol.R) | (s_sol.B & o_sol.B)
    if shared and not args.disjointify:
        raise InputError(
            f"solutions share facilities {sorted(shared)}; pass --disjointify to duplicate them"
        )
    if shared:
        inst, s_sol, o_sol = _disjointify(inst, s_sol, o_sol)
    report = decompose(inst, s_sol, o_sol)
    _emit(report.to_doc(), args.out)
    return EXIT_OK if report.ok else EXIT_VERIFICATION_FAILED


def cmd_gengap(args) -> int:
    gap = build_gap(GapParams(p=args.p, ell=args.ell))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "instance.json").write_bytes(serialize(gap.instance) + b"\n")
        (out / "local.json").write_bytes(serialize_solution(gap.local_solution) + b"\n")
        (out / "global.json").write_bytes(serialize_solution(gap.global_solution) + b"\n")
        expectations = {
            "p": gap.params.p,
            "ell": gap.params.ell,
            "alpha": gap.params.alpha,
            "beta": gap.params.beta,
            "k_r": gap.params.k_r,
            "k_b": gap.params.k_b,
            "expected_local_cost": gap.expected_local_cost,
            "expected_global_cost": gap.expected_global_cost,
            "expected_ratio_lower_bound": str(gap.expected_ratio_lower_bound),
        }
        (out / "expected.json").write_text(
            json.dumps(expectations, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote instance and solutions to {out}", file=sys.stderr)
    if args.verify:
        report = verify_gap(gap, exhaustive_cap=args.cap)
        print(json.dumps(report.to_doc(), indent=2))
        return EXIT_OK if report.ok else EXIT_VERIFICATION_FAILED
    if not args.out:
        print(serialize(gap.instance).decode("utf-8"))
    return EXIT_OK


def _typed(value, kinds: tuple, what: str):
    """value if its type is exactly one of kinds, so a JSON true is not an
    integer; else an InputError saying it must be `what`."""
    if type(value) not in kinds:
        raise InputError(f"{what}, got {value!r}")
    return value


def _float(value, what: str) -> float:
    """value as a float if it is a JSON number that fits one, else an InputError."""
    try:
        return float(_typed(value, (int, float), f"{what} must be a number"))
    except OverflowError:
        raise InputError(f"{what} is too large for a float") from None


def _experiment_instances(spec: dict):
    """Yield (name, instance) pairs in deterministic order."""
    if "corpus" in spec:
        root = Path(_typed(spec["corpus"], (str,), "'corpus' must be a path string"))
        if not root.is_dir():
            raise InputError(f"corpus directory {root} does not exist")
        for path in sorted(root.glob("*.json")):
            yield path.name, parse(path.read_bytes())
    elif "generate" in spec:
        g = _typed(spec["generate"], (dict,), "'generate' must be an object")
        try:
            params = {key: g[key] for key in ("n_clients", "n_red", "n_blue", "k_r", "k_b")}
        except KeyError as e:
            raise InputError(f"bad 'generate' section: {e}") from None
        n, base_seed = g.get("count", 1), g.get("seed", 0)
        for key, value in (("count", n), ("seed", base_seed), *params.items()):
            _typed(value, (int,), f"'generate' {key!r} must be an integer")
        params["box_size"] = _float(g.get("box_size", 1.0), "'generate' 'box_size'")
        for i in range(n):
            yield f"gen-{base_seed + i}", gen_euclidean(seed=base_seed + i, **params)
    else:
        raise InputError("experiment spec needs either 'corpus' or 'generate'")


def _format_ratio(local_cost, opt_cost) -> str:
    if isinstance(local_cost, int) and isinstance(opt_cost, int):
        return str(Fraction(local_cost, opt_cost))
    return repr(local_cost / opt_cost)


def run_experiment(spec: dict, out_stream) -> list:
    """Run the sweep described by a spec dict and write CSV to out_stream.

    Row order is instance-major, then p, then seed: fixed by the spec, so
    the result columns are reproducible run to run (wall_time_s is not).
    Per-row failures land in the error column and the sweep continues.
    """
    p_values = spec.get("p_values", [1])
    seeds = spec.get("seeds", [0])
    epsilon = _float(spec.get("epsilon", 0.0), "'epsilon'")
    opt_cap = _typed(spec.get("opt_cap", DEFAULT_CAP), (int,), "'opt_cap' must be an integer")
    if not isinstance(p_values, list) or not isinstance(seeds, list):
        raise InputError("'p_values' and 'seeds' must be lists")
    for key, values in (("p_values", p_values), ("seeds", seeds)):
        for value in values:
            _typed(value, (int,), f"{key!r} must hold integers")

    out_stream.write(f"# schema: {EXPERIMENT_CSV_SCHEMA}\n")
    writer = csv.DictWriter(out_stream, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    rows = []
    for name, inst in _experiment_instances(spec):
        opt_cost, opt_err = None, None
        try:
            opt_cost = brute_force_opt(inst, cap=opt_cap).cost
        except CapExceeded as e:
            opt_err = str(e)
        for p in p_values:
            for seed in seeds:
                row = {f: "" for f in _CSV_FIELDS}
                row.update({"instance": name, "p": p, "seed": seed})
                start = time.perf_counter()
                try:
                    result = run(inst, SearchConfig(p=p, epsilon=epsilon, seed=seed))
                    row["local_cost"] = result.assignment.total
                    row["iterations"] = result.iterations
                    if opt_cost is not None:
                        row["opt_cost"] = opt_cost
                        if opt_cost > 0:
                            row["ratio"] = _format_ratio(result.assignment.total, opt_cost)
                    elif opt_err:
                        row["error"] = f"opt skipped: {opt_err}"
                except (InputError, CapExceeded, InternalInvariantError) as e:
                    row["error"] = str(e)
                row["wall_time_s"] = f"{time.perf_counter() - start:.6f}"
                writer.writerow(row)
                rows.append(row)
    return rows


def cmd_experiment(args) -> int:
    spec = _load_object(_read(args.spec), "experiment spec")
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            run_experiment(spec, fh)
    else:
        run_experiment(spec, sys.stdout)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="rbmedian",
        description="Budgeted red-blue median: local search, exact oracles, "
                    "decomposition checks, worst-case instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run multi-swap local search on an instance file")
    sp.add_argument("instance")
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--epsilon", type=float, default=0.0)
    sp.add_argument("--rule", choices=["best", "first"], default="best")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-iters", type=int, default=10**6)
    sp.add_argument("--initial", help="start from this solution file instead of a seeded draw")
    sp.add_argument("--out", help="write the result JSON here instead of stdout")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("exact", help="brute-force the exact optimum")
    sp.add_argument("instance")
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("verify", help="certify a solution locally optimal, or print a witness")
    sp.add_argument("instance")
    sp.add_argument("solution")
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("decompose", help="group/block decomposition report for a solution pair")
    sp.add_argument("instance")
    sp.add_argument("s_solution", help="candidate solution file")
    sp.add_argument("o_solution", help="reference solution file")
    sp.add_argument("--disjointify", action="store_true",
                    help="duplicate shared facilities instead of rejecting overlap")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("gengap", help="generate a worst-case instance, optionally verify it")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--out", help="directory for instance.json, local.json, global.json, expected.json")
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
    sp.set_defaults(func=cmd_gengap)

    sp = sub.add_parser("experiment", help="seeded sweep over a corpus, CSV out")
    sp.add_argument("--spec", required=True, help="JSON spec file")
    sp.add_argument("--out", help="CSV path, '-' or omitted for stdout")
    sp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_CAP_REFUSED
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except InternalInvariantError as e:
        print(f"internal invariant violated (this is a bug): {e}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
