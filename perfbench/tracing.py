"""Per-layer tracing from outside the package.

`Tracer.install()` replaces the traced public functions with timing
wrappers in every rbmedian module namespace that holds them (so aliases
such as `cli.build_gap` and re-imports such as `exact.neighborhood` are
covered), and `uninstall()` puts the originals back. Untraced runs
therefore pay nothing. Aggregates stay in memory: per span name the call
count, total seconds and seconds covered by traced child spans, plus
counters read from results at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter


def _count_gap_checks(counters, report):
    for status in getattr(report, "checks", {}).values():
        key = "skipped" if str(status).startswith("skipped") else "run"
        counters[f"gap_gen.checks_{key}"] += 1


def _count_violations(counters, report):
    for part in ("block_report", "bounds_report"):
        counters["decomposition.violations"] += len(
            getattr(getattr(report, part, None), "violations", ()))


# (module, function, hook reading counters off the function's result)
FUNCTION_SPANS = (
    ("metric", "from_matrix", None),
    ("metric", "from_graph", None),
    ("instance", "parse", None),
    ("instance", "evaluate", None),
    ("instance", "gen_euclidean", None),
    ("local_search", "run",
     lambda c, r: c.update({"local_search.iterations": getattr(r, "iterations", 0)})),
    ("exact", "brute_force_opt",
     lambda c, r: c.update({"exact.brute_force_opt.pairs": getattr(r, "examined", 0)})),
    ("exact", "is_local_opt",
     lambda c, r: c.update({"exact.is_local_opt.moves": getattr(r, "moves_checked", 0)})),
    ("decomposition", "decompose", _count_violations),
    ("decomposition", "build_phi", None),
    ("decomposition", "check_standard_bounds", None),
    ("gap_gen", "build", None),
    ("gap_gen", "verify", _count_gap_checks),
    ("cli", "main", None),
    ("cli", "run_experiment",
     lambda c, r: c.update({"cli.run_experiment.rows": len(r)})),
)
METHOD_SPANS = (("local_search", "DeltaEvaluator", "delta"),)
GENERATOR_SPANS = (("local_search", "neighborhood"),)
CAP_REFUSERS = ("exact.brute_force_opt", "exact.is_local_opt")


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, seconds, seconds in child spans]
        self.counters = Counter()
        self.missing = []
        self._stack = []  # one [child seconds] cell per open span
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _wrap_function(self, name, fn, hook):
        stat, stack, counters = self._stat(name), self._stack, self.counters
        refusal_type = _cap_exceeded() if name in CAP_REFUSERS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                if refusal_type is not None and isinstance(e, refusal_type):
                    counters["exact.cap_refusals"] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(counters, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._timed_items(self._stat(name), fn(*args, **kwargs))

        return wrapper

    def _timed_items(self, stat, items):
        """Yield from `items`, timing each next() as one span."""
        stack, counters, it = self._stack, self.counters, iter(items)
        while True:
            start = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                elapsed = perf_counter() - start
                stat[0] += 1
                stat[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            counters["local_search.moves_priced"] += 1
            yield item

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "rbmedian" or mod_name.startswith("rbmedian.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for mod, fn_name, hook in FUNCTION_SPANS:
            original = getattr(sys.modules.get(f"rbmedian.{mod}"), fn_name, None)
            if original is None:
                self.missing.append(f"{mod}.{fn_name}")
                continue
            name = f"{mod}.{fn_name}"
            self._patch_everywhere(original, self._wrap_function(name, original, hook))
        for mod, fn_name in GENERATOR_SPANS:
            original = getattr(sys.modules.get(f"rbmedian.{mod}"), fn_name, None)
            if original is None:
                self.missing.append(f"{mod}.{fn_name}")
                continue
            self._patch_everywhere(original, self._wrap_generator(f"{mod}.{fn_name}", original))
        for mod, cls_name, meth in METHOD_SPANS:
            cls = getattr(sys.modules.get(f"rbmedian.{mod}"), cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:
                self.missing.append(f"{mod}.{cls_name}.{meth}")
                continue
            setattr(cls, meth, self._wrap_function(f"{mod}.{meth}", original, None))
            self._patches.append((cls, meth, original))

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- results -----------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name):
        _calls, total, children = self.stats.get(name, (0, 0.0, 0.0))
        return total - children


def _cap_exceeded():
    errors = sys.modules.get("rbmedian.errors")
    return getattr(errors, "CapExceeded", None)
