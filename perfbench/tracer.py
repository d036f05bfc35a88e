"""Spans around the public functions of each clustercap module.

The wrappers are installed from outside the package: every clustercap
module namespace (and the claim-checker table in ``oracle``) that holds a
traced function gets the wrapper in its place, so callers that bound the
name with ``from .x import f`` and callers that look it up as ``mod.f``
are both traced.  A function or module that no longer exists is skipped;
its metrics then read zero.  Spans stay in memory and are written once,
at exit.

Importing this module does not import clustercap; ``run.py`` reads the
metric names from here without loading the package.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, function): every call becomes a span named "<module>.<function>"
# with the "clustercap." prefix and any leading underscore dropped (metric
# names must start with a letter or a digit).
TRACED = (
    ("clustercap.model", "enumerate_distributions"),
    ("clustercap._kernel_py", "distribution_profiles"),
    ("clustercap._kernel_py", "_weighted_profiles"),
    ("clustercap._kernel", "scan_distribution"),
    ("clustercap.oracle", "brute_force_capacity"),
    ("clustercap.oracle", "verify_claims"),
    ("clustercap.oracle", "build_ifg"),
    ("clustercap.oracle", "max_flow"),
    ("clustercap.capacity", "system_capacity"),
    ("clustercap.capacity", "cluster_weight_values"),
    ("clustercap.capacity", "csn_weight_values"),
    ("clustercap.capacity", "min_alpha"),
    ("clustercap.capacity", "tradeoff_curve"),
    ("clustercap.capacity", "compare_separate"),
    ("clustercap.mincut", "mincut"),
    ("clustercap.sequencing", "vertical_order"),
    ("clustercap.sequencing", "horizontal_selection"),
    ("clustercap.codes", "search_construction"),
    ("clustercap.codes", "verify_instance"),
)

# the nine claims of oracle.ALL_CLAIMS, in checker-table order
CLAIMS = (
    "lemma1-multiset",
    "lemma2-sum",
    "prop1-vertical",
    "prop2-horizontal",
    "thm1-fixed-separate",
    "thm2-monotone",
    "thm3-capacity",
    "thm4-dichotomy",
    "closed-form-vs-search",
)

CACHED = ("kernel_py.distribution_profiles", "kernel_py._weighted_profiles")
IMPORT_SPAN = "process.import"
MAIN_SPAN = "cli.main"



def span_name(module: str, function: str) -> str:
    return f"{module.removeprefix('clustercap.').lstrip('_')}.{function}"


SPAN_NAMES = (
    (MAIN_SPAN,)
    + tuple(span_name(mod, fn) for mod, fn in TRACED)
    + tuple(f"oracle.check.{claim}" for claim in CLAIMS)
)
COUNT_NAMES = ("model.distributions", "model.orders", "kernel.profiles", "oracle.ifg_edges")


def _count_distributions(counts: dict, result) -> None:
    from clustercap.model import order_count

    counts["model.distributions"] += len(result)
    counts["model.orders"] += sum(order_count(d) for d in result)


def _count_profiles(counts: dict, result) -> None:
    # one _weighted_profiles lookup per scan_distribution call: its length
    # is the number of profiles that scan visits
    counts["kernel.profiles"] += len(result)


def _count_edges(counts: dict, result) -> None:
    counts["oracle.ifg_edges"] += len(result.edges)


COUNTERS = {
    "model.enumerate_distributions": _count_distributions,
    "kernel_py._weighted_profiles": _count_profiles,
    "oracle.build_ifg": _count_edges,
}


class Tracer:
    """Span recorder for one process.

    A span is (name, start, end, parent index, op id); `op` is set by the
    caller before each operation, and `enabled` is cleared around work the
    benchmark does for itself, such as computing expected values.
    """

    def __init__(self, op: int = 0):
        self.op = op
        self.enabled = True
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.originals: dict = {}

    def record(self, name: str, start: float, end: float) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((name, start, end, parent, self.op))

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if counter is not None:
                counter(counts, result)
            return result

        traced.__wrapped__ = fn
        self.originals[name] = fn
        return traced

    def install(self) -> None:
        """Replace every reference to a traced function inside clustercap."""
        import clustercap.cli  # noqa: F401  (load every module that binds a name)

        for mod_name, fn_name in TRACED:
            try:
                original = getattr(importlib.import_module(mod_name), fn_name, None)
            except ImportError:
                continue
            if original is None:
                continue
            wrapper = self.wrap(span_name(mod_name, fn_name), original)
            modules = [m for key, m in list(sys.modules.items())
                       if key == "clustercap" or key.startswith("clustercap.")]
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        checkers = getattr(sys.modules["clustercap.oracle"], "_CHECKERS", {})
        for claim in CLAIMS:
            if claim in checkers:
                checkers[claim] = self.wrap(f"oracle.check.{claim}", checkers[claim])

    def dump(self, path: str) -> None:
        caches = {}
        for name in CACHED:
            cache_info = getattr(self.originals.get(name), "cache_info", None)
            info = cache_info() if cache_info else None
            caches[name] = [info.hits, info.misses] if info else [0, 0]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "caches": caches}, fh)


def self_times(spans: list) -> list[tuple[str, float, int]]:
    """(name, self seconds, op id) per span: its duration minus the time
    covered by its direct children (spans nest; one thread)."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(name, end - start - child[i], op) for i, (name, start, end, _, op) in enumerate(spans)]
