"""Span recorder for the traced run, and the per-layer numbers it yields.

The recorder lives in the worker process.  It replaces each public function
named in FUNCTIONS by a timing wrapper in every ``bernstir`` module namespace
that holds it: ``bernstir.cli.bernoulli`` and ``bernstir.verify.bernoulli``
are separate names, and ``bernoulli()`` reaches ``bernoulli_theorem`` and its
siblings through its own module globals.  The methods in METHODS are wrapped
on their class.  Spans are kept in memory as (name, start_ns, end_ns, parent
index, request id) and handed back when the run ends; ``layer_totals`` then
turns them into calls and self time per span name.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (defining module, function, span name)
FUNCTIONS = (
    ("bernstir.cli", "main", "cli.main"),
    ("bernstir.verify", "cross_verify", "verify.cross_verify"),
    ("bernstir.bernoulli", "bernoulli", "bernoulli.dispatch"),
    ("bernstir.bernoulli", "bernoulli_oracle", "bernoulli.oracle"),
    ("bernstir.bernoulli", "bernoulli_theorem", "bernoulli.theorem"),
    ("bernstir.bernoulli", "bernoulli_bell", "bernoulli.bell"),
    ("bernstir.bernoulli", "bernoulli_logan", "bernoulli.logan"),
    ("bernstir.bernoulli", "bernoulli_guo_qi", "bernoulli.guo-qi"),
    ("bernstir.bernoulli", "bernoulli_double_stirling", "bernoulli.double-stirling"),
    ("bernstir.bernoulli", "bernoulli_alternating", "bernoulli.alternating"),
    ("bernstir.bernoulli", "power_sum_coeffs", "bernoulli.power_sum_coeffs"),
    ("bernstir.series", "bernoulli_series", "series.bernoulli_series"),
    ("bernstir.bell", "bell_recurrence", "bell.recurrence"),
    ("bernstir.bell", "bell_partition_sum", "bell.partition_sum"),
    ("bernstir.bell", "bell_reciprocal_args", "bell.reciprocal_args"),
    ("bernstir.exact", "format_rational", "exact.format_rational"),
    ("bernstir.exact", "parse_rational", "exact.parse_rational"),
)

# (defining module, class, method, span name)
METHODS = (
    ("bernstir.stirling", "StirlingTable", "__init__", "stirling.table"),
    ("bernstir.verify", "VerificationReport", "to_json", "verify.render"),
)

SPAN_NAMES = tuple(s[-1] for s in FUNCTIONS + METHODS)


def _table_cells(args, result):
    max_n = args[0].max_n
    return "stirling.table.cells", (max_n + 1) * (max_n + 2) // 2


def _report_entries(args, result):
    return "verify.entries", len(result.entries)


# span name -> function of (call args, return value) giving (counter, amount)
COUNTERS = {"stirling.table": _table_cells, "verify.cross_verify": _report_entries}
COUNTER_NAMES = ("stirling.table.cells", "verify.entries")


class Recorder:
    """Records spans while installed; uninstalled, the program runs untouched."""

    def __init__(self):
        self.spans: list = []
        self.counts: list = []  # (counter, amount, request id)
        self.tables: list[int] = []  # max_n of each Stirling table built
        self.request_id = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original, wrapper)
        self._prepare()

    def _wrap(self, fn, name):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request_id)
            if count is not None:
                counter, amount = count(args, result)
                self.counts.append((counter, amount, self.request_id))
                if name == "stirling.table":
                    self.tables.append(args[0].max_n)
            return result

        return wrapper

    def _prepare(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "bernstir" or k.startswith("bernstir.")]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, wrapper))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            original = getattr(cls, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            self._patches.append((cls, attr, original, self._wrap(original, name)))

    def install(self, request_id: int) -> None:
        self.request_id = request_id
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)


def layer_totals(spans, counts, request_ids) -> dict[str, float]:
    """Calls, self seconds and counters summed over the given requests.

    A span's self time is its duration minus the time its child spans
    cover; children of one span run one after another, so that is the sum
    of their durations.
    """
    wanted = set(request_ids)
    child_ns = defaultdict(int)
    for name, start, end, parent, rid in spans:
        if parent >= 0 and rid in wanted:
            child_ns[parent] += end - start
    out = {}
    for name in SPAN_NAMES:
        out[name + ".calls"] = 0
        out[name + ".self_s"] = 0.0
    for counter in COUNTER_NAMES:
        out[counter] = 0
    for index, (name, start, end, parent, rid) in enumerate(spans):
        if rid in wanted:
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (end - start - child_ns[index]) / 1e9
    for counter, amount, rid in counts:
        if rid in wanted:
            out[counter] += amount
    return out
