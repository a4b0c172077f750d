"""Traced pass: spans around the library's public functions, counters on
`CostOracle.cost`, all recorded from outside the library.

`install` wraps each function in `TRACED` and rebinds the name in every
`chorefair` module that holds it, because `from .core import
check_alpha_efx` binds the function locally in the importing module.
A span records its name, start, end, parent span and operation id; spans
stay in memory until `write_spans`.  `CostOracle.cost` runs 10^5-10^6 times
per operation, so it gets aggregated counters and time instead of spans;
that time is charged to the enclosing span as child time.  A span's self
time is its duration minus its children's.

Per-layer metrics cover operations only: set-up has `setup_s` and
`oracles.generate_instance.s`.  Counts cover the run's first pass, which
is the same for a given seed on every run, so they repeat exactly; self
times are seconds per operation over the whole run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from chorefair.oracles import CostOracle
from chorefair.three_agent import CASE_IDS

TRACED = {
    "core": ("check_alpha_efx", "check_tefx", "is_alpha_efx",
             "check_partial_property2"),
    "envy_graph": ("build_top_trading_graph", "eliminate_top_trading_cycles",
                   "extend_partial"),
    "three_agent": ("classify_case", "solve_case"),
    "ido": ("partial_ido_2efx", "check_k_partial_ido"),
    "tefx": ("tefx_three_group", "tefx_two_group", "identical_cost_efx",
             "is_efx_feasible", "is_tefx_feasible"),
    "round_robin": ("round_robin_allocate",),
    "verify": ("exhaustive_search",),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{module}.{name}" for module, names in TRACED.items()
                   for name in names)
COUNT_NAMES = (
    "envy_graph.cycles_removed", "envy_graph.chores_placed",
    *(f"three_agent.case.{case}" for case in CASE_IDS),
    "round_robin.picks",
)
OP_SPAN = "op"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {"oracles.cost.calls": "count", "oracles.cost.distinct": "count",
             "oracles.cost.hit_ratio": "ratio", "oracles.cost.miss_chores": "count",
             "oracles.cost.self_s": "s", "oracles.generate_instance.s": "s"}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update(dict.fromkeys(COUNT_NAMES, "count"))
    units["trace.op_self_s"] = "s"
    units["trace.instances_per_s"] = "1/s"
    return units


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (id, name, start, end, parent, op)
        self._open: list[list] = []    # [id, name, start, child seconds]
        self._next_id = 0
        self.op: int | None = None
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.cost_calls = self.cost_distinct = self.cost_miss_chores = 0
        self.cost_s = 0.0
        self.generate_s = 0.0
        self.generate_calls = 0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> None:
        self._next_id += 1
        self._open.append([self._next_id, name, perf_counter(), 0.0])

    def close(self) -> None:
        end = perf_counter()
        span_id, name, start, child_s = self._open.pop()
        duration = end - start
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, name, start, end,
                           parent[0] if parent else None, self.op))
        if name == "oracles.generate_instance":
            self.generate_s += duration
            self.generate_calls += 1
        elif self.op is not None:
            self.self_s[name] += duration - child_s
            self.counts[f"{name}.calls"] += 1

    def count(self, name: str, amount: int = 1) -> None:
        if self.op is not None:
            self.counts[name] += amount

    def begin_op(self, op: int) -> None:
        self.op = op
        self.open(OP_SPAN)

    def end_op(self) -> None:
        # wrappers close their spans in `finally`, so after an exception in
        # the library only OP_SPAN is still open
        self.close()
        self.op = None

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if observe is not None:
                observe(result, args)
            return result
        return traced

    def _count_cycles(self, fn):
        def eliminate(alloc, instance, on_cycle_removed=None):
            def hook(cycle, snapshot):
                self.count("envy_graph.cycles_removed")
                if on_cycle_removed is not None:
                    on_cycle_removed(cycle, snapshot)
            return fn(alloc, instance, hook)
        return eliminate

    def install(self) -> None:
        observers = {
            "three_agent.classify_case":
                lambda result, args: self.count(f"three_agent.case.{result[0]}"),
            "round_robin.round_robin_allocate":
                lambda result, args: self.count("round_robin.picks",
                                                len(result[1].picks)),
            "envy_graph.extend_partial":
                lambda result, args: self.count("envy_graph.chores_placed",
                                                len(args[0].pool)),
        }
        targets = [(module, name) for module, names in TRACED.items()
                   for name in names] + [("oracles", "generate_instance")]
        modules = [mod for key, mod in sys.modules.items()
                   if key == "chorefair" or key.startswith("chorefair.")]
        for module, name in targets:
            original = getattr(importlib.import_module(f"chorefair.{module}"), name)
            inner = (self._count_cycles(original)
                     if name == "eliminate_top_trading_cycles" else original)
            traced = self._wrap(f"{module}.{name}", inner,
                                observers.get(f"{module}.{name}"))
            for mod in modules:
                if getattr(mod, name, None) is original:
                    setattr(mod, name, traced)
        self._install_cost()

    def _install_cost(self) -> None:
        original_cost = CostOracle.cost

        def cost(oracle, chores):
            if self.op is None:
                return original_cost(oracle, chores)
            start = perf_counter()
            value = original_cost(oracle, chores)
            elapsed = perf_counter() - start
            self.cost_calls += 1
            self.cost_s += elapsed
            if self._open:
                self._open[-1][3] += elapsed
            return value

        CostOracle.cost = cost
        # each `_raw_cost` evaluation is a cache miss; it sums |S| chore terms
        for cls in _subclasses(CostOracle):
            if "_raw_cost" in cls.__dict__:
                cls._raw_cost = self._count_misses(cls.__dict__["_raw_cost"])

    def _count_misses(self, raw):
        def raw_cost(oracle, chores):
            if self.op is not None:
                self.cost_distinct += 1
                self.cost_miss_chores += len(chores)
            return raw(oracle, chores)
        return raw_cost

    # -- results -------------------------------------------------------------

    def snapshot_counts(self) -> dict[str, int]:
        counts = {name: self.counts[name] for name in
                  [f"{span}.calls" for span in SPAN_NAMES] + list(COUNT_NAMES)}
        counts["oracles.cost.calls"] = self.cost_calls
        counts["oracles.cost.distinct"] = self.cost_distinct
        counts["oracles.cost.miss_chores"] = self.cost_miss_chores
        return counts

    def metrics(self, first_pass: dict[str, int], ops: int,
                traced_ips: float) -> dict[str, float]:
        calls = first_pass["oracles.cost.calls"]
        values: dict[str, float] = dict(first_pass)
        values["oracles.cost.hit_ratio"] = (
            1 - first_pass["oracles.cost.distinct"] / calls if calls else 0.0)
        values["oracles.cost.self_s"] = self.cost_s / ops
        values["oracles.generate_instance.s"] = (
            self.generate_s / self.generate_calls if self.generate_calls else 0.0)
        for span in SPAN_NAMES:
            values[f"{span}.self_s"] = self.self_s[span] / ops
        values["trace.op_self_s"] = self.self_s[OP_SPAN] / ops
        values["trace.instances_per_s"] = traced_ips
        return {name: values[name] for name in per_layer_units()}

    def write_spans(self, path: Path) -> None:
        with path.open("w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
