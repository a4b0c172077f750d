"""Top trading envy graph, cycle elimination, and partial-allocation extension.

An agent points at the cheapest other bundle (by its own cost) whenever that
bundle is strictly cheaper than its own, so every node has out-degree at most
one.  Eliminating cycles by rotating bundles along them preserves any alpha-EFX
guarantee; placing each unallocated chore on a sink of the acyclic graph then
extends a partial allocation whose every pool chore costs each agent at most
its cost of n-1 bundles to a full max(alpha, 2)-EFX one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .core import (
    ONE,
    TWO,
    Allocation,
    Event,
    Instance,
    check_alpha_efx,
    eligible_bundles,
    is_alpha_efx,
)
from .errors import PreconditionError, VerificationError


@dataclass(frozen=True)
class TopTradingGraph:
    """Directed edges (i, j): i strictly prefers j's bundle, which is i's min."""

    edges: frozenset[tuple[int, int]]
    n: int

    def __post_init__(self) -> None:
        sources = [i for i, _ in self.edges]
        if len(sources) != len(set(sources)):
            raise ValueError("out-degree must be at most 1")

    def sinks(self) -> tuple[int, ...]:
        pointing = {i for i, _ in self.edges}
        return tuple(i for i in range(self.n) if i not in pointing)

    def find_cycle(self) -> tuple[int, ...] | None:
        """Some directed cycle as an agent tuple, or None if acyclic.

        Out-degree <= 1, so following edges from each unvisited node either
        dies at a sink or closes a cycle.
        """
        succ = dict(self.edges)
        seen: set[int] = set()
        for start in range(self.n):
            if start in seen:
                continue
            path: list[int] = []
            on_path: dict[int, int] = {}
            node: int | None = start
            while node is not None and node not in seen:
                if node in on_path:
                    return tuple(path[on_path[node]:])
                on_path[node] = len(path)
                path.append(node)
                node = succ.get(node)
            seen.update(path)
        return None


def build_top_trading_graph(alloc: Allocation, instance: Instance) -> TopTradingGraph:
    """Edge i -> j iff C_i(X_i) > C_i(X_j) = min_k C_i(X_k); ties to lowest j."""
    edges = set()
    for i in range(instance.n):
        oracle = instance.oracles[i]
        costs = [oracle.cost(b) for b in alloc.bundles]
        best = min(costs)
        if costs[i] > best:
            edges.add((i, costs.index(best)))
    return TopTradingGraph(frozenset(edges), instance.n)


def eliminate_top_trading_cycles(
    alloc: Allocation,
    instance: Instance,
    on_cycle_removed: Callable[[tuple[int, ...], Allocation], None] | None = None,
) -> Allocation:
    """Rotate bundles along top trading cycles until the graph is acyclic.

    Agent i_k on a cycle i_1 -> ... -> i_t -> i_1 receives X_{i_{k+1}}, its
    strict favourite, so each rotation strictly lowers the rotating agents'
    own costs and at most n rotations occur.
    """
    current = alloc
    for _ in range(instance.n + 1):
        cycle = build_top_trading_graph(current, instance).find_cycle()
        if cycle is None:
            return current
        bundles = list(current.bundles)
        old = [bundles[i] for i in cycle]
        for k, agent in enumerate(cycle):
            bundles[agent] = old[(k + 1) % len(cycle)]
        current = Allocation(tuple(bundles), current.pool)
        if on_cycle_removed is not None:
            on_cycle_removed(cycle, current)
    raise VerificationError("cycle elimination failed to terminate in n rounds")


def compute_extension_witness(
    alloc: Allocation, instance: Instance
) -> tuple[frozenset[int], ...]:
    """Eligible agents per agent i: those j with C_i(b) <= C_i(X_j) for
    every pool chore b.  Errors unless every agent has at least n-1 of them.
    """
    eligible = []
    for i, oracle in enumerate(instance.oracles):
        good = eligible_bundles(oracle, alloc)
        if len(good) < instance.n - 1:
            bad_j = min(set(range(instance.n)) - set(good))
            bound = oracle.cost(alloc.bundles[bad_j])
            chore = next(
                b for b in sorted(alloc.pool) if oracle.singleton(b) > bound)
            raise PreconditionError(
                f"agent {i} has only {len(good)} eligible agents "
                f"{good} (need >= {instance.n - 1}); pool chore "
                f"{chore} exceeds C_{i}(X_{bad_j})")
        eligible.append(frozenset(good))
    return tuple(eligible)


def _ttece(
    alloc: Allocation,
    instance: Instance,
    pool_order: Sequence[int],
    trace: list[Event] | None = None,
) -> Allocation:
    """Top trading envy cycle elimination: per pool chore, eliminate cycles,
    then hand the chore to the lowest-index sink.  No guarantee checks here.
    """
    record_cycle = None
    if trace is not None:
        def record_cycle(cycle: tuple[int, ...], snapshot: Allocation) -> None:
            trace.append(Event("cycle", cycle, allocation=snapshot))

    current = alloc
    for chore in pool_order:
        current = eliminate_top_trading_cycles(current, instance, record_cycle)
        sink = build_top_trading_graph(current, instance).sinks()[0]
        current = Allocation(
            tuple(
                b | {chore} if i == sink else b
                for i, b in enumerate(current.bundles)
            ),
            current.pool - {chore},
        )
        if trace is not None:
            trace.append(Event("place", (sink,), chore, allocation=current))
    return current


def extend_partial(
    alloc: Allocation,
    instance: Instance,
    alpha: Fraction | int = ONE,
    trace: list[Event] | None = None,
) -> Allocation:
    """Extend an alpha-EFX partial allocation to a full max(alpha, 2)-EFX one
    by repeated cycle elimination and sink placement, pool chores in
    ascending order.

    The eligibility precondition (n-1 agents j per agent i with
    C_i(b) <= C_i(X_j) for every pool chore b) is verified at entry, and the
    output guarantee at exit.
    """
    alpha = Fraction(alpha)
    if not is_alpha_efx(alloc, instance, alpha):
        raise PreconditionError(f"input partial allocation is not {alpha}-EFX")
    compute_extension_witness(alloc, instance)
    result = _ttece(alloc, instance, sorted(alloc.pool), trace)
    guarantee = max(alpha, TWO)
    report = check_alpha_efx(result, instance, guarantee)
    if not report.verdict:
        raise VerificationError(
            f"extension lost the {guarantee}-EFX guarantee: "
            f"{report.witnesses[:3]}")
    return result
