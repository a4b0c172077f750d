"""Top trading envy graph, cycle elimination, and partial-allocation extension.

An agent points at the cheapest other bundle (by its own cost) whenever that
bundle is strictly cheaper than its own, so every node has out-degree at most
one.  Eliminating cycles by rotating bundles along them preserves any alpha-EFX
guarantee; placing each unallocated chore on a sink of the acyclic graph then
extends a partial allocation whose every pool chore costs each agent at most
its cost of n-1 bundles to a full max(alpha, 2)-EFX one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    ONE,
    TWO,
    Allocation,
    Event,
    Instance,
    check_alpha_efx,
    check_partial_property2,
    eligible_bundles,
    is_alpha_efx,
    resolve_criterion,
)
from .errors import PreconditionError, VerificationError
from .oracles import cost_rows


def _successor(i: int, row: Sequence[int]) -> int | None:
    best = min(row)
    return row.index(best) if row[i] > best else None


def _successors(costs: Sequence[Sequence[int]]) -> list[int | None]:
    return [_successor(i, row) for i, row in enumerate(costs)]


def _cycle(succ: Sequence[int | None], starts: Iterable[int]) -> tuple[int, ...] | None:
    """The first directed cycle reached from ``starts``, in order, or None.
    Out-degree <= 1, so following successors from each unvisited node
    either dies at a sink or closes a cycle."""
    seen: set[int] = set()
    for start in starts:
        path: list[int] = []
        on_path: dict[int, int] = {}
        node: int | None = start
        while node is not None and node not in seen:
            if node in on_path:
                return tuple(path[on_path[node]:])
            on_path[node] = len(path)
            path.append(node)
            node = succ[node]
        seen.update(path)
    return None


def _eliminate(succ: list[int | None], columns: Sequence[list],
               costs: Sequence[list[int]]) -> Iterator[tuple[int, ...]]:
    """Rotate the cycle ``_cycle`` finds from agent 0 in each per-bundle
    list of ``columns`` (the rows of ``costs`` among them) and yield it, until
    ``succ``, the graph of ``costs``, is acyclic.  Agent i_k on a cycle
    receives X_{i_{k+1}}, its strict favourite, so each rotation strictly
    lowers the rotating agents' own costs and at most n rotations occur."""
    for _ in range(len(succ) + 1):
        cycle = _cycle(succ, range(len(succ)))
        if cycle is None:
            return
        source = cycle[1:] + cycle[:1]
        for column in columns:
            for j, value in zip(cycle, [column[k] for k in source]):
                column[j] = value
        succ[:] = _successors(costs)
        yield cycle
    raise VerificationError("cycle elimination failed to terminate in n rounds")


def build_top_trading_graph(
    alloc: Allocation, instance: Instance
) -> tuple[int | None, ...]:
    """succ[i] = j, the edge i -> j, iff C_i(X_i) > C_i(X_j) = min_k C_i(X_k),
    ties to the lowest j; None at a sink."""
    return tuple(_successors(list(cost_rows(instance.oracles, alloc.bundles))))


def eliminate_top_trading_cycles(
    alloc: Allocation,
    instance: Instance,
    on_cycle_removed: Callable[[tuple[int, ...], Allocation], None] | None = None,
) -> tuple[Allocation, tuple[int | None, ...]]:
    """Rotate bundles along top trading cycles until the graph is acyclic;
    returns the final allocation and its acyclic successor tuple, and
    reports each rotated cycle with the allocation after it."""
    bundles = list(alloc.bundles)
    costs = list(cost_rows(instance.oracles, bundles))
    succ = _successors(costs)
    for cycle in _eliminate(succ, (bundles, *costs), costs):
        if on_cycle_removed is not None:
            on_cycle_removed(cycle, Allocation(tuple(bundles), alloc.pool))
    return Allocation(tuple(bundles), alloc.pool), tuple(succ)


def _ttece(
    alloc: Allocation,
    instance: Instance,
    pool_order: Sequence[int],
    trace: list[Event] | None = None,
) -> Allocation:
    """Top trading envy cycle elimination: per pool chore, eliminate cycles,
    then hand the chore to the lowest-index sink.  No guarantee checks here.

    ``states[i][j]``, ``costs[i][j]``: agent i's oracle state and units of
    bundle j, where a column's states are None until its first placement
    builds them; ``succ`` is the graph of ``costs``.  A placement on sink s
    changes column s only, so it recomputes the successor of s, of the
    agents pointing at s and of those whose cost of s fell (a non-monotone
    oracle); a new cycle runs through one of them."""
    bundles = [list(b) for b in alloc.bundles]  # frozen only when needed

    def frozen() -> Allocation:  # the pool is every chore no bundle holds yet
        return Allocation(tuple(map(frozenset, bundles)),
                          alloc.pool.difference(*bundles))

    states = [[None] * instance.n for _ in instance.oracles]
    costs = list(cost_rows(instance.oracles, alloc.bundles))
    succ = _successors(costs)
    changed: Iterable[int] = range(instance.n)
    for chore in pool_order:
        if _cycle(succ, changed) is not None:
            for cycle in _eliminate(succ, (bundles, *states, *costs), costs):
                if trace is not None:
                    trace.append(Event("cycle", cycle, allocation=frozen()))
        sink = succ.index(None)
        if states[0][sink] is None:  # states rotate with their column
            bundle = frozenset(bundles[sink])
            for oracle, row in zip(instance.oracles, states):
                row[sink] = oracle.bundle_state(bundle)
        changed = []
        for i, (oracle, row, units) in enumerate(zip(instance.oracles, states, costs)):
            before = units[sink]
            row[sink], units[sink] = oracle.add(row[sink], chore)
            if i == sink or succ[i] == sink or units[sink] < before:
                succ[i] = _successor(i, units)
                changed.append(i)
        bundles[sink].append(chore)
        if trace is not None:
            trace.append(Event("place", (sink,), chore, allocation=frozen()))
    return frozen()


def extend_partial(
    alloc: Allocation,
    instance: Instance,
    alpha: Fraction | int = ONE,
    trace: list[Event] | None = None,
) -> Allocation:
    """Extend an alpha-EFX partial allocation to a full max(alpha, 2)-EFX one
    by repeated cycle elimination and sink placement, pool chores in
    ascending order.

    The pool property (check_partial_property2: n-1 agents j per agent i
    with C_i(b) <= C_i(X_j) for every pool chore b) and alpha-EFX are
    verified at entry, and the output guarantee at exit.
    """
    _, alpha = resolve_criterion("alpha_efx", alpha)
    props = check_partial_property2(alloc, instance)
    if not all(props):
        i = props.index(False)
        oracle = instance.oracles[i]
        good = eligible_bundles(oracle, alloc)
        bad_j = min(set(range(instance.n)) - set(good))
        bound = oracle.cost(alloc.bundles[bad_j])
        chore = next(b for b in sorted(alloc.pool) if oracle.cost((b,)) > bound)
        raise PreconditionError(
            f"agent {i} has only {len(good)} eligible agents {good} (need >= "
            f"{instance.n - 1}); pool chore {chore} exceeds C_{i}(X_{bad_j})")
    if not is_alpha_efx(alloc, instance, alpha):
        raise PreconditionError(f"input partial allocation is not {alpha}-EFX")
    result = _ttece(alloc, instance, sorted(alloc.pool), trace)
    guarantee = max(alpha, TWO)
    report = check_alpha_efx(result, instance, guarantee)
    if not report.verdict:
        raise VerificationError(
            f"extension lost the {guarantee}-EFX guarantee: "
            f"{report.witnesses[:3]}")
    return result
