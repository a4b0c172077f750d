"""Brute-force oracles and the reproduction of a rival algorithm's failure.

The exhaustive search walks full allocations in enumeration order,
skipping on monotone costs only subtrees where none can pass, and is the
ground truth the constructive algorithms are tested against.  The rival run
replays, step by step, a published cycle-elimination strategy on the
six-chore instance where its envy ratio grows without bound.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, NamedTuple

from .core import (
    Allocation,
    Event,
    Instance,
    _check_shapes,
    _violations,
    max_removal_cost,
    resolve_criterion,
)
from .envy_graph import _ttece, build_top_trading_graph
from .errors import EnumerationLimitError, PreconditionError
from .oracles import ENUM_LIMIT, AdditiveOracle, CostOracle


def exhaustive_search(
    instance: Instance,
    criterion: str = "efx",
    alpha: Fraction | int = 1,
) -> Allocation | None:
    """First full allocation (lexicographic over chore->agent assignment
    vectors) passing the criterion, or None as a nonexistence certificate;
    refuses past the search limit.

    criterion: "efx" (alpha forced to 1), "alpha_efx", or "tefx".

    One recursive walk assigns chores 0..m-1 in index order, trying
    agents 0..n-1 at each level, so it reaches full assignments in
    ``itertools.product``'s order.  ``_doomed`` judges each leaf exactly
    and, when every oracle is monotone, cuts an inner node whose every
    completion violates the criterion, so the first hit is the same.
    """
    criterion, alpha = resolve_criterion(criterion, alpha)
    m, n = instance.m, instance.n
    if n == 1:  # one agent envies no one: the one assignment passes
        return Allocation.full([range(m)])
    if n**m > ENUM_LIMIT:
        raise EnumerationLimitError(f"{n}^{m} assignments exceed the search limit")
    # a cut needs monotone costs
    prune = all(oracle.monotone for oracle in instance.oracles)
    bundles = [frozenset()] * n

    def search(chore: int) -> bool:
        """Whether a completion from this chore on passes, left in bundles."""
        rest = frozenset(range(chore + 1, m))
        for agent in range(n):
            bundles[agent] |= {chore}
            if not ((prune or not rest)
                    and _doomed(bundles, rest, instance, criterion, alpha)):
                if not rest or search(chore + 1):
                    return True
            bundles[agent] -= {chore}
        return False

    return Allocation.full(bundles) if search(0) else None


def _doomed(bundles: list[frozenset[int]], unassigned: frozenset[int],
            instance: Instance, criterion: str, alpha: Fraction | None) -> bool:
    """Whether every completion of a partial assignment violates the
    criterion on monotone costs: some assigned c in X_i has
    q*C_i(X_i - c) > p*C_i(X_j + U), or for tEFX C_i(X_i - c) >
    C_i(X_j + U + c), with U the unassigned chores.  A completion only
    grows X_i and keeps X_j within X_j + U, so on monotone costs its left
    side is no smaller and its right side no larger.  With U empty it is
    the full assignment's own verdict, on any costs."""
    widened = [bundle | unassigned for bundle in bundles]
    for i, oracle in enumerate(instance.oracles):
        view = widened.copy()
        view[i] = bundles[i]
        if next(_violations(oracle, i, view, criterion, alpha), None) is not None:
            return True
    return False


def _second_opinion(
    alloc: Allocation, instance: Instance,
    bound: Callable[[CostOracle, frozenset[int], int], Fraction],
) -> bool:
    """Whether C_i(X_i - c) <= bound(C_i, X_j, c) for each pair i != j and
    c in X_i: the core's shape check, then a loop apart from the core's."""
    _check_shapes(alloc, instance)
    bundles, oracles = alloc.bundles, instance.oracles
    pairs = itertools.permutations(range(instance.n), 2)
    return not any(oracles[i].cost(bundles[i] - {c}) > bound(oracles[i], bundles[j], c)
                   for i, j in pairs for c in bundles[i])


def independent_alpha_efx(
    alloc: Allocation, instance: Instance, alpha: Fraction | int = 1
) -> bool:
    """Second-opinion alpha-EFX check: C_i(X_i - c) <= alpha * C_i(X_j)."""
    _, alpha = resolve_criterion("alpha_efx", alpha)
    return _second_opinion(alloc, instance,
                           lambda oracle, other, c: alpha * oracle.cost(other))


def independent_tefx(alloc: Allocation, instance: Instance) -> bool:
    """Second-opinion tEFX check: C_i(X_i - c) <= C_i(X_j + c)."""
    return _second_opinion(alloc, instance,
                           lambda oracle, other, c: oracle.cost(other | {c}))


def counterexample_instance(m1: Fraction | int, m2: Fraction | int) -> Instance:
    """The six-chore, three-additive-agent instance on which the rival
    cycle-elimination algorithm's envy ratio is m2/3; requires m1/2 > m2 > 6.
    """
    m1, m2 = Fraction(m1), Fraction(m2)
    if not (m1 / 2 > m2 > 6):
        raise PreconditionError("parameters must satisfy m1/2 > m2 > 6")
    half = Fraction(1, 2)
    return Instance(6, 3, (
        AdditiveOracle((10, 6, 4, half, half, 3)),
        AdditiveOracle((6, 10, 3, 2, 2, Fraction(3, 2))),
        AdditiveOracle((1, 3, 4, m1 / 2, m1 / 2, m2)),
    ))


class RivalRun(NamedTuple):
    allocation: Allocation
    # successor tuples: before any placement, then after each
    graphs: tuple[tuple[int | None, ...], ...]
    ratio: Fraction


def rival_counterexample_run(m1: Fraction | int, m2: Fraction | int) -> RivalRun:
    """Replay the rival algorithm: seed ({c2},{c3},{c1}), then place the
    pool in decreasing third-agent cost via cycle elimination with
    lowest-index sinks.  The returned ratio max_c C3(X3\\c) / C3(X1) equals
    m2/3 and exceeds 2 for every valid parameter choice.
    """
    instance = counterexample_instance(m1, m2)
    seed = Allocation.from_bundles([{1}, {2}, {0}], instance.m)
    c3 = instance.oracles[2]
    pool_order = sorted(seed.pool, key=lambda c: (-c3.singleton_units()[c], c))
    trace: list[Event] = []
    final = _ttece(seed, instance, pool_order, trace)
    graphs = [build_top_trading_graph(seed, instance)]
    graphs += [build_top_trading_graph(event.allocation, instance)
               for event in trace if event.kind == "place"]
    ratio = max_removal_cost(c3, final.bundles[2]) / c3.cost(final.bundles[0])
    return RivalRun(final, tuple(graphs), ratio)
