"""2-EFX for n agents whose cost functions share the top-(n-1) chore ordering.

Seed: the shared n-1 most costly chores go one per agent (top chore t to
agent t, agent n empty), which is trivially EFX; extending that partial
allocation yields a 2-EFX full allocation for subadditive costs.
"""

from __future__ import annotations

from operator import gt

from .core import Allocation, Event, Instance
from .envy_graph import extend_partial
from .errors import PreconditionError
from .oracles import picker, top_chore_order


def check_k_partial_ido(instance: Instance, k: int) -> bool:
    """True iff every agent's first min(k, m) most-costly chores coincide
    positionally (ties broken by chore index)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return first_ido_disagreement(instance, k) is None


def first_ido_disagreement(instance: Instance, k: int) -> tuple[int, int, int, int] | None:
    """First disagreeing position as (position, agent, chore, reference chore)
    against agent 0's ordering, or None when the property holds."""
    return _ido_reference(instance, k)[1]


def _ido_reference(instance: Instance, k: int
                   ) -> tuple[tuple[int, ...], tuple[int, int, int, int] | None]:
    """Agent 0's first min(k, m) chores and ``first_ido_disagreement``.

    Agent 0's order is sorted once.  Another agent agrees with it when its
    costs along that prefix fall strictly and every other chore costs it
    less than the last; only an agent that fails this has its own order
    sorted and compared position by position, which settles ties by index
    and names the first disagreement exactly."""
    depth = min(k, instance.m)
    if depth < 1:
        return (), None
    reference = top_chore_order(instance.oracles[0])[:depth]
    top = picker(reference)
    rest = picker(sorted(set(range(instance.m)).difference(reference)))
    failed = []
    for i, oracle in enumerate(instance.oracles[1:], 1):
        singles = oracle.singleton_units()
        vals = top(singles)
        if not (all(map(gt, vals, vals[1:]))
                and max(rest(singles), default=-1) < vals[-1]):
            failed.append(i)
    orders = {i: top_chore_order(instance.oracles[i])[:depth] for i in failed}
    for t in range(depth):
        for i in failed:
            if orders[i][t] != reference[t]:
                return reference, (t, i, orders[i][t], reference[t])
    return reference, None


def partial_ido_2efx(instance: Instance, trace: list[Event] | None = None
                     ) -> Allocation:
    """Full 2-EFX allocation for subadditive costs sharing the top-(n-1)
    ordering; errors if the ordering property fails."""
    shared_top, mismatch = _ido_reference(instance, instance.n - 1)
    if mismatch is not None:
        t, agent, chore, ref = mismatch
        raise PreconditionError(
            f"top-chore orderings disagree at position {t + 1}: agent "
            f"{agent + 1} ranks chore {chore + 1}, agent 1 ranks chore {ref + 1}")
    bundles = [frozenset() for _ in range(instance.n)]
    for t, chore in enumerate(shared_top):
        bundles[t] = frozenset({chore})
    seed = Allocation.from_bundles(bundles, instance.m)
    # extend_partial verifies its max(1, 2) = 2-EFX output
    return extend_partial(seed, instance, alpha=1, trace=trace)
