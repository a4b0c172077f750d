"""2-EFX for n agents whose cost functions share the top-(n-1) chore ordering.

Seed: the shared n-1 most costly chores go one per agent (top chore t to
agent t, agent n empty), which is trivially EFX; extending that partial
allocation yields a 2-EFX full allocation for subadditive costs.
"""

from __future__ import annotations

from .core import Allocation, Event, Instance
from .envy_graph import extend_partial
from .errors import PreconditionError
from .oracles import top_chore_order


def check_k_partial_ido(instance: Instance, k: int) -> bool:
    """True iff every agent's first min(k, m) most-costly chores coincide
    positionally (ties broken by chore index)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return first_ido_disagreement(instance, k) is None


def first_ido_disagreement(instance: Instance, k: int) -> tuple[int, int, int, int] | None:
    """First disagreeing position as (position, agent, chore, reference chore)
    against agent 0's ordering, or None when the property holds."""
    depth = min(k, instance.m)
    orders = [top_chore_order(o)[:depth] for o in instance.oracles]
    for t in range(depth):
        for i in range(1, instance.n):
            if orders[i][t] != orders[0][t]:
                return (t, i, orders[i][t], orders[0][t])
    return None


def partial_ido_2efx(instance: Instance, trace: list[Event] | None = None
                     ) -> Allocation:
    """Full 2-EFX allocation for subadditive costs sharing the top-(n-1)
    ordering; errors if the ordering property fails."""
    k = instance.n - 1
    if k >= 1:
        mismatch = first_ido_disagreement(instance, k)
        if mismatch is not None:
            t, agent, chore, ref = mismatch
            raise PreconditionError(
                f"top-chore orderings disagree at position {t + 1}: agent "
                f"{agent + 1} ranks chore {chore + 1}, agent 1 ranks chore {ref + 1}")
    shared_top = top_chore_order(instance.oracles[0])[: min(k, instance.m)]
    bundles = [frozenset() for _ in range(instance.n)]
    for t, chore in enumerate(shared_top):
        bundles[t] = frozenset({chore})
    seed = Allocation.from_bundles(bundles, instance.m)
    # extend_partial verifies its max(1, 2) = 2-EFX output
    return extend_partial(seed, instance, alpha=1, trace=trace)
