"""Round-robin chore allocation and its approximation guarantees.

Each agent, in a fixed order, repeatedly takes the least costly remaining
chore under its own cost function.  For additive alpha-ratio-bounded costs
this is (1 + (alpha-1)/(ceil(m/n)-1))-EFX once there are at least three
rounds, and tEFX when alpha <= 2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import Allocation, Event, Instance
from .errors import PreconditionError, VerificationError
from .oracles import ratio_bound


class RoundRobinTrace(NamedTuple):
    picks: tuple[Event, ...]  # "pick" events, in pick order


def round_count(instance: Instance) -> int:
    return math.ceil(instance.m / instance.n)


def guarantee_ratio(alpha: Fraction, rounds: int) -> Fraction:
    """1 + (alpha-1)/(rounds-1), the EFX approximation after >= 3 rounds."""
    if rounds < 3:
        raise PreconditionError("guarantee requires at least 3 rounds")
    return 1 + (Fraction(alpha) - 1) / (rounds - 1)


def in_guarantee_scope(instance: Instance) -> bool:
    """Whether the approximation guarantees apply (>= 3 rounds)."""
    return round_count(instance) >= 3


def claimed_guarantee(instance: Instance) -> tuple[str, Fraction | None] | None:
    """The (criterion, alpha) proved for round-robin on this instance, or
    None when no guarantee applies: tEFX when every cost is additive with
    ratio at most 2, else alpha-EFX at guarantee_ratio(largest ratio,
    rounds) when every cost is additive with positive singletons and there
    are at least three rounds."""
    if not all(o.additive and min(o.singleton_units()) > 0 for o in instance.oracles):
        return None
    ratio = max(map(ratio_bound, instance.oracles))
    if ratio <= 2:
        return "tefx", None
    if not in_guarantee_scope(instance):
        return None
    return "alpha_efx", guarantee_ratio(ratio, round_count(instance))


def round_robin_allocate(
    instance: Instance, agent_order: Sequence[int] | None = None
) -> tuple[Allocation, RoundRobinTrace]:
    """Run round-robin; ties on pick cost break to the lowest chore index.

    The trace invariants (each agent's pick costs weakly increase over
    rounds; every chore picked exactly once) are asserted before returning.
    """
    if agent_order is None:
        agent_order = tuple(range(instance.n))
    else:
        agent_order = tuple(agent_order)
        if sorted(agent_order) != list(range(instance.n)):
            raise PreconditionError("agent_order must be a permutation of the agents")
    # each agent's chores by (cost, index): its pick is the first one still
    # remaining, and a chore once taken stays taken, so one pass suffices
    singles = [oracle.singleton_units() for oracle in instance.oracles]
    prefs = [iter(sorted(range(instance.m), key=s.__getitem__)) for s in singles]
    remaining = set(range(instance.m))
    bundles: list[set[int]] = [set() for _ in range(instance.n)]
    picks: list[Event] = []
    t = 0
    while remaining:
        t += 1
        for agent in agent_order:
            if not remaining:
                break
            chore = next(c for c in prefs[agent] if c in remaining)
            remaining.remove(chore)
            bundles[agent].add(chore)
            picks.append(Event("pick", (agent,), chore, t))
    trace = RoundRobinTrace(tuple(picks))
    last: dict[int, int] = {}
    for pick in trace.picks:
        (agent,) = pick.agents
        cost = singles[agent][pick.chore]
        if agent in last and cost < last[agent]:
            raise VerificationError("pick costs decreased across rounds")
        last[agent] = cost
    if len({p.chore for p in trace.picks}) != instance.m:
        raise VerificationError("some chore was picked twice or never")
    return Allocation.full(bundles), trace
