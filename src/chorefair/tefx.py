"""tEFX allocations for agents split into cost-function groups.

Two-group core: one group shares a general monotone cost C1, the other an
additive 2-ratio-bounded cost C2.  The constructed bundle list has a prefix
that is EFX-feasible under C1 and a suffix tEFX-feasible under C2, with one
overlapping position.  A third group of at most one general-cost agent is
handled by letting it pick its cheapest bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .core import ONE, TWO, Allocation, Event, Instance, _violations, check_tefx
from .errors import PreconditionError, VerificationError
from .oracles import CostOracle, ratio_bound, top_chore_order

Bundles = list[frozenset[int]]


@dataclass(frozen=True)
class GroupSpec:
    """Partition of the agents into the three supported cost groups."""

    group1: frozenset[int]
    group2: frozenset[int]
    group3: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.group3) > 1:
            raise ValueError("third group holds at most one agent")
        total = len(self.group1) + len(self.group2) + len(self.group3)
        if len(self.group1 | self.group2 | self.group3) != total:
            raise ValueError("groups must be disjoint")


def is_efx_feasible(
    bundles: Sequence[frozenset[int]], i: int, oracle: CostOracle
) -> bool:
    """Every removal from bundle i stays within every other bundle's cost."""
    return next(_violations(oracle, i, bundles, "alpha_efx", ONE), None) is None


def is_tefx_feasible(
    bundles: Sequence[frozenset[int]], i: int, oracle: CostOracle
) -> bool:
    """Every removal from bundle i stays within every other bundle plus the
    removed chore."""
    return next(_violations(oracle, i, bundles, "tefx", None), None) is None


def _min_cost_index(bundles: Sequence[frozenset[int]], oracle: CostOracle) -> int:
    costs = [oracle.units(b) for b in bundles]
    return costs.index(min(costs))


def identical_cost_efx(bundle_count: int, oracle: CostOracle) -> Bundles:
    """Partition the oracle's m chores into bundle_count bundles, each
    EFX-feasible under the single oracle.

    Greedy seed (costliest chore first onto the cheapest bundle), then a
    local-search repair that moves the min-marginal chore of a violating
    bundle to the globally cheapest bundle.  Every move must raise a
    potential, which ends the loop; a move that does not raises
    VerificationError, as only a non-monotone oracle allows it.
    """
    if bundle_count < 1:
        raise ValueError("need at least one bundle")
    positions = range(bundle_count)
    bundles: Bundles = [frozenset() for _ in positions]
    for c in top_chore_order(oracle):
        grow = [oracle.units(b | {c}) for b in bundles]
        target = grow.index(min(grow))
        bundles[target] = bundles[target] | {c}

    # Potential: (cheapest cost, minus the bundles at it, chores in the first
    # of them), compared lexicographically.  On monotone costs every move
    # raises it: the violator keeps a removal above the cheapest cost, so it
    # is not the destination and stays above that cost, while the
    # destination does not fall below it.  So the cheapest cost rises, or
    # fewer bundles share it, or the same first cheapest bundle gains a
    # chore.  It takes finitely many values, so the loop ends.
    potential: tuple = ()  # below every potential
    while True:
        costs = [oracle.units(b) for b in bundles]  # destination and potential
        low = min(costs)
        dest = costs.index(low)
        previous, potential = potential, (low, -costs.count(low), len(bundles[dest]))
        if potential <= previous:
            raise VerificationError("a repair move did not raise the potential; "
                                    "the oracle is likely not monotone")
        violator = next((i for i in positions
                         if not is_efx_feasible(bundles, i, oracle)), None)
        if violator is None:
            return bundles
        src = bundles[violator]
        # min-marginal chore: its removal keeps the most cost behind
        chores = sorted(src)
        drops = oracle.removal_units(src, chores)
        chore = chores[drops.index(max(drops))]
        bundles[violator] = src - {chore}
        bundles[dest] = bundles[dest] | {chore}


def tefx_two_group(
    n: int,
    c1: CostOracle,
    c2: CostOracle,
    k: int,
    trace: list[Event] | None = None,
) -> Allocation:
    """Bundles 1..n-k+1 EFX-feasible under C1 and n-k+1..n tEFX-feasible
    under C2 (1-based positions; the boundary bundle satisfies both).

    One pass per level 1..k, where level l constrains the first n-l+1
    positions under C1.  Level 1 partitions under C1 alone and parks the
    cheapest C2 bundle last; each later level moves the front bundles'
    worst removal chore onto the cheapest bundle until some front bundle
    becomes tEFX-feasible under C2.  Each move is a "move" event from the
    source bundle, relabelled to position 0 first, to position n-1; the
    chores on the first n-l+1 bundles of its snapshot fall by one per move.
    """
    if not 1 <= k <= n:
        raise PreconditionError("need 1 <= k <= n")
    if c1.m != c2.m:
        raise PreconditionError("C1 and C2 disagree on the chore count")
    if ratio_bound(c2) > TWO:
        raise PreconditionError("second cost function must be 2-ratio-bounded")

    def park_cheapest() -> None:
        cheap = _min_cost_index(bundles, c2)
        bundles[cheap], bundles[n - 1] = bundles[n - 1], bundles[cheap]

    def check(front: int, tefx_start: int) -> None:
        """Positions before `front` EFX-feasible under C1, positions from
        `tefx_start` on tEFX-feasible under C2."""
        for i in range(front):
            if not is_efx_feasible(bundles, i, c1):
                raise VerificationError(f"bundle {i} not EFX-feasible under C1")
        for i in range(tefx_start, n):
            if not is_tefx_feasible(bundles, i, c2):
                raise VerificationError(f"bundle {i} not tEFX-feasible under C2")

    bundles = identical_cost_efx(n, c1)
    park_cheapest()
    check(n, n - 1)
    for level in range(2, k + 1):
        front = n - level + 1  # count of C1-constrained positions
        for _ in range(c1.m + 1):
            feasible = next((i for i in range(front)
                             if is_tefx_feasible(bundles, i, c2)), None)
            if feasible is not None:
                # relabel within the identically-priced front so the boundary
                # position carries the tEFX-feasible bundle
                bundles[feasible], bundles[front - 1] = (
                    bundles[front - 1], bundles[feasible])
                break
            park_cheapest()
            # worst single-removal over the front bundles; max keeps the
            # first, so ties go to the lowest position, then lowest chore
            moves = ((left, i, c)
                     for i, chores in enumerate(map(sorted, bundles[:front]))
                     for c, left in zip(chores, c1.removal_units(bundles[i], chores)))
            _, src, chore = max(moves, key=itemgetter(0))
            bundles[src], bundles[0] = bundles[0], bundles[src]
            bundles[0] = bundles[0] - {chore}
            bundles[n - 1] = bundles[n - 1] | {chore}
            if trace is not None:
                trace.append(Event("move", (0, n - 1), chore, level,
                                   Allocation.full(bundles)))
            # both invariants must survive every move
            check(front, front)
        else:
            raise VerificationError("two-group loop failed to terminate")
        check(front, front - 1)
    return Allocation.full(bundles)


def tefx_three_group(
    instance: Instance, groups: GroupSpec, trace: list[Event] | None = None
) -> Allocation:
    """Full tEFX allocation when agents form (general C1, additive
    2-ratio-bounded C2, at most one general C3) groups with identical
    within-group oracles.  Output verified by check_tefx.  The trace holds
    the two-group core's moves, over its bundle positions.
    """
    n = instance.n
    if groups.group1 | groups.group2 | groups.group3 != frozenset(range(n)):
        raise PreconditionError("groups must cover all agents")
    if not groups.group1 or not groups.group2:
        raise PreconditionError("first and second groups must be non-empty")
    for group in (groups.group1, groups.group2, groups.group3):
        oracles = {instance.oracles[a] for a in group}
        if len(oracles) > 1:
            raise PreconditionError("within-group oracles must be identical")
    c1 = instance.oracles[min(groups.group1)]
    c2 = instance.oracles[min(groups.group2)]
    ell = len(groups.group2)

    agents = sorted(groups.group1) + sorted(groups.group2)
    bundles: list[frozenset[int]] = [frozenset()] * n
    shared = list(tefx_two_group(n, c1, c2, ell + len(groups.group3), trace).bundles)
    # the third agent, if any, takes its cheapest bundle; the other agents
    # keep the remaining positions in order, whichever group it came from
    for agent3 in groups.group3:
        bundles[agent3] = shared.pop(_min_cost_index(shared, instance.oracles[agent3]))
    for agent, bundle in zip(agents, shared):
        bundles[agent] = bundle
    result = Allocation.full(bundles)
    report = check_tefx(result, instance)
    if not report.verdict:
        raise VerificationError(f"output not tEFX: {report.witnesses[:3]}")
    return result
