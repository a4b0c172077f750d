"""Domain types and exact fairness predicates.

Agents and chores are 0-based internally; 1-based only at the I/O boundary.
All predicates are pure and exact (no floating point anywhere).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DimensionError
from .oracles import CostOracle, cost_rows

ONE = Fraction(1)
TWO = Fraction(2)


@dataclass(frozen=True)
class Instance:
    """m chores, n agents, one cost oracle per agent."""

    m: int
    n: int
    oracles: tuple[CostOracle, ...]

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("need m >= 1 and n >= 1")
        if len(self.oracles) != self.n:
            raise ValueError("need exactly one oracle per agent")
        for oracle in self.oracles:
            if oracle.m != self.m:
                raise ValueError("oracle chore count disagrees with instance")


@dataclass(frozen=True)
class Allocation:
    """Partition of a subset of chores into n bundles plus unallocated pool."""

    bundles: tuple[frozenset[int], ...]
    pool: frozenset[int]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for bundle in self.bundles:
            if bundle & seen:
                raise ValueError("bundles must be pairwise disjoint")
            seen |= bundle
        if seen & self.pool:
            raise ValueError("pool overlaps an allocated bundle")

    @classmethod
    def from_bundles(cls, bundles: Iterable[Iterable[int]], m: int) -> "Allocation":
        frozen = tuple(frozenset(b) for b in bundles)
        allocated = frozenset().union(*frozen) if frozen else frozenset()
        return cls(frozen, frozenset(range(m)) - allocated)

    @classmethod
    def full(cls, bundles: Iterable[Iterable[int]]) -> "Allocation":
        return cls(tuple(frozenset(b) for b in bundles), frozenset())

    @property
    def n(self) -> int:
        return len(self.bundles)

    @property
    def is_full(self) -> bool:
        return not self.pool

    def chores(self) -> frozenset[int]:
        return frozenset().union(*self.bundles, self.pool)


class Event(NamedTuple):
    """One step of a solver run, recorded when the caller passes a trace list.

    kind "branch": a case-analysis step, named in ``note``; the first one
    of a case holds the agents playing roles 1-3 in ``agents``.
    kind "cycle": ``agents`` rotated bundles along a top trading cycle.
    kind "place": pool ``chore`` went to the sink ``agents[0]``.
    kind "pick": ``agents[0]`` took ``chore`` in round ``step`` (1-based).
    kind "move": ``chore`` went from bundle position ``agents[0]`` to
    ``agents[1]`` at two-group level ``step`` (= k).
    ``allocation`` is the snapshot after the step, where the solver takes one.
    """

    kind: str
    agents: tuple[int, ...] = ()
    chore: int | None = None
    step: int | None = None
    allocation: Allocation | None = None
    note: str = ""


class Witness(NamedTuple):
    """One violating (agent, other agent, chore) triple with both sides."""

    agent: int
    other: int
    chore: int
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class FairnessReport:
    criterion: str  # "alpha_efx" or "tefx"
    alpha: Fraction | None
    witnesses: tuple[Witness, ...]

    @property
    def verdict(self) -> bool:
        return not self.witnesses


def _check_shapes(alloc: Allocation, instance: Instance) -> None:
    if alloc.n != instance.n:
        raise DimensionError(
            f"allocation has {alloc.n} bundles, instance has {instance.n} agents")
    all_chores = alloc.chores()
    if all_chores and not (0 <= min(all_chores) and max(all_chores) < instance.m):
        raise DimensionError("allocation references chores outside the instance")


def max_removal_cost(oracle: CostOracle, chores: Iterable[int]) -> Fraction:
    """max over c in S of C(S \\ c); 0 for the empty set."""
    bundle = frozenset(chores)
    return Fraction(max(oracle.removal_units(bundle, bundle), default=0), oracle.den)


CRITERIA = ("efx", "alpha_efx", "tefx")


def resolve_criterion(
    criterion: str, alpha: Fraction | int | str = ONE
) -> tuple[str, Fraction | None]:
    """The check a criterion name selects, with its alpha: "efx" is
    alpha-EFX at alpha = 1, "alpha_efx" keeps alpha (at least 1), "tefx"
    takes none."""
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    if criterion == "tefx":
        return "tefx", None
    alpha = ONE if criterion == "efx" else Fraction(alpha)
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    return "alpha_efx", alpha


def _violations(
    oracle: CostOracle,
    agent: int,
    bundles: Sequence[frozenset[int]],
    criterion: str,
    alpha: Fraction | None,
    costs: Sequence[int] | None = None,
) -> Iterator[Witness]:
    """Every (agent, j, c) violating the criterion ("alpha_efx" or "tefx")
    against the agent's own bundle, by j and then c ascending.  ``costs``
    is the agent's ``cost_rows`` row; without it, bundle j is valued only
    when the check reads it."""
    mine = bundles[agent]
    if not mine:
        return
    chores = sorted(mine)
    units, den = oracle.units, oracle.den
    # both criteria compare the removal costs C(X_i - c), as ints over den
    removals = oracle.removal_units(mine, chores)
    worst = max(removals)
    if criterion == "tefx":
        # C(X_i - c) > C(X_j + c) needs C(X_i - c) > C(X_j) when adding a
        # chore cannot lower a cost, so such an oracle skips every j whose
        # cost covers the worst removal: all of them when the cheapest does
        if oracle.monotone and costs is not None and worst <= min(costs):
            return
        for j, other in enumerate(bundles):
            if j == agent or oracle.monotone and worst <= (
                    units(other) if costs is None else costs[j]):
                continue
            additions = oracle.addition_units(other, chores)
            for c, lhs, rhs in zip(chores, removals, additions):
                if lhs > rhs:
                    yield Witness(agent, j, c, Fraction(lhs, den),
                                  Fraction(rhs, den))
        return
    # alpha-EFX, alpha = p/q: C(X_i - c) > alpha * C(X_j) iff
    # q * units(X_i - c) > p * units(X_j).  A j is walked chore by chore
    # only when the worst removal exceeds it, and none is when it does not
    # exceed the cheapest bundle.
    p, q = alpha.numerator, alpha.denominator
    worst *= q
    if costs is not None and worst <= p * min(costs):
        return
    for j, other in enumerate(bundles):
        if j == agent:
            continue
        theirs = units(other) if costs is None else costs[j]
        bound = p * theirs
        if worst > bound:
            rhs = alpha * Fraction(theirs, den)
            for c, lhs in zip(chores, removals):
                if q * lhs > bound:
                    yield Witness(agent, j, c, Fraction(lhs, den), rhs)


# Fewest bundles for which the checkers take each agent's costs as one
# cost_rows row.  A row values every bundle, the agent's own included, so
# on few bundles it costs more than it saves.  Measured as the median over
# 10 seeds of row/per-bundle time for check_alpha_efx then check_tefx on
# fresh additive, capped and max-of-additive instances (Python 3.11):
# with m = 2n or 3n chores, 1.13-1.23 at n = 4, 1.07-1.13 at 5, 1.03-1.07
# at 6, 0.97-1.03 at 7, 0.95-0.99 at 8 and 0.89-1.01 at 9; with m = 150,
# 0.97-1.02 at n = 3, 0.95-1.00 at 5 and 0.92-0.97 at 7.
ROW_KERNEL_BUNDLES = 8


def _all_violations(
    alloc: Allocation, instance: Instance, criterion: str, alpha: Fraction | None
) -> Iterator[Witness]:
    bundles = alloc.bundles
    if len(bundles) < ROW_KERNEL_BUNDLES:
        for i, oracle in enumerate(instance.oracles):
            yield from _violations(oracle, i, bundles, criterion, alpha)
        return
    rows = cost_rows(instance.oracles, bundles)
    for i, (oracle, row) in enumerate(zip(instance.oracles, rows)):
        yield from _violations(oracle, i, bundles, criterion, alpha, row)


def _checked(alloc: Allocation, instance: Instance, criterion: str,
             alpha: Fraction | int | str = ONE
             ) -> tuple[str, Fraction | None, Iterator[Witness]]:
    """resolve_criterion's criterion and alpha, and the lazy violations once
    the allocation's shape fits the instance: every public verdict's entry."""
    criterion, alpha = resolve_criterion(criterion, alpha)
    _check_shapes(alloc, instance)
    return criterion, alpha, _all_violations(alloc, instance, criterion, alpha)


def check_criterion(
    alloc: Allocation, instance: Instance, criterion: str,
    alpha: Fraction | int | str = ONE,
) -> FairnessReport:
    """Report for a criterion name: every violation, by agent, other agent
    and chore; pool chores are ignored."""
    criterion, alpha, witnesses = _checked(alloc, instance, criterion, alpha)
    return FairnessReport(criterion, alpha, tuple(witnesses))


def check_alpha_efx(
    alloc: Allocation, instance: Instance, alpha: Fraction | int = ONE
) -> FairnessReport:
    """alpha-EFX report."""
    return check_criterion(alloc, instance, "alpha_efx", alpha)


def check_tefx(alloc: Allocation, instance: Instance) -> FairnessReport:
    """tEFX report: every removal beats the corresponding transfer."""
    return check_criterion(alloc, instance, "tefx")


def is_alpha_efx(
    alloc: Allocation, instance: Instance, alpha: Fraction | int = ONE
) -> bool:
    """alpha-EFX verdict that stops at the first witness."""
    return next(_checked(alloc, instance, "alpha_efx", alpha)[2], None) is None


def is_tefx(alloc: Allocation, instance: Instance) -> bool:
    """tEFX verdict that stops at the first witness."""
    return next(_checked(alloc, instance, "tefx")[2], None) is None


def eligible_bundles(oracle: CostOracle, alloc: Allocation) -> list[int]:
    """Every j with C(b) <= C(X_j) for each pool chore b (every j when the
    pool is empty).  The set shrinks as C(b) grows, so only the costliest
    pool chore needs testing."""
    if not alloc.pool:
        return list(range(alloc.n))
    if min(alloc.pool) < 0:  # the table index would wrap around
        raise IndexError(f"chore {min(alloc.pool)} out of range for m={oracle.m}")
    worst = max(map(oracle.singleton_units().__getitem__, alloc.pool))
    return [j for j, bundle in enumerate(alloc.bundles)
            if worst <= oracle.units(bundle)]


def check_partial_property2(alloc: Allocation, instance: Instance) -> tuple[bool, ...]:
    """Per agent i: every pool chore costs at most C_i(X_j) for >= n-1 agents j.

    Vacuously true for full allocations.
    """
    _check_shapes(alloc, instance)
    return tuple(len(eligible_bundles(oracle, alloc)) >= instance.n - 1
                 for oracle in instance.oracles)
