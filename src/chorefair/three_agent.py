"""2-EFX for three agents with monotone subadditive costs.

The solver classifies the instance by how the agents' most costly chores
overlap, builds a small seed allocation per case (partial allocations must be
2-EFX on allocated bundles and keep every unallocated chore no costlier than
at least two bundles for every agent), and finishes partial seeds with top
trading envy cycle elimination.  Instances with at most 5 chores fall back to
exhaustive EFX search.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import (
    TWO,
    Allocation,
    Event,
    Instance,
    check_alpha_efx,
    max_removal_cost,
)
from .envy_graph import extend_partial
from .errors import NoSuchSubsetError, PreconditionError, VerificationError
from .oracles import CostOracle, top_chore_order
from .verify import exhaustive_search

CASE_IDS = (
    "A1", "A2", "A3",
    "B1", "B21", "B221", "B2221", "B2222",
    "C",
    "D1", "D21", "D22", "D23",
)

# the seeds that place fixed chores, in role space: per case, the (role,
# rank) chores roles 1, 2 and 3 hold, then the roles that take, in turn,
# role 3's costliest chore not yet taken.  In A2, role 2 never gets t or s,
# which roles 1 and 3 hold: every role's top chore is t, roles 1 and 2 share
# the second s, role 3's second is not s, and no role's third is in its top two
CASE_SEEDS = {
    "A1": ([[(1, 3), (2, 3), (3, 3)], [(1, 2)], [(1, 1)]], ()),
    "A2": ([[(1, 1)], [(1, 3), (2, 3), (3, 2)], [(1, 2)]], ()),
    "A3": ([[(2, 2)], [(1, 2)], [(1, 1)]], (1, 2)),
    "B1": ([[], [(1, 2)], [(1, 1)]], (1,)),
    "B221": ([[(3, 2)], [(3, 1)], [(1, 1), (1, 2)]], ()),
    "C": ([[(2, 2)], [(1, 2)], [(1, 1)]], (1, 2)),
    "D1": ([[(2, 1)], [(1, 2)], [(1, 1)]], (1, 2)),
    "D21": ([[(2, 1), (3, 2)], [(3, 1), (1, 2)], [(1, 1), (2, 2)]], ()),
    "D22": ([[(3, 1), (2, 1)], [(1, 2)], [(1, 1)]], ()),
    "D23": ([[(2, 1)], [(1, 1)], [(1, 2)]], (1, 2)),
}


@dataclass
class CaseContext:
    """Role-relabeled view of a 3-agent instance.

    ``roles[r]`` is the actual agent playing role r (0-based); ``orders[r]``
    is that agent's full most-costly-first chore order, so
    ``orders[r][t]`` is the role's (t+1)-th most costly chore.
    """

    roles: tuple[int, int, int]
    orders: tuple[tuple[int, ...], ...]

    def top(self, role: int, rank: int) -> int:
        """rank-th most costly chore of the given role (both 1-based)."""
        return self.orders[role - 1][rank - 1]


def _pair_sharing(values: list) -> tuple[int, int] | None:
    """First lexicographic index pair with equal values, or None."""
    for i in range(3):
        for j in range(i + 1, 3):
            if values[i] == values[j]:
                return (i, j)
    return None


def classify_case(instance: Instance) -> tuple[str, CaseContext]:
    """Case tag plus the role relabeling realizing its 'w.l.o.g.' assumption.

    Priority: shared-top cases (A), then shared-top-2-pair cases (B), then
    the remaining two-distinct-tops (C) / all-distinct-tops (D) cases.
    """
    if instance.n != 3:
        raise PreconditionError("case analysis requires exactly 3 agents")
    if instance.m < 6:
        raise PreconditionError(
            "case analysis requires m >= 6; use exhaustive search below that")
    orders = [top_chore_order(o) for o in instance.oracles]
    c1 = [o[0] for o in orders]
    c2 = [o[1] for o in orders]
    top2 = [frozenset(o[:2]) for o in orders]

    def ctx(roles: tuple[int, int, int]) -> CaseContext:
        return CaseContext(roles, tuple(orders[a] for a in roles))

    def roles_from_pair(pair: tuple[int, int]) -> tuple[int, int, int]:
        third = ({0, 1, 2} - set(pair)).pop()
        return (pair[0], pair[1], third)

    if len(set(c1)) == 1:
        seconds = len(set(c2))
        if seconds == 1:
            return "A1", ctx((0, 1, 2))
        if seconds == 2:
            return "A2", ctx(roles_from_pair(_pair_sharing(c2)))
        return "A3", ctx((0, 1, 2))

    pair = _pair_sharing(top2)
    if pair is not None:
        roles = roles_from_pair(pair)
        context = ctx(roles)
        t = context.orders
        if top2[roles[2]] & top2[roles[0]]:
            return "B1", context
        if t[0][2] != t[1][2]:
            return "B21", context
        if t[0][2] in top2[roles[2]]:
            return "B221", context
        if t[0][0] == t[1][0]:
            return "B2221", context
        return "B2222", context

    if len(set(c1)) == 2:
        return "C", ctx(roles_from_pair(_pair_sharing(c1)))

    for i in range(3):
        for j in range(3):
            if i != j and c1[i] == c2[j]:
                return "D1", ctx(roles_from_pair((i, j)))
    seconds = len(set(c2))
    if seconds == 3:
        return "D21", ctx((0, 1, 2))
    if seconds == 1:
        return "D22", ctx((0, 1, 2))
    return "D23", ctx(roles_from_pair(_pair_sharing(c2)))


def find_subset_D(
    oracle: CostOracle,
    anchor: int,
    pool: Iterable[int],
    threshold: Fraction,
    strict_peel: bool = True,
) -> frozenset[int]:
    """Greedy peel of the pool down to a minimal above-threshold subset.

    Starting from D = pool, drop in one ascending pass each d' whose removal
    keeps C(anchor ∪ (D \\ d')) above the threshold — strictly above when
    strict_peel, else weakly above.  The result D is non-empty,
    C(anchor ∪ D) >= threshold, and no single removal stays above threshold.
    """
    above = operator.gt if strict_peel else operator.ge
    d = set(pool)
    full = oracle.cost(d | {anchor})
    if full < threshold:
        raise NoSuchSubsetError(
            f"pool plus anchor costs {full} < threshold {threshold}")
    if above(oracle.cost((anchor,)), threshold):
        verb = "exceeds" if strict_peel else "meets"
        raise PreconditionError(f"anchor alone already {verb} the threshold")
    # one ascending pass: removing a chore only lowers the cost of every
    # other removal (monotone costs), so a kept chore stays unremovable
    for item in sorted(d):
        if above(oracle.cost((d - {item}) | {anchor}), threshold):
            d.remove(item)
    if not d:
        raise VerificationError("peeling emptied the subset; bad preconditions")
    return frozenset(d)


def _alloc(instance: Instance, roles: tuple[int, int, int],
           role_bundles: list) -> Allocation:
    """Map role-space bundles back to actual agent indices."""
    bundles: list[frozenset[int]] = [frozenset()] * 3
    for r, agent in enumerate(roles):
        bundles[agent] = frozenset(role_bundles[r])
    return Allocation.from_bundles(bundles, instance.m)


def solve_case(instance: Instance, case: str, ctx: CaseContext,
               trace: list[Event] | None = None) -> Allocation:
    """Build and verify the per-case seed allocation, appending its "branch"
    events to ``trace``.

    Role space throughout; the returned allocation is mapped back to actual
    agent indices and re-checked 2-EFX before returning.  A partial seed's
    two-cheaper-bundles pool property is checked where it is extended.
    """
    roles = ctx.roles
    c = ctx.top  # c(role 1-based, rank) in role space
    if trace is None:
        trace = []  # the error messages list its notes
    trace.append(Event("branch", roles, note=f"case {case}"))

    if case in CASE_SEEDS:
        held, pickers = CASE_SEEDS[case]
        bundles = [{c(*chore) for chore in chores} for chores in held]
        taken = set().union(*bundles)
        # m >= 6 and a seed holds at most three chores, so both picks find one
        rest = [chore for chore in ctx.orders[2] if chore not in taken]
        for r, chore in zip(pickers, rest):
            bundles[r - 1].add(chore)
    elif case == "B21":
        bundles = [{c(2, 3)}, {c(1, 3)}, {c(1, 1), c(1, 2)}]
        taken = set().union(*bundles)
        want = [c(3, 1), c(3, 2)]  # role 3's top two, one per front agent
        for r in (1, 0):
            if not (set(want) & bundles[r]):
                free = [w for w in want if w not in taken]
                bundles[r].add(free[0])
                taken.add(free[0])
                want.remove(free[0])
    elif case in ("B2221", "B2222"):
        bundles = _solve_deep_b(instance, case, ctx, trace)
    else:
        raise ValueError(f"unknown case {case!r}")

    # the one exit of the case analysis: every seed is checked 2-EFX here
    alloc = _alloc(instance, roles, bundles)
    trace.append(Event("branch", allocation=alloc, note="seed"))
    report = check_alpha_efx(alloc, instance, TWO)
    if not report.verdict:
        raise VerificationError(
            f"case outcome not 2-EFX: {report.first_witnesses()}; "
            f"trace={[e.note for e in trace]}")
    return alloc


def _solve_deep_b(
    instance: Instance, case: str, ctx: CaseContext, trace: list[Event]
) -> list[set[int]]:
    """Role-space seed bundles for the cases where roles 1 and 2 share both
    top chores and role 3's top two are fresh: anchor placement, the peeled
    subset D, and envy-driven swaps.
    """
    c = ctx.top

    def branch(note: str, allocation: Allocation | None = None) -> None:
        trace.append(Event("branch", allocation=allocation, note=note))

    o1, o2, o3 = (instance.oracles[a] for a in ctx.roles)
    # role 3's top two, ordered by role 1's cost (tie: lower chore index)
    b1, b2 = sorted((c(3, 1), c(3, 2)), key=lambda ch: (-o1.cost((ch,)), ch))
    # roles 1 and 2 hold the same top two chores, in order for B2221 and
    # crossed for B2222, so role 1's top is the anchor top3 in both cases
    top3, mid1 = c(1, 1), c(1, 2)
    strict_peel = case == "B2221"
    # role-space seed: <{b2, mid1}, {b1}, {top3}>, threshold C_1(mid1)
    seed = [{b2, mid1}, {b1}, {top3}]
    m_prime = frozenset(range(instance.m)) - {b1, b2, mid1, top3}
    threshold = o1.cost((mid1,))
    branch("anchors: role 2 holds b1 alone, role 1 holds b2 and its second "
           "chore", allocation=_alloc(instance, ctx.roles, seed))

    if case == "B2222" and not threshold > TWO * o1.cost((b1,)):
        # role 1's worst removal already fits within twice role 2's bundle
        branch("no strong envy possible; keep seed")
        return seed

    if o1.cost(m_prime | {b1}) >= threshold:
        d = find_subset_D(o1, b1, m_prime, threshold, strict_peel)
        branch("peeled subset D joins b1")
        x1, x2 = {b2, mid1}, {b1} | d
        envies_1 = o2.cost(x2) > o2.cost(x1)
        if case == "B2221":
            if envies_1:
                x1, x2 = x2, x1
                branch("role 2 envied role 1; bundles swapped")
                # when b1 has the min marginal in the swapped bundle (the
                # max cost left after removing it), the peeled set stays
                # within twice the threshold
                chores = sorted(x1)
                drops = o1.removal_units(frozenset(x1), chores)
                if (chores[drops.index(max(drops))] == b1
                        and o1.cost(d) > TWO * threshold):
                    raise VerificationError(
                        "peeled set D costs role 1 over twice the threshold")
            return [x1, x2, {top3}]
        # crossed case: three rescue allocations depending on role 2's envy
        if envies_1:
            branch("role 2 envies role 1")
            return [{b1} | d, {top3, b2}, {mid1}]
        if max_removal_cost(o2, x2) > TWO * o2.cost((top3,)):
            branch("role 2 strongly envies role 3")
            # both front roles stay within twice their cost of D
            if (max_removal_cost(o1, {b2, mid1}) > TWO * o1.cost(d)
                    or max_removal_cost(o2, x2) > TWO * o2.cost(d)):
                raise VerificationError(
                    "a front role's removal exceeds twice its cost of D")
            if o3.cost(d) <= o3.cost((c(3, 2),)):
                return [{mid1, c(3, 1)}, {top3, c(3, 2)}, set(d)]
            return [set(d), {top3, c(3, 1)}, {mid1}]
        branch("role 2 content; keep seed with D")
        return [x1, x2, {top3}]

    # the whole pool is too cheap to reach the threshold: allocate it all
    branch("pool below threshold; full allocation")
    if case == "B2221":
        x1, x2 = {b2, mid1}, {b1} | m_prime
        if o2.cost(x2) > o2.cost(x1):
            branch("role 2 envied role 1; bundles swapped")
            return [x2, x1, {top3}]
        if max_removal_cost(o1, x1) > TWO * o1.cost(x2):
            branch("role 1 strongly envied role 2; regroup")
            return [{b1, b2} | m_prime, {mid1}, {top3}]
        return [x1, x2, {top3}]
    bundles = [{b1} | m_prime, {top3, b2}, {mid1}]
    if max_removal_cost(o2, bundles[1]) > TWO * o2.cost(bundles[0]):
        branch("role 2 strongly envied role 1; regroup")
        return [{top3}, {b1, b2} | m_prime, {mid1}]
    return bundles


def three_agent_2efx(instance: Instance, trace: list[Event] | None = None
                     ) -> Allocation:
    """Full 2-EFX allocation for 3 monotone subadditive agents.

    m <= 5 is solved by exhaustive EFX search; otherwise the case seed is
    built and, when partial, completed by cycle elimination.  The output is
    always verified 2-EFX (the search finds an EFX one).
    """
    if instance.n != 3:
        raise PreconditionError("requires exactly 3 agents")
    if instance.m <= 5:
        alloc = exhaustive_search(instance, criterion="efx")
        if alloc is None:
            raise VerificationError(
                "no EFX allocation for m <= 5; cost functions are likely "
                "not monotone subadditive")
        if trace is not None:
            trace.append(Event("branch", allocation=alloc,
                               note="m <= 5: first EFX allocation found"))
        return alloc
    case, ctx = classify_case(instance)
    seed = solve_case(instance, case, ctx, trace)
    # solve_case verified the seed 2-EFX; extend_partial checks a partial
    # seed's pool property, and its refusal is a fault of the case analysis
    try:
        return seed if seed.is_full else extend_partial(seed, instance, 2, trace)
    except PreconditionError as err:
        raise VerificationError(f"case {case} seed refused: {err}") from err
