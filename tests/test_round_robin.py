import random
from fractions import Fraction

import pytest

from chorefair import (
    AdditiveOracle,
    Instance,
    PreconditionError,
    check_alpha_efx,
    check_tefx,
    generate_instance,
    guarantee_ratio,
    round_robin_allocate,
)
from chorefair.round_robin import claimed_guarantee, in_guarantee_scope, round_count


def test_identical_two_agent_example():
    o = AdditiveOracle([2, 3, 3, 4])
    inst = Instance(4, 2, (o, o))
    alloc, trace = round_robin_allocate(inst)
    assert inst.cost(0, alloc.bundles[0]) == 5
    assert inst.cost(1, alloc.bundles[1]) == 7
    assert check_tefx(alloc, inst).verdict
    assert [p.chore for p in trace.picks] == [0, 1, 2, 3]


def test_one_chore_each_is_efx():
    inst = generate_instance("additive", 4, 4, 8)
    alloc, _ = round_robin_allocate(inst)
    assert all(len(b) == 1 for b in alloc.bundles)
    assert check_alpha_efx(alloc, inst, 1).verdict


def test_three_round_guarantee_example():
    costs = [1, Fraction(3, 2), 2, Fraction(5, 2), 3, 4]
    o = AdditiveOracle(costs)
    inst = Instance(6, 2, (o, o))
    alloc, _ = round_robin_allocate(inst)
    assert inst.cost(0, alloc.bundles[0]) == 6
    assert inst.cost(1, alloc.bundles[1]) == 8
    assert check_alpha_efx(alloc, inst, guarantee_ratio(4, 3)).verdict
    assert guarantee_ratio(4, 3) == Fraction(5, 2)


def test_trace_invariants():
    inst = generate_instance("additive", 3, 11, 21)
    _, trace = round_robin_allocate(inst, [2, 0, 1])
    per_agent = {}
    for pick in trace.picks:
        assert pick.kind == "pick"
        (agent,) = pick.agents
        cost = inst.oracles[agent].singleton(pick.chore)
        if agent in per_agent:
            assert cost >= per_agent[agent]
        per_agent[agent] = cost
    assert len({p.chore for p in trace.picks}) == inst.m


def test_earlier_agents_weakly_better_per_round():
    inst = generate_instance("additive_ratio", 3, 12, 4, alpha=3)
    _, trace = round_robin_allocate(inst)
    by_round = {}
    for pick in trace.picks:
        by_round.setdefault(pick.step, []).append(pick)
    for picks in by_round.values():
        for a, b in zip(picks, picks[1:]):
            oracle = inst.oracles[a.agents[0]]
            assert oracle.singleton(a.chore) <= oracle.singleton(b.chore)


def test_bad_order_rejected():
    inst = generate_instance("additive", 3, 6, 0)
    with pytest.raises(PreconditionError):
        round_robin_allocate(inst, [0, 0, 1])


@pytest.mark.parametrize("alpha", [2, 3, 5])
def test_ratio_bound_guarantee(alpha):
    for seed in range(25):
        n = 2 + seed % 3
        m = 3 * n + seed % 5
        inst = generate_instance("additive_ratio", n, m, seed, alpha=alpha)
        alloc, _ = round_robin_allocate(inst)
        rounds = round_count(inst)
        assert in_guarantee_scope(inst)
        assert check_alpha_efx(alloc, inst, guarantee_ratio(alpha, rounds)).verdict
        if alpha == 2:
            assert check_tefx(alloc, inst).verdict


def test_guarantee_requires_three_rounds():
    with pytest.raises(PreconditionError):
        guarantee_ratio(2, 2)


def _reference_round_robin(instance, agent_order):
    """The pick loop as first written: each agent takes
    min(remaining, key=(singleton cost, index)); returns picks as
    (agent, chore, round) and the bundles."""
    remaining = set(range(instance.m))
    bundles = [set() for _ in range(instance.n)]
    picks = []
    t = 0
    while remaining:
        t += 1
        for agent in agent_order:
            if not remaining:
                break
            oracle = instance.oracles[agent]
            chore = min(remaining, key=lambda c: (oracle.singleton(c), c))
            remaining.remove(chore)
            bundles[agent].add(chore)
            picks.append((agent, chore, t))
    return picks, tuple(frozenset(b) for b in bundles)


def test_presorted_picks_match_reference():
    rng = random.Random(3)
    for trial in range(300):
        if trial % 5 == 0:  # fewer chores than agents
            n = rng.randint(2, 6)
            m = rng.randint(1, n - 1)
        else:
            n, m = rng.randint(1, 6), rng.randint(1, 25)
        if trial % 2:
            # tie-heavy small integers, some agents sharing one oracle
            oracles = [AdditiveOracle([rng.randint(0, 3) for _ in range(m)])
                       for _ in range(n)]
            oracles = [rng.choice(oracles[:agent + 1]) for agent in range(n)]
            inst = Instance(m, n, tuple(oracles))
        else:
            inst = generate_instance("additive_ratio", n, m, trial,
                                     alpha=Fraction(rng.randint(4, 12), 4))
        order = list(range(n))
        rng.shuffle(order)
        for agent_order in (None, order):
            alloc, trace = round_robin_allocate(inst, agent_order)
            picks, bundles = _reference_round_robin(inst, agent_order or range(n))
            assert [(p.agents[0], p.chore, p.step) for p in trace.picks] == picks
            assert alloc.bundles == bundles


def test_claimed_guarantee_follows_the_paper_scope():
    # tEFX needs every additive ratio <= 2; past it, alpha-EFX at the
    # largest ratio needs three rounds; other costs claim nothing
    o = AdditiveOracle([2, 3, 3, 4])
    assert claimed_guarantee(Instance(4, 2, (o, o))) == ("tefx", None)
    seed12 = generate_instance("additive", 3, 9, 12)
    assert claimed_guarantee(seed12) == ("alpha_efx", Fraction(203, 31))
    assert claimed_guarantee(generate_instance("additive", 3, 6, 12)) is None
    assert claimed_guarantee(Instance(3, 1, (AdditiveOracle([0, 1, 1]),))) is None
    for family in ("capped_additive", "max_of_additive"):
        assert claimed_guarantee(generate_instance(family, 3, 9, 12)) is None
