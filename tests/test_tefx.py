import random
from collections import Counter
from fractions import Fraction

import pytest

from chorefair import (
    AdditiveOracle,
    Allocation,
    CappedAdditiveOracle,
    GroupSpec,
    Instance,
    MaxOfAdditiveOracle,
    PreconditionError,
    TabulatedOracle,
    VerificationError,
    check_tefx,
    generate_instance,
    identical_cost_efx,
    is_alpha_efx,
    is_tefx,
    tefx_three_group,
    tefx_two_group,
)
from chorefair.tefx import is_efx_feasible, is_tefx_feasible

from support import all_subsets, ratio2_oracle, two_group_cases, unit_potential_drops


def test_feasibility_predicates():
    oracle = AdditiveOracle([5, 3, 3, 3])
    b = frozenset({1, 2, 3})
    assert not is_efx_feasible([b, frozenset({0})], 0, oracle)  # removal 6 > 5
    good = frozenset({2, 3})
    assert is_efx_feasible([frozenset({0, 1}), good], 1, oracle)
    assert is_tefx_feasible([frozenset({0}), b], 1, oracle)  # 6 <= 5 + 3
    # a singleton is feasible either way, so for two agents sharing the
    # oracle the core verdicts are those of the other bundle
    inst = Instance(4, 2, (oracle, oracle))
    single = frozenset({0})
    for bundle in (b, good, frozenset()):
        alloc = Allocation((bundle, single), frozenset())
        assert is_efx_feasible(alloc.bundles, 0, oracle) == is_alpha_efx(alloc, inst)
        assert is_tefx_feasible(alloc.bundles, 0, oracle) == is_tefx(alloc, inst)


def test_identical_cost_efx_singletons():
    oracle = AdditiveOracle([4, 2, 1])
    bundles = identical_cost_efx(3, oracle)
    assert sorted(map(len, bundles)) == [1, 1, 1]


def test_identical_cost_efx_known_split():
    oracle = AdditiveOracle([5, 3, 3, 3])
    bundles = identical_cost_efx(2, oracle)
    for i in range(len(bundles)):
        assert is_efx_feasible(bundles, i, oracle)
    assert frozenset().union(*bundles) == frozenset(range(4))


def test_identical_cost_efx_every_bundle_feasible():
    for seed in range(25):
        rng = random.Random(seed)
        m = rng.randint(2, 9)
        count = rng.randint(1, min(4, m))
        oracle = AdditiveOracle([rng.randint(1, 30) for _ in range(m)])
        bundles = identical_cost_efx(count, oracle)
        assert frozenset().union(*bundles) == frozenset(range(m))
        assert sum(map(len, bundles)) == m
        for i in range(count):
            assert is_efx_feasible(bundles, i, oracle)



def _table(values):
    m = max(map(len, values))
    return TabulatedOracle(m, values)


def test_identical_cost_efx_without_chores():
    assert identical_cost_efx(2, TabulatedOracle(0, {(): 0})) == [frozenset()] * 2


def test_identical_cost_efx_refuses_zero_bundles():
    with pytest.raises(ValueError, match="at least one bundle"):
        identical_cost_efx(0, AdditiveOracle([1, 2]))


def test_identical_cost_efx_refuses_a_move_that_does_not_raise_the_potential():
    # only a non-monotone cost lets the violating bundle be the cheapest: the
    # greedy split is {1, 2}, {0}, both at cost 0, and dropping chore 2 from
    # {1, 2} leaves {1} at cost 3, so the move puts chore 2 back where it was
    oracle = _table({(): 0, (0,): 0, (1,): 3, (2,): 1, (0, 1): 0, (0, 2): 1,
                     (1, 2): 0, (0, 1, 2): 2})
    with pytest.raises(VerificationError, match="likely not monotone"):
        identical_cost_efx(2, oracle)


def _monotone_closure(rng, m, top):
    """Random subset values, each raised to the largest on its subsets."""
    table = {}
    for s in all_subsets(m):  # every subset after its own subsets
        table[s] = max([rng.randint(0, top) if s else 0] + [table[s - {c}] for c in s])
    return TabulatedOracle(m, table)


def test_identical_cost_efx_repairs_every_monotone_cost(monkeypatch):
    # monotone closures of random tables, and rows with zero costs, so that
    # ties at the cheapest cost are common; each output is an EFX split
    calls = Counter()

    def counted(bundles, i, oracle):
        calls["checks"] += 1
        return is_efx_feasible(bundles, i, oracle)

    monkeypatch.setattr("chorefair.tefx.is_efx_feasible", counted)
    rng = random.Random(22)
    repaired = 0
    for trial in range(300):
        m, count = rng.randint(1, 8), rng.randint(2, 4)
        if trial % 3 == 0:
            oracle = _monotone_closure(rng, m, rng.choice((5, 40, 1000)))
        else:
            rows = [[rng.choice((0, rng.randint(1, 20))) for _ in range(m)]
                    for _ in range(2)]
            oracle = (MaxOfAdditiveOracle(rows) if trial % 3 == 1
                      else CappedAdditiveOracle(rows[0], rng.randint(1, 40)))
        calls.clear()
        bundles = identical_cost_efx(count, oracle)
        assert len(bundles) == count
        assert sorted(c for b in bundles for c in b) == list(range(m))
        assert all(is_efx_feasible(bundles, i, oracle) for i in range(count))
        repaired += calls["checks"] > count  # a clean seed is checked once
    assert repaired > 60  # about a third of the cases need a repair move


def test_identical_cost_efx_without_an_efx_split_raises():
    # non-monotone values from {0, 1, 5, 9}: no split into two bundles is
    # EFX-feasible, so some repair move fails to raise the potential
    oracle = _table({(): 0, (0,): 5, (1,): 5, (2,): 1, (3,): 0, (0, 1): 0,
                     (0, 2): 0, (0, 3): 0, (1, 2): 1, (1, 3): 9, (2, 3): 9,
                     (0, 1, 2): 1, (0, 1, 3): 5, (0, 2, 3): 9, (1, 2, 3): 5,
                     (0, 1, 2, 3): 9})
    with pytest.raises(VerificationError, match="likely not monotone"):
        identical_cost_efx(2, oracle)

def test_two_group_base_case_example():
    c1 = AdditiveOracle([4, 3, 2, 1])
    c2 = AdditiveOracle([1, 2, Fraction(3, 2), Fraction(19, 10)])
    alloc = tefx_two_group(2, c1, c2, 1)
    assert alloc.bundles == (frozenset({1, 2}), frozenset({0, 3}))


def test_two_group_rejects_wide_ratio():
    c1 = AdditiveOracle([4, 3, 2, 1])
    c2 = AdditiveOracle([1, 5, 2, 2])
    with pytest.raises(PreconditionError):
        tefx_two_group(2, c1, c2, 1)


def test_two_group_invalid_k():
    c1 = AdditiveOracle([4, 3, 2, 1])
    with pytest.raises(PreconditionError):
        tefx_two_group(2, c1, c1, 0)


def test_two_group_refuses_a_chore_count_mismatch():
    c1 = AdditiveOracle([4, 3, 2, 1])
    with pytest.raises(PreconditionError, match="chore count"):
        tefx_two_group(2, c1, AdditiveOracle([2, 2, 3]), 1)


def test_two_group_properties_all_k():
    for n, c1, c2, moving in two_group_cases():
        most_moves = 0
        for k in range(1, n + 1):
            trace = []
            alloc = tefx_two_group(n, c1, c2, k, trace=trace)
            front = n - k + 1
            for i in range(front):
                assert is_efx_feasible(alloc.bundles, i, c1)
            for i in range(front - 1, n):
                assert is_tefx_feasible(alloc.bundles, i, c2)
            # potential falls by exactly 1 per move within each level
            assert unit_potential_drops(trace, n)
            levels = Counter(move.step for move in trace)
            most_moves = max([most_moves, *levels.values()])
        # so unit_potential_drops compares at least one pair of moves
        assert most_moves >= 2 or not moving


def test_move_events_name_source_and_target():
    # with its chore put back, the bundle at each position a move names is
    # a bundle of the state before the move: the previous move's snapshot,
    # or the output of the level below for a level's first move
    for n, c1, c2, _ in two_group_cases():
        trace = []
        tefx_two_group(n, c1, c2, n, trace=trace)
        level = None
        for move in trace:
            if move.step != level:
                level = move.step
                before = tefx_two_group(n, c1, c2, level - 1).bundles
            source, target = (move.allocation.bundles[a] for a in move.agents)
            assert move.chore not in source and move.chore in target
            assert source | {move.chore} in before
            assert target - {move.chore} in before
            before = move.allocation.bundles


def test_three_group_one_agent_per_group():
    m = 8
    c1 = MaxOfAdditiveOracle([[3, 1, 4, 1, 5, 9, 2, 6], [2, 7, 1, 8, 2, 8, 1, 8]])
    c2 = ratio2_oracle(m, 3)
    c3 = AdditiveOracle([5, 2, 8, 1, 9, 7, 3, 6])
    inst = Instance(m, 3, (c1, c2, c3))
    groups = GroupSpec(frozenset({0}), frozenset({1}), frozenset({2}))
    out = tefx_three_group(inst, groups)
    assert check_tefx(out, inst).verdict


def test_three_group_no_third_agent():
    m = 9
    c1 = AdditiveOracle([9, 8, 7, 1, 2, 3, 4, 5, 6])
    c2 = ratio2_oracle(m, 5)
    inst = Instance(m, 4, (c1, c1, c2, c2))
    groups = GroupSpec(frozenset({0, 1}), frozenset({2, 3}), frozenset())
    out = tefx_three_group(inst, groups)
    assert check_tefx(out, inst).verdict


def test_three_group_shares_a_cost_function_across_constructors():
    # one row built two ways is one cost function, so one group; so are
    # the same rows given in another order
    m = 8
    costs = [3, 1, 4, 1, 5, 9, 2, 6]
    other = [2, 7, 1, 8, 2, 8, 1, 8]
    c2 = ratio2_oracle(m, 3)
    groups = GroupSpec(frozenset({0, 1}), frozenset({2, 3}), frozenset())
    for first, second in (
            (AdditiveOracle(costs), MaxOfAdditiveOracle([costs])),
            (MaxOfAdditiveOracle([costs, other]), MaxOfAdditiveOracle([other, costs]))):
        inst = Instance(m, 4, (first, second, c2, c2))
        out = tefx_three_group(inst, groups)
        assert check_tefx(out, inst).verdict


def test_three_group_bigger_groups():
    for seed in range(10):
        rng = random.Random(seed)
        s1, s2 = rng.randint(1, 3), rng.randint(1, 3)
        s3 = rng.randint(0, 1)
        n = s1 + s2 + s3
        m = rng.randint(n, 12)
        c1 = MaxOfAdditiveOracle(
            [[rng.randint(1, 25) for _ in range(m)] for _ in range(2)])
        c2 = ratio2_oracle(m, seed + 100)
        oracles = [c1] * s1 + [c2] * s2
        if s3:
            oracles.append(MaxOfAdditiveOracle(
                [[rng.randint(1, 25) for _ in range(m)]]))
        inst = Instance(m, n, tuple(oracles))
        groups = GroupSpec(frozenset(range(s1)), frozenset(range(s1, s1 + s2)),
                           frozenset({n - 1}) if s3 else frozenset())
        out = tefx_three_group(inst, groups)
        assert check_tefx(out, inst).verdict


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(frozenset({0}), frozenset({1}), frozenset({2, 3}))
    with pytest.raises(ValueError):
        GroupSpec(frozenset({0, 1}), frozenset({1}), frozenset())
    inst = generate_instance("additive", 3, 6, 0)
    with pytest.raises(PreconditionError):
        tefx_three_group(inst, GroupSpec(frozenset({0, 1, 2}), frozenset(),
                                         frozenset()))
    with pytest.raises(PreconditionError, match="cover all agents"):
        tefx_three_group(inst, GroupSpec(frozenset({0}), frozenset({1}),
                                         frozenset()))


def test_moves_take_the_worst_front_removal():
    # costs 1..3 tie often; with its chore put back into bundle 0, each move
    # took a chore of largest C1(X - c) over the front bundles, and the
    # lowest such chore of its bundle
    moves = ties = 0
    for seed in range(300):  # about one run in six moves
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        m = rng.randint(n, 14)
        c1 = MaxOfAdditiveOracle([[rng.randint(1, 3) for _ in range(m)]
                                  for _ in range(rng.randint(1, 2))])
        c2 = AdditiveOracle([rng.randint(1, 2) for _ in range(m)])
        trace = []
        tefx_two_group(n, c1, c2, n, trace=trace)
        for move in trace:
            front = list(move.allocation.bundles[: n - move.step + 1])
            front[0] = front[0] | {move.chore}
            removals = [(c1.cost(x - {c}), i, c)
                        for i, x in enumerate(front) for c in x]
            worst = max(r[0] for r in removals)
            taken = c1.cost(front[0] - {move.chore})
            assert taken == worst
            assert all(c >= move.chore for r, i, c in removals
                       if i == 0 and r == worst)
            moves += 1
            ties += sum(r[0] == worst for r in removals) > 1
    assert moves >= 40 and ties
