import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorefair import (
    AdditiveOracle,
    Allocation,
    DimensionError,
    Instance,
    check_alpha_efx,
    check_partial_property2,
    check_tefx,
    generate_instance,
    independent_alpha_efx,
    independent_tefx,
    is_alpha_efx,
    is_tefx,
    max_removal_cost,
    round_robin_allocate,
)
from chorefair.core import eligible_bundles
from chorefair.oracles import TabulatedOracle

from support import COUNTEREXAMPLE, tri


def test_allocation_rejects_overlap():
    with pytest.raises(ValueError):
        Allocation((frozenset({0, 1}), frozenset({1})), frozenset())
    with pytest.raises(ValueError):
        Allocation((frozenset({0}),), frozenset({0}))


def test_from_bundles_computes_pool():
    alloc = Allocation.from_bundles([{0}, {2}], 4)
    assert alloc.pool == {1, 3}
    assert not alloc.is_full
    assert Allocation.full([{0}, {1}]).is_full


def test_shape_mismatch_is_an_error():
    alloc = Allocation.full([{0}, {1}])
    with pytest.raises(DimensionError):
        check_alpha_efx(alloc, COUNTEREXAMPLE)
    with pytest.raises(DimensionError):  # a 1-based chore 0 read as -1
        check_tefx(Allocation.full([{-1}, {1}, {2}]), COUNTEREXAMPLE)


def test_max_removal_cost_additive():
    oracle = AdditiveOracle([5, 3, 2])
    assert max_removal_cost(oracle, {0, 1, 2}) == 8  # drop the cheapest
    assert max_removal_cost(oracle, set()) == 0


def test_eligible_bundles_rejects_out_of_range_pool_chores():
    # the singleton table must not read chore -1 as the last chore
    table = TabulatedOracle(2, {(): 0, (0,): 1, (1,): 2, (0, 1): 3})
    for oracle in (AdditiveOracle([1, 2]), table):
        for chore in (-1, 2):
            alloc = Allocation((frozenset({0}), frozenset({1})), frozenset({chore}))
            with pytest.raises(IndexError):
                eligible_bundles(oracle, alloc)


def test_singletons_are_always_efx():
    inst = tri([9, 5, 1, 7, 2, 3], [1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1])
    alloc = Allocation.from_bundles([{0}, {1}, {2}], 6)
    assert check_alpha_efx(alloc, inst).verdict


def test_known_violation_has_witness():
    # rival output on the counterexample: agent 3 strongly 2-envies agent 1
    alloc = Allocation.full([{1}, {2, 3, 4}, {0, 5}])
    report = check_alpha_efx(alloc, COUNTEREXAMPLE, 2)
    assert not report.verdict
    w = next(w for w in report.witnesses if w.agent == 2 and w.other == 0)
    assert w.chore == 0 and w.lhs == 12 and w.rhs == 6


def test_tefx_weaker_than_efx():
    inst = tri([2, 3, 3, 4, 1, 1], [2, 3, 3, 4, 1, 1], [2, 3, 3, 4, 1, 1])
    alloc = Allocation.full([{0, 1}, {2, 4}, {3, 5}])
    if check_alpha_efx(alloc, inst).verdict:
        assert check_tefx(alloc, inst).verdict


def test_tefx_witness_under_non_monotone_table():
    # C0(X_0 - c) = 5 <= C0(X_1) = 5, yet adding either chore to X_1 drops
    # agent 0's cost to 1: only a monotone cost may skip X_1 on the first
    table = {frozenset(): 0, frozenset({0}): 5, frozenset({1}): 5,
             frozenset({2}): 5, frozenset({0, 1}): 6, frozenset({0, 2}): 1,
             frozenset({1, 2}): 1, frozenset({0, 1, 2}): 6}
    inst = Instance(3, 2, (TabulatedOracle(3, table), AdditiveOracle([1, 1, 1])))
    alloc = Allocation.full([{0, 1}, {2}])
    assert [tuple(w) for w in check_tefx(alloc, inst).witnesses] == [
        (0, 1, 0, 5, 1), (0, 1, 1, 5, 1)]
    assert not is_tefx(alloc, inst)
    assert not independent_tefx(alloc, inst)


def _tefx_by_enumeration(alloc, inst):
    """Every tEFX witness, through each oracle's cost of the two sets."""
    return [(i, j, c, inst.cost(i, mine - {c}), inst.cost(i, other | {c}))
            for i, mine in enumerate(alloc.bundles)
            for j, other in enumerate(alloc.bundles) if j != i
            for c in sorted(mine)
            if inst.cost(i, mine - {c}) > inst.cost(i, other | {c})]


def test_tefx_matches_independent_at_scale():
    # round-robin outputs at n = 40, m = 200 (all tEFX here), then random
    # allocations of the same instances, each with witnesses
    rng = random.Random("tefx-scale")
    for seed, family in enumerate(("additive_ratio", "additive",
                                   "capped_additive", "max_of_additive")):
        inst = generate_instance(family, 40, 200, seed)
        bundles = [set() for _ in range(40)]
        for chore in range(200):
            bundles[rng.randrange(40)].add(chore)
        reports = []
        for alloc in (round_robin_allocate(inst)[0], Allocation.full(bundles)):
            report = check_tefx(alloc, inst)
            assert report.verdict == is_tefx(alloc, inst) == independent_tefx(alloc, inst)
            assert list(report.witnesses) == _tefx_by_enumeration(alloc, inst)
            reports.append(report.verdict)
        assert reports == [True, False]


def _sweep_allocations(rng, m):
    """Full allocations, partial ones with a pool, and ones whose third
    bundle is always empty, in turn."""
    for k in range(30):
        slots = (3, 4, 2)[k % 3]
        bundles, pool = [set(), set(), set()], set()
        for chore in range(m):
            slot = rng.randrange(slots)
            (pool if slot == 3 else bundles[slot]).add(chore)
        yield Allocation(tuple(map(frozenset, bundles)), frozenset(pool))


def test_verdict_matches_shortcuts():
    families = ("additive", "capped_additive", "max_of_additive")
    cases = [(COUNTEREXAMPLE, Allocation.full([{1}, {2, 3, 4}, {0, 5}]))]
    for seed in range(30):
        inst = generate_instance(families[seed % 3], 3, 6, seed)
        cases += [(inst, alloc)
                  for alloc in _sweep_allocations(random.Random(seed), 6)]
    for inst, alloc in cases:
        reports = [(check_alpha_efx(alloc, inst, alpha),
                    is_alpha_efx(alloc, inst, alpha),
                    independent_alpha_efx(alloc, inst, alpha))
                   for alpha in (1, Fraction(3, 2), 2)]
        reports.append((check_tefx(alloc, inst), is_tefx(alloc, inst),
                        independent_tefx(alloc, inst)))
        for report, shortcut, independent in reports:
            assert report.verdict == shortcut == independent
            keys = [w[:3] for w in report.witnesses]
            assert keys == sorted(set(keys))


def test_alpha_below_one_rejected():
    alloc = Allocation.full([{0}, {1}, {2, 3, 4, 5}])
    with pytest.raises(ValueError):
        check_alpha_efx(alloc, COUNTEREXAMPLE, Fraction(1, 2))


def test_partial_property2():
    # agents 1 and 2 see every pool chore as cheap next to any bundle;
    # agent 3's pool chores (13, 13, 12) dwarf all three bundles
    alloc = Allocation.from_bundles([{0}, {1}, {2}], 6)
    assert check_partial_property2(alloc, COUNTEREXAMPLE) == (True, True, False)
    # full allocation: vacuous
    assert all(check_partial_property2(Allocation.full([{0}, {1}, {2, 3, 4, 5}]), COUNTEREXAMPLE))


costs = st.lists(st.integers(0, 30), min_size=4, max_size=7)


@settings(max_examples=60, deadline=None)
@given(costs, costs, st.data())
def test_efx_implies_tefx_and_higher_alpha(c1, c2, data):
    m = min(len(c1), len(c2))
    inst = Instance(m, 2, (AdditiveOracle(c1[:m]), AdditiveOracle(c2[:m])))
    assignment = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    bundles = [set(), set()]
    for chore, agent in enumerate(assignment):
        bundles[agent].add(chore)
    alloc = Allocation.full(bundles)
    if check_alpha_efx(alloc, inst).verdict:
        assert check_tefx(alloc, inst).verdict
        assert check_alpha_efx(alloc, inst, 2).verdict
    report = check_alpha_efx(alloc, inst, 2)
    assert report.verdict == (not report.witnesses)
