import random
from fractions import Fraction
from itertools import combinations

import pytest

from chorefair import (
    Allocation,
    EnumerationLimitError,
    Instance,
    PreconditionError,
    TabulatedOracle,
    check_alpha_efx,
    check_tefx,
    counterexample_instance,
    exhaustive_search,
    generate_instance,
    independent_alpha_efx,
    independent_tefx,
    rival_counterexample_run,
    three_agent_2efx,
)
from chorefair import verify

from support import COUNTEREXAMPLE, PerturbedOracle, product_search


def test_efx_exists_for_small_instances():
    for seed in range(20):
        inst = generate_instance("additive", 3, 5, seed)
        alloc = exhaustive_search(inst, "efx")
        assert alloc is not None
        assert check_alpha_efx(alloc, inst, 1).verdict


def test_single_chore_trivial():
    inst = generate_instance("additive", 2, 1, 0)
    alloc = exhaustive_search(inst, "efx")
    assert alloc is not None
    assert alloc.is_full


def test_counterexample_has_an_efx_allocation():
    alloc = exhaustive_search(COUNTEREXAMPLE, "efx")
    assert alloc is not None
    assert check_alpha_efx(alloc, COUNTEREXAMPLE, 1).verdict


def test_search_certifies_that_no_efx_allocation_exists():
    # two agents share a non-monotone table under which no split is EFX
    oracle = TabulatedOracle(4, {
        (): 0, (0,): 5, (1,): 5, (2,): 1, (3,): 0, (0, 1): 0, (0, 2): 0,
        (0, 3): 0, (1, 2): 1, (1, 3): 9, (2, 3): 9, (0, 1, 2): 1,
        (0, 1, 3): 5, (0, 2, 3): 9, (1, 2, 3): 5, (0, 1, 2, 3): 9})
    inst = Instance(4, 2, (oracle, oracle))
    assert exhaustive_search(inst, "efx") is None
    alloc = exhaustive_search(inst, "tefx")
    assert alloc.bundles == (frozenset({0, 1}), frozenset({2, 3}))
    assert check_tefx(alloc, inst).verdict


def test_search_guard(monkeypatch):
    # 3^15 > 10^7 assignments: refused before any allocation is checked
    def checked(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(verify, "_all_violations", checked)
    inst = generate_instance("additive", 3, 15, 0)
    with pytest.raises(EnumerationLimitError):
        exhaustive_search(inst, "efx")


SEARCH_CRITERIA = [("efx", 1), ("alpha_efx", Fraction(3, 2)), ("alpha_efx", 2),
                   ("tefx", 1)]


@pytest.mark.parametrize("criterion, alpha", SEARCH_CRITERIA,
                         ids=["efx", "alpha_efx-3/2", "alpha_efx-2", "tefx"])
def test_pruned_search_matches_the_product_loop_on_monotone_costs(criterion, alpha):
    # the prune is on: row oracles, and a perturbed copy that is monotone
    # but no RowOracle, at n = 2 with m <= 8 and n = 3 with m <= 7
    for family in ("additive", "capped_additive", "max_of_additive"):
        for n, top in ((2, 8), (3, 7)):
            for m in range(1, top + 1):
                for seed in range(2):
                    inst = generate_instance(family, n, m, seed)
                    assert (exhaustive_search(inst, criterion, alpha)
                            == product_search(inst, criterion, alpha))
                perturbed = Instance(m, n, tuple(PerturbedOracle(o, Fraction(1, 1000))
                                                 for o in inst.oracles))
                assert (exhaustive_search(perturbed, criterion, alpha)
                        == product_search(perturbed, criterion, alpha))


def test_search_walks_every_node_on_non_monotone_tables():
    # random tables are not known monotone, so the prune is off; every
    # other pair shares one table, and some pairs have no tEFX allocation,
    # which the search must certify
    rng = random.Random(8)
    missing = 0
    for trial in range(120):
        m = rng.randint(1, 5)
        subsets = [s for r in range(m + 1) for s in combinations(range(m), r)]
        tables = [TabulatedOracle(m, {s: rng.randint(0, 9) if s else 0
                                      for s in subsets}) for _ in range(2)]
        inst = Instance(m, 2, (tables[0], tables[trial % 2]))
        for criterion, alpha in SEARCH_CRITERIA:
            found = exhaustive_search(inst, criterion, alpha)
            assert found == product_search(inst, criterion, alpha)
            missing += found is None
    assert missing > 0


def test_search_gives_one_agent_every_chore():
    # one agent envies no one, so its one assignment is the first hit,
    # returned without a walk, m = 3000 included
    inst = generate_instance("additive", 1, 3000, 0)
    for criterion, alpha in SEARCH_CRITERIA:
        assert exhaustive_search(inst, criterion, alpha) == Allocation.full([range(3000)])
    for family in ("additive", "capped_additive", "max_of_additive"):
        for m in range(1, 7):
            inst = generate_instance(family, 1, m, m)
            for criterion, alpha in SEARCH_CRITERIA:
                assert (exhaustive_search(inst, criterion, alpha)
                        == product_search(inst, criterion, alpha))
    rng = random.Random(1)
    for m in range(1, 5):  # random tables, so not known monotone either
        table = TabulatedOracle(m, {s: rng.randint(0, 9) if s else 0 for r in range(m + 1)
                                    for s in combinations(range(m), r)})
        inst = Instance(m, 1, (table,))
        for criterion, alpha in SEARCH_CRITERIA:
            assert (exhaustive_search(inst, criterion, alpha)
                    == product_search(inst, criterion, alpha))


def test_prune_judges_fewer_leaves_than_the_product_loop(monkeypatch):
    # the product loop judges every assignment up to the first hit; with the
    # prune on, the search judges fewer in all, and with it off, as many
    judged = [0]

    def counted(*args):
        judged[0] += 1
        return original(*args)

    original = verify._all_violations
    monkeypatch.setattr(verify, "_all_violations", counted)
    walked = 0
    for seed in range(20):
        inst = generate_instance("additive", 3, 5, seed)
        alloc = exhaustive_search(inst, "efx")
        # the first hit's index in product order, plus one
        walked += 1 + sum(agent * 3 ** (4 - chore)
                          for agent, bundle in enumerate(alloc.bundles)
                          for chore in bundle)
    assert judged[0] < walked / 2
    table = TabulatedOracle(3, {s: len(s) for r in range(4)
                                for s in combinations(range(3), r)})
    judged[0] = 0
    assert exhaustive_search(Instance(3, 2, (table, table)), "efx") is not None
    assert judged[0] == 2  # ({0, 1}, {2}) is the second assignment


def test_unknown_criterion_rejected():
    with pytest.raises(ValueError):
        exhaustive_search(COUNTEREXAMPLE, "nash")


def test_independent_checkers_agree_with_reports():
    rng = random.Random(0)
    for _ in range(50):
        inst = generate_instance("additive", 3, 6, rng.randrange(10**6))
        assignment = [rng.randrange(3) for _ in range(6)]
        bundles = [set() for _ in range(3)]
        for chore, agent in enumerate(assignment):
            bundles[agent].add(chore)
        alloc = Allocation.full(bundles)
        for alpha in (1, 2):
            assert (independent_alpha_efx(alloc, inst, alpha)
                    == check_alpha_efx(alloc, inst, alpha).verdict)
        assert independent_tefx(alloc, inst) == check_tefx(alloc, inst).verdict


def test_counterexample_parameter_validation():
    with pytest.raises(PreconditionError):
        counterexample_instance(10, 7)  # m1/2 = 5 < m2
    with pytest.raises(PreconditionError):
        counterexample_instance(30, 6)  # m2 must exceed 6
    inst = counterexample_instance(26, 12)
    assert inst.oracles[2].cost((5,)) == 12
    assert inst.oracles[2].cost((3,)) == 13


def test_rival_run_exact_outputs():
    run = rival_counterexample_run(26, 12)
    assert run.allocation.bundles == (frozenset({1}), frozenset({2, 3, 4}),
                                      frozenset({0, 5}))
    assert run.graphs == (
        (1, None, None), (1, None, None), (1, 2, None), (1, None, 0))
    assert run.ratio == 4  # m2 / 3


def test_rival_ratio_scales_with_parameter():
    run = rival_counterexample_run(602, 300)
    assert run.ratio == 100
    assert not check_alpha_efx(run.allocation,
                               counterexample_instance(602, 300), 2).verdict


def test_own_algorithm_beats_rival_on_counterexample():
    inst = counterexample_instance(26, 12)
    run = rival_counterexample_run(26, 12)
    assert not check_alpha_efx(run.allocation, inst, 2).verdict
    own = three_agent_2efx(inst)
    assert check_alpha_efx(own, inst, 1).verdict
