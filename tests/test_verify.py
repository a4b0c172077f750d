import random

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

from support import COUNTEREXAMPLE


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
