import pytest

from chorefair import (
    AdditiveOracle,
    Instance,
    PreconditionError,
    check_alpha_efx,
    check_k_partial_ido,
    check_partial_property2,
    generate_instance,
    partial_ido_2efx,
)
from chorefair.ido import first_ido_disagreement

from support import COUNTEREXAMPLE


def test_identical_oracles_always_ido():
    o = AdditiveOracle([9, 7, 5, 3, 1])
    inst = Instance(5, 3, (o, o, o))
    for k in (1, 3, 5, 9):
        assert check_k_partial_ido(inst, k)
    with pytest.raises(ValueError, match="k must be >= 1"):
        check_k_partial_ido(inst, 0)


def test_counterexample_agents_disagree_at_the_top():
    inst = Instance(6, 2, COUNTEREXAMPLE.oracles[:2])
    assert not check_k_partial_ido(inst, 2)
    pos, agent, chore, ref = first_ido_disagreement(inst, 2)
    assert (pos, agent) == (0, 1)
    assert {chore, ref} == {0, 1}


def test_generated_family_conforms():
    inst = generate_instance("k_partial_ido", 4, 12, 9, k=3)
    assert check_k_partial_ido(inst, 3)


def test_generator_beyond_99_non_top_chores():
    # m - k = 150 non-top chores: more distinct costs than 1..99 holds
    inst = generate_instance("k_partial_ido", 3, 152, 4, k=2)
    assert check_k_partial_ido(inst, 2)
    assert len(set(inst.oracles[0].singleton_units())) == 152
    assert check_alpha_efx(partial_ido_2efx(inst), inst, 2).verdict


def test_seed_partial_is_efx_and_witnessed():
    inst = generate_instance("k_partial_ido", 4, 10, 2, k=3)
    # reproduce the seed: top n-1 shared chores, one per agent
    from chorefair.core import Allocation
    from chorefair.oracles import top_chore_order

    top = top_chore_order(inst.oracles[0])[:3]
    seed = Allocation.from_bundles([{top[0]}, {top[1]}, {top[2]}, set()], 10)
    assert check_alpha_efx(seed, inst, 1).verdict
    assert all(check_partial_property2(seed, inst))


def test_full_output_2efx(cycle_removal_guard):
    for seed in range(30):
        n = 3 + seed % 4
        m = n + seed % 8
        inst = generate_instance("k_partial_ido", n, m, seed, k=n - 1)
        out = partial_ido_2efx(inst)
        assert out.is_full
        assert check_alpha_efx(out, inst, 2).verdict


def test_m_equals_n_minus_one_gives_singletons():
    inst = generate_instance("k_partial_ido", 4, 3, 1, k=3)
    out = partial_ido_2efx(inst)
    assert sorted(len(b) for b in out.bundles) == [0, 1, 1, 1]
    assert check_alpha_efx(out, inst, 1).verdict


def test_non_ido_rejected_with_position():
    inst = Instance(6, 3, COUNTEREXAMPLE.oracles)
    with pytest.raises(PreconditionError, match="position 0"):
        partial_ido_2efx(inst)
