import random

import pytest

from chorefair import (
    AdditiveOracle,
    CappedAdditiveOracle,
    Instance,
    PreconditionError,
    check_alpha_efx,
    check_k_partial_ido,
    check_partial_property2,
    generate_instance,
    partial_ido_2efx,
)
from chorefair.ido import first_ido_disagreement
from chorefair.oracles import top_chore_order

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
    with pytest.raises(PreconditionError, match="position 1"):
        partial_ido_2efx(inst)


def _reference_disagreement(instance, k):
    """Every agent's order sorted, then compared position by position."""
    depth = min(k, instance.m)
    orders = [top_chore_order(o)[:depth] for o in instance.oracles]
    for t in range(depth):
        for i in range(1, instance.n):
            if orders[i][t] != orders[0][t]:
                return (t, i, orders[i][t], orders[0][t])
    return None


def test_first_disagreement_matches_sort_reference():
    # agents perturb one base row of small costs, zeros included, so that
    # they mostly agree and often tie: within their top k, where the tie
    # goes to the lower index, and at the top-k boundary, against a chore
    # left out.  Every k from 1 to m + 2 and n from 1 to 6, capped agents
    # among them for a singleton table that is not the row itself
    rng = random.Random("ido-reference")
    held = found = tied_inside = tied_boundary = 0
    for trial in range(1500):
        n, m = rng.randint(1, 6), rng.randint(1, 8)
        base = [rng.randint(0, 5) for _ in range(m)]
        oracles = []
        for _ in range(n):
            row = [rng.randint(0, 5) if rng.random() < 0.15 else v for v in base]
            oracles.append(CappedAdditiveOracle(row, 4) if rng.random() < 0.2
                           else AdditiveOracle(row))
        inst = Instance(m, n, tuple(oracles))
        for k in range(1, m + 3):
            expected = _reference_disagreement(inst, k)
            assert first_ido_disagreement(inst, k) == expected, (trial, k)
            assert check_k_partial_ido(inst, k) == (expected is None)
            held += expected is None
            found += expected is not None and expected[0] > 0
            if expected is None and n > 1 and k < m:
                top = top_chore_order(inst.oracles[0])[:k]
                for oracle in inst.oracles[1:]:
                    singles = oracle.singleton_units()
                    vals = [singles[c] for c in top]
                    tied_inside += len(set(vals)) < len(vals)
                    tied_boundary += vals[-1] in [
                        singles[c] for c in range(m) if c not in top]
    assert held > 2000 and found > 1000
    assert tied_inside > 300 and tied_boundary > 300


def test_first_disagreement_names_the_counterexample_pair():
    # the refusal the CLI prints: position 1, agent 2 ranks chore 2, agent 1
    # ranks chore 1, all 1-based
    inst = Instance(6, 3, COUNTEREXAMPLE.oracles)
    assert first_ido_disagreement(inst, 2) == (0, 1, 1, 0)
    with pytest.raises(PreconditionError, match=(
            "position 1: agent 2 ranks chore 2, agent 1 ranks chore 1")):
        partial_ido_2efx(inst)
