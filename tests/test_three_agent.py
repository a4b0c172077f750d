import hashlib
import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from chorefair import (
    AdditiveOracle,
    Allocation,
    CappedAdditiveOracle,
    Instance,
    MaxOfAdditiveOracle,
    NoSuchSubsetError,
    PreconditionError,
    VerificationError,
    check_alpha_efx,
    check_partial_property2,
    classify_case,
    find_subset_D,
    generate_instance,
    solve_case,
    three_agent_2efx,
)
from chorefair import three_agent
from chorefair.cli import allocation_to_json
from chorefair.three_agent import CASE_IDS

from support import CASE_INSTANCES, COUNTEREXAMPLE, deep_b_cases, tri


def test_counterexample_classifies_as_b2222_identity_roles():
    case, ctx = classify_case(COUNTEREXAMPLE)
    assert case == "B2222"
    assert ctx.roles == (0, 1, 2)


def test_identical_oracles_classify_a1():
    o = AdditiveOracle([10, 9, 8, 3, 2, 1])
    case, _ = classify_case(Instance(6, 3, (o, o, o)))
    assert case == "A1"


@pytest.mark.parametrize("case", sorted(CASE_INSTANCES))
def test_hand_instances_hit_every_case(case):
    got, ctx = classify_case(CASE_INSTANCES[case])
    assert got == case
    assert sorted(ctx.roles) == [0, 1, 2]


@pytest.mark.parametrize("case", sorted(CASE_INSTANCES))
def test_solve_case_outcomes_verified(case):
    inst = CASE_INSTANCES[case]
    got, ctx = classify_case(inst)
    trace = []
    seed = solve_case(inst, got, ctx, trace)
    assert check_alpha_efx(seed, inst, 2).verdict
    # the pool property holds, vacuously when the seed is full
    assert all(check_partial_property2(seed, inst))
    # the case's "branch" events land in the caller's list, the case first
    # and the verified seed last
    assert {e.kind for e in trace} == {"branch"}
    assert (trace[0].agents, trace[0].note) == (ctx.roles, f"case {got}")
    assert (trace[-1].note, trace[-1].allocation) == ("seed", seed)
    assert solve_case(inst, got, ctx) == seed


# the seed solve_case returns on each hand instance, bundles by agent
SEED_BUNDLES = {
    "A1": [[2], [1], [0]],
    "A2": [[0], [2], [1]],
    "A3": [[2, 3], [1, 4], [0]],
    "B1": [[2], [1], [0]],
    "B21": [[3], [2], [0, 1]],
    "B221": [[3], [2], [0, 1]],
    "B2221": [[1, 2], [3, 4, 5], [0]],
    "B2222": [[1, 2], [3, 4], [0]],
    "C": [[2, 3], [1, 4], [0]],
    "D1": [[1, 2], [3, 4], [0]],
    "D21": [[2, 5], [1, 4], [0, 3]],
    "D22": [[1, 2], [3], [0]],
    "D23": [[1, 2], [0, 4], [3]],
}


@pytest.mark.parametrize("case", sorted(CASE_INSTANCES))
def test_solve_case_seeds_are_pinned(case):
    inst = CASE_INSTANCES[case]
    seed = solve_case(inst, *classify_case(inst))
    assert [sorted(b) for b in seed.bundles] == SEED_BUNDLES[case]


def test_fuzzed_outputs_are_pinned():
    # sha256 of the outputs on 2,100 generated instances, which reach every
    # case but A1; taken while each table seed was still its own branch
    digest = hashlib.sha256()
    for family, m, seed in itertools.product(
            ("additive", "capped_additive", "max_of_additive"), range(6, 13),
            range(100)):
        alloc = three_agent_2efx(generate_instance(family, 3, m, seed))
        digest.update(repr(allocation_to_json(alloc)).encode())
    assert digest.hexdigest()[:16] == "1058d4bafa755727"


def test_case_totality_on_fuzzed_instances():
    for seed in range(150):
        inst = generate_instance("additive", 3, 6 + seed % 6, seed)
        case, _ = classify_case(inst)
        assert case in CASE_IDS


def test_classify_requires_three_agents_and_six_chores():
    with pytest.raises(PreconditionError):
        classify_case(generate_instance("additive", 2, 8, 0))
    with pytest.raises(PreconditionError):
        classify_case(generate_instance("additive", 3, 5, 0))


def test_find_subset_d_counterexample():
    # anchor c4, pool {c3, c6}, threshold C1(c2) = 6 under agent 1's costs
    d = find_subset_D(COUNTEREXAMPLE.oracles[0], 3, {2, 5}, Fraction(6), strict_peel=False)
    assert d == {2, 5}


def test_find_subset_d_minimal():
    oracle = AdditiveOracle([1, 2, 2, 2])
    d = find_subset_D(oracle, 0, {1, 2, 3}, Fraction(4))
    assert len(d) == 2  # 1 + 2 + 2 >= 4 and removing one drops below
    assert oracle.cost(d | {0}) >= 4
    for item in d:
        assert oracle.cost((d - {item}) | {0}) <= 4


def test_find_subset_d_postconditions_weak_mode():
    oracle = AdditiveOracle([1, 3, 1, 2, 2])
    d = find_subset_D(oracle, 0, {2, 3, 4}, Fraction(3), strict_peel=False)
    assert oracle.cost(d | {0}) >= 3
    for item in d:
        assert oracle.cost((d - {item}) | {0}) < 3


def test_find_subset_d_rejects_cheap_pool():
    oracle = AdditiveOracle([1, 1, 1, 9])
    with pytest.raises(NoSuchSubsetError):
        find_subset_D(oracle, 0, {1, 2}, Fraction(9))


def _restart_peel(oracle, anchor, pool, threshold, strict_peel):
    """The peel as a restart loop: drop the lowest removable chore, then
    scan again from the lowest, until nothing is removable."""
    d = set(pool)

    def removable(item):
        left = oracle.cost((d - {item}) | {anchor})
        return left > threshold if strict_peel else left >= threshold

    changed = True
    while changed:
        changed = False
        for item in sorted(d):
            if removable(item):
                d.remove(item)
                changed = True
                break
    return frozenset(d)


def test_find_subset_d_one_pass_matches_restart_loop():
    rng = random.Random("peel")
    valid = 0
    for trial in range(600):
        m = rng.randint(3, 9)
        row, second = ([rng.randint(0, 12) for _ in range(m)] for _ in range(2))
        cap = rng.randint(1, sum(row) + 1)
        oracle = (AdditiveOracle(row), CappedAdditiveOracle(row, cap),
                  MaxOfAdditiveOracle([row, second]))[trial % 3]
        anchor = rng.randrange(m)
        pool = set(rng.sample([c for c in range(m) if c != anchor],
                              rng.randint(1, m - 1)))
        low, high = oracle.cost((anchor,)), oracle.cost(pool | {anchor})
        threshold = low + (high - low) * Fraction(rng.randint(0, 8), 8)
        for strict_peel in (True, False):
            try:
                got = find_subset_D(oracle, anchor, pool, threshold, strict_peel)
            except (PreconditionError, NoSuchSubsetError, VerificationError):
                continue
            assert got == _restart_peel(oracle, anchor, pool, threshold,
                                        strict_peel)
            valid += 1
    assert valid > 1000


def test_find_subset_d_precondition_boundary():
    # the anchor alone at the threshold passes the strict peel and fails the
    # weak one; above the threshold it fails the strict peel too
    oracle = AdditiveOracle([3, 1, 2])
    assert find_subset_D(oracle, 0, {1, 2}, Fraction(3), strict_peel=True) == {2}
    with pytest.raises(PreconditionError, match="meets the threshold"):
        find_subset_D(oracle, 0, {1, 2}, Fraction(3), strict_peel=False)
    with pytest.raises(PreconditionError, match="exceeds the threshold"):
        find_subset_D(oracle, 0, {1, 2}, Fraction(2), strict_peel=True)


DEEP_B = deep_b_cases()


def test_deep_b_cases_cover_every_path():
    cases = Counter(path[0] for path in DEEP_B)
    assert cases == {"case B2221": 5, "case B2222": 6}


@pytest.mark.parametrize("path", DEEP_B, ids=[
    f"{path[0][5:]}-{i}" for i, path in enumerate(DEEP_B)])
def test_deep_b_path_and_seed_pinned(path):
    inst, seed = DEEP_B[path]
    case, ctx = classify_case(inst)
    trace = []
    assert solve_case(inst, case, ctx, trace) == seed
    assert [e.note for e in trace] == [*path, "seed"]
    alloc = three_agent_2efx(inst)
    assert alloc.is_full
    assert check_alpha_efx(alloc, inst, 2).verdict


def test_three_agent_counterexample_exact_output():
    alloc = three_agent_2efx(COUNTEREXAMPLE)
    assert alloc.bundles == (frozenset({1, 4}), frozenset({2, 3, 5}),
                             frozenset({0}))
    assert check_alpha_efx(alloc, COUNTEREXAMPLE, 1).verdict  # EFX outright here


def test_b2222_rescue_where_role_2_strongly_envies_role_3():
    # hand-built: the crossed case whose role 2 neither envies role 1 nor
    # fits within twice role 3's bundle, so a rescue allocation replaces the
    # seed; random instances reach this branch very rarely
    inst = tri([45, 100, 90, 40, 30, 20, 20, 20],
               [19, 20, 200, 18, 18, 18, 18, 18],
               [1, 1, 1, 100, 90, 5, 5, 5])
    trace = []
    alloc = three_agent_2efx(inst, trace)
    assert trace[0].note == "case B2222"
    assert "role 2 strongly envies role 3" in [e.note for e in trace]
    assert alloc.is_full
    assert check_alpha_efx(alloc, inst, 2).verdict


def test_b2222_rescue_gives_role_3_the_peeled_set():
    # the rescue rows with role 3's costs of chores 5-7 raised from 5 to 40:
    # now C3(D) > C3(role 3's second chore), so D goes to role 3 and roles
    # 1 and 2 take {top3, role 3's top chore} and {mid1}
    inst = tri([45, 100, 90, 40, 30, 20, 20, 20],
               [19, 20, 200, 18, 18, 18, 18, 18],
               [1, 1, 1, 100, 90, 40, 40, 40])
    case, ctx = classify_case(inst)
    trace = []
    seed = solve_case(inst, case, ctx, trace)
    assert trace[-2].note == "role 2 strongly envies role 3"
    assert seed == Allocation.from_bundles([[5, 6, 7], [1, 3], [2]], inst.m)
    alloc = three_agent_2efx(inst)
    assert alloc.is_full
    assert check_alpha_efx(alloc, inst, 2).verdict


def test_refused_case_seed_raises_verification_error(monkeypatch):
    # a 2-EFX case seed that breaks the pool property (chore 3 costs more
    # than every bundle) is a fault of the case analysis, not bad input
    inst = tri([1, 1, 1, 99, 1, 1], [1, 1, 1, 99, 1, 1], [1, 1, 1, 99, 1, 1])
    seed = Allocation.from_bundles([{0}, {1}, {2}], 6)
    monkeypatch.setattr(three_agent, "solve_case", lambda *args: seed)
    with pytest.raises(VerificationError, match="seed refused.*chore 4"):
        three_agent_2efx(inst)


def test_a_table_seed_that_is_not_2efx_is_refused(monkeypatch):
    # role 1 holds the three costliest chores and roles 2 and 3 none; the
    # witnesses are 1-based
    monkeypatch.setitem(three_agent.CASE_SEEDS, "A1",
                        ([[(1, 1), (1, 2), (1, 3)], [], []], ()))
    inst = CASE_INSTANCES["A1"]
    with pytest.raises(VerificationError, match=re.escape(
            "case outcome not 2-EFX: agent 1, other 2, chore 1: 14 > 0; "
            "agent 1, other 2, chore 2: 15 > 0; agent 1, other 2, chore 3: "
            "19 > 0; trace=['case A1', 'seed']")):
        solve_case(inst, *classify_case(inst))


def test_small_m_uses_exhaustive_search():
    inst = tri([3, 2, 1], [1, 2, 3], [2, 1, 3])
    alloc = three_agent_2efx(inst)
    assert alloc.is_full
    assert check_alpha_efx(alloc, inst, 1).verdict


def test_small_m_trace_is_one_search_event():
    inst = tri([3, 2, 1], [1, 2, 3], [2, 1, 3])
    trace = []
    alloc = three_agent_2efx(inst, trace)
    assert [(e.kind, e.note, e.allocation) for e in trace] == [
        ("branch", "m <= 5: first EFX allocation found", alloc)]


def test_roles_invert_correctly():
    # permute the counterexample's agents; the output must stay 2-EFX
    perm = (2, 0, 1)
    oracles = tuple(COUNTEREXAMPLE.oracles[perm[a]] for a in range(3))
    inst = Instance(6, 3, oracles)
    alloc = three_agent_2efx(inst)
    assert check_alpha_efx(alloc, inst, 2).verdict


@pytest.mark.parametrize("family", ["additive", "capped_additive",
                                    "max_of_additive"])
def test_fuzzed_outputs_2efx(family, cycle_removal_guard):
    for seed in range(40):
        inst = generate_instance(family, 3, 6 + seed % 7, seed)
        alloc = three_agent_2efx(inst)
        assert alloc.is_full
        assert check_alpha_efx(alloc, inst, 2).verdict


def test_costly_chores_split_implies_pool_property():
    # whenever a case seed puts an agent's two most costly chores in
    # different bundles, the pool property holds for that agent
    from chorefair.oracles import top_chore_order

    for case, inst in CASE_INSTANCES.items():
        got, ctx = classify_case(inst)
        alloc = solve_case(inst, got, ctx)
        props = check_partial_property2(alloc, inst)
        for agent in range(3):
            order = top_chore_order(inst.oracles[agent])
            holders = []
            for chore in order[:2]:
                holders.extend(i for i, b in enumerate(alloc.bundles)
                               if chore in b)
            if len(holders) == 2 and holders[0] != holders[1]:
                assert props[agent]


def test_wrong_agent_count_rejected():
    with pytest.raises(PreconditionError):
        three_agent_2efx(generate_instance("additive", 4, 8, 1))
