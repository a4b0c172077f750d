"""End-to-end acceptance gate.

Each test exercises one headline guarantee over a large seeded suite and
prints a single PASS/FAIL line (bypassing capture so the line always
reaches the terminal), then asserts.
"""

import itertools
import random
import time
from collections import Counter

from chorefair import (
    Allocation,
    Event,
    Instance,
    check_alpha_efx,
    check_partial_property2,
    check_tefx,
    classify_case,
    counterexample_instance,
    exhaustive_search,
    generate_instance,
    guarantee_ratio,
    independent_alpha_efx,
    independent_tefx,
    is_alpha_efx,
    partial_ido_2efx,
    rival_counterexample_run,
    round_robin_allocate,
    tefx_three_group,
    tefx_two_group,
    three_agent_2efx,
    top_chore_order,
)
from chorefair.oracles import AdditiveOracle, MaxOfAdditiveOracle
from chorefair.round_robin import round_count
from chorefair.tefx import GroupSpec
from chorefair.three_agent import CASE_IDS

from support import (CASE_INSTANCES, deep_b_cases, perturb_nondegenerate,
                     two_group_cases, unit_potential_drops)

CYCLE_REMOVALS: list = []


def _report(number: int, ok: bool, detail: str) -> None:
    import conftest

    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_acceptance_1_counterexample_reproduction():
    started = time.perf_counter()
    run = rival_counterexample_run(26, 12)
    inst = counterexample_instance(26, 12)
    own = three_agent_2efx(inst)
    elapsed = time.perf_counter() - started
    ok = (
        run.allocation.bundles
        == (frozenset({1}), frozenset({2, 3, 4}), frozenset({0, 5}))
        and [sorted(g.edges) for g in run.graphs]
        == [[(0, 1)], [(0, 1)], [(0, 1), (1, 2)], [(0, 1), (2, 0)]]
        and run.ratio == 4
        and own.bundles == (frozenset({1, 4}), frozenset({2, 3, 5}),
                            frozenset({0}))
        and check_alpha_efx(own, inst, 1).verdict
        and elapsed < 1.0
    )
    _report(1, ok, f"rival ratio {run.ratio}, graphs and both allocations "
                   f"exact, {elapsed:.3f}s")


def test_acceptance_2_three_agent_suite(cycle_removal_guard):
    started = time.perf_counter()
    families = ("additive", "capped_additive", "max_of_additive")
    cases_seen = set()
    checked = 0
    for family in families:
        for seed in range(1000):
            inst = generate_instance(family, 3, 6 + seed % 7, seed)
            cases_seen.add(classify_case(inst)[0])
            alloc = three_agent_2efx(inst)
            assert alloc.is_full
            assert check_alpha_efx(alloc, inst, 2).verdict
            checked += 1
    # constructed instances cover any case random sampling misses
    for case, inst in CASE_INSTANCES.items():
        assert classify_case(inst)[0] == case
        alloc = three_agent_2efx(inst)
        assert check_alpha_efx(alloc, inst, 2).verdict
        cases_seen.add(case)
        checked += 1
    # one pinned instance per note path of the B2221 / B2222 analysis
    deep_b = deep_b_cases()
    paths_seen = set()
    for inst, _ in deep_b.values():
        trace = []
        alloc = three_agent_2efx(inst, trace)
        assert check_alpha_efx(alloc, inst, 2).verdict
        notes = [e.note for e in trace]
        paths_seen.add(tuple(notes[:notes.index("seed")]))
        checked += 1
    for seed in range(30):
        small = generate_instance("additive", 3, 3 + seed % 3, seed)
        assert exhaustive_search(small, "efx") is not None
    elapsed = time.perf_counter() - started
    CYCLE_REMOVALS.extend(cycle_removal_guard)
    ok = (cases_seen == set(CASE_IDS) and paths_seen == set(deep_b)
          and elapsed < 300)
    _report(2, ok, f"{checked} instances 2-EFX, cases {len(cases_seen)}/13, "
                   f"deep-B paths {len(paths_seen & set(deep_b))}/{len(deep_b)}, "
                   f"30 small instances have exact EFX, {elapsed:.1f}s")


def test_acceptance_3_partial_ido_suite(cycle_removal_guard):
    started = time.perf_counter()
    checked = 0
    for seed in range(300):
        n = 3 + seed % 4
        m = n + seed % (15 - n)
        inst = generate_instance("k_partial_ido", n, m, seed, k=n - 1)
        top = top_chore_order(inst.oracles[0])[: n - 1]
        seed_alloc = Allocation.from_bundles(
            [{c} for c in top] + [set()], m)
        assert check_alpha_efx(seed_alloc, inst, 1).verdict
        assert all(check_partial_property2(seed_alloc, inst))
        out = partial_ido_2efx(inst)
        assert out.is_full
        assert check_alpha_efx(out, inst, 2).verdict
        checked += 1
    elapsed = time.perf_counter() - started
    CYCLE_REMOVALS.extend(cycle_removal_guard)
    ok = checked == 300 and elapsed < 120
    _report(3, ok, f"{checked} ordered-instance runs: seed EFX, pool "
                   f"property holds, output 2-EFX, {elapsed:.1f}s")


def test_acceptance_4_grouped_tefx_suite(cycle_removal_guard):
    started = time.perf_counter()
    checked = 0
    for seed in range(300):
        rng = random.Random(seed)
        s1, s2 = rng.randint(1, 3), rng.randint(1, 3)
        s3 = rng.randint(0, 1)
        n = s1 + s2 + s3
        m = rng.randint(n, 14)
        c1 = MaxOfAdditiveOracle(
            [[rng.randint(1, 40) for _ in range(m)] for _ in range(2)])
        c2 = generate_instance("additive_ratio", 1, m, seed, alpha=2).oracles[0]
        oracles = [c1] * s1 + [c2] * s2
        if s3:
            oracles.append(AdditiveOracle(
                [rng.randint(1, 40) for _ in range(m)]))
        inst = Instance(m, n, tuple(oracles))
        groups = GroupSpec(frozenset(range(s1)),
                           frozenset(range(s1, s1 + s2)),
                           frozenset({n - 1}) if s3 else frozenset())
        out = tefx_three_group(inst, groups)
        assert check_tefx(out, inst).verdict
        # replay the two-group core with a trace: the in-loop feasibility
        # assertions fire on every iteration, and the potential (total
        # chores on the front bundles) falls by exactly 1 per move
        trace: list[Event] = []
        tefx_two_group(n, c1, c2, s2 + s3 if s3 else s2, trace=trace)
        assert unit_potential_drops(trace, n)
        checked += 1
    # the random shape above rarely moves two chores in one level, so also
    # replay the cases chosen to, counting the pairs of moves compared
    pairs = 0
    for n, c1, c2, _ in two_group_cases():
        trace = []
        tefx_two_group(n, c1, c2, n, trace=trace)
        assert unit_potential_drops(trace, n)
        pairs += sum(count - 1 for count in
                     Counter(move.step for move in trace).values())
    elapsed = time.perf_counter() - started
    CYCLE_REMOVALS.extend(cycle_removal_guard)
    ok = checked == 300 and pairs >= 1 and elapsed < 180
    _report(4, ok, f"{checked} grouped instances tEFX with per-iteration "
                   f"invariants and unit potential drops ({pairs} pairs of "
                   f"moves compared), {elapsed:.1f}s")


def test_acceptance_5_round_robin_suite():
    started = time.perf_counter()
    checked = 0
    alphas = (2, 3, 5)
    for seed in range(500):
        alpha = alphas[seed % 3]
        n = 2 + seed % 4
        m = 2 * n + 1 + seed % (2 * n)  # ceil(m/n) >= 3
        inst = generate_instance("additive_ratio", n, m, seed, alpha=alpha)
        alloc, _ = round_robin_allocate(inst)
        bound = guarantee_ratio(alpha, round_count(inst))
        assert check_alpha_efx(alloc, inst, bound).verdict
        if alpha <= 2:
            assert check_tefx(alloc, inst).verdict
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 500 and elapsed < 60
    _report(5, ok, f"{checked} ratio-bounded instances meet the pick-order "
                   f"guarantee (tEFX when the ratio is 2), {elapsed:.1f}s")


def test_acceptance_6_perturbation_suite():
    started = time.perf_counter()
    checked = 0
    for seed in range(100):
        n = 2 + seed % 2
        m = 3 + seed % 5 if n == 2 else 3 + seed % 4
        inst = generate_instance("additive", n, m, seed)
        pert, _ = perturb_nondegenerate(inst)
        subsets = [frozenset(s)
                   for r in range(m + 1)
                   for s in itertools.combinations(range(m), r)]
        for a in range(n):
            base, new = inst.oracles[a], pert.oracles[a]
            costs = {}
            for s in subsets:
                costs[s] = new.cost(s)
            # non-degeneracy: all perturbed subset costs distinct
            assert len(set(costs.values())) == len(subsets)
            # order preservation over every subset pair
            by_base = sorted(subsets, key=lambda s: (base.cost(s), costs[s]))
            for s, t in zip(by_base, by_base[1:]):
                if base.cost(s) < base.cost(t):
                    assert costs[s] < costs[t]
        # a fairness verdict under the perturbed costs implies one under
        # the originals, over every full allocation
        for assignment in itertools.product(range(n), repeat=m):
            bundles = [set() for _ in range(n)]
            for chore, agent in enumerate(assignment):
                bundles[agent].add(chore)
            alloc = Allocation.full(bundles)
            for alpha in (1, 2):
                if is_alpha_efx(alloc, pert, alpha):
                    assert is_alpha_efx(alloc, inst, alpha)
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 100 and elapsed < 120
    _report(6, ok, f"{checked} instances: perturbation keeps subset order, "
                   f"breaks all ties, and preserves fairness verdicts, "
                   f"{elapsed:.1f}s")


def test_acceptance_7_checker_oracle_agreement():
    started = time.perf_counter()
    comparisons = 0
    for seed in range(100):
        m = 4 + seed % 5  # 3^m <= 3^8
        inst = generate_instance("additive" if seed % 2 else "capped_additive",
                                 3, m, seed)
        rng = random.Random(seed)
        for _ in range(200):
            bundles = [set() for _ in range(3)]
            for chore in range(m):
                bundles[rng.randrange(3)].add(chore)
            alloc = Allocation.full(bundles)
            for alpha in (1, 2):
                assert (check_alpha_efx(alloc, inst, alpha).verdict
                        == independent_alpha_efx(alloc, inst, alpha))
            assert (check_tefx(alloc, inst).verdict
                    == independent_tefx(alloc, inst))
            comparisons += 3
    elapsed = time.perf_counter() - started
    ok = comparisons == 100 * 200 * 3 and elapsed < 120
    _report(7, ok, f"{comparisons} verdicts agree with the independent "
                   f"enumeration, {elapsed:.1f}s")


def test_acceptance_8_cycle_removal_preserves_fairness():
    # suites 2-4 ran under a guard that re-checks the 1-EFX and 2-EFX
    # verdicts after every single cycle removal and fails fast on violation
    ok = len(CYCLE_REMOVALS) > 0
    _report(8, ok, f"{len(CYCLE_REMOVALS)} individual cycle removals "
                   f"checked across the three allocation suites, none broke "
                   f"a fairness verdict")
