import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from chorefair import (
    AdditiveOracle,
    Allocation,
    CappedAdditiveOracle,
    DimensionError,
    Event,
    Instance,
    MaxOfAdditiveOracle,
    PreconditionError,
    TabulatedOracle,
    VerificationError,
    build_top_trading_graph,
    check_alpha_efx,
    check_partial_property2,
    eliminate_top_trading_cycles,
    extend_partial,
    generate_instance,
    partial_ido_2efx,
    round_robin_allocate,
    three_agent_2efx,
)
from chorefair import envy_graph, oracles
from chorefair.envy_graph import _ttece
from chorefair.oracles import cost_rows, top_chore_order

from support import CASE_INSTANCES, COUNTEREXAMPLE, PerturbedOracle, tri


def test_counterexample_seed_graph():
    seed = Allocation.from_bundles([{1}, {2}, {0}], 6)
    succ = build_top_trading_graph(seed, COUNTEREXAMPLE)
    assert succ == (1, None, None)  # the one edge 0 -> 1; sinks 1 and 2
    assert envy_graph._cycle(succ, range(3)) is None


def test_counterexample_mid_graph():
    alloc = Allocation.from_bundles([{1}, {2, 3, 4}, {0}], 6)
    assert build_top_trading_graph(alloc, COUNTEREXAMPLE) == (1, 2, None)


def test_no_edges_when_all_content():
    inst = tri([1, 9, 9, 9, 9, 9], [9, 1, 9, 9, 9, 9], [9, 9, 1, 9, 9, 9])
    alloc = Allocation.from_bundles([{0}, {1}, {2}], 6)
    assert build_top_trading_graph(alloc, inst) == (None, None, None)


def test_two_agent_swap_cycle():
    inst = Instance(2, 2, (AdditiveOracle([1, 10]), AdditiveOracle([10, 1])))
    alloc = Allocation.full([{1}, {0}])
    removed = []
    result, succ = eliminate_top_trading_cycles(
        alloc, inst, lambda cycle, snap: removed.append(cycle))
    assert envy_graph._cycle(succ, range(2)) is None
    assert result.bundles == (frozenset({0}), frozenset({1}))
    assert len(removed) == 1 and set(removed[0]) == {0, 1}


def _reference_cycle(succ, starts):
    """Walk from each start, keeping the path and every node seen so far."""
    seen = set()
    for start in starts:
        path, node = [], start
        while node is not None and node not in seen:
            if node in path:
                return tuple(path[path.index(node):])
            path.append(node)
            node = succ[node]
        seen.update(path)
    return None


def test_cycle_matches_path_walk_reference():
    # random graphs of out-degree <= 1, sinks included, searched from every
    # agent, from a few in random order, and from starts named twice
    rng = random.Random("cycle-reference")
    found = 0
    for _ in range(2000):
        n = rng.randint(1, 9)
        succ = [None if rng.random() < 0.2 else rng.randrange(n) for _ in range(n)]
        succ = [None if j == i else j for i, j in enumerate(succ)]
        for starts in (range(n), rng.sample(range(n), rng.randint(0, n)),
                       [rng.randrange(n) for _ in range(n)]):
            expected = _reference_cycle(succ, starts)
            assert envy_graph._cycle(succ, starts) == expected
            found += expected is not None
    assert found > 1000


def test_elimination_refuses_a_cycle_that_never_clears():
    # the cost rows left out of the rotated columns: the graph never
    # changes, so the same cycle comes back every round until the n + 1
    # rounds run out
    costs = [[5, 1, 9], [9, 5, 1], [1, 9, 5]]
    succ = envy_graph._successors(costs)
    bundles = [[0], [1], [2]]
    rotated = []
    with pytest.raises(VerificationError, match="failed to terminate in n rounds"):
        for cycle in envy_graph._eliminate(succ, (bundles,), costs):
            rotated.append(cycle)
    assert rotated == [(0, 1, 2)] * 4
    assert costs == [[5, 1, 9], [9, 5, 1], [1, 9, 5]]


def test_shared_oracles_are_valued_once(monkeypatch):
    # identical groups share one oracle object per group: cost_rows values
    # each object once, and each agent gets a list of its own, which the
    # extension grows in place without counting a chore twice
    inst = generate_instance("identical_groups", 12, 60, 1, sizes=(6, 6))
    assert len({id(o) for o in inst.oracles}) == 2
    alloc = round_robin_allocate(inst)[0]
    valued = []
    summed = oracles._summed_rows
    monkeypatch.setattr(oracles, "_summed_rows", lambda rows, bundles: (
        valued.append(len(rows)) or summed(rows, bundles)))
    rows = cost_rows(inst.oracles, alloc.bundles)
    assert valued == [2]
    assert rows == [[o.units(b) for b in alloc.bundles] for o in inst.oracles]
    assert len({id(row) for row in rows}) == 12
    for n, sizes in ((6, (3, 3)), (8, (5, 2, 1)), (20, (20,))):
        inst = generate_instance("identical_groups", n, 3 * n, 2, sizes=sizes)
        chores = random.Random(n).sample(range(inst.m), inst.m)
        seed = Allocation.from_bundles([{c} for c in chores[:n]], inst.m)
        expected: list = []
        result = _reference_ttece(seed, inst, chores[n:], expected)
        trace: list = []
        assert _ttece(seed, inst, chores[n:], trace) == result
        assert trace == expected


def test_acyclic_input_unchanged():
    seed = Allocation.from_bundles([{1}, {2}, {0}], 6)
    assert eliminate_top_trading_cycles(seed, COUNTEREXAMPLE) == (
        seed, build_top_trading_graph(seed, COUNTEREXAMPLE))


def test_cycle_elimination_permutes_bundles():
    inst = tri([1, 2, 30, 20, 10, 3], [30, 1, 2, 10, 20, 3], [2, 30, 1, 20, 3, 10])
    alloc = Allocation.from_bundles([{2, 3}, {0, 4}, {1, 5}], 6)
    result, succ = eliminate_top_trading_cycles(alloc, inst)
    assert set(result.bundles) == set(alloc.bundles)
    for agent in range(3):
        oracle = inst.oracles[agent]
        assert oracle.cost(result.bundles[agent]) <= oracle.cost(alloc.bundles[agent])
    assert succ == build_top_trading_graph(result, inst)
    assert envy_graph._cycle(succ, range(3)) is None


def test_extension_witness_counts_eligible_agents():
    inst = tri([10, 6, 4, 1, 1, 1], [6, 10, 3, 1, 1, 1],
               [4, 3, 10, 1, 1, 1])
    seed = Allocation.from_bundles([{1}, {2}, {0}], 6)
    assert check_partial_property2(seed, inst) == (True, True, True)
    assert extend_partial(seed, inst).is_full


def test_extension_witness_failure_names_chore():
    inst = tri([1, 1, 1, 99, 1, 1], [1, 1, 1, 99, 1, 1], [1, 1, 1, 99, 1, 1])
    seed = Allocation.from_bundles([{0}, {1}, {2}], 6)  # pool chore 3 too big
    with pytest.raises(PreconditionError, match="chore 4"):  # named 1-based
        extend_partial(seed, inst)


def test_extend_partial_rejects_wrong_shapes():
    # the pool property check runs the shape check first, so these raise a
    # typed error rather than an IndexError from an oracle
    inst = tri([1, 1, 1, 9, 1, 1], [1, 1, 1, 9, 1, 1], [1, 1, 1, 9, 1, 1])
    with pytest.raises(DimensionError, match="2 bundles"):
        extend_partial(Allocation.from_bundles([{0}, {1}], 6), inst)
    singletons = (frozenset({0}), frozenset({1}), frozenset({2}))
    for bundles, pool in [(singletons[:2] + (frozenset({6}),), {2, 3, 4, 5}),
                          (singletons, {3, 4, 5, 6})]:  # chore m = 6
        with pytest.raises(DimensionError, match="outside the instance"):
            extend_partial(Allocation(bundles, frozenset(pool)), inst)


def test_extend_partial_identical_agents():
    o = AdditiveOracle([5, 4, 3, Fraction(9, 10), Fraction(8, 10), Fraction(7, 10)])
    inst = Instance(6, 3, (o, o, o))
    seed = Allocation.from_bundles([{2}, {1}, {0}], 6)
    full = extend_partial(seed, inst, alpha=1)
    assert full.bundles == (frozenset({2, 3, 4}), frozenset({1, 5}),
                            frozenset({0}))
    assert check_alpha_efx(full, inst, 2).verdict


def test_extend_partial_empty_pool_identity():
    alloc = Allocation.full([{0}, {1}, {2, 3, 4, 5}])
    inst = tri([1, 2, 3, 1, 1, 1], [2, 1, 3, 1, 1, 1], [9, 9, 1, 1, 1, 1])
    assert extend_partial(alloc, inst, 1) == alloc


def test_extend_partial_trace_and_iteration_count(cycle_removal_guard):
    inst = generate_instance("k_partial_ido", 3, 9, 17, k=2)
    from chorefair.oracles import top_chore_order
    top = top_chore_order(inst.oracles[0])[:2]
    seed = Allocation.from_bundles([{top[0]}, {top[1]}, set()], 9)
    trace = []
    full = extend_partial(seed, inst, 1, trace=trace)
    placements = [e for e in trace if e.kind == "place"]
    assert len(placements) == 7  # one outer iteration per pool chore
    assert [e.chore for e in placements] == sorted(seed.pool)
    assert placements[-1].allocation == full
    assert full.is_full
    for event in trace:
        assert event.kind in ("place", "cycle")
        assert event.allocation is not None


def test_extend_partial_rejects_bad_input():
    # partial allocation that is not 1-EFX over allocated bundles
    inst = tri([1, 1, 9, 9, 1, 1], [1, 1, 9, 9, 1, 1], [1, 1, 9, 9, 1, 1])
    seed = Allocation.from_bundles([{2, 3}, {0}, {1}], 6)
    with pytest.raises(PreconditionError):
        extend_partial(seed, inst, alpha=1)


def test_solvers_enforce_extension_guarantee(monkeypatch):
    # an extension that hands every chore to agent 0 is not 2-EFX; the
    # solvers that finish partial seeds must refuse it
    calls = []

    def everything_to_agent_0(alloc, instance, pool_order, trace=None):
        calls.append(alloc)
        return Allocation.full([range(instance.m)] + [()] * (instance.n - 1))

    monkeypatch.setattr(envy_graph, "_ttece", everything_to_agent_0)
    with pytest.raises(VerificationError):
        three_agent_2efx(CASE_INSTANCES["B1"])  # a partial case seed
    with pytest.raises(VerificationError):
        partial_ido_2efx(generate_instance("k_partial_ido", 4, 10, 2, k=3))
    assert len(calls) == 2 and not any(a.is_full for a in calls)


def test_extension_failure_lists_witnesses_one_based(monkeypatch):
    # up to three witnesses, agents and chores 1-based, both sides as p/q
    monkeypatch.setattr(envy_graph, "_ttece", lambda alloc, instance, *args: (
        Allocation.full([range(instance.m), (), ()])))
    rows = ([10, 9, 5, 4, 3, 2], [18, 20, 8, 6, 4, 2], [3, 30, 27, 9, 6, 2])
    inst = tri(*([Fraction(c, 2) for c in row] for row in rows))  # case B1
    with pytest.raises(VerificationError, match=re.escape(
            "extension lost the 2-EFX guarantee: agent 1, other 2, chore 1: "
            "23/2 > 0; agent 1, other 2, chore 2: 12 > 0; agent 1, other 2, "
            "chore 3: 14 > 0")):
        three_agent_2efx(inst)


def _pool_rejection(alloc, inst):
    """The pool-property message extend_partial raises, or None when it
    accepts the pool (it may still reject the input as not alpha-EFX)."""
    try:
        extend_partial(alloc, inst)
    except PreconditionError as err:
        return None if "-EFX" in str(err) else str(err)
    return None


def test_pool_property_matches_extension_witness():
    # check_partial_property2, also spelled out chore by chore here, is the
    # predicate extend_partial enforces at entry; an instance whose agents
    # all share agent i's oracle makes extend_partial judge agent i alone
    rng = random.Random(5)
    seen = set()
    for _ in range(300):
        n, m = rng.randint(2, 4), rng.randint(3, 8)
        # small integer costs, so pool chores often tie a bundle's cost
        inst = Instance(m, n, tuple(
            AdditiveOracle([rng.randint(1, 4) for _ in range(m)])
            for _ in range(n)))
        alloc = Allocation.from_bundles(
            [{c for c in range(m) if rng.random() < 0.3 and c % n == j}
             for j in range(n)], m)
        props = check_partial_property2(alloc, inst)
        for i, ok in enumerate(props):
            oracle = inst.oracles[i]
            assert ok == all(
                sum(oracle.cost((b,)) <= oracle.cost(x) for x in alloc.bundles)
                >= n - 1 for b in alloc.pool)
            alone = Instance(m, n, (oracle,) * n)
            assert (_pool_rejection(alloc, alone) is None) == ok
            seen.add(ok)
        rejection = _pool_rejection(alloc, inst)
        if all(props):
            assert rejection is None
        else:
            assert rejection.startswith(f"agent {props.index(False) + 1} ")
    assert seen == {True, False}


def _bundle_costs(row, bundles):
    return [sum((row[c] for c in b), Fraction(0)) for b in bundles]


def _reference_succ(cost_rows, bundles):
    """Agent i's edge, from Fraction costs: the lowest-index bundle among
    those strictly cheaper than i's own that no other bundle undercuts."""
    succ = []
    for i, row in enumerate(cost_rows):
        costs = _bundle_costs(row, bundles)
        best = None
        for j, cost in enumerate(costs):
            if cost < costs[i] and (best is None or cost < costs[best]):
                best = j
        succ.append(best)
    return tuple(succ)


def test_top_trading_graph_matches_reference():
    # small costs (zeros and halves included) make equal bundle costs
    # common, so strict envy and the lowest-index tie-break both decide
    rng = random.Random(11)
    tied_edges = no_edge = 0
    for _ in range(400):
        n, m = rng.randint(2, 5), rng.randint(1, 9)
        rows = [[Fraction(rng.randint(0, 3), rng.choice((1, 2))) for _ in range(m)]
                for _ in range(n)]
        inst = Instance(m, n, tuple(AdditiveOracle(row) for row in rows))
        owner = [rng.randrange(n + 1) for _ in range(m)]  # n: the pool
        alloc = Allocation.from_bundles(
            [{c for c in range(m) if owner[c] == j} for j in range(n)], m)
        expected = _reference_succ(rows, alloc.bundles)
        assert build_top_trading_graph(alloc, inst) == expected
        for i, j in enumerate(expected):
            if j is None:
                no_edge += 1
                continue
            costs = _bundle_costs(rows[i], alloc.bundles)
            tied_edges += costs.count(costs[j]) > 1
    assert tied_edges > 100 and no_edge > 100


def _reference_ttece(alloc, instance, pool_order, trace):
    """The extension loop without a cost matrix: eliminate cycles on the
    whole allocation before every placement, then grow the sink's bundle."""
    record_cycle = None
    if trace is not None:
        def record_cycle(cycle, snapshot):
            trace.append(Event("cycle", cycle, allocation=snapshot))

    current = alloc
    for chore in pool_order:
        current, succ = eliminate_top_trading_cycles(
            current, instance, record_cycle)
        sink = succ.index(None)
        current = Allocation(
            tuple(b | {chore} if i == sink else b
                  for i, b in enumerate(current.bundles)),
            current.pool - {chore})
        if trace is not None:
            trace.append(Event("place", (sink,), chore, allocation=current))
    return current


def _random_oracle(rng, shape, m):
    def row():  # small values, zeros and halves: many equal bundle costs
        return [Fraction(rng.randint(0, 6), rng.choice((1, 2))) for _ in range(m)]

    if shape == "additive":
        return AdditiveOracle(row())
    if shape == "capped":
        costs = row()
        return CappedAdditiveOracle(costs, sum(costs) * Fraction(rng.randint(1, 9), 10))
    if shape == "max":
        return MaxOfAdditiveOracle([row() for _ in range(rng.randint(2, 3))])
    if shape == "table":
        return TabulatedOracle(m, {s: rng.randint(0, 4 * len(s))
                                   for r in range(m + 1)
                                   for s in combinations(range(m), r)})
    return PerturbedOracle(_random_oracle(rng, rng.choice(("additive", "max")), m),
                           Fraction(1, 2 ** (m + 3)))


def _two_swaps():
    """Agents 0, 1 and agents 2, 3 each hold the other's favourite bundle:
    one elimination rotates two disjoint cycles.  Every shape but the table."""
    def costs(own, favourite):
        row = [5] * 6
        row[own], row[favourite] = 10, 1
        return row

    inst = Instance(6, 4, (
        AdditiveOracle(costs(0, 1)),
        CappedAdditiveOracle(costs(1, 0), 14),
        PerturbedOracle(MaxOfAdditiveOracle([costs(2, 3), [1] * 6]), Fraction(1, 256)),
        MaxOfAdditiveOracle([costs(3, 2), [2] * 6]),
    ))
    return inst, Allocation.from_bundles([{0}, {1}, {2}, {3}], 6)


def _tie_cases(rng):
    """Tie-heavy extensions: each instance draws its agents from two or
    three oracle objects, so agents share one (duplicated agents), and each
    object's row is all one value (a bundle costs its size times it), has
    zero-cost chores, or is small and random; every shape but the table."""
    def row(m):
        style = rng.randrange(3)
        if style == 0:
            return [rng.randint(1, 3)] * m
        if style == 1:
            return [rng.choice((0, 0, 1, 2)) for _ in range(m)]
        return [rng.randint(0, 4) for _ in range(m)]

    def oracle(m):
        shape = rng.choice(("additive", "additive", "capped", "max"))
        if shape == "additive":
            return AdditiveOracle(row(m))
        if shape == "capped":
            costs = row(m)
            return CappedAdditiveOracle(costs, max(sum(costs) - rng.randint(0, 3), 0))
        return MaxOfAdditiveOracle([row(m) for _ in range(rng.randint(2, 3))])

    # by hand: cycles (0, 3) and (1, 2); agent 2 ties bundles 1 and 3 for
    # its cheapest, so rotating (0, 3) moves its edge to bundle 0, the
    # lowest index now at that value, and (1, 2) is no cycle any more
    rows = ([9, 5, 5, 1, 1], [5, 9, 1, 5, 1], [7, 2, 8, 2, 1], [1, 5, 5, 9, 1])
    cases = [(Instance(5, 4, tuple(map(AdditiveOracle, rows))),
              Allocation.from_bundles([{0}, {1}, {2}, {3}], 5), [4])]
    for _ in range(200):
        n = rng.randint(2, 7)
        m = rng.randint(n + 1, 10)
        objects = [oracle(m) for _ in range(rng.randint(2, 3))]
        inst = Instance(m, n, tuple(rng.choice(objects) for _ in range(n)))
        chores = rng.sample(range(m), m)
        owner = dict(zip(chores, range(n)))  # a chore for every agent
        owner.update((c, rng.randrange(n) if rng.random() < 0.3 else n)
                     for c in chores[n:])  # n: the pool
        alloc = Allocation.from_bundles(
            [{c for c in range(m) if owner[c] == j} for j in range(n)], m)
        cases.append((inst, alloc, rng.sample(sorted(alloc.pool), len(alloc.pool))))
    return cases


def _tied_remaps(inst, alloc, trace):
    """Rotations in ``trace`` that leave an agent off the cycle whose
    cheapest value, below its own, is held by two or more bundles, one of
    them rotated: its new edge is the lowest index holding that value."""
    count, prev = 0, alloc
    for event in trace:
        if event.kind == "cycle":
            for i, oracle in enumerate(inst.oracles):
                row = [oracle.units(b) for b in prev.bundles]
                best = min(row)
                count += (i not in event.agents and row[i] > best
                          and row.count(best) > 1
                          and any(row[j] == best for j in event.agents))
        prev = event.allocation
    return count


def test_ttece_matches_reference_loop():
    # every oracle shape, mixed within an instance; each agent starts with
    # a chore, and pool chores are placed in a random order, with and
    # without a trace.  Additive agents grow their costs in place and the
    # others through oracle states, so some instances have agent 0
    # additive and every other agent not; and all-additive IDO instances
    # from their shared-top seed, the extension's many-agent shape
    rng = random.Random(8)
    shapes = ("additive", "capped", "max", "table", "perturbed")
    cases = [_two_swaps() + ([5, 4],)]
    for n in (16, 20, 24):
        for seed in range(2):
            inst = generate_instance("k_partial_ido", n, 3 * n, seed, k=n - 1)
            top = top_chore_order(inst.oracles[0])[:n - 1]
            alloc = Allocation.from_bundles([{c} for c in top] + [set()], inst.m)
            cases.append((inst, alloc, rng.sample(sorted(alloc.pool), len(alloc.pool))))
    for trial in range(400):
        n = rng.randint(2, 5)
        m = rng.randint(n + 1, 8)
        if trial < 300:
            picked = [shapes[(trial + i) % 5] for i in range(n)]
        else:
            picked = ["additive"] + [rng.choice(shapes[1:4]) for _ in range(n - 1)]
        inst = Instance(m, n, tuple(_random_oracle(rng, shape, m) for shape in picked))
        chores = rng.sample(range(m), m)
        owner = {c: j for j, c in enumerate(chores[:n])}
        owner.update((c, rng.randrange(n) if rng.random() < 0.3 else n)
                     for c in chores[n:])  # n: the pool
        alloc = Allocation.from_bundles(
            [{c for c in range(m) if owner[c] == j} for j in range(n)], m)
        cases.append((inst, alloc, rng.sample(sorted(alloc.pool), len(alloc.pool))))
    # tie-heavy cases last: a rotation that moves an off-cycle agent's tied
    # cheapest value takes the remap's lowest-index path
    tied = len(cases)
    cases += _tie_cases(rng)
    cycles = multi = rotated_first = mixed_rotated_first = tied_remaps = 0
    for case, (inst, alloc, pool_order) in enumerate(cases):
        expected: list = []
        result = _reference_ttece(alloc, inst, pool_order, expected)
        trace: list = []
        assert _ttece(alloc, inst, pool_order, trace) == result
        assert trace == expected
        assert _ttece(alloc, inst, pool_order) == result
        if case >= tied:
            tied_remaps += _tied_remaps(inst, alloc, trace)
        kinds = [event.kind for event in trace]
        cycles += kinds.count("cycle")
        multi += sum(a == b == "cycle" for a, b in zip(kinds, kinds[1:]))
        # a bundle's oracle states are built on its first placement, so
        # count first placements on a bundle that a rotation moved
        origin, placed = list(range(inst.n)), [False] * inst.n
        for event in trace:
            if event.kind == "cycle":
                source = event.agents[1:] + event.agents[:1]
                for column in (origin, placed):
                    for j, value in zip(event.agents, [column[k] for k in source]):
                        column[j] = value
            else:
                (sink,) = event.agents
                moved = not placed[sink] and origin[sink] != sink
                rotated_first += moved
                mixed_rotated_first += moved and [o.additive for o in inst.oracles] == [
                    True] + [False] * (inst.n - 1)
                placed[sink] = True
    assert cycles > 100 and multi >= 1 and rotated_first >= 1
    assert mixed_rotated_first >= 1 and tied_remaps >= 1


def test_ttece_steps_match_rebuilt_graph():
    # the extension keeps successors incrementally; at every step they must
    # give the sink and the cycle that the graph rebuilt from the previous
    # snapshot gives.  Ordered instances up to n = 30 from their shared-top
    # seed, and every oracle shape, the non-monotone table included, from
    # random seeds that may start with cycles
    rng = random.Random(21)
    shapes = ("additive", "capped", "max", "table", "perturbed")
    cases = []
    for n in (6, 12, 20, 30):
        for seed in range(3):
            inst = generate_instance("k_partial_ido", n, 3 * n, seed, k=n - 1)
            top = top_chore_order(inst.oracles[0])[:n - 1]
            cases.append((inst, Allocation.from_bundles(
                [{c} for c in top] + [set()], inst.m)))
    for trial in range(150):  # two in three tables: only they lower a cost
        shape = shapes[trial % 5] if trial % 3 == 0 else "table"
        n = rng.randint(3, 6) if shape == "table" else rng.randint(6, 30)
        m = rng.randint(n + 1, 9) if shape == "table" else rng.randint(n + 1, 3 * n)
        inst = Instance(m, n, tuple(_random_oracle(rng, shape, m) for _ in range(n)))
        chores = rng.sample(range(m), m)
        owner = dict(zip(chores, range(n)))
        owner.update((c, rng.randrange(n) if rng.random() < 0.3 else n)
                     for c in chores[n:])  # n: the pool
        cases.append((inst, Allocation.from_bundles(
            [{c for c in range(m) if owner[c] == j} for j in range(n)], m)))
    cases += [(inst, alloc) for inst, alloc, _ in _tie_cases(rng)]
    cycles = fell = 0
    for inst, alloc in cases:
        trace: list = []
        result = _ttece(alloc, inst, sorted(alloc.pool), trace)
        prev = alloc
        for event in trace:
            succ = build_top_trading_graph(prev, inst)
            if event.kind == "cycle":
                assert event.agents == envy_graph._cycle(succ, range(inst.n))
                cycles += 1
            else:
                assert envy_graph._cycle(succ, range(inst.n)) is None
                (sink,) = event.agents
                assert sink == succ.index(None)
                fell += any(o.units(event.allocation.bundles[sink])
                            < o.units(prev.bundles[sink]) for o in inst.oracles)
            prev = event.allocation
        assert prev == result
    assert cycles > 50 and fell > 0
