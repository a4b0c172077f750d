import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chorefair
from chorefair import (
    AdditiveOracle,
    Allocation,
    CappedAdditiveOracle,
    EnumerationLimitError,
    Instance,
    MaxOfAdditiveOracle,
    PreconditionError,
    RowOracle,
    TabulatedOracle,
    check_alpha_efx,
    check_k_partial_ido,
    check_tefx,
    generate_instance,
    ratio_bound,
    top_chore_order,
    validate_oracle,
)
from chorefair.core import ROW_KERNEL_BUNDLES
from chorefair.oracles import cost_rows, env_enum_limit

from support import (
    COUNTEREXAMPLE,
    PerturbedOracle,
    all_subsets,
    compute_delta,
    perturb_nondegenerate,
)


def test_empty_set_costs_zero():
    for oracle in (AdditiveOracle([3, 1]), CappedAdditiveOracle([3, 1], 2),
                   MaxOfAdditiveOracle([[3, 1], [1, 3]])):
        assert oracle.cost(()) == 0


def test_additive_is_a_sum():
    oracle = AdditiveOracle([Fraction(1, 2), 2, 3])
    assert oracle.cost({0, 2}) == Fraction(7, 2)
    assert [oracle.cost((c,)) for c in range(3)] == [Fraction(1, 2), 2, 3]


def test_capped_additive_truncates():
    oracle = CappedAdditiveOracle([3, 3, 3], 5)
    assert oracle.cost({0}) == 3
    assert oracle.cost({0, 1}) == 5
    assert oracle.cost({0, 1, 2}) == 5


def test_max_of_additive():
    oracle = MaxOfAdditiveOracle([[5, 0], [0, 4]])
    assert oracle.cost({0, 1}) == 5
    assert oracle.cost({1}) == 4


def test_tabulated_requires_full_table():
    with pytest.raises(ValueError):
        TabulatedOracle(2, {frozenset(): 0})
    with pytest.raises(ValueError, match="non-negative"):
        TabulatedOracle(1, {(): 0, (0,): -1})
    values = {s: sum(s) + len(s) for s in all_subsets(2)}
    values[frozenset()] = 0
    oracle = TabulatedOracle(2, values)
    assert oracle.cost({0, 1}) == 3


def test_tabulated_keys_are_the_subsets():
    # the right number of keys, but one names a chore outside 0..m-1
    with pytest.raises(ValueError, match="subsets of chores 0..0"):
        TabulatedOracle(1, {(): 0, (7,): 1})
    with pytest.raises(ValueError, match="subsets of chores 0..1"):
        TabulatedOracle(2, {(): 0, (0,): 1, (1,): 1, (0, 2): 2})


def test_oracle_identity():
    costs = [Fraction(1, 2), 3]
    table = {s: len(s) for s in all_subsets(2)}
    for make in (lambda: AdditiveOracle(costs),
                 lambda: CappedAdditiveOracle(costs, 3),
                 lambda: MaxOfAdditiveOracle([costs, [3, 1]]),
                 lambda: TabulatedOracle(2, table),
                 lambda: PerturbedOracle(AdditiveOracle(costs), Fraction(1, 8))):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    # equality follows the cost function's shape, not the constructor
    one_row = MaxOfAdditiveOracle([costs])
    assert AdditiveOracle(costs) == one_row == RowOracle([costs])
    assert hash(AdditiveOracle(costs)) == hash(one_row)
    # rows are sorted and de-duplicated
    assert MaxOfAdditiveOracle([costs, [3, 1]]) == MaxOfAdditiveOracle([[3, 1], costs])
    assert MaxOfAdditiveOracle([costs, costs]) == one_row
    assert MaxOfAdditiveOracle([costs, costs]).kind == "additive"
    assert CappedAdditiveOracle(costs, 3) == RowOracle([costs], 3)
    # different values or a cap: unequal
    assert AdditiveOracle(costs) != CappedAdditiveOracle(costs, 10)
    assert AdditiveOracle(costs) != AdditiveOracle([1, 3])
    assert CappedAdditiveOracle(costs, 3) != CappedAdditiveOracle(costs, 4)
    assert TabulatedOracle(2, table) != TabulatedOracle(
        2, {**table, frozenset({0, 1}): 3})
    assert len({AdditiveOracle(costs), AdditiveOracle(costs),
                MaxOfAdditiveOracle([costs]),
                CappedAdditiveOracle(costs, 10)}) == 2
    assert repr(AdditiveOracle([1])) == "RowOracle(((Fraction(1, 1),),), None)"
    assert repr(TabulatedOracle(2, table)) == "TabulatedOracle(m=2)"


@pytest.mark.parametrize("rows, cap, message", [
    ([[1, -1]], None, "non-negative"),
    ([[1, 2]], -1, "non-negative"),
    ([[1, 2], [3]], None, "equal length"),
    ([], None, "at least one row"),
    ([[1, 2], [2, 1]], 3, "exactly one row"),
])
def test_row_oracle_rejects_bad_shapes(rows, cap, message):
    with pytest.raises(ValueError, match=message):
        RowOracle(rows, cap)


def test_out_of_range_chore_rejected():
    with pytest.raises(IndexError):
        AdditiveOracle([1, 2]).cost({5})


def test_validate_oracle_families():
    for oracle in (AdditiveOracle([4, 2, 1]), CappedAdditiveOracle([4, 2, 1], 5),
                   MaxOfAdditiveOracle([[4, 2, 1], [1, 2, 4]])):
        results = validate_oracle(oracle, checks=("monotone", "subadditive"))
        assert results == {"monotone": (), "subadditive": ()}


def test_validate_catches_violations():
    values = {s: len(s) for s in all_subsets(2)}
    values[frozenset({0, 1})] = 0  # smaller than its subsets: not monotone
    oracle = TabulatedOracle(2, values)
    assert validate_oracle(oracle, checks=("monotone",))["monotone"] == (
        ((0,), 1), ((1,), 0))
    # monotone, but the pair costs more than its two chores apart
    oracle = TabulatedOracle(2, {(): 0, (0,): 1, (1,): 1, (0, 1): 3})
    assert validate_oracle(oracle, checks=("monotone", "subadditive")) == {
        "monotone": (), "subadditive": (((0,), (1,)), ((1,), (0,)))}


def test_perturbation_breaks_each_tie():
    # each pair is (first subset with the cost, later subset matching it)
    oracle = AdditiveOracle([1, 1, 2])
    seen, ties = {}, []
    for sub in all_subsets(3):
        first = seen.setdefault(oracle.cost(sub), sub)
        if first != sub:
            ties.append((tuple(sorted(first)), tuple(sorted(sub))))
    assert ties == [((0,), (1,)), ((2,), (0, 1)), ((0, 2), (1, 2))]
    perturbed = PerturbedOracle(oracle, Fraction(1, 64))
    assert len({perturbed.cost(sub) for sub in all_subsets(3)}) == 8


def test_perturbation_is_not_public():
    # the solvers never break ties, and validate_oracle lists none
    removed = {"PerturbedOracle", "compute_delta", "perturb_nondegenerate",
               "perturb_oracle"}
    assert not removed & set(chorefair.__all__)
    with pytest.raises(ValueError, match="unknown check"):
        validate_oracle(AdditiveOracle([1, 1, 2]), ("nondegenerate",))


def test_validate_refuses_oversize():
    oracle = AdditiveOracle(range(1, 22))
    with pytest.raises(EnumerationLimitError):
        validate_oracle(oracle, checks=("monotone",))


def test_env_override(monkeypatch):
    monkeypatch.setenv("CHOREFAIR_MAX_ENUM", "99")
    assert env_enum_limit(5) == 99
    monkeypatch.delenv("CHOREFAIR_MAX_ENUM")
    assert env_enum_limit(5) == 5


def test_ratio_bound():
    assert ratio_bound(AdditiveOracle([2, 4, 3])) == 2
    with pytest.raises(ValueError):
        ratio_bound(AdditiveOracle([0, 1]))


def test_top_chore_order_breaks_ties_by_index():
    # the counterexample's agent 3 ranks c4 and c5 equally; index decides
    order = top_chore_order(COUNTEREXAMPLE.oracles[2])
    assert order[:3] == (3, 4, 5)
    assert top_chore_order(AdditiveOracle([1, 3, 2])) == (1, 2, 0)


def test_compute_delta_and_perturb():
    inst = Instance(2, 2, (AdditiveOracle([2, 2]), AdditiveOracle([3, 1])))
    delta = compute_delta(inst.oracles)
    assert delta == 1  # agent 2's closest distinct subset costs differ by 1
    perturbed, epsilon = perturb_nondegenerate(inst)
    assert epsilon == Fraction(delta, 2 ** (inst.m + 2))
    for agent in range(2):
        costs = [perturbed.oracles[agent].cost(s) for s in all_subsets(2) if s]
        assert len(set(costs)) == len(costs)


def test_perturb_requires_some_gap():
    inst = Instance(1, 1, (AdditiveOracle([0]),))
    with pytest.raises(PreconditionError):
        compute_delta(inst.oracles)


def test_perturbed_oracle_general_variant():
    base = CappedAdditiveOracle([2, 1], 2)
    oracle = PerturbedOracle(base, Fraction(1, 16))
    assert isinstance(oracle, PerturbedOracle)
    assert oracle.cost({0}) == 2 + Fraction(2, 16)
    assert oracle.cost({0, 1}) == 2 + Fraction(6, 16)  # min(2 + 1, 2) = 2


def test_perturbed_max_of_additive_bumps_every_row():
    # max_k(r_k(S) + b(S)) = max_k r_k(S) + b(S), so bumping each row agrees
    rows = [[2, 1, 5], [1, 2, Fraction(1, 3)]]
    eps = Fraction(1, 16)
    oracle = PerturbedOracle(MaxOfAdditiveOracle(rows), eps)
    bumped = MaxOfAdditiveOracle(
        [[c + eps * 2 ** (j + 1) for j, c in enumerate(row)] for row in rows])
    for s in all_subsets(3):
        assert oracle.cost(s) == bumped.cost(s)
    assert oracle.cost({0, 1}) == 3 + Fraction(6, 16)  # max(2+1, 1+2) = 3
    with pytest.raises(ValueError, match="epsilon must be positive"):
        PerturbedOracle(AdditiveOracle([2, 1, 5]), 0)


def test_generate_instance_reproducible():
    a = generate_instance("additive", 3, 8, 42)
    b = generate_instance("additive", 3, 8, 42)
    assert a.oracles == b.oracles
    assert a.oracles != generate_instance("additive", 3, 8, 43).oracles


@pytest.mark.parametrize("family", ["additive", "capped_additive",
                                    "max_of_additive"])
def test_generated_families_are_monotone_subadditive(family):
    inst = generate_instance(family, 2, 6, 7)
    for oracle in inst.oracles:
        results = validate_oracle(oracle, checks=("monotone", "subadditive"))
        assert results == {"monotone": (), "subadditive": ()}


def test_generate_ratio_family():
    inst = generate_instance("additive_ratio", 3, 9, 11, alpha=2)
    assert all(ratio_bound(o) <= 2 for o in inst.oracles)


def test_generate_partial_ido_family():
    inst = generate_instance("k_partial_ido", 4, 10, 5, k=3)
    assert check_k_partial_ido(inst, 3)


def test_generate_identical_groups():
    inst = generate_instance("identical_groups", 5, 8, 3, sizes=(2, 3))
    assert inst.oracles[0] == inst.oracles[1]
    assert inst.oracles[2] == inst.oracles[3] == inst.oracles[4]
    assert inst.oracles[0] != inst.oracles[2]


def test_generate_rejects_unknown_family():
    with pytest.raises(ValueError):
        generate_instance("nope", 2, 4, 0)


@pytest.mark.parametrize("family, params", [
    ("additive", {"rows": 3}), ("additive_ratio", {"k": 2}),
    ("max_of_additive", {"alpha": 2}), ("identical_groups", {"rows": 2}),
    ("capped_additive", {"sizes": (2,)}),
    ("max_of_additive", {"sizes": (2,), "k": 2})])
def test_generate_refuses_a_parameter_its_family_does_not_use(family, params):
    # every stray parameter is named, not only the first
    named = ", ".join(map(repr, sorted(params)))
    with pytest.raises(ValueError, match=f"{family!r} does not use {named}$"):
        generate_instance(family, 2, 6, 0, **params)


@pytest.mark.parametrize("family, n, m, params, message", [
    ("additive", 0, 4, {}, "n >= 1"), ("additive", 2, 0, {}, "m >= 1"),
    ("additive_ratio", 2, 4, {"alpha": Fraction(1, 2)}, "alpha must be >= 1"),
    ("k_partial_ido", 2, 4, {"k": 0}, "1 <= k <= m"),
    ("k_partial_ido", 2, 4, {"k": 5}, "1 <= k <= m"),
    ("identical_groups", 3, 4, {"sizes": (1, 1)}, "sum to n"),
    ("identical_groups", 2, 4, {"sizes": (2, 0)}, "positive"),
])
def test_generate_refuses_bad_values(family, n, m, params, message):
    with pytest.raises(ValueError, match=message):
        generate_instance(family, n, m, 0, **params)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=8),
       st.integers(1, 100))
def test_capped_additive_monotone_property(costs, cap):
    oracle = CappedAdditiveOracle(costs, cap)
    m = len(costs)
    if m <= 6:
        subsets = all_subsets(m)
        for s in subsets:
            for c in range(m):
                assert oracle.cost(s | {c}) >= oracle.cost(s)


# -- integer kernel against a naive Fraction reference ------------------------
#
# An oracle is described by a spec tuple; `_build` makes the library oracle
# and `_reference` evaluates C(S) from the same spec with Fraction
# arithmetic written out here, sharing no code with the library.

DENOMINATORS = (1, 2, 3, 7, 12, 25, 97)


def _reference(spec, chores):
    chores = frozenset(chores)
    if not chores:
        return Fraction(0)
    kind = spec[0]
    if kind == "additive":
        return sum((Fraction(spec[1][c]) for c in chores), Fraction(0))
    if kind == "capped":
        return min(_reference(("additive", spec[1]), chores), Fraction(spec[2]))
    if kind == "max":
        return max(_reference(("additive", row), chores) for row in spec[1])
    if kind == "table":
        return Fraction(spec[2][chores])
    assert kind == "perturbed"
    bump = sum(2 ** (c + 1) for c in chores)
    return _reference(spec[1], chores) + Fraction(spec[2]) * bump


def _build(spec):
    kind = spec[0]
    if kind == "additive":
        return AdditiveOracle(spec[1])
    if kind == "capped":
        return CappedAdditiveOracle(spec[1], spec[2])
    if kind == "max":
        return MaxOfAdditiveOracle(spec[1])
    if kind == "table":
        return TabulatedOracle(spec[1], spec[2])
    return PerturbedOracle(_build(spec[1]), spec[2])


def _mixed_fractions(rng, count):
    return [Fraction(rng.randint(0, 400), rng.choice(DENOMINATORS))
            for _ in range(count)]


def _specs(rng, m, with_table):
    """Every oracle shape over fractional values with mixed denominators,
    and a PerturbedOracle over each of them."""
    mixed = _mixed_fractions(rng, m)
    ratio = list(generate_instance("additive_ratio", 1, m, rng.randrange(10**6),
                                   alpha=Fraction(7, 3)).oracles[0].rows[0])
    cap = sum(mixed) * Fraction(rng.randint(1, 99), 100)
    specs = [
        ("additive", mixed),
        ("additive", ratio),
        ("capped", mixed, cap),
        ("capped", ratio, sum(ratio) * Fraction(2, 3)),
        ("max", [mixed, ratio, _mixed_fractions(rng, m)]),
    ]
    if with_table:
        values = dict(zip(all_subsets(m), _mixed_fractions(rng, 2 ** m)))
        values[frozenset()] = 0
        specs.append(("table", m, values))
    epsilons = (Fraction(1, 3), Fraction(1, 2 ** (m + 2)), Fraction(5, 1001))
    specs += [("perturbed", spec, epsilons[k % 3]) for k, spec in enumerate(specs)]
    return specs


def _assert_kernel_matches(spec, subsets):
    oracle = _build(spec)
    assert type(oracle.den) is int and oracle.den >= 1
    for s in subsets:
        value = oracle.cost(s)
        units = oracle.units(s)
        assert type(value) is Fraction and type(units) is int
        assert value == _reference(spec, s), (spec[0], sorted(s))
        assert units == value * oracle.den


@pytest.mark.parametrize("m", range(1, 9))
def test_kernel_matches_reference_every_subset(m):
    rng = random.Random(f"kernel:{m}")
    for spec in _specs(rng, m, with_table=True):
        _assert_kernel_matches(spec, all_subsets(m))


@pytest.mark.parametrize("m", range(1, 9))
def test_removal_units_match_reference_every_subset(m):
    # a fresh oracle's first pass builds each bundle's state, the second
    # reads it back; chores come in either order
    rng = random.Random(f"removals:{m}")
    for spec in _specs(rng, m, with_table=True):
        oracle = _build(spec)
        for _ in range(2):
            for s in all_subsets(m):
                chores = sorted(s)
                expected = [_reference(spec, s - {c}) * oracle.den for c in chores]
                assert oracle.removal_units(s, chores) == expected, (spec[0], chores)
                assert oracle.removal_units(s, chores[::-1]) == expected[::-1]
                assert expected == [oracle.units(s - {c}) for c in chores]


@pytest.mark.parametrize("m", range(1, 9))
def test_addition_units_match_reference_every_subset(m):
    # a fresh oracle's first pass values each bundle cold, the second from
    # the cache; the added chores are every chore outside the bundle
    rng = random.Random(f"additions:{m}")
    for spec in _specs(rng, m, with_table=True):
        oracle = _build(spec)
        for _ in range(2):
            for s in all_subsets(m):
                chores = [c for c in range(m) if c not in s]
                expected = [_reference(spec, s | {c}) * oracle.den for c in chores]
                assert oracle.addition_units(s, chores) == expected, (spec[0], chores)
                assert oracle.addition_units(s, chores[::-1]) == expected[::-1]
                assert expected == [oracle.units(s | {c}) for c in chores]
        for s in (frozenset(), frozenset(range(m - 1))):
            for bad in (-1, -m, m, m + 1):
                with pytest.raises(IndexError):
                    oracle.addition_units(s, [bad])


def _random_bundles(rng, m, n):
    """n disjoint bundles of chores 0..m-1, some chores left out."""
    owners = [rng.randrange(n + 1) for _ in range(m)]
    return [frozenset(c for c in range(m) if owners[c] == j) for j in range(n)]


@pytest.mark.parametrize("n", range(1, 9))
def test_cost_rows_match_units(n):
    # every oracle shape in one call, so the row oracles share one layout
    # and the others take units; fresh oracles on both sides, then some
    # with one bundle already cached, then the rows read back
    rng = random.Random(f"rows:{n}")
    for m in sorted({1, n, 3 * n}):
        specs = _specs(rng, m, with_table=m <= 8)
        shapes = [_random_bundles(rng, m, n) for _ in range(6)]
        shapes.append([frozenset()] * (n - 1) + [frozenset({m - 1})])
        shapes.append([frozenset({c}) for c in range(min(n, m))]
                      + [frozenset()] * (n - min(n, m)))
        for bundles in shapes:
            ours = [_build(spec) for spec in specs]
            plain = [_build(spec) for spec in specs]
            for oracle in ours[::3]:
                oracle.units(bundles[-1])
            expected = [[oracle.units(b) for b in bundles] for oracle in plain]
            assert expected == [[_reference(spec, b) * oracle.den for b in bundles]
                                for spec, oracle in zip(specs, plain)]
            assert list(cost_rows(ours, bundles)) == expected
            assert [o._cache for o in ours] == [o._cache for o in plain]
            assert frozenset() not in ours[0]._cache
            assert list(cost_rows(ours, bundles)) == expected


@pytest.mark.parametrize("bad", [-1, -3, 5, 6])
def test_cost_rows_refuse_a_chore_out_of_range(bad):
    # m = 5; a negative chore would wrap around a row.  Nothing is cached
    # that units would not cache, and all of it when the bad bundle is first
    rng = random.Random(f"rows-bad:{bad}")
    for spec in _specs(rng, 5, with_table=True):
        for bundles in ([frozenset({0, 1}), frozenset({2, bad})],
                        [frozenset({bad}), frozenset({0, 1})]):
            ours, plain = _build(spec), _build(spec)
            with pytest.raises(IndexError):
                list(cost_rows([ours], bundles))
            with pytest.raises(IndexError):
                [plain.units(b) for b in bundles]
            assert ours._cache.items() <= plain._cache.items()
            if bad in bundles[0]:
                assert ours._cache == plain._cache


def test_singleton_units_match_units():
    rng = random.Random("singletons")
    for m in (1, 5, 8):
        for spec in _specs(rng, m, with_table=True):
            oracle = _build(spec)
            table = oracle.singleton_units()
            assert table == tuple(_reference(spec, {c}) * oracle.den
                                  for c in range(m))
            assert table == tuple(oracle.units((c,)) for c in range(m))
            assert oracle.singleton_units() is table


def test_kernel_matches_reference_large_m():
    m = 200
    rng = random.Random("kernel:200")
    subsets = [frozenset(rng.sample(range(m), rng.randint(1, m)))
               for _ in range(150)]
    subsets += [frozenset({c}) for c in range(m)] + [frozenset(range(m))]
    for spec in _specs(rng, m, with_table=False):
        _assert_kernel_matches(spec, subsets)


def _reference_witnesses(specs, bundles, criterion, alpha):
    """Every violating (i, j, c) by i, j, c ascending, with both sides
    rebuilt from the reference."""
    found = []
    for i, spec in enumerate(specs):
        mine = bundles[i]
        for j, other in enumerate(bundles):
            if j == i:
                continue
            for c in sorted(mine):
                lhs = _reference(spec, mine - {c})
                rhs = (_reference(spec, other | {c}) if criterion == "tefx"
                       else alpha * _reference(spec, other))
                if lhs > rhs:
                    found.append((i, j, c, lhs, rhs))
    return found


def test_checker_witnesses_match_reference():
    rng = random.Random("witnesses")
    seen = 0
    for trial in range(40):
        m = 3 + trial % 6
        pool = _specs(rng, m, with_table=True)
        specs = [pool[rng.randrange(len(pool))] for _ in range(3)]
        inst = Instance(m, 3, tuple(_build(spec) for spec in specs))
        for _ in range(10):
            bundles = [set() for _ in range(3)]
            for chore in range(m):
                bundles[rng.randrange(3)].add(chore)
            alloc = Allocation.full(bundles)
            frozen = alloc.bundles
            reports = [(check_tefx(alloc, inst), "tefx", None)]
            for alpha in (1, Fraction(3, 2), 2, Fraction(7, 3)):
                reports.append((check_alpha_efx(alloc, inst, alpha),
                                "alpha_efx", Fraction(alpha)))
            for report, criterion, alpha in reports:
                for w in report.witnesses:
                    assert type(w.lhs) is Fraction and type(w.rhs) is Fraction
                assert [tuple(w) for w in report.witnesses] == _reference_witnesses(
                    specs, frozen, criterion, alpha)
                seen += len(report.witnesses)
    assert seen > 1000


@pytest.mark.parametrize("n", range(4, 10))
def test_checker_witnesses_match_reference_many_agents(n):
    # both sides of ROW_KERNEL_BUNDLES: from it on, each agent's bundle
    # costs come from one cost_rows row
    assert 4 < ROW_KERNEL_BUNDLES <= 9
    rng = random.Random(f"witnesses:{n}")
    both = 0
    for trial in range(12):
        # half of the trials small enough for the (non-monotone) tables
        m = n + trial % (3 if trial % 2 else 2 * n)
        pool = _specs(rng, m, with_table=m <= 10)
        specs = [pool[rng.randrange(len(pool))] for _ in range(n)]
        inst = Instance(m, n, tuple(_build(spec) for spec in specs))
        for _ in range(4):
            bundles = _random_bundles(rng, m, n)
            alloc = Allocation.from_bundles(bundles, m)
            found = {}
            for criterion, alpha in (("tefx", None), ("alpha_efx", Fraction(1)),
                                     ("alpha_efx", Fraction(3, 2))):
                report = (check_tefx(alloc, inst) if alpha is None
                          else check_alpha_efx(alloc, inst, alpha))
                found[alpha] = [tuple(w) for w in report.witnesses]
                assert found[alpha] == _reference_witnesses(
                    specs, alloc.bundles, criterion, alpha)
            both += bool(found[None] and found[1])
    assert both >= 30


def test_row_screen_keeps_non_monotone_tefx_witnesses():
    # every bundle costs at least the worst removal, 1, yet adding chore 0
    # to bundle {2} costs 0 on this non-monotone table
    m, n = 9, 8
    values = {s: len(s) for s in all_subsets(m)}
    values[frozenset({0, 2})] = 0
    spec = ("table", m, values)
    inst = Instance(m, n, (_build(spec),) * n)
    alloc = Allocation.full([{0, 1}] + [{c} for c in range(2, m)])
    assert alloc.n >= ROW_KERNEL_BUNDLES
    witnesses = [tuple(w) for w in check_tefx(alloc, inst).witnesses]
    assert witnesses == [(0, 1, 0, 1, 0)]
    assert witnesses == _reference_witnesses([spec] * n, alloc.bundles, "tefx", None)
