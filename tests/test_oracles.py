import hashlib
import itertools
import json
import math
import random
import re
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
    guarantee_ratio,
    ratio_bound,
    round_robin_allocate,
    top_chore_order,
    validate_oracle,
)
from chorefair.cli import instance_from_json, instance_to_json, oracle_to_json
from chorefair.core import ROW_KERNEL_BUNDLES, check_partial_property2, eligible_bundles
from chorefair.errors import DimensionError
from chorefair.oracles import GENERATOR_FAMILIES, cost_rows, require_monotone

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


def test_tabulated_refuses_a_huge_m_before_building_anything():
    # 2^m and range(m) at m = 10^6 once came first: 150 MB at m = 2 * 10^6,
    # and a ValueError for the 301,030-digit count instead of this one
    with pytest.raises(ValueError, match=r"exactly the 2\^1000000 subsets"):
        TabulatedOracle(10**6, {(): 0, (0,): 1})


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


def test_table_stores_ints_alone():
    # whole values as ints or as Fractions give one oracle, kept as ints
    # over one den, and its JSON writes each value in lowest terms
    ints = {s: 3 * len(s) for s in all_subsets(2)}
    as_fractions = TabulatedOracle(2, {s: Fraction(2 * v, 2) for s, v in ints.items()})
    oracle = TabulatedOracle(2, ints)
    assert oracle == as_fractions and hash(oracle) == hash(as_fractions)
    assert repr(oracle) == repr(as_fractions) == "TabulatedOracle(m=2)"
    assert oracle.den == 1 and not hasattr(oracle, "values")
    assert oracle_to_json(oracle) == oracle_to_json(as_fractions) == {
        "type": "table", "values": {"": "0", "1": "3", "2": "3", "1,2": "6"}}
    mixed = TabulatedOracle(2, {frozenset(): 0, frozenset({0}): Fraction(1, 2),
                                frozenset({1}): Fraction(2, 3), frozenset({0, 1}): 1})
    assert mixed.den == 6 and all(type(u) is int for u in mixed._units.values())
    assert mixed.cost({1}) == Fraction(2, 3)
    assert oracle_to_json(mixed) == {
        "type": "table", "values": {"": "0", "1": "1/2", "2": "2/3", "1,2": "1"}}


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
    with pytest.raises(ValueError, match=message):
        RowOracle.from_units(rows, 6, cap)


# one cost in each spelling the constructor takes: an int, a Fraction, an
# unreduced "p/q" string, a bool and a float (exact in binary or not)
_COST_VALUES = st.one_of(
    st.integers(0, 60),
    st.builds(Fraction, st.integers(0, 60), st.integers(1, 12)),
    st.builds(lambda p, q, k: f"{p * k}/{q * k}",
              st.integers(0, 60), st.integers(1, 12), st.integers(1, 4)),
    st.booleans(),
    st.floats(0, 60, allow_nan=False, allow_infinity=False),
)
_NEGATIVES = st.sampled_from([-1, Fraction(-1, 3), "-2/4", -0.5])


def _plain_row_oracle(rows, cap):
    """(den, rows, cap) from Fraction arithmetic alone: the rows sorted and
    de-duplicated, den the lcm of every reduced denominator."""
    rows = sorted({tuple(Fraction(v) for v in row) for row in rows})
    cap = None if cap is None else Fraction(cap)
    values = [v for row in rows for v in row] + ([] if cap is None else [cap])
    return math.lcm(*(v.denominator for v in values)), tuple(rows), cap


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_row_oracle_constructor_matches_fraction_reference(data):
    m = data.draw(st.integers(1, 5))
    distinct = data.draw(st.lists(st.lists(_COST_VALUES, min_size=m, max_size=m),
                                  min_size=1, max_size=3))
    # every row at least once, some twice, in a shuffled order
    rows = data.draw(st.permutations(
        distinct + data.draw(st.lists(st.sampled_from(distinct), max_size=3))))
    cap = data.draw(st.none() | _COST_VALUES)
    den, plain, plain_cap = _plain_row_oracle(rows, cap)
    if cap is not None and len(plain) != 1:
        with pytest.raises(ValueError, match="exactly one row"):
            RowOracle(rows, cap)
        return
    oracle = RowOracle(rows, cap)
    assert oracle.den == den and oracle.m == m
    assert oracle._rows == tuple(tuple(int(v * den) for v in row) for row in plain)
    assert all(type(u) is int for row in oracle._rows for u in row)
    assert oracle._cap == (None if cap is None else int(plain_cap * den))
    assert oracle.kind == ("capped_additive" if cap is not None else
                           "additive" if len(plain) == 1 else "max_of_additive")
    assert oracle.rows == plain and oracle.cap == plain_cap
    assert all(type(v) is Fraction for row in oracle.rows for v in row)
    assert repr(oracle) == f"RowOracle({plain!r}, {plain_cap!r})"
    # built from the reference's Fractions: equal, with equal hashes
    same = RowOracle([list(row) for row in plain], plain_cap)
    assert oracle == same and hash(oracle) == hash(same)
    assert repr(same) == repr(oracle)
    # halved costs can keep the same ints over twice the den: unequal
    # unless every value is 0
    halved = RowOracle([[v / 2 for v in row] for row in plain],
                       None if plain_cap is None else plain_cap / 2)
    zero = not any(itertools.chain(*plain, [plain_cap or 0]))
    assert (halved == oracle) is zero and (halved != oracle) is not zero
    # a negative value anywhere, in a row or as the cap, is refused
    bad = data.draw(_NEGATIVES)
    if data.draw(st.booleans()):
        row, c = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, m - 1))
        rows = [list(r) for r in rows]
        rows[row][c] = bad
        with pytest.raises(ValueError, match="non-negative"):
            RowOracle(rows)
    elif len(plain) == 1:
        with pytest.raises(ValueError, match="non-negative"):
            RowOracle(rows, bad)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_from_units_matches_the_fraction_constructor(data):
    m = data.draw(st.integers(1, 5))
    # a factor of den that every unit shares, or no common factor; all-zero
    # rows, one row with or without a cap, and max-of-additive rows
    shared = data.draw(st.integers(1, 12))
    den = shared * data.draw(st.integers(1, 12))
    unit = st.integers(0, 40).map(shared.__mul__)
    zeros = data.draw(st.booleans())
    row = st.just([0] * m) if zeros else st.lists(unit, min_size=m, max_size=m)
    rows = data.draw(st.lists(row, min_size=1, max_size=3))
    cap = data.draw(st.none() | unit) if len(rows) == 1 else None
    oracle = RowOracle.from_units(rows, den, cap)
    ref = RowOracle([[Fraction(u, den) for u in row] for row in rows],
                    None if cap is None else Fraction(cap, den))
    assert (oracle.den, oracle._rows, oracle._cap) == (ref.den, ref._rows, ref._cap)
    assert oracle == ref and hash(oracle) == hash(ref) and repr(oracle) == repr(ref)
    assert oracle.kind == ref.kind and oracle.m == m
    assert all(type(u) is int for r in oracle._rows for u in r)


@pytest.mark.parametrize("den", [0, -6, 2.0, Fraction(2), True, "2", None])
def test_from_units_refuses_a_den_that_is_no_positive_int(den):
    with pytest.raises(ValueError, match="den must be a positive int"):
        RowOracle.from_units([[2, 4]], den)


# row values: Fractions with small denominators
_FRACTIONS = st.fractions(min_value=0, max_value=60, max_denominator=12)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fractional_instances_roundtrip_byte_identically(data):
    m = data.draw(st.integers(1, 6))
    row = st.lists(_FRACTIONS, min_size=m, max_size=m)
    agent = st.one_of(
        st.builds(AdditiveOracle, row),
        st.builds(CappedAdditiveOracle, row, _FRACTIONS),
        st.builds(MaxOfAdditiveOracle, st.lists(row, min_size=2, max_size=3)))
    oracles = data.draw(st.lists(agent, min_size=1, max_size=4))
    text = json.dumps(instance_to_json(Instance(m, len(oracles), tuple(oracles))),
                      sort_keys=True)
    back = instance_from_json(json.loads(text))
    assert json.dumps(instance_to_json(back), sort_keys=True) == text
    assert back.oracles == tuple(oracles)
    # each value spelled over k times its denominator loads as the same oracle
    k = data.draw(st.integers(2, 6))
    unreduced = re.sub(r'"(-?\d+)(?:/(\d+))?"',
                       lambda v: f'"{int(v[1]) * k}/{int(v[2] or 1) * k}"', text)
    assert instance_from_json(json.loads(unreduced)).oracles == tuple(oracles)


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


def test_require_monotone_checks_a_table_once_and_a_row_never(monkeypatch):
    real, checked = chorefair.oracles.validate_oracle, []
    monkeypatch.setattr(chorefair.oracles, "validate_oracle",
                        lambda oracle, checks: checked.append(oracle) or real(oracle, checks))
    row = AdditiveOracle([4, 2, 1])
    require_monotone(row, "row")  # monotone by construction
    values = {s: len(s) for s in all_subsets(2)}
    table = TabulatedOracle(2, values)
    require_monotone(table, "table")
    require_monotone(table, "table")
    assert checked == [table] and table.monotone
    values[frozenset({0, 1})] = 0
    table = TabulatedOracle(2, values)
    with pytest.raises(PreconditionError, match=re.escape(
            "table is not monotone: adding chore 2 to {1} lowers its cost")):
        require_monotone(table, "table")
    assert not table.monotone


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


def test_validate_matches_fraction_enumeration():
    # mixed denominators, so one oracle's units order its costs only
    # because they share one den; each check rebuilt from the plain table
    rng = random.Random("validate")
    found = {"monotone": 0, "subadditive": 0}
    for m in (3, 4, 5):
        for _ in range(4):
            values = {s: Fraction(len(s) * 60 + rng.randint(0, 90), rng.choice(DENOMINATORS))
                      for s in all_subsets(m)}
            values[frozenset()] = Fraction(0)
            expected = {
                "monotone": tuple((tuple(sorted(s)), c) for s in all_subsets(m)
                                  for c in range(m)
                                  if c not in s and values[s | {c}] < values[s]),
                "subadditive": tuple(
                    (tuple(sorted(s)), tuple(sorted(t)))
                    for labels in itertools.product(range(3), repeat=m)
                    for s, t in [(frozenset(c for c in range(m) if labels[c] == 1),
                                  frozenset(c for c in range(m) if labels[c] == 2))]
                    if values[s | t] > values[s] + values[t]),
            }
            oracle = TabulatedOracle(m, values)
            assert validate_oracle(oracle, ("monotone", "subadditive")) == expected
            for check, violations in expected.items():
                found[check] += len(violations)
    assert found["monotone"] > 10 and found["subadditive"] > 10


def test_validate_refuses_oversize():
    # 20 * 2^20 and 3^15 steps exceed 10^7: refused before any cost is read
    def enumerated(chores):
        raise AssertionError("enumeration started")

    for m, check in [(20, "monotone"), (15, "subadditive")]:
        oracle = AdditiveOracle(range(1, m + 1))
        oracle.cost = oracle.units = enumerated
        with pytest.raises(EnumerationLimitError, match=f"{check} check on m={m}"):
            validate_oracle(oracle, checks=(check,))


@pytest.mark.parametrize("check, spelled", [
    ("monotone", "20000·2^20000 steps"), ("subadditive", "3^20000 steps")],
    ids=["monotone", "subadditive"])
def test_validate_refuses_a_huge_m_by_its_own_error(check, spelled):
    # the count in full has over 4,300 digits, so formatting it once raised
    # Python's ValueError in place of EnumerationLimitError
    with pytest.raises(EnumerationLimitError, match=re.escape(spelled)):
        validate_oracle(AdditiveOracle([1] * 20000), (check,))


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


# sha256 prefixes of instance_to_json and repr(oracles) at seeds 0, 1 and 7,
# taken before the generators and RowOracle stopped building a Fraction per
# cost: `chorefair gen` output stays byte-identical
GENERATOR_DIGESTS = [
    ("additive", 3, 8, {}, "7723a949f149b176"),
    ("additive_ratio", 3, 9, {}, "306e4f4f5c054c2e"),
    ("additive_ratio", 3, 9, {"alpha": 2}, "306e4f4f5c054c2e"),
    ("additive_ratio", 4, 12, {"alpha": "7/3"}, "a8089ca2181605f8"),
    ("additive_ratio", 4, 12, {"alpha": Fraction(7, 3)}, "a8089ca2181605f8"),
    ("additive_ratio", 2, 150, {"alpha": "7/3"}, "5d02c24d0d20699f"),
    ("additive_ratio", 2, 150, {"alpha": 3}, "3c7d2b70fd71f62d"),
    ("capped_additive", 3, 8, {}, "d2e4189ad1669da8"),
    ("capped_additive", 2, 150, {}, "376129c5721db695"),
    ("max_of_additive", 2, 7, {}, "599e1853d9a26b44"),
    ("max_of_additive", 3, 6, {"rows": 3}, "ad0e6a828bb9ae7b"),
    ("k_partial_ido", 4, 10, {}, "a3ae6edbd1170f0b"),
    ("k_partial_ido", 4, 10, {"k": 2}, "350b5ebf42c257a9"),
    ("identical_groups", 5, 8, {}, "a47e78ceb266029c"),
    ("identical_groups", 5, 8, {"sizes": (2, 3)}, "3b6bc26e39275288"),
]


def test_generator_digests_cover_every_family():
    assert {case[0] for case in GENERATOR_DIGESTS} == set(GENERATOR_FAMILIES)


@pytest.mark.parametrize("family, n, m, params, digest", GENERATOR_DIGESTS)
def test_generator_output_is_pinned(family, n, m, params, digest):
    sha = hashlib.sha256()
    for seed in (0, 1, 7):
        inst = generate_instance(family, n, m, seed, **params)
        sha.update(json.dumps(instance_to_json(inst), sort_keys=True).encode())
        sha.update(repr(inst.oracles).encode())
    assert sha.hexdigest()[:16] == digest


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
    # tEFX's right sides as the core takes them, units(S | {c}) for every c
    # outside S: one bundle_state per bundle, then one add per chore, in
    # either chore order from the same state.  The first pass runs on a
    # fresh oracle, so each state is built cold; the second after every
    # subset went through units, so an additive state is a cache read.
    rng = random.Random(f"additions:{m}")
    for spec in _specs(rng, m, with_table=True):
        oracle = _build(spec)
        for warm in (False, True):
            if warm:
                assert all(oracle.units(s) == _reference(spec, s) * oracle.den
                           for s in all_subsets(m))
            for s in all_subsets(m):
                chores = [c for c in range(m) if c not in s]
                expected = [_reference(spec, s | {c}) * oracle.den for c in chores]
                state = oracle.bundle_state(s)
                assert [oracle.add(state, c)[1] for c in chores] == expected, (
                    spec[0], sorted(s), warm)
                assert [oracle.add(state, c)[1] for c in chores[::-1]] == expected[::-1]


@pytest.mark.parametrize("m", range(1, 9))
def test_add_matches_reference_every_subset(m):
    # one chore onto every bundle's state, then bundles grown chore by
    # chore from empty in random order, capped rows across their cap
    rng = random.Random(f"add:{m}")
    crossed = 0
    for spec in _specs(rng, m, with_table=True):
        oracle = _build(spec)
        for s in all_subsets(m):
            state = oracle.bundle_state(s)
            for c in range(m):
                if c not in s:
                    assert oracle.add(state, c)[1] == _reference(spec, s | {c}) * oracle.den, (
                        spec[0], sorted(s), c)
        for _ in range(3):
            state, grown, seen = oracle.bundle_state(frozenset()), set(), [0]
            for c in rng.sample(range(m), m):
                state, units = oracle.add(state, c)
                grown.add(c)
                assert units == _reference(spec, grown) * oracle.den, (spec[0], grown)
                seen.append(units)
            if spec[0] == "capped" and 0 < spec[2] < sum(spec[1]):
                cap = spec[2] * oracle.den
                assert any(a < cap == b for a, b in zip(seen, seen[1:]))
                crossed += 1
    assert crossed >= 3


@pytest.mark.parametrize("n", range(1, 11))
def test_pool_check_matches_eligible_bundles(n):
    # every oracle shape, mixed within an instance, on partial allocations
    # with empty bundles; from ROW_KERNEL_BUNDLES bundles on the pool check
    # values each agent's costs as one row, and on either side of it must
    # leave the caches that per-bundle units leaves
    rng = random.Random(f"pool:{n}")
    verdicts = set()
    for m in sorted({n + 1, 2 * n + 2, 3 * n}):
        specs = _specs(rng, m, with_table=m <= 8)
        for _ in range(6):
            picked = [specs[rng.randrange(len(specs))] for _ in range(n)]
            bundles = _random_bundles(rng, m, n)
            bundles[rng.randrange(n)] = frozenset()
            alloc = Allocation.from_bundles(bundles, m)
            ours = Instance(m, n, tuple(_build(spec) for spec in picked))
            plain = [_build(spec) for spec in picked]
            expected = tuple(len(eligible_bundles(oracle, alloc)) >= n - 1
                             for oracle in plain)
            assert expected == tuple(
                all(sum(_reference(spec, {b}) <= _reference(spec, x) for x in bundles)
                    >= n - 1 for b in alloc.pool) for spec in picked)
            assert check_partial_property2(alloc, ours) == expected
            assert [o._cache for o in ours.oracles] == [o._cache for o in plain]
            verdicts.update(expected)
            bad = Allocation(alloc.bundles, alloc.pool | {-1})
            with pytest.raises(DimensionError):
                check_partial_property2(bad, ours)
            with pytest.raises(IndexError):
                eligible_bundles(plain[0], bad)
    assert verdicts == ({True} if n == 1 else {True, False})


def _random_bundles(rng, m, n):
    """n disjoint bundles of chores 0..m-1, some chores left out."""
    owners = [rng.randrange(n + 1) for _ in range(m)]
    return [frozenset(c for c in range(m) if owners[c] == j) for j in range(n)]


@pytest.mark.parametrize("n", range(1, 9))
def test_cost_rows_match_units(n):
    # every oracle shape in one call, so the row oracles are valued in one
    # pass and the others take units; fresh oracles on both sides, then some
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


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 24, 40])
def test_cost_rows_additive_rows_match_units(n):
    # the additive oracles whose rows miss are valued together, bundle by
    # bundle: int costs and fractions over mixed denominators, some oracles
    # with one bundle or every bundle already cached, and bundles empty, of
    # one chore and of more; rows and caches as per-oracle units leave them
    rng = random.Random(f"additive-rows:{n}")
    dens = set()
    for m in (n, 3 * n):
        shapes = [_random_bundles(rng, m, n) for _ in range(3)]
        shapes.append([frozenset({c}) for c in rng.sample(range(m), n - 1)] + [frozenset()])
        shapes.append([frozenset()] * (n - 1) + [frozenset(range(m))])
        for bundles in shapes:
            values = [_mixed_fractions(rng, m) if k % 3 else
                      [rng.randint(0, 50) for _ in range(m)] for k in range(n)]
            ours = [AdditiveOracle(row) for row in values]
            plain = [AdditiveOracle(row) for row in values]
            ours[0].units(bundles[-1])
            for b in bundles:
                ours[-1].units(b)
            expected = [[oracle.units(b) for b in bundles] for oracle in plain]
            assert expected == [[sum((Fraction(row[c]) for c in b), Fraction(0)) * oracle.den
                                 for b in bundles] for row, oracle in zip(values, plain)]
            rows = list(cost_rows(ours, bundles))
            assert rows == expected and {type(row) for row in rows} == {list}
            assert [o._cache for o in ours] == [o._cache for o in plain]
            assert list(cost_rows(ours, bundles)) == expected
            dens.update(oracle.den for oracle in ours)
    assert 1 in dens and len(dens) > 2


@pytest.mark.parametrize("bad", [-1, -9, 9, 10])
def test_cost_rows_additive_rows_refuse_a_chore_out_of_range(bad):
    # m = 9: a negative chore would wrap around a singleton row, in a
    # bundle of one chore or of more; the refusal comes before any row is cached
    rng = random.Random(f"additive-rows-bad:{bad}")
    oracles = [AdditiveOracle(_mixed_fractions(rng, 9)) for _ in range(3)]
    for bundles in ([frozenset({0, 1}), frozenset({bad})],
                    [frozenset({2, bad}), frozenset({0}), frozenset()],
                    [frozenset({bad}), frozenset({3, 4})]):
        with pytest.raises(IndexError):
            list(cost_rows(oracles, bundles))
        assert not any(oracle._cache for oracle in oracles)


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


@pytest.mark.parametrize("bad", [-1, 6])
def test_cost_rows_mixed_oracles_refuse_a_chore_out_of_range(bad):
    # m = 6: additive, capped, max-of-additive and table oracles in one
    # call, in both orders, the bad chore in one bundle; the one range
    # check of the row pass refuses it before any row oracle caches a row
    rng = random.Random(f"mixed-rows-bad:{bad}")
    specs = [spec for spec in _specs(rng, 6, with_table=True) if spec[0] != "perturbed"]
    assert {spec[0] for spec in specs} == {"additive", "capped", "max", "table"}
    for bundles in ([frozenset({0, 1}), frozenset({2, bad}), frozenset()],
                    [frozenset({bad}), frozenset({3, 4}), frozenset({5})]):
        oracles = [_build(spec) for spec in specs]
        for order in (oracles, oracles[::-1]):
            with pytest.raises(IndexError):
                cost_rows(order, bundles)
            assert not any(o._cache for o in oracles if isinstance(o, RowOracle))


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


@pytest.mark.parametrize("m", range(1, 9))
def test_floor_units_bound_every_bundle_of_k_chores(m):
    # additive, capped and max-of-additive rows, each wrapped in a generic
    # monotone oracle, a monotone table and a non-monotone table: for every
    # k, floor_units(k) is at most units(S) for every S of k or more chores
    rng = random.Random(f"floor:{m}")
    specs = _specs(rng, m, with_table=False)
    weights = [rng.randint(0, 9) for _ in range(m)]
    monotone = {s: max(map(weights.__getitem__, s), default=0) + len(s)
                for s in all_subsets(m)}
    noisy = dict(zip(all_subsets(m), _mixed_fractions(rng, 2 ** m)))
    noisy[frozenset()] = 0
    specs += [("table", m, monotone), ("table", m, noisy)]
    positive = set()
    for spec in specs:
        oracle = _build(spec)
        if spec[-1] is monotone:
            require_monotone(oracle, "table")
        # the cheapest bundle of each size r, then of each size r or more
        cheapest = [min(oracle.units(s) for s in all_subsets(m) if len(s) == r)
                    for r in range(m + 1)]
        at_least = list(itertools.accumulate(reversed(cheapest), min))[::-1]
        floors = [oracle.floor_units(k) for k in range(m + 1)]
        assert all(type(f) is int and 0 <= f <= low for f, low in zip(floors, at_least))
        if oracle.monotone and any(floors):
            positive.add(spec[0])
        if spec[-1] is noisy:
            assert not oracle.monotone and floors == [0] * (m + 1)
    assert positive == {"additive", "capped", "max", "table", "perturbed"}


def _cleared(inst, alloc):
    """The agents whose oracle cached no bundle but their own: after a
    check on fresh oracles, those the floor cleared from 8 bundles on."""
    return [i for i, (oracle, mine) in enumerate(zip(inst.oracles, alloc.bundles))
            if oracle._cache.keys() <= {mine}]


@pytest.mark.parametrize("n", [8, 16, 40])
def test_floor_keeps_round_robin_witnesses(n):
    # ratio-bounded additive agents, five rounds: every check on fresh
    # oracles equals the reference, at the claimed ratio, for tEFX and at
    # alpha = 1, on the round-robin allocation and on it with two of the
    # last agent's chores moved to the first, which has witnesses
    assert n >= ROW_KERNEL_BUNDLES
    witnesses = 0
    for alpha in (2, 3):
        def fresh():
            return generate_instance("additive_ratio", n, 5 * n, n, alpha=alpha)
        alloc, _ = round_robin_allocate(fresh())
        moved = sorted(alloc.bundles[-1])[:2]
        skewed = Allocation.full([alloc.bundles[0] | set(moved), *alloc.bundles[1:-1],
                                  alloc.bundles[-1] - set(moved)])
        specs = [("additive", oracle.rows[0]) for oracle in fresh().oracles]
        claimed = guarantee_ratio(alpha, 5)
        for tried, ratio in itertools.product((alloc, skewed), (None, claimed, Fraction(1))):
            inst = fresh()
            report = (check_tefx(tried, inst) if ratio is None
                      else check_alpha_efx(tried, inst, ratio))
            found = [tuple(w) for w in report.witnesses]
            criterion = "tefx" if ratio is None else "alpha_efx"
            assert found == _reference_witnesses(specs, tried.bundles, criterion, ratio)
            witnesses += len(found)
            cleared = _cleared(inst, tried)
            assert not {w[0] for w in found} & set(cleared)
            if tried is alloc and ratio == claimed:  # most agents clear
                assert not found and 2 * len(cleared) > n
    assert witnesses > 0


def _floor_case(own, smallest, rest):
    """Eight bundles: agent 0's own 2 chores of cost ``own``, the smallest
    other bundle, 3 chores of cost ``smallest``, and six bundles of 6
    chores of cost ``rest``, costs as agent 0 sees them; every other
    agent's costs are 1."""
    bundles = [{0, 1}, {2, 3, 4}] + [set(range(5 + 6 * b, 11 + 6 * b)) for b in range(6)]
    m = 41
    costs = [own, own] + [smallest] * 3 + [rest] * (m - 5)
    specs = [("additive", costs)] + [("additive", [1] * m)] * 7
    inst = Instance(m, 8, tuple(_build(spec) for spec in specs))
    return specs, inst, Allocation.full(bundles)


def test_floor_keeps_a_witness_against_the_smallest_other_bundle():
    # agent 0's worst removal, 100, exceeds the smallest other bundle, 60,
    # and its own bundle is smaller still: a floor from the largest bundle
    # (6 * 20 = 120) would clear it and lose the witnesses against bundle 1
    specs, inst, alloc = _floor_case(100, 20, 20)
    assert alloc.n >= ROW_KERNEL_BUNDLES
    for alpha in (1, Fraction(3, 2)):
        witnesses = [tuple(w) for w in check_alpha_efx(alloc, inst, alpha).witnesses]
        assert [w[:3] for w in witnesses if w[0] == 0] == [(0, 1, 0), (0, 1, 1)]
        assert witnesses == _reference_witnesses(specs, alloc.bundles, "alpha_efx", alpha)


def test_floor_counts_the_smallest_bundle_but_the_agents_own():
    # agent 0's worst removal, 10, is at most the floor of 3 chores of cost
    # 4 (12), not of its own 2 chores (8): the floor clears it, and it
    # values no other bundle, for both criteria
    for check in (check_tefx, lambda alloc, inst: check_alpha_efx(alloc, inst, 1)):
        specs, inst, alloc = _floor_case(10, 4, 9)
        assert not [w for w in check(alloc, inst).witnesses if w.agent == 0]
        assert 0 in _cleared(inst, alloc)
