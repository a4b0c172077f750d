"""Cost oracles, the cost-row kernel, structural validators and seeded
generators.

Chores are 0-based ints internally; all values are exact: an oracle keeps
each cost as an int over its one denominator and shows it as a
``Fraction``.  The cost of the empty set is normalized to 0 for every oracle
variant.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import re
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import EnumerationLimitError

ENV_MAX_ENUM = "CHOREFAIR_MAX_ENUM"
# plain digits: int() would also take " 3", "1_0", "+3" and "-1"
DIGITS = re.compile(r"[0-9]+")

# default enumeration guards (number of chores m)
CHECK_LIMITS = {"monotone": 14, "subadditive": 10}

ZERO = Fraction(0)


def env_enum_limit(default: int) -> int:
    """Enumeration guard, overridable through CHOREFAIR_MAX_ENUM in digits."""
    raw = os.environ.get(ENV_MAX_ENUM)
    if raw is None:
        return default
    if not DIGITS.fullmatch(raw):
        raise ValueError(f"{ENV_MAX_ENUM} must be plain digits, got {raw!r:.40}")
    return int(raw)


def _scaled(values: Iterable[Fraction], den: int) -> tuple[int, ...]:
    """Each value times den, exactly, as an int; den must be a common
    multiple of the values' denominators."""
    return tuple(v.numerator * (den // v.denominator) for v in values)


class CostOracle:
    """Value oracle over chore subsets: monotone, non-negative, C(empty)=0.

    ``units(S)`` is the exact integer C(S) * den, where ``den`` is a common
    multiple of every value's denominator, fixed in the constructor.  One
    agent's costs compare as these ints; ``cost(S)`` is the Fraction view.
    A subclass sets ``m`` and ``den`` and returns units from ``_raw_cost``.
    """

    m: int
    den: int
    # C(S | {c}) >= C(S) by construction; a table is validated only on demand
    monotone = False

    def __init__(self) -> None:
        self._cache: dict[frozenset[int], int] = {}
        self._singles: tuple[int, ...] | None = None

    def units(self, chores: Iterable[int]) -> int:
        key = frozenset(chores)
        if not key:
            return 0
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = self._raw_cost(self._checked(key))
        return cached

    def _checked(self, chores: frozenset[int]) -> frozenset[int]:
        for c in chores:
            if not (0 <= c < self.m):
                raise IndexError(f"chore {c} out of range for m={self.m}")
        return chores

    def cost(self, chores: Iterable[int]) -> Fraction:
        return Fraction(self.units(chores), self.den)

    def singleton_units(self) -> tuple[int, ...]:
        """units({c}) for every chore c, built once per oracle."""
        if self._singles is None:
            self._singles = tuple(self.units((c,)) for c in range(self.m))
        return self._singles

    def bundle_state(self, chores: frozenset[int]) -> object:
        """A bundle's state, which ``add`` grows; here the bundle itself."""
        return chores

    def add(self, state, chores: Collection[int]) -> tuple[object, int]:
        """(state, units) of the bundle in ``state`` plus new ``chores``."""
        state = state.union(chores)
        return state, self.units(state)

    def removal_units(self, bundle: frozenset[int], chores: Collection[int]
                      ) -> list[int]:
        """units(bundle - {c}) for each c in chores, a subset of bundle."""
        return [self.units(bundle - {c}) for c in chores]

    def addition_units(self, bundle: frozenset[int], chores: Collection[int]
                       ) -> list[int]:
        """units(bundle | {c}) for each c in chores, none of them in bundle."""
        return [self.units(bundle | {c}) for c in chores]

    def _raw_cost(self, chores: frozenset[int]) -> int:
        raise NotImplementedError

    def _key(self) -> tuple:
        """The values that fix the oracle; equality, hash and repr use them."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self), self._key()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"


class RowOracle(CostOracle):
    """C(S) = max over rows of the row sum over S, then min(., cap) when a
    cap is given; a cap needs exactly one row.  Additive, budget-additive
    and max-of-additive costs: monotone and subadditive by construction."""

    monotone = True

    def __init__(self, rows: Iterable[Iterable], cap=None) -> None:
        super().__init__()
        # sorted and de-duplicated: equal cost functions get equal keys
        self.rows = tuple(row for row, _ in itertools.groupby(
            sorted(tuple(map(Fraction, row)) for row in rows)))
        self.cap = None if cap is None else Fraction(cap)
        if not self.rows:
            raise ValueError("at least one row required")
        if len({len(row) for row in self.rows}) != 1:
            raise ValueError("rows must have equal length")
        values = [c for row in self.rows for c in row]
        # the JSON kind this shape is written as; _raw_cost branches on it
        if self.cap is not None:
            if len(self.rows) != 1:
                raise ValueError("a cap needs exactly one row")
            values.append(self.cap)
            self.kind = "capped_additive"
        elif len(self.rows) == 1:
            self.kind = "additive"
        else:
            self.kind = "max_of_additive"
        if any(v < 0 for v in values):
            raise ValueError("costs and cap must be non-negative")
        self.m = len(self.rows[0])
        self.den = math.lcm(*(v.denominator for v in values))
        self._rows = tuple(_scaled(row, self.den) for row in self.rows)
        self._cap = None if self.cap is None else _scaled((self.cap,), self.den)[0]
        self._removals: dict[frozenset[int], dict[int, int]] = {}

    def _raw_cost(self, chores: frozenset[int]) -> int:
        if self.kind == "additive":
            return sum(map(self._rows[0].__getitem__, chores))
        return self._total([sum(map(row.__getitem__, chores)) for row in self._rows])

    def bundle_units(self, layout: BundleLayout) -> list[int]:
        """units of every bundle of ``layout``: per row, one pick of the
        laid-out chores' costs, summed bundle by bundle."""
        pick, split = layout
        sums = [map(sum, split(pick(row))) for row in self._rows]
        if self.kind == "additive":
            return list(sums[0])
        return list(map(self._total, zip(*sums)))

    def singleton_units(self) -> tuple[int, ...]:
        if self._singles is None:  # from the rows, not through the cache
            self._singles = tuple(map(self._total, zip(*self._rows)))
        return self._singles

    def _total(self, sums: Iterable[int]) -> int:
        total = max(sums)
        return total if self._cap is None or total < self._cap else self._cap

    def bundle_state(self, chores: frozenset[int]) -> list[int]:
        # the row sums, uncapped so that a chore can be taken out
        return self.add([0] * len(self._rows), self._checked(chores))[0]

    def add(self, sums: list[int], chores: Collection[int]) -> tuple[list[int], int]:
        if self.kind == "additive":  # one uncapped row: its sum is the units
            total = sums[0] + sum(map(self._rows[0].__getitem__, chores))
            return [total], total
        sums = [s + sum(map(row.__getitem__, chores))
                for s, row in zip(sums, self._rows)]
        return sums, self._total(sums)

    def removal_units(self, bundle: frozenset[int], chores: Collection[int]
                      ) -> list[int]:
        if self.kind == "additive":
            total, row = self.units(bundle), self._rows[0]
            return [total - row[c] for c in chores]
        # from the bundle's row sums, and cached per bundle like units
        removals = self._removals.get(bundle)
        if removals is None:
            sums = self.bundle_state(bundle)
            lows = zip(*([s - row[c] for c in bundle] for s, row in zip(sums, self._rows)))
            removals = self._removals[bundle] = dict(zip(bundle, map(self._total, lows)))
        return [removals[c] for c in chores]

    def addition_units(self, bundle: frozenset[int], chores: Collection[int]
                       ) -> list[int]:
        if chores and min(chores) < 0:  # a row index would wrap around
            raise IndexError(f"chore {min(chores)} out of range for m={self.m}")
        if self.kind == "additive":
            total, row = self.units(bundle), self._rows[0]
            return [total + row[c] for c in chores]
        sums = self.bundle_state(bundle)
        return [self._total([s + row[c] for s, row in zip(sums, self._rows)])
                for c in chores]

    def _key(self) -> tuple:
        return (self.rows, self.cap)


# (pick, split): ``pick(row)`` is the tuple of a row's costs of the bundles'
# chores laid end to end, and ``split`` cuts it into one tuple per bundle
BundleLayout = tuple[Callable, Callable]


def _tuple_getter(items: Sequence) -> Callable:
    """``itemgetter(*items)``, returning a tuple for one item too."""
    if len(items) == 1:
        (item,) = items
        return lambda seq: (seq[item],)
    return itemgetter(*items)


def _bundle_layout(bundles: Sequence[frozenset[int]], m: int) -> BundleLayout:
    """The shared layout of bundles, at least one of them non-empty."""
    order = tuple(itertools.chain.from_iterable(bundles))
    if min(order) < 0:  # a row index would wrap around; >= m raises itself
        raise IndexError(f"chore {min(order)} out of range for m={m}")
    ends = list(itertools.accumulate(map(len, bundles)))
    return (_tuple_getter(order),
            _tuple_getter(list(map(slice, [0, *ends], ends))))


def cost_rows(oracles: Iterable[CostOracle], bundles: Sequence[frozenset[int]]
              ) -> Iterator[list[int]]:
    """Each oracle's row ``[units(b) for b in bundles]``, one per oracle as
    the caller asks for it.  A row comes from the oracle's cache when every
    non-empty bundle is there; otherwise a ``RowOracle`` values all of them
    in one ``bundle_units`` pass over a layout built once and shared by the
    oracles, and stores them in its cache as ``units`` would; any other
    oracle calls ``units``."""
    # cache.get's defaults: None marks a miss, and the empty set costs 0
    defaults = [None if bundle else 0 for bundle in bundles]
    layout = None
    for oracle in oracles:
        cache = oracle._cache
        row = list(map(cache.get, bundles, defaults))
        if None not in row:
            yield row
        elif not isinstance(oracle, RowOracle):
            yield list(map(oracle.units, bundles))
        else:
            if layout is None:
                layout = _bundle_layout(bundles, oracle.m)
            row = oracle.bundle_units(layout)
            cache.update(zip(bundles, row))
            cache.pop(frozenset(), None)  # units never stores the empty set
            yield row


def AdditiveOracle(costs: Iterable) -> RowOracle:
    """C(S) = the sum of the chores' costs."""
    return RowOracle((costs,))


def CappedAdditiveOracle(costs: Iterable, cap) -> RowOracle:
    """min(sum of costs, cap)."""
    return RowOracle((costs,), cap)


def MaxOfAdditiveOracle(rows: Iterable[Iterable]) -> RowOracle:
    """max over additive rows."""
    return RowOracle(rows)


class TabulatedOracle(CostOracle):
    """Explicit table over all 2^m subsets; validated monotone on demand."""

    def __init__(self, m: int, values: dict) -> None:
        super().__init__()
        self.m = m
        self.values = {frozenset(k): Fraction(v) for k, v in values.items()}
        chores = frozenset(range(m))
        # 2^m distinct subsets of the m chores are exactly all of them
        if len(self.values) != 2**m or not all(k <= chores for k in self.values):
            raise ValueError(
                f"table keys must be exactly the {2 ** m} subsets of chores "
                f"0..{m - 1}")
        if any(v < 0 for v in self.values.values()):
            raise ValueError("table values must be non-negative")
        self.den = math.lcm(*(v.denominator for v in self.values.values()))
        self._units = dict(zip(self.values,
                               _scaled(self.values.values(), self.den)))

    def _raw_cost(self, chores: frozenset[int]) -> int:
        return self._units[chores]

    def _key(self) -> tuple:
        return (self.m, frozenset(self.values.items()))

    def __repr__(self) -> str:
        return f"TabulatedOracle(m={self.m})"


# ---------------------------------------------------------------------------
# structural validators
# ---------------------------------------------------------------------------

def validate_oracle(
    oracle: CostOracle, checks: Iterable[str] = ("monotone",)
) -> dict[str, tuple]:
    """Exhaustively check structural properties of an oracle: each check's
    name maps to its violations, a tuple that is empty when it passes.

    Refuses (raises EnumerationLimitError) when m exceeds the enumeration
    guard for a requested check; never silently passes.
    """
    m = oracle.m
    results: dict[str, tuple] = {}
    for check in checks:
        if check not in CHECK_LIMITS:
            raise ValueError(f"unknown check {check!r}")
        limit = env_enum_limit(CHECK_LIMITS[check])
        if m > limit:
            raise EnumerationLimitError(
                f"{check} check needs m <= {limit}, got m={m}")
        bad = []
        if check == "monotone":
            for sub in map(frozenset, itertools.chain.from_iterable(
                    itertools.combinations(range(m), r) for r in range(m + 1))):
                base = oracle.cost(sub)
                for c in range(m):
                    if c not in sub and oracle.cost(sub | {c}) < base:
                        bad.append((tuple(sorted(sub)), c))
        else:
            # subadditive: every chore goes to S, T or neither, 3^m disjoint pairs
            for assignment in itertools.product(range(3), repeat=m):
                s = frozenset(c for c, a in enumerate(assignment) if a == 1)
                t = frozenset(c for c, a in enumerate(assignment) if a == 2)
                if oracle.cost(s | t) > oracle.cost(s) + oracle.cost(t):
                    bad.append((tuple(sorted(s)), tuple(sorted(t))))
        results[check] = tuple(bad)
    return results


def ratio_bound(oracle: CostOracle) -> Fraction:
    """Exact max-singleton / min-singleton cost ratio, from the units table:
    the denominator cancels."""
    units = oracle.singleton_units()
    if not units:
        raise ValueError("oracle has no chores")
    if min(units) == 0:
        raise ValueError("ratio bound undefined: a singleton cost is 0")
    return Fraction(max(units), min(units))


def top_chore_order(oracle: CostOracle) -> tuple[int, ...]:
    """Chores by strictly descending singleton cost, ties by ascending index
    (the sort is stable, reverse included)."""
    return tuple(sorted(range(oracle.m), key=oracle.singleton_units().__getitem__,
                        reverse=True))


# ---------------------------------------------------------------------------
# seeded instance generators
# ---------------------------------------------------------------------------

# each family with the one keyword parameter generate_instance reads for it
GENERATOR_FAMILIES = {
    "additive": None,
    "additive_ratio": "alpha",
    "capped_additive": None,
    "max_of_additive": "rows",
    "k_partial_ido": "k",
    "identical_groups": "sizes",
}


def _distinct_costs(rng: random.Random, m: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in rng.sample(range(1, 20 * m + 200), m))


def _ratio_bounded_costs(rng: random.Random, m: int, alpha: Fraction) -> tuple[Fraction, ...]:
    # costs in [low, alpha*low] with distinct offsets, so ratio <= alpha
    low = Fraction(rng.randint(20, 80))
    span = (alpha - 1) * low
    grid = max(m + 1, 101)
    offsets = rng.sample(range(grid), m)
    return tuple(low + span * Fraction(off, grid - 1) for off in offsets)


def generate_instance(family: str, n: int, m: int, seed: int, **params):
    """Deterministic seeded instance of the requested structural family.

    The family's structural property is re-checked after generation.
    """
    from .core import Instance
    from .ido import check_k_partial_ido

    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    unused = sorted(params.keys() - {GENERATOR_FAMILIES.get(family)})
    if unused and family in GENERATOR_FAMILIES:
        raise ValueError(f"family {family!r} does not use {', '.join(map(repr, unused))}")
    rng = random.Random(f"{family}:{n}:{m}:{seed}")

    if family == "additive":
        oracles = tuple(AdditiveOracle(_distinct_costs(rng, m)) for _ in range(n))
    elif family == "additive_ratio":
        alpha = Fraction(params.get("alpha", 2))
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        oracles = tuple(
            AdditiveOracle(_ratio_bounded_costs(rng, m, alpha)) for _ in range(n))
        for oracle in oracles:
            if ratio_bound(oracle) > alpha:
                raise AssertionError("generator broke its ratio bound")
    elif family == "capped_additive":
        built = []
        for _ in range(n):
            costs = _distinct_costs(rng, m)
            total = sum(costs, ZERO)
            cap = max(costs) + Fraction(rng.randint(1, 100), 100) * (total - max(costs))
            built.append(CappedAdditiveOracle(costs, cap))
        oracles = tuple(built)
    elif family == "max_of_additive":
        rows_per_agent = int(params.get("rows", 2))
        oracles = tuple(
            MaxOfAdditiveOracle([_distinct_costs(rng, m) for _ in range(rows_per_agent)])
            for _ in range(n))
    elif family == "k_partial_ido":
        k = int(params.get("k", n - 1))
        if not 1 <= k <= m:
            raise ValueError("need 1 <= k <= m")
        shared_top = rng.sample(range(m), k)
        built = []
        rest = [c for c in range(m) if c not in shared_top]
        # distinct non-top costs from 1..hi-1; hi stays 100 while m - k <= 99
        hi = max(100, len(rest) + 1)
        for _ in range(n):
            costs = [Fraction(0)] * m
            low_pool = rng.sample(range(1, hi), len(rest))
            for c, v in zip(rest, low_pool):
                costs[c] = Fraction(v)
            # shared top-k strictly above everything else and strictly ordered
            for rank, c in enumerate(shared_top):
                costs[c] = Fraction(hi * (k - rank + 1) + rng.randint(0, hi - 1))
            built.append(AdditiveOracle(costs))
        oracles = tuple(built)
        instance = Instance(m, n, oracles)
        if not check_k_partial_ido(instance, k):
            raise AssertionError("generator broke the k-partial-IDO property")
        return instance
    elif family == "identical_groups":
        sizes = tuple(int(s) for s in params.get("sizes", (n,)))
        if sum(sizes) != n or any(s < 1 for s in sizes):
            raise ValueError("group sizes must be positive and sum to n")
        built = []
        for size in sizes:
            shared = AdditiveOracle(_distinct_costs(rng, m))
            built.extend([shared] * size)
        oracles = tuple(built)
    else:
        raise ValueError(f"unknown family {family!r}; choose from {tuple(GENERATOR_FAMILIES)}")

    return Instance(m, n, oracles)
