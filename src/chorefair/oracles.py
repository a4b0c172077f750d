"""Cost oracles, the cost-row kernel, structural validators and seeded
generators.

Chores are 0-based ints internally; all values are exact: an oracle keeps
each cost as an int over its one denominator (a ``RowOracle`` stores
nothing else) and shows it as a ``Fraction``.  The cost of the empty set
is normalized to 0 for every oracle variant.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from operator import itemgetter
from typing import Collection, Iterable, Sequence

from .errors import EnumerationLimitError, PreconditionError

# steps any one enumeration may take: a validate_oracle check, m * 2^m
# for "monotone" and 3^m for "subadditive", or exhaustive_search's n^m
ENUM_LIMIT = 10**7


def _exact(value) -> int | Fraction:
    """An int or a Fraction as it is; any other value through Fraction."""
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


def _scaled(values: Iterable[int | Fraction], den: int) -> tuple[int, ...]:
    """Each value times den, exactly, as an int; den must be a common
    multiple of the values' denominators."""
    if den == 1:  # every value is an int or a whole Fraction
        return tuple(map(int, values))
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
    # C(S | {c}) >= C(S) by construction, or once require_monotone passed
    monotone = False
    # C(S) is the sum of singleton_units() over S, by construction
    additive = False

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

    def floor_units(self, k: int) -> int:
        """A lower bound on units(S) for every S of at least k chores: on
        monotone costs S costs at least any one of its chores, so the
        cheapest chore once k >= 1; otherwise 0, as costs are non-negative."""
        if not (self.monotone and k >= 1):
            return 0
        return min(self.singleton_units())

    def bundle_state(self, chores: frozenset[int]) -> object:
        """A bundle's state, which ``add`` grows; here the bundle itself."""
        return chores

    def add(self, state, chore: int) -> tuple[object, int]:
        """(state, units) of the bundle in ``state`` plus a new ``chore``;
        ``state`` itself is left as it was, so one state serves many chores."""
        state = state | {chore}
        return state, self.units(state)

    def removal_units(self, bundle: frozenset[int], chores: Collection[int]
                      ) -> list[int]:
        """units(bundle - {c}) for each c in chores, a subset of bundle."""
        return [self.units(bundle - {c}) for c in chores]

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
    and max-of-additive costs: monotone and subadditive by construction.
    It stores ints alone: ``den``, the lcm of the values' reduced
    denominators, and the rows (sorted and de-duplicated, so equal cost
    functions get equal keys) and the cap times ``den``; ``rows`` and
    ``cap`` are their ``Fraction`` view, built on each read."""

    monotone = True
    _minima: list[int] | None = None  # each row's cheapest, on first floor

    def __init__(self, rows: Iterable[Iterable], cap=None) -> None:
        rows = [tuple(row) for row in rows]
        caps = () if cap is None else (cap,)
        den = 1
        if not set(map(type, itertools.chain(*rows, caps))) <= {int}:
            # each value through Fraction, over the reduced denominators' lcm
            exact = [list(map(_exact, row)) for row in [*rows, caps]]
            den = math.lcm(*(v.denominator for row in exact for v in row))
            *rows, caps = (_scaled(row, den) for row in exact)
        self._store(rows, den, *caps)

    @classmethod
    def from_units(cls, rows: Iterable[Iterable[int]], den: int,
                   cap: int | None = None) -> RowOracle:
        """The oracle of int rows and an int cap over a positive int den,
        equal to ``RowOracle`` of the values ``Fraction(u, den)``."""
        oracle = cls.__new__(cls)
        oracle._store([tuple(row) for row in rows], den, cap)
        return oracle

    def _store(self, rows: list[tuple[int, ...]], den: int,
               cap: int | None = None) -> None:
        """One tail for both constructors: the ints and den over their gcd
        (so den is the lcm of reduced denominators), checked and stored."""
        if type(den) is not int or den < 1:
            raise ValueError(f"den must be a positive int, got {den!r}")
        super().__init__()
        g = math.gcd(den, *itertools.chain(*rows), cap or 0)
        if g > 1:
            rows = [tuple(map(g.__rfloordiv__, row)) for row in rows]
        if not rows:
            raise ValueError("at least one row required")
        if len({len(row) for row in rows}) != 1:
            raise ValueError("rows must have equal length")
        self.den = den // g
        self._rows = tuple(sorted(set(rows)))
        self._cap = cap and cap // g
        # the JSON kind this shape is written as; _raw_cost branches on it
        if self._cap is not None:
            if len(self._rows) != 1:
                raise ValueError("a cap needs exactly one row")
            self.kind = "capped_additive"
        elif len(self._rows) == 1:
            self.kind = "additive"
        else:
            self.kind = "max_of_additive"
        if min(itertools.chain(*self._rows, [self._cap or 0])) < 0:
            raise ValueError("costs and cap must be non-negative")
        self.m = len(self._rows[0])
        self.additive = self.kind == "additive"
        self._removals: dict[frozenset[int], dict[int, int]] = {}

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(u, self.den) for u in row) for row in self._rows)

    @property
    def cap(self) -> Fraction | None:
        return None if self._cap is None else Fraction(self._cap, self.den)

    def _raw_cost(self, chores: frozenset[int]) -> int:
        if self.additive:
            return sum(map(self._rows[0].__getitem__, chores))
        return self._total([sum(map(row.__getitem__, chores)) for row in self._rows])

    def singleton_units(self) -> tuple[int, ...]:
        if self.additive:  # one uncapped row is its own table
            return self._rows[0]
        if self._singles is None:  # from the rows, not through the cache
            self._singles = tuple(map(self._total, zip(*self._rows)))
        return self._singles

    def floor_units(self, k: int) -> int:
        # each row sums k or more non-negative terms, each at least the
        # row's cheapest; the max over rows and the cap keep the order
        if self._minima is None:
            self._minima = [min(row, default=0) for row in self._rows]
        return self._total([k * low for low in self._minima])

    def _total(self, sums: Iterable[int]) -> int:
        total = max(sums)
        return total if self._cap is None or total < self._cap else self._cap

    def _row_sums(self, chores: frozenset[int]) -> list[int]:
        """The bundle's row sums, uncapped so that a chore can be taken out."""
        return [sum(map(row.__getitem__, self._checked(chores))) for row in self._rows]

    def bundle_state(self, chores: frozenset[int]) -> int | list[int]:
        # one row's state is its sum as a plain int, more rows' their list;
        # an uncapped row's sum is its units, read from the cache
        if self.additive:
            return self.units(chores)
        sums = self._row_sums(chores)
        return sums[0] if len(sums) == 1 else sums

    def add(self, state: int | list[int], chore: int) -> tuple[int | list[int], int]:
        if self.kind == "max_of_additive":  # no cap: the max of the sums
            state = [s + row[chore] for s, row in zip(state, self._rows)]
            return state, max(state)
        state += self._rows[0][chore]
        return state, state if self._cap is None or state < self._cap else self._cap

    def removal_units(self, bundle: frozenset[int], chores: Collection[int]
                      ) -> list[int]:
        if self.additive:
            total, row = self.units(bundle), self._rows[0]
            return [total - row[c] for c in chores]
        # from the bundle's row sums, and cached per bundle like units
        removals = self._removals.get(bundle)
        if removals is None:
            sums = self._row_sums(bundle)
            lows = zip(*([s - row[c] for c in bundle] for s, row in zip(sums, self._rows)))
            removals = self._removals[bundle] = dict(zip(bundle, map(self._total, lows)))
        return [removals[c] for c in chores]

    def _key(self) -> tuple:
        # den is canonical, so equal ints are equal costs, hashed as ints
        return (self.den, self._rows, self._cap)

    def __repr__(self) -> str:
        return f"RowOracle({self.rows!r}, {self.cap!r})"


def _summed_rows(oracles: Sequence[RowOracle], bundles: Sequence[frozenset[int]]
                 ) -> list[list[int]]:
    """Each oracle's row ``[units(b) for b in bundles]``, valued bundle by
    bundle for all the oracles at once: one getter of the bundle's chores
    picks them from every row of every oracle, each pick is summed (a
    one-chore pick is its sum), and the per-bundle sums are transposed into
    one line per row.  An additive oracle's row is its one line; any
    other's is the cap or the max over its lines, bundle by bundle.  No
    chore-major table of every chore's costs is built: on m = 1000 chores
    its m tuples cost more in garbage collection than they save."""
    if min(itertools.chain(*bundles), default=0) < 0:  # a pick would wrap
        raise IndexError(f"chore {min(itertools.chain(*bundles))} out of range "
                         f"for m={oracles[0].m}")
    rows = [row for oracle in oracles for row in oracle._rows]
    zero = (0,) * len(rows)
    sums = []
    for bundle in bundles:
        if not bundle:
            sums.append(zero)
            continue
        picks = map(itemgetter(*bundle), rows)
        sums.append(picks if len(bundle) == 1 else map(sum, picks))
    lines = zip(*sums)
    return [list(next(lines)) if oracle.additive else
            list(map(oracle._total, zip(*itertools.islice(lines, len(oracle._rows)))))
            for oracle in oracles]


def cost_rows(oracles: Sequence[CostOracle], bundles: Sequence[frozenset[int]]
              ) -> list[list[int]]:
    """Each oracle's row ``[units(b) for b in bundles]``, for the oracles of
    one instance.  A row comes from the oracle's cache when every non-empty
    bundle is there.  The ``RowOracle`` rows that miss are valued together
    (``_summed_rows``) and cached as ``units`` would cache them; any other
    oracle whose row misses calls ``units``."""
    # cache.get's defaults: None marks a miss, and the empty set costs 0
    defaults = [None if bundle else 0 for bundle in bundles]
    rows = [list(map(oracle._cache.get, bundles, defaults)) for oracle in oracles]
    missed = [i for i, row in enumerate(rows) if None in row]
    summed = [i for i in missed if isinstance(oracles[i], RowOracle)]
    if summed:
        for i, row in zip(summed, _summed_rows([oracles[i] for i in summed], bundles)):
            cache = oracles[i]._cache
            cache.update(zip(bundles, row))
            cache.pop(frozenset(), None)  # units never stores the empty set
            rows[i] = row
    for i in missed:
        if not isinstance(oracles[i], RowOracle):
            rows[i] = list(map(oracles[i].units, bundles))
    return rows


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
    """Explicit table over all 2^m subsets; checked monotone on demand by
    ``require_monotone``, as the CLI's loader and the grouped tEFX do.
    It stores ints alone: ``den``, the lcm of the values' reduced
    denominators, and each subset's value times ``den``."""

    def __init__(self, m: int, values: dict) -> None:
        super().__init__()
        self.m = m
        exact = {frozenset(k): _exact(v) for k, v in values.items()}
        # 2^m distinct subsets of the m chores are exactly all of them; the
        # key count's bit length comes first, so a huge m builds nothing
        if (len(exact).bit_length() != m + 1 or len(exact) != 2**m
                or not frozenset().union(*exact) <= frozenset(range(m))):
            raise ValueError(
                f"table keys must be exactly the 2^{m} subsets of chores "
                f"0..{m - 1}")
        if any(v < 0 for v in exact.values()):
            raise ValueError("table values must be non-negative")
        self.den = math.lcm(*(v.denominator for v in exact.values()))
        self._units = dict(zip(exact, _scaled(exact.values(), self.den)))

    def _raw_cost(self, chores: frozenset[int]) -> int:
        return self._units[chores]

    def _key(self) -> tuple:
        # den is canonical, so equal ints are equal costs, as for RowOracle
        return (self.m, self.den, frozenset(self._units.items()))

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

    Refuses (raises EnumerationLimitError) when a requested check would
    take more than ENUM_LIMIT steps; never silently passes.
    """
    m = oracle.m
    results: dict[str, tuple] = {}
    for check in checks:
        if check not in ("monotone", "subadditive"):
            raise ValueError(f"unknown check {check!r}")
        steps = m * 2**m if check == "monotone" else 3**m
        if steps > ENUM_LIMIT:
            # the count in full only while short: str() refuses an int of
            # over 4,300 digits, which m * 2^m reaches at m = 14,300
            spelled = f"{m}·2^{m}" if check == "monotone" else f"3^{m}"
            if m <= 64:
                spelled += f" = {steps}"
            raise EnumerationLimitError(
                f"{check} check on m={m} chores takes {spelled} steps, "
                f"over the limit of {ENUM_LIMIT}")
        bad = []
        units = oracle.units  # one oracle's ints over den compare as its costs
        if check == "monotone":
            for sub in map(frozenset, itertools.chain.from_iterable(
                    itertools.combinations(range(m), r) for r in range(m + 1))):
                base = units(sub)
                for c in range(m):
                    if c not in sub and units(sub | {c}) < base:
                        bad.append((tuple(sorted(sub)), c))
        else:
            # subadditive: every chore goes to S, T or neither, 3^m disjoint pairs
            for assignment in itertools.product(range(3), repeat=m):
                s = frozenset(c for c, a in enumerate(assignment) if a == 1)
                t = frozenset(c for c, a in enumerate(assignment) if a == 2)
                if units(s | t) > units(s) + units(t):
                    bad.append((tuple(sorted(s)), tuple(sorted(t))))
        results[check] = tuple(bad)
    return results


def require_monotone(oracle: CostOracle, what: str) -> None:
    """Refuse a non-monotone oracle, naming ``what`` and its first violation
    1-based; mark one that passes, so that it is not enumerated again."""
    if oracle.monotone:
        return
    bad = validate_oracle(oracle, ("monotone",))["monotone"]
    if bad:
        subset, chore = bad[0]
        raise PreconditionError(
            f"{what} is not monotone: adding chore {chore + 1} to "
            f"{{{','.join(str(c + 1) for c in subset)}}} lowers its cost")
    oracle.monotone = True


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


def _distinct_costs(rng: random.Random, m: int) -> list[int]:
    return rng.sample(range(1, 20 * m + 200), m)


def _ratio_bounded_oracle(rng: random.Random, m: int, alpha: Fraction) -> RowOracle:
    # low * (1 + (alpha - 1) * off / (grid - 1)) in [low, alpha*low] for
    # distinct offsets, so ratio <= alpha: ints over den, alpha = p/q
    low = rng.randint(20, 80)
    grid = max(m + 1, 101)
    p, q = alpha.numerator, alpha.denominator
    den = (grid - 1) * q
    return RowOracle.from_units(
        [[low * (den + (p - q) * off) for off in rng.sample(range(grid), m)]], den)


def generate_instance(family: str, n: int, m: int, seed: int, **params):
    """Deterministic seeded instance of the requested structural family.

    The family's structural property is re-checked after generation.
    """
    from .core import Instance
    from .ido import check_k_partial_ido

    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if family not in GENERATOR_FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {tuple(GENERATOR_FAMILIES)}")
    unused = sorted(params.keys() - {GENERATOR_FAMILIES[family]})
    if unused:
        raise ValueError(f"family {family!r} does not use {', '.join(map(repr, unused))}")
    rng = random.Random(f"{family}:{n}:{m}:{seed}")

    if family == "additive":
        oracles = tuple(AdditiveOracle(_distinct_costs(rng, m)) for _ in range(n))
    elif family == "additive_ratio":
        alpha = Fraction(params.get("alpha", 2))
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        oracles = tuple(_ratio_bounded_oracle(rng, m, alpha) for _ in range(n))
        for oracle in oracles:
            if ratio_bound(oracle) > alpha:
                raise AssertionError("generator broke its ratio bound")
    elif family == "capped_additive":
        built = []
        for _ in range(n):
            costs = _distinct_costs(rng, m)
            top = max(costs)  # the cap lies in [top, sum(costs)], over 100
            cap = 100 * top + rng.randint(1, 100) * (sum(costs) - top)
            built.append(RowOracle.from_units([[100 * c for c in costs]], 100, cap))
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
            costs = [0] * m
            low_pool = rng.sample(range(1, hi), len(rest))
            for c, v in zip(rest, low_pool):
                costs[c] = v
            # shared top-k strictly above everything else and strictly ordered
            for rank, c in enumerate(shared_top):
                costs[c] = hi * (k - rank + 1) + rng.randint(0, hi - 1)
            built.append(AdditiveOracle(costs))
        oracles = tuple(built)
        instance = Instance(m, n, oracles)
        if not check_k_partial_ido(instance, k):
            raise AssertionError("generator broke the k-partial-IDO property")
        return instance
    else:  # identical_groups
        sizes = tuple(int(s) for s in params.get("sizes", (n,)))
        if sum(sizes) != n or any(s < 1 for s in sizes):
            raise ValueError("group sizes must be positive and sum to n")
        built = []
        for size in sizes:
            shared = AdditiveOracle(_distinct_costs(rng, m))
            built.extend([shared] * size)
        oracles = tuple(built)

    return Instance(m, n, oracles)
