"""Shared fixtures-in-plain-code for the test suite."""

import math
import random
from fractions import Fraction
from itertools import chain, combinations, product

from chorefair import (
    AdditiveOracle,
    Allocation,
    CostOracle,
    Instance,
    MaxOfAdditiveOracle,
    PreconditionError,
    generate_instance,
)
from chorefair.core import check_criterion
from chorefair.oracles import _scaled
from chorefair.verify import counterexample_instance


def tri(c1, c2, c3) -> Instance:
    return Instance(len(c1), 3, (AdditiveOracle(c1), AdditiveOracle(c2),
                                 AdditiveOracle(c3)))


# one hand-built additive instance per classification case (m = 6)
CASE_INSTANCES = {
    "A1": tri([10, 9, 5, 4, 3, 2], [20, 18, 8, 6, 4, 2], [30, 27, 12, 9, 6, 3]),
    "A2": tri([10, 9, 5, 4, 3, 2], [20, 18, 8, 6, 4, 2], [30, 8, 27, 9, 6, 3]),
    "A3": tri([10, 9, 5, 4, 3, 2], [20, 8, 18, 6, 4, 2], [30, 8, 9, 27, 6, 3]),
    "B1": tri([10, 9, 5, 4, 3, 2], [18, 20, 8, 6, 4, 2], [3, 30, 27, 9, 6, 2]),
    "B21": tri([10, 9, 5, 4, 3, 2], [18, 20, 4, 8, 6, 2], [3, 2, 30, 27, 9, 6]),
    "B221": tri([10, 9, 5, 4, 3, 2], [18, 20, 8, 6, 4, 2], [3, 2, 30, 27, 9, 6]),
    "B2221": tri([10, 9, 3, 4, 5, 2], [20, 18, 6, 8, 10, 2], [3, 2, 30, 27, 9, 6]),
    "B2222": tri([10, 9, 3, 4, 5, 2], [18, 20, 6, 8, 10, 2], [3, 2, 30, 27, 9, 6]),
    "C": tri([10, 9, 5, 4, 3, 2], [20, 8, 6, 18, 4, 2], [3, 2, 30, 27, 9, 6]),
    "D1": tri([10, 4, 3, 9, 2, 1], [9, 10, 3, 4, 2, 1], [4, 3, 10, 9, 2, 1]),
    "D21": tri([10, 9, 5, 4, 3, 2], [4, 3, 10, 9, 2, 1], [3, 2, 5, 4, 10, 9]),
    "D22": tri([10, 4, 3, 9, 2, 1], [4, 10, 3, 9, 2, 1], [4, 3, 10, 9, 2, 1]),
    "D23": tri([10, 4, 3, 9, 2, 1], [4, 10, 3, 9, 2, 1], [4, 3, 10, 2, 9, 1]),
}

ANCHORS = "anchors: role 2 holds b1 alone, role 1 holds b2 and its second chore"
PEELED = "peeled subset D joins b1"
POOL = "pool below threshold; full allocation"
SWAPPED = "role 2 envied role 1; bundles swapped"

# one additive instance per note path through the B2221 / B2222 analysis:
# (case, notes after the anchors, rows, seed bundles), the seeds recorded
# from the solver.  A seeded search over skewed costs (powers of two, mixes
# of 1-3 with 50-1,000, or roles 1 and 2 within 3 of each other) found every
# path at m = 6 but the rescue, which is hand-built at m = 8.
_DEEP_B_PATHS = (
    ("B2221", (PEELED,),
     [[999, 500, 237, 804, 917, 474], [1002, 500, 239, 801, 917, 473],
      [2, 402, 3, 292, 3, 848]],
     [[4, 5], [1, 3], [0]]),
    ("B2221", (PEELED, SWAPPED),
     [[546, 87, 3, 827, 377, 329], [546, 90, 1, 829, 380, 329],
      [602, 247, 766, 321, 674, 914]],
     [[4, 5], [0, 2], [3]]),
    ("B2221", (POOL,),
     [[2, 261, 2, 719, 85, 385], [1, 259, 4, 718, 82, 385],
      [667, 2, 3, 1, 727, 2]],
     [[0, 5], [1, 2, 4], [3]]),
    ("B2221", (POOL, SWAPPED),
     [[1, 535, 208, 1, 282, 997], [3, 2, 764, 922, 1, 317],
      [2, 845, 86, 1, 809, 855]],
     [[0, 2, 4], [5], [1, 3]]),
    ("B2221", (POOL, "role 1 strongly envied role 2; regroup"),
     [[2, 346, 3, 727, 1, 3], [2, 345, 6, 728, 4, 2],
      [750, 461, 3, 1, 3, 871]],
     [[0, 2, 4, 5], [1], [3]]),
    ("B2222", ("no strong envy possible; keep seed",),
     [[2, 256, 256, 512, 8, 1024], [8, 16, 1, 512, 16, 64],
      [512, 2, 1024, 2, 128, 32]],
     [[0, 3], [2], [5]]),
    ("B2222", (PEELED, "role 2 envies role 1"),
     [[778, 288, 1, 1, 679, 562], [725, 396, 93, 3, 779, 566],
      [2, 1, 779, 697, 127, 544]],
     [[1, 2, 5], [0, 3], [4]]),
    ("B2222", (PEELED, "role 2 strongly envies role 3"),
     [[45, 100, 90, 40, 30, 20, 20, 20], [19, 20, 200, 18, 18, 18, 18, 18],
      [1, 1, 1, 100, 90, 5, 5, 5]],
     [[2, 3], [1, 4], [5, 6, 7]]),
    ("B2222", (PEELED, "role 2 content; keep seed with D"),
     [[256, 64, 1024, 64, 32, 16], [32, 4, 2, 128, 1024, 128],
      [32, 8, 4, 1024, 256, 128]],
     [[4], [2, 3], [0, 5]]),
    ("B2222", (POOL,),
     [[3, 2, 2, 3, 2, 2], [3, 770, 425, 1, 2, 606],
      [157, 581, 231, 1, 1, 950]],
     [[5], [0, 2, 4], [1, 3]]),
    ("B2222", (POOL, "role 2 strongly envied role 1; regroup"),
     [[393, 3, 130, 2, 2, 1], [564, 3, 849, 3, 3, 2],
      [2, 3, 1, 1, 175, 999]],
     [[0], [1, 3, 4, 5], [2]]),
)


def deep_b_cases():
    """{note path of solve_case, "seed" excluded: (instance, seed)} for
    every path through the B2221 and B2222 analysis.  Keyed on the path,
    since one note can end two different paths."""
    cases = {}
    for case, notes, rows, seed in _DEEP_B_PATHS:
        inst = tri(*rows)
        cases[(f"case {case}", ANCHORS, *notes)] = (
            inst, Allocation.from_bundles(seed, inst.m))
    return cases


COUNTEREXAMPLE = counterexample_instance(26, 12)

HALF = Fraction(1, 2)


def unit_potential_drops(moves, n: int) -> bool:
    """Whether the potential, the chore count of the first n - k + 1
    bundles of each "move" snapshot, falls by exactly 1 per move within
    each level k."""
    by_level: dict[int, list[int]] = {}
    for move in moves:
        assert move.kind == "move"
        front = move.allocation.bundles[: n - move.step + 1]
        by_level.setdefault(move.step, []).append(sum(map(len, front)))
    return all(a - b == 1 for phis in by_level.values()
               for a, b in zip(phis, phis[1:]))


def ratio2_oracle(m, seed):
    return generate_instance("additive_ratio", 1, m, seed, alpha=2).oracles[0]


# seeds of the wide shape in two_group_cases whose runs move two or three
# chores within one level (about 1 run in 300 does)
MOVING_SEEDS = (479, 861, 1904, 2390, 2699, 2737, 2856)


def two_group_cases():
    """(n, C1, C2, whether some level makes several moves): 15 small
    random instances, then the wide shape at MOVING_SEEDS."""
    for seed in range(15):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        m = rng.randint(n, 10)
        c1 = MaxOfAdditiveOracle(
            [[rng.randint(1, 20) for _ in range(m)] for _ in range(2)])
        yield n, c1, ratio2_oracle(m, seed), False
    for seed in MOVING_SEEDS:
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        m = rng.randint(n, 14)
        c1 = MaxOfAdditiveOracle([[rng.randint(1, 40) for _ in range(m)]
                                  for _ in range(rng.randint(1, 2))])
        yield n, c1, ratio2_oracle(m, seed), True


def all_subsets(m):
    """Every subset of chores 0..m-1, by size, then lexicographically."""
    return [frozenset(s) for s in chain.from_iterable(
        combinations(range(m), r) for r in range(m + 1))]


def product_search(instance: Instance, criterion: str, alpha=1):
    """The unpruned reference for exhaustive_search: the first assignment
    vector in itertools.product order whose allocation passes, or None."""
    for assignment in product(range(instance.n), repeat=instance.m):
        bundles = [[] for _ in range(instance.n)]
        for chore, agent in enumerate(assignment):
            bundles[agent].append(chore)
        alloc = Allocation.full(bundles)
        if check_criterion(alloc, instance, criterion, alpha).verdict:
            return alloc
    return None


class PerturbedOracle(CostOracle):
    """Base cost plus epsilon * sum of 2^j over 1-based chore indices j:
    the tests' generic monotone oracle that is not a RowOracle."""

    def __init__(self, base: CostOracle, epsilon) -> None:
        super().__init__()
        self.base = base
        self.epsilon = Fraction(epsilon)
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.m = base.m
        self.monotone = base.monotone  # the bump only grows with S
        self.den = math.lcm(base.den, self.epsilon.denominator)
        self._base_scale = self.den // base.den
        (self._eps,) = _scaled((self.epsilon,), self.den)

    def _raw_cost(self, chores: frozenset[int]) -> int:
        bump = sum(2 ** (c + 1) for c in chores)
        return self.base.units(chores) * self._base_scale + self._eps * bump

    def _key(self) -> tuple:
        return (self.base, self.epsilon)


def compute_delta(oracles):
    """Joint delta over all agents: min gap among differing subset costs
    of one agent."""
    gaps = []
    for oracle in oracles:
        values = sorted({oracle.cost(s) for s in all_subsets(oracle.m)})
        gaps += [b - a for a, b in zip(values, values[1:])]
    if not gaps:
        raise PreconditionError("no subset pair with differing cost; delta undefined")
    return min(gaps)


def perturb_nondegenerate(instance):
    """(perturbed instance, epsilon): C'(S) = C(S) + epsilon * sum of 2^j
    over 1-based chore indices j in S, with epsilon = delta / 2^(m+2), so
    that epsilon * 2^(m+1) < delta: every tie is broken, every strict
    order kept."""
    epsilon = compute_delta(instance.oracles) / 2 ** (instance.m + 2)
    return (Instance(instance.m, instance.n,
                     tuple(PerturbedOracle(o, epsilon) for o in instance.oracles)),
            epsilon)
