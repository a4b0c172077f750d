"""Transfer-stable fairness when agents fall into a few cost groups.

tEFX asks that no agent envies another even after transferring any single
chore from its own bundle to the other's.  When the agents split into a
group sharing one general monotone cost, a group sharing an additive cost
whose chore prices differ by at most a factor of two, and at most one
extra agent, a tEFX allocation always exists and can be built
constructively.

The construction keeps a prefix of bundles EFX-feasible for the first
cost and a suffix tEFX-feasible for the second, shrinking the prefix one
chore at a time.  This script traces those moves, then lets one extra
agent pick from the same construction.
"""

from chorefair import (
    AdditiveOracle,
    GroupSpec,
    Instance,
    MaxOfAdditiveOracle,
    check_tefx,
    generate_instance,
    tefx_three_group,
    tefx_two_group,
)


def main():
    m = 11
    # group 1: max of two additive rows (monotone, not additive)
    c1 = MaxOfAdditiveOracle([[36, 4, 12, 9, 23, 3, 5, 4, 32, 2, 2],
                              [27, 8, 2, 5, 30, 16, 3, 8, 8, 3, 16]])
    # group 2: additive with singleton costs within a factor of two
    c2 = generate_instance("additive_ratio", 1, m, 16143, alpha=2).oracles[0]
    print("second-group chore costs (max/min <= 2):",
          ", ".join(str(c2.singleton(c)) for c in range(m)))

    n, k = 5, 4
    trace = []
    alloc = tefx_two_group(n, c1, c2, k, trace=trace)
    print(f"\ntwo-group construction, {n} bundles, last {k} for group 2:")
    for move in trace:
        source, target = move.agents
        front = move.allocation.bundles[: n - move.step + 1]
        print(f"  level k={move.step}: moved chore c{move.chore + 1} from "
              f"bundle {source + 1} to bundle {target + 1} "
              f"(front chores remaining: {sum(map(len, front))})")
    print("  bundles:", [sorted(c + 1 for c in b) for b in alloc.bundles])

    # one group-1 agent, three group-2 agents and a third, unrelated agent:
    # the same construction runs, and the extra agent picks its cheapest
    # bundle
    c3 = AdditiveOracle([5, 5, 1, 9, 9, 2, 8, 4, 3, 7, 6])
    instance = Instance(m, n, (c1, c2, c2, c2, c3))
    groups = GroupSpec(frozenset({0}), frozenset({1, 2, 3}), frozenset({4}))
    full = tefx_three_group(instance, groups)
    print("\nthree-group allocation with one extra agent:")
    for agent, bundle in enumerate(full.bundles):
        print(f"  agent {agent + 1}: {sorted(c + 1 for c in bundle)}")
    print("  tEFX verdict:", check_tefx(full, instance).verdict)


if __name__ == "__main__":
    main()
