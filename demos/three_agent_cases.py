"""A tour of the case analysis behind the three-agent 2-EFX algorithm.

For three agents with monotone subadditive costs, a 2-EFX allocation can
always be built by classifying the instance by how the agents rank their
two or three most costly chores, seeding a small partial allocation per
case, and extending it with top-trading cycle elimination.

This script classifies a batch of random instances, reports how often
each case fires, and walks one instance end to end.
"""

from collections import Counter

from chorefair import (
    check_alpha_efx,
    classify_case,
    generate_instance,
    solve_case,
    three_agent_2efx,
)
from chorefair.three_agent import CASE_IDS


def main():
    counts = Counter()
    for seed in range(500):
        instance = generate_instance("additive", 3, 6 + seed % 7, seed)
        case, _ = classify_case(instance)
        counts[case] += 1
    print("case frequencies over 500 random additive instances:")
    for case in CASE_IDS:
        bar = "#" * (counts[case] // 5)
        print(f"  {case:6s} {counts[case]:4d} {bar}")

    instance = generate_instance("capped_additive", 3, 8, 7)
    case, context = classify_case(instance)
    print(f"\nworked instance (8 chores, capped-additive costs): case {case}")
    print(f"  agent roles (who plays agent 1/2/3 in the case): "
          f"{tuple(r + 1 for r in context.roles)}")

    seeded = solve_case(instance, case, context)
    print(f"  seeded bundles: "
          f"{[sorted(c + 1 for c in b) for b in seeded.bundles]}")
    print(f"  unallocated pool: {sorted(c + 1 for c in seeded.pool)}")

    final = three_agent_2efx(instance)
    print(f"  final bundles:  "
          f"{[sorted(c + 1 for c in b) for b in final.bundles]}")
    print(f"  2-EFX verdict: {check_alpha_efx(final, instance, 2).verdict}")
    print(f"  exact EFX verdict: "
          f"{check_alpha_efx(final, instance, 1).verdict} "
          f"(2-EFX is the guarantee; exact EFX is a bonus when it happens)")


if __name__ == "__main__":
    main()
