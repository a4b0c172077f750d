"""Round-robin picking and its approximation guarantee.

Agents take turns choosing their least costly remaining chore.  When
every agent's additive chore costs lie within a factor alpha of each
other and there are at least three full picking rounds, the result is
(1 + (alpha - 1)/(rounds - 1))-EFX -- and fully tEFX when alpha <= 2.

This script runs the procedure, prints the pick sequence, and measures
how the realized envy compares to the proven bound as rounds grow.
"""

from fractions import Fraction

from chorefair import (
    check_alpha_efx,
    check_tefx,
    generate_instance,
    guarantee_ratio,
    round_robin_allocate,
)
from chorefair.core import max_removal_cost
from chorefair.round_robin import round_count


def realized_ratio(alloc, instance):
    worst = Fraction(0)
    for i in range(instance.n):
        mine = alloc.bundles[i]
        if not mine:
            continue
        removed = max_removal_cost(instance.oracles[i], mine)
        for j in range(instance.n):
            if i == j:
                continue
            other = instance.oracles[i].cost(alloc.bundles[j])
            if other > 0:
                worst = max(worst, removed / other)
    return worst


def main():
    instance = generate_instance("additive_ratio", 3, 9, 2, alpha=3)
    alloc, trace = round_robin_allocate(instance)
    print("pick sequence (3 agents, 9 chores, costs within a factor 3):")
    for pick in trace.picks:
        (agent,) = pick.agents
        cost = instance.oracles[agent].cost((pick.chore,))
        print(f"  round {pick.step}: agent {agent + 1} takes "
              f"c{pick.chore + 1} (cost {cost})")
    bound = guarantee_ratio(3, round_count(instance))
    print(f"  guarantee: {bound}-EFX; verdict "
          f"{check_alpha_efx(alloc, instance, bound).verdict}; "
          f"realized worst envy ratio {realized_ratio(alloc, instance)}")

    print("\nbound vs realization as the number of rounds grows (alpha=3):")
    for rounds in (3, 5, 8, 12):
        inst = generate_instance("additive_ratio", 3, 3 * rounds, 5, alpha=3)
        out, _ = round_robin_allocate(inst)
        bound = guarantee_ratio(3, round_count(inst))
        print(f"  {rounds:2d} rounds: bound {str(bound):>6s}, realized "
              f"{float(realized_ratio(out, inst)):.3f}")

    inst2 = generate_instance("additive_ratio", 4, 13, 9, alpha=2)
    out2, _ = round_robin_allocate(inst2)
    print(f"\nwith alpha = 2 the outcome is also tEFX: "
          f"{check_tefx(out2, inst2).verdict}")


if __name__ == "__main__":
    main()
