"""Why greedy cycle elimination can fail arbitrarily badly on chores.

A well-known strategy for allocating chores seeds a partial allocation,
then repeatedly hands the next costliest unallocated chore to a sink of
the top-trading envy graph.  On a particular six-chore, three-agent
instance this drives one agent's envy ratio to m2/3, which grows without
bound in the instance parameter m2.

This script replays that failing run step by step, then runs the
case-based three-agent algorithm on the same instance and shows it
produces an envy-free-up-to-any-chore (EFX) allocation outright.
"""

from chorefair import (
    check_alpha_efx,
    counterexample_instance,
    rival_counterexample_run,
    three_agent_2efx,
)


def show(alloc):
    return " | ".join(
        "{" + ", ".join(f"c{c + 1}" for c in sorted(b)) + "}"
        for b in alloc.bundles)


def main():
    m1, m2 = 26, 12
    instance = counterexample_instance(m1, m2)
    print(f"instance parameters: m1 = {m1}, m2 = {m2}")
    for agent, oracle in enumerate(instance.oracles):
        costs = ", ".join(str(oracle.cost((c,))) for c in range(6))
        print(f"  agent {agent + 1} chore costs: {costs}")

    run = rival_counterexample_run(m1, m2)
    print("\ngreedy cycle-elimination run (edges of the envy graph):")
    for step, succ in enumerate(run.graphs):
        edges = [(i + 1, j + 1) for i, j in enumerate(succ) if j is not None]
        print(f"  step {step}: {edges or 'no envy'}")
    print(f"  final allocation: {show(run.allocation)}")
    print(f"  agent 3's envy ratio after removing its cheapest chore: "
          f"{run.ratio} (= m2/3, unbounded in m2)")

    own = three_agent_2efx(instance)
    report = check_alpha_efx(own, instance, 1)
    print(f"\ncase-based algorithm on the same instance: {show(own)}")
    print(f"  EFX verdict: {report.verdict}")

    # the gap widens with the parameter: same shape, ratio 100
    worse = rival_counterexample_run(602, 300)
    print(f"\nwith (m1, m2) = (602, 300) the greedy ratio becomes "
          f"{worse.ratio}")


if __name__ == "__main__":
    main()
