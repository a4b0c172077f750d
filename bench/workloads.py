"""The four benchmark workloads: seeded instance sets and their operations.

An operation solves one instance and then re-checks the output the way a
user would (`check_alpha_efx` at the algorithm's guarantee, or
`check_tefx`).  Every call into the library goes through a module
attribute at call time (`api.three_agent_2efx`, `cli.main`, ...) so that
the traced run can swap in wrapped functions.

Each workload function returns the run's instance set, built from a
generator seeded by the run's seed.  A run rebuilds the set for every pass,
so each solve starts from fresh instances whose oracle caches are empty.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import chorefair as api
from chorefair import cli
from chorefair.oracles import AdditiveOracle, MaxOfAdditiveOracle
from chorefair.round_robin import round_count
from chorefair.tefx import GroupSpec

TWO = Fraction(2)

# `generate_instance("k_partial_ido")` draws the non-top costs with
# `rng.sample(range(1, 100), m - k)`, so it fails once m - k > 99.
IDO_MAX_NON_TOP = 99

THREE_AGENT_FAMILIES = ("additive", "capped_additive", "max_of_additive")


@dataclass
class Op:
    """One operation.  `criteria` lists the guarantees the output must meet:
    an alpha for alpha-EFX, or None for tEFX."""

    kind: str
    instance: api.Instance
    criteria: tuple[Fraction | None, ...]
    solve: Callable[[], object]
    check: Callable[[object], bool]
    allocation: Callable[[object], api.Allocation]


def _recheck(alloc: api.Allocation, instance: api.Instance,
             criteria: tuple[Fraction | None, ...]) -> bool:
    return all(
        (api.check_tefx(alloc, instance) if alpha is None
         else api.check_alpha_efx(alloc, instance, alpha)).verdict
        for alpha in criteria)


def _library_op(kind: str, instance: api.Instance,
                criteria: tuple[Fraction | None, ...],
                solve: Callable[[], api.Allocation]) -> Op:
    return Op(kind, instance, criteria, solve,
              lambda alloc: _recheck(alloc, instance, criteria),
              lambda alloc: alloc)


def _cli_op(instance: api.Instance, workdir: Path, slot: int) -> Op:
    """`chorefair solve` then `chorefair verify`, in-process, on a JSON
    instance file written during set-up."""
    path = workdir / f"cli-{slot}.json"
    out = workdir / f"cli-{slot}.out.json"
    path.write_text(json.dumps(cli.instance_to_json(instance)))
    solve_argv = ["solve", "--instance", str(path),
                  "--algorithm", "three-agent-2efx", "--output", str(out)]
    verify_argv = ["verify", "--instance", str(path), "--allocation", str(out),
                   "--criterion", "alpha_efx", "--alpha", "2"]

    def check(code: int) -> bool:
        with contextlib.redirect_stdout(io.StringIO()):
            return code == 0 and cli.main(verify_argv) == 0

    def allocation(code: int) -> api.Allocation:
        return cli.allocation_from_json(json.loads(out.read_text()), instance.m)

    return Op("cli", instance, (TWO,), lambda: cli.main(solve_argv), check,
              allocation)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def three_agent_large(rng: random.Random, tiny: bool, workdir: Path) -> list[Op]:
    """`three_agent_2efx` on a ladder of sizes, m = 120, 124, ..., 188, with
    the three cost families taken in turn.  Each instance has its own size,
    so the median falls between neighbouring sizes, not into the gap
    between two size classes."""
    ops = []
    for step in range(9 if tiny else 18):
        m = 12 + 2 * step if tiny else 120 + 4 * step
        family = THREE_AGENT_FAMILIES[step % len(THREE_AGENT_FAMILIES)]
        inst = api.generate_instance(family, 3, m, _seed(rng))
        ops.append(_library_op(f"{family}/m={m}", inst, (TWO,),
                               lambda inst=inst: api.three_agent_2efx(inst)))
    return ops


def ido_many_agents(rng: random.Random, tiny: bool, workdir: Path) -> list[Op]:
    """`partial_ido_2efx` on k-partial-IDO instances with m = 3n, k = n - 1."""
    ops = []
    for n in ((4, 5, 6) if tiny else (16, 20, 24)):
        m = 3 * n
        if m - (n - 1) > IDO_MAX_NON_TOP:
            raise ValueError(f"n={n}, m={m} exceeds the k_partial_ido generator cap")
        inst = api.generate_instance("k_partial_ido", n, m, _seed(rng), k=n - 1)
        ops.append(_library_op(f"ido/n={n}", inst, (TWO,),
                               lambda inst=inst: api.partial_ido_2efx(inst)))
    return ops


def _round_robin_op(inst: api.Instance, alpha: int) -> Op:
    bound = api.guarantee_ratio(alpha, round_count(inst))
    criteria = (bound, None) if alpha <= 2 else (bound,)
    return _library_op(f"round_robin/alpha={alpha}", inst, criteria,
                       lambda: api.round_robin_allocate(inst)[0])


def round_robin_verify(rng: random.Random, tiny: bool, workdir: Path) -> list[Op]:
    """`round_robin_allocate` on ratio-bounded additive costs, checked at
    `guarantee_ratio` and, where alpha <= 2, for tEFX.  Two alpha = 2
    instances per alpha = 3 one put the check-time median inside the
    tEFX-checked group."""
    n, m = (4, 20) if tiny else (40, 200)
    return [
        _round_robin_op(
            api.generate_instance("additive_ratio", n, m, _seed(rng), alpha=alpha),
            alpha)
        for alpha in (2, 2, 3)
    ]


def _grouped_tefx_op(rng: random.Random) -> Op:
    """The acceptance-suite shape: a max-of-additive C1 group, a 2-ratio
    additive C2 group and an optional additive third agent."""
    s1, s2, s3 = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 1)
    n = s1 + s2 + s3
    m = rng.randint(n, 14)
    c1 = MaxOfAdditiveOracle(
        [[rng.randint(1, 40) for _ in range(m)] for _ in range(2)])
    c2 = api.generate_instance("additive_ratio", 1, m, _seed(rng), alpha=2).oracles[0]
    oracles = [c1] * s1 + [c2] * s2
    if s3:
        oracles.append(AdditiveOracle([rng.randint(1, 40) for _ in range(m)]))
    inst = api.Instance(m, n, tuple(oracles))
    groups = GroupSpec(frozenset(range(s1)), frozenset(range(s1, s1 + s2)),
                       frozenset({n - 1}) if s3 else frozenset())
    return _library_op("grouped_tefx", inst, (None,),
                       lambda: api.tefx_three_group(inst, groups))


# One cycle of the small_exact mix; the instance set repeats it.
SMALL_MIX = ("exhaustive", "exhaustive", "case", "case", "case",
             "grouped_tefx", "grouped_tefx", "round_robin", "cli", "cli")


def small_exact(rng: random.Random, tiny: bool, workdir: Path) -> list[Op]:
    """Small mixed instances: m = 5 exhaustive search, m = 6..12 case
    analysis, grouped tEFX, small round-robin, and the CLI round trip."""
    ops = []
    for slot, kind in enumerate(SMALL_MIX * (1 if tiny else 100)):
        if kind == "exhaustive":
            inst = api.generate_instance("additive", 3, 5, _seed(rng))
            ops.append(_library_op("exhaustive/m=5", inst, (TWO,),
                                   lambda inst=inst: api.three_agent_2efx(inst)))
        elif kind == "case":
            family = rng.choice(THREE_AGENT_FAMILIES)
            inst = api.generate_instance(family, 3, rng.randint(6, 12), _seed(rng))
            ops.append(_library_op(f"case/{family}", inst, (TWO,),
                                   lambda inst=inst: api.three_agent_2efx(inst)))
        elif kind == "grouped_tefx":
            ops.append(_grouped_tefx_op(rng))
        elif kind == "round_robin":
            alpha = rng.choice((2, 3, 5))
            n = rng.randint(2, 5)
            m = rng.randint(2 * n + 1, 4 * n)  # ceil(m/n) >= 3 rounds
            inst = api.generate_instance("additive_ratio", n, m, _seed(rng),
                                         alpha=alpha)
            ops.append(_round_robin_op(inst, alpha))
        else:
            inst = api.generate_instance("additive", 3, rng.randint(6, 10), _seed(rng))
            ops.append(_cli_op(inst, workdir, slot))
    return ops


WORKLOADS: dict[str, Callable[[random.Random, bool, Path], list[Op]]] = {
    "three_agent_large": three_agent_large,
    "ido_many_agents": ido_many_agents,
    "round_robin_verify": round_robin_verify,
    "small_exact": small_exact,
}


def is_correct(op: Op, alloc: api.Allocation) -> bool:
    """Correctness outside the timed region: a full allocation that passes
    the independent second-opinion checkers at every guarantee."""
    return alloc.is_full and all(
        api.independent_tefx(alloc, op.instance) if alpha is None
        else api.independent_alpha_efx(alloc, op.instance, alpha)
        for alpha in op.criteria)
