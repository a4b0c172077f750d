"""Scaling ladders of `three_agent_2efx`, `check_tefx`, `check_alpha_efx`,
`partial_ido_2efx` and `exhaustive_search`, the cost of building
instances, and an in-process CLI round trip (standard library only).

Eight rungs, each run on every checkout, written to one JSON file:

- `three_agent_2efx` on `generate_instance(family, 3, m, 1)` for each m in
  SIZES and each row-cost family;
- `check_tefx` on the `round_robin_allocate` output for
  `generate_instance(family, 50, m, 1)` for each m in TEFX_SIZES and each
  row-cost family;
- `check_alpha_efx` at `guarantee_ratio(2, rounds)` on the
  `round_robin_allocate` output for `generate_instance("additive_ratio",
  n, 5n, 1, alpha=2)` for each n in ALPHA_AGENTS: the checker's scaling
  in n;
- `partial_ido_2efx` on `generate_instance("k_partial_ido", n, 4n, 1,
  k=n-1)` for each n in IDO_AGENTS: the extension's scaling in n;
- `generate`, `generate_instance` itself, and `load`,
  `cli.instance_from_json(cli.instance_to_json(instance))` on a freshly
  generated instance, each for `additive_ratio` (alpha 2) at n = 40,
  m = 200 and for each row-cost family at n = 3, m = 188: what a CLI run
  spends before it solves.

Each point holds the best of five wall times, each on a freshly
generated instance (empty oracle caches; generation and, for the
checkers, the allocation not timed), and `chores_summed` of one more
run: the chore terms the cost kernels of `chorefair.oracles` summed, counted by
wrapping them from outside the library.

- `_raw_cost`, one cost-cache miss: |S| terms;
- `add`, one chore onto a bundle's state: 1 term (|chores| terms where
  `add` takes a collection of chores);
- `_row_sums`, a bundle's uncapped row sums, behind `bundle_state` (an
  uncapped one-row oracle's state is its `units` instead, so a cache
  miss counts at `_raw_cost`) and the row-sum path of `removal_units`:
  |S| terms. Where `add` takes a collection, `bundle_state` builds the
  row sums through `add` instead, so they are counted there, once either
  way;
- `removal_units` on a bundle it has not cached: |S| terms (an additive
  oracle caches none and takes |chores| = |S| differences each call);
- `singleton_units` when it builds the table of a capped or
  max-of-additive oracle: m terms (an additive oracle's table reads its
  one row and counts none);
- `_summed_rows`, which values together the rows that miss the cost
  cache in `cost_rows`: one term per chore of the bundles it values, for
  each oracle it values, whatever the number of rows.  Older checkouts
  split that work between `bundle_units`, one oracle's row (one term per
  chore of the bundles, whatever the number of rows), and
  `_additive_rows`, the additive oracles' rows together (one term per
  chore of the bundles, for each oracle); both are counted where a
  checkout has them, by the same rule.

The extension's growth of an additive agent's costs in place (one term
per agent and placement, inline in `envy_graph._ttece` where it went
through `add` before) is not counted.  Nor is `floor_units`, the
checkers' bundle-size floor: it takes each row's cheapest chore once per
oracle, a min that sums no chore terms, and then one product per row.
A checkout without these kernels counts `_raw_cost` only.  The count
repeats exactly, so it compares two checkouts where noisy wall times
cannot.

    python3 scripts/ladder.py --side parent=../parent --side change=. \\
        --out BENCH_21.json

Each checkout is measured in its own worker process, importing
`chorefair` from that checkout's `src/`.  The sides take turns point by
point and run by run, the side that goes first alternating, so a slow or
fast spell of the host falls on both sides alike.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

FAMILIES = ("additive", "capped_additive", "max_of_additive")
SIZES = (250, 500, 1000, 2000, 4000)
TEFX_SIZES = (250, 500, 1000)
TEFX_AGENTS = 50
ALPHA_AGENTS = (40, 100, 200)
IDO_AGENTS = (50, 100, 200)
# (family, n, m) of the generate and load rungs
LOAD_SHAPES = (("additive_ratio", 40, 200),
               *((family, 3, 188) for family in FAMILIES))
SEARCH_SIZES = (5, 7, 10)
RUNS = 5
SEED = 1

# every point as (rung, family, n, m), the same list on every side
CASES = [(rung, family, n, m)
         for rung, n, sizes in (("three_agent_2efx", 3, SIZES),
                                ("check_tefx", TEFX_AGENTS, TEFX_SIZES))
         for m in sizes for family in FAMILIES]
CASES += [("check_alpha_efx", "additive_ratio", n, 5 * n) for n in ALPHA_AGENTS]
CASES += [("partial_ido_2efx", "k_partial_ido", n, 4 * n) for n in IDO_AGENTS]
CASES += [(rung, *shape) for shape in LOAD_SHAPES for rung in ("generate", "load")]
CASES += [("exhaustive_search", family, 3, m) for m in SEARCH_SIZES for family in FAMILIES]
CASES += [("cli", "additive", 3, 8)]

# chore terms each wrapped kernel sums, from its arguments: a RowOracle
# method, or a function of the oracles module
TERMS = {
    "_raw_cost": lambda oracle, chores: len(chores),
    "add": lambda oracle, state, chore: 1 if isinstance(chore, int) else len(chore),
    "_row_sums": lambda oracle, chores: len(chores),
    "removal_units": lambda oracle, bundle, chores:
        0 if bundle in oracle._removals else len(bundle),
    "singleton_units": lambda oracle:
        oracle.m if oracle._singles is None and oracle.kind != "additive" else 0,
    "_summed_rows": lambda oracles, bundles: len(oracles) * sum(map(len, bundles)),
    # older checkouts' row kernels: the layout's pick lays out every chore
    # it values, once
    "bundle_units": lambda oracle, layout: len(layout[0](oracle._rows[0])),
    "_additive_rows": lambda oracles, bundles: len(oracles) * sum(map(len, bundles)),
}


def worker(src: str) -> None:
    """Serve the library under `src`: each line of standard input is
    [case index, counted]; each reply line is that case's wall time in
    seconds, or with counted true its chores_summed, of one run on a
    freshly generated instance."""
    sys.path.insert(0, src)
    from chorefair import (check_alpha_efx, check_tefx, cli, exhaustive_search,
                           generate_instance, guarantee_ratio, partial_ido_2efx,
                           round_robin_allocate, three_agent_2efx)
    from chorefair import oracles
    from chorefair.round_robin import round_count

    summed = [0]

    def counted(method, terms):
        def wrapper(*args):
            summed[0] += terms(*args)
            return method(*args)
        return wrapper

    # (owner, name): the kernels this checkout defines, and their originals
    originals = {(owner, name): vars(owner)[name] for name in TERMS
                 for owner in (oracles.RowOracle, oracles) if name in vars(owner)}

    def generate(family, n, m):
        return generate_instance(family, n, m, SEED,
                                 **({"alpha": 2} if family == "additive_ratio" else {}))

    def three_agent(family, n, m):
        instance = generate(family, n, m)
        return lambda: three_agent_2efx(instance)

    def tefx(family, n, m):
        instance = generate(family, n, m)
        alloc = round_robin_allocate(instance)[0]
        return lambda: check_tefx(alloc, instance)

    def alpha_efx(family, n, m):
        instance = generate(family, n, m)
        alloc = round_robin_allocate(instance)[0]
        bound = guarantee_ratio(2, round_count(instance))
        return lambda: check_alpha_efx(alloc, instance, bound)

    def ido(family, n, m):
        instance = generate_instance(family, n, m, SEED, k=n - 1)
        return lambda: partial_ido_2efx(instance)

    def load(family, n, m):
        instance = generate(family, n, m)
        return lambda: cli.instance_from_json(cli.instance_to_json(instance))

    def search(family, n, m):
        instance = generate(family, n, m)
        return lambda: exhaustive_search(instance, "efx")

    def command_line(family, n, m):
        path, out = Path(workdir, "instance.json"), Path(workdir, "allocation.json")
        path.write_text(json.dumps(cli.instance_to_json(generate(family, n, m))))
        solve = ["solve", "--instance", str(path), "--algorithm",
                 "three-agent-2efx", "--output", str(out)]
        verify = ["verify", "--instance", str(path), "--allocation", str(out),
                  "--criterion", "alpha_efx", "--alpha", "2"]

        def run():
            # verify prints its report, and this process's output is replies
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(solve) != 0 or cli.main(verify) != 0:
                    raise RuntimeError("the CLI round trip did not exit 0")
        return run

    makers = {"three_agent_2efx": three_agent, "check_tefx": tefx,
              "check_alpha_efx": alpha_efx, "partial_ido_2efx": ido,
              "generate": lambda *shape: functools.partial(generate, *shape),
              "load": load, "exhaustive_search": search, "cli": command_line}
    # the cli rung's files, removed when standard input closes
    with tempfile.TemporaryDirectory(prefix="ladder-") as workdir:
        for line in sys.stdin:
            index, count = json.loads(line)
            rung, *shape = CASES[index]
            run = makers[rung](*shape)
            if count:
                for (owner, name), method in originals.items():
                    setattr(owner, name, counted(method, TERMS[name]))
                summed[0] = 0
                try:
                    run()
                finally:
                    for (owner, name), method in originals.items():
                        setattr(owner, name, method)
                reply = summed[0]
            else:
                start = perf_counter()
                run()
                reply = perf_counter() - start
            print(json.dumps(reply), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", required=True,
                        metavar="NAME=CHECKOUT", help="a checkout to measure")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workers = {}
    for side in args.side:
        name, _, checkout = side.partition("=")
        src = Path(checkout).resolve() / "src"
        if not (src / "chorefair" / "__init__.py").is_file():
            sys.exit(f"error: {src / 'chorefair'} not found")
        print(f"{name}: {src}", file=sys.stderr)
        workers[name] = subprocess.Popen(
            [sys.executable, __file__, "--worker", str(src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(name: str, index: int, count: bool):
        proc = workers[name]
        proc.stdin.write(json.dumps([index, count]) + "\n")
        proc.stdin.flush()
        reply = proc.stdout.readline()
        if not reply:
            sys.exit(f"error: side {name} stopped at point {CASES[index]}")
        return json.loads(reply)

    names = list(workers)
    sides: dict[str, list[dict]] = {name: [] for name in names}
    try:
        for index, (rung, family, n, m) in enumerate(CASES):
            best = dict.fromkeys(names, float("inf"))
            for run in range(RUNS):
                # the first side alternates from run to run and point to point
                for name in names if (index + run) % 2 == 0 else names[::-1]:
                    best[name] = min(best[name], ask(name, index, False))
            for name in names:
                summed = ask(name, index, True)
                sides[name].append({"rung": rung, "family": family, "n": n, "m": m,
                                    "best_s": round(best[name], 6),
                                    "chores_summed": summed})
                print(f"{name:8} {rung:17} {family:16} n={n:3} m={m:5}  "
                      f"best {best[name]:9.4f} s  chores_summed {summed}",
                      file=sys.stderr)
    finally:
        for proc in workers.values():
            proc.stdin.close()
            proc.wait()
    args.out.write_text(json.dumps({
        "about": "rung three_agent_2efx: three_agent_2efx on "
                 "generate_instance(family, 3, m, seed); rung check_tefx: "
                 "check_tefx on the round_robin_allocate output for "
                 f"generate_instance(family, {TEFX_AGENTS}, m, seed); rung "
                 "check_alpha_efx: check_alpha_efx at guarantee_ratio(2, "
                 "rounds) on the round_robin_allocate output for "
                 "generate_instance('additive_ratio', n, 5n, seed, alpha=2); rung "
                 "partial_ido_2efx: partial_ido_2efx on generate_instance("
                 "'k_partial_ido', n, 4n, seed, k=n-1); rung generate: "
                 "generate_instance(family, n, m, seed) (alpha=2 for "
                 "additive_ratio); rung load: cli.instance_from_json("
                 "cli.instance_to_json(instance)) on a freshly generated "
                 "instance; rung exhaustive_search: exhaustive_search(instance, "
                 "'efx') on generate_instance(family, 3, m, seed); rung cli: "
                 "in-process cli.main solve --algorithm three-agent-2efx, then "
                 "verify --criterion alpha_efx --alpha 2, on the JSON file of "
                 "generate_instance('additive', 3, 8, seed). "
                 f"Best of {RUNS} wall times (s) on fresh "
                 "instances, the sides taking turns run by run with the first "
                 "side alternating, and chores_summed (chore terms summed by "
                 "RowOracle's _raw_cost, add, row sums, uncached removal_units, "
                 "non-additive singleton table, and cost_rows' row kernel "
                 "(_summed_rows; bundle_units and _additive_rows in older "
                 "checkouts); not the extension's "
                 "in-place growth of additive costs nor the checkers' "
                 "floor_units) of one more run",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": SEED,
        "runs": RUNS,
        "sides": sides,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:  # worker mode: one checkout's src/
        worker(sys.argv[2])
    else:
        sys.exit(main())
