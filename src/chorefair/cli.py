"""Command-line surface: instance I/O, algorithm dispatch, verification,
instance generation, and the counterexample walkthrough.

Rationals travel through files as "p/q" / integer strings, never floats.
Exit codes: 0 verified (or no guarantee claimed), 1 guarantee-or-verdict
failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
import tempfile
import time
from fractions import Fraction
from typing import Any

from .core import (
    CRITERIA,
    TWO,
    Allocation,
    Event,
    FairnessReport,
    Instance,
    check_alpha_efx,
    check_criterion,
)
from .errors import ChorefairError, VerificationError
from .ido import partial_ido_2efx
from .oracles import (
    CostOracle,
    RowOracle,
    TabulatedOracle,
    generate_instance,
    validate_oracle,
)
from .round_robin import claimed_guarantee, round_robin_allocate
from .tefx import GroupSpec, tefx_three_group
from .three_agent import three_agent_2efx
from .verify import counterexample_instance, exhaustive_search, rival_counterexample_run

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# (de)serialization
# ---------------------------------------------------------------------------

_JSON_NAMES = {int: "integer", list: "list", dict: "object"}


def _json_typed(value: Any, kind: type, what: str) -> Any:
    """value when its JSON type is kind (int, list or dict); the type must
    match exactly, since bool is a subclass of int in Python."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be a JSON {_JSON_NAMES[kind]}, "
                         f"got {type(value).__name__}")
    return value


DIGITS = re.compile(r"[0-9]+")
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
RATIONAL_MAX_CHARS = 1000


def parse_rational(value: Any) -> int | Fraction:
    """A JSON integer, or a string "p" or "p/q" of at most RATIONAL_MAX_CHARS
    characters, as an int or, for "p/q", a Fraction.  Decimals and
    exponents are refused: Fraction expands an exponent in full, so
    "1e99999999" would never finish."""
    if type(value) is int:
        return value
    match = (isinstance(value, str) and len(value) <= RATIONAL_MAX_CHARS
             and _RATIONAL.fullmatch(value))
    if not match:
        raise ValueError(f"rationals must be integers or strings p or p/q, "
                         f"got {value!r:.40}")
    p, q = match.groups()
    if q is not None and not int(q):
        raise ValueError(f"rational {value!r:.40} has a zero denominator")
    return int(p) if q is None else Fraction(int(p), int(q))


def _subset_key(chores) -> str:
    return ",".join(str(c + 1) for c in sorted(chores))


def _parse_digit_list(raw: str, what: str) -> list[int]:
    """The parts of a comma-separated list, each plain digits: int() would
    also take "1_0", " 2" and "+3"."""
    parts = raw.split(",")
    if not all(DIGITS.fullmatch(part) for part in parts):
        raise ValueError(f"{what} {raw!r} must be comma-separated digits")
    return [int(part) for part in parts]


def _parse_index_list(raw: str, size: int, what: str) -> list[int]:
    """0-based indices of a comma-separated list of distinct 1-based ones."""
    if not raw:
        return []
    indices = [i - 1 for i in _parse_digit_list(raw, what)]
    if any(not 0 <= i < size for i in indices):
        raise ValueError(f"{what} {raw!r} out of range")
    if len(set(indices)) < len(indices):
        raise ValueError(f"{what} {raw!r} repeats an index")
    return indices


def _parse_subset_key(key: str, m: int) -> frozenset[int]:
    """A table key, spelled exactly as _subset_key writes it, so that no
    two keys name one subset."""
    chores = frozenset(_parse_index_list(key, m, "subset key"))
    if key != _subset_key(chores):
        raise ValueError(f"subset key {key!r} must be written "
                         f"{_subset_key(chores)!r}")
    return chores


def _over(units: int, den: int) -> str:
    """str(Fraction(units, den)), without building the Fraction."""
    g = math.gcd(units, den)
    return str(units // g) if g == den else f"{units // g}/{den // g}"


def oracle_to_json(oracle: CostOracle) -> dict:
    if isinstance(oracle, RowOracle):
        rows = [[_over(u, oracle.den) for u in row] for row in oracle._rows]
        if oracle.kind == "max_of_additive":
            return {"type": oracle.kind, "rows": rows}
        data = {"type": oracle.kind, "costs": rows[0]}
        if oracle._cap is not None:
            data["cap"] = _over(oracle._cap, oracle.den)
        return data
    if isinstance(oracle, TabulatedOracle):
        return {"type": "table",
                "values": {_subset_key(k): str(v)
                           for k, v in sorted(oracle.values.items(),
                                              key=lambda kv: sorted(kv[0]))}}
    raise ValueError(f"cannot serialize oracle {oracle!r}")


def oracle_from_json(data: Any, m: int) -> CostOracle:
    kind = _json_typed(data, dict, "an agent").get("type")
    if kind in ("additive", "capped_additive", "max_of_additive"):
        rows = (_json_typed(data["rows"], list, '"rows"')
                if kind == "max_of_additive" else [data["costs"]])
        cap = parse_rational(data["cap"]) if kind == "capped_additive" else None
        return RowOracle([[parse_rational(c) for c in _json_typed(row, list, "a row")]
                          for row in rows], cap)
    if kind == "table":
        values = {_parse_subset_key(k, m): parse_rational(v)
                  for k, v in _json_typed(data["values"], dict, '"values"').items()}
        oracle = TabulatedOracle(m, values)
        bad = validate_oracle(oracle, ("monotone",))["monotone"]
        if bad:
            subset, chore = bad[0]
            raise ValueError(
                f"table is not monotone: adding chore {chore + 1} to "
                f"{{{_subset_key(subset)}}} lowers its cost")
        return oracle
    raise ValueError(f"unknown oracle type {kind!r}")


def instance_to_json(instance: Instance) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "m": instance.m,
            "n": instance.n,
            "agents": [oracle_to_json(o) for o in instance.oracles]}


def instance_from_json(data: Any) -> Instance:
    data = _json_typed(data, dict, "an instance")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("unsupported or missing schema_version")
    m, n = _json_typed(data["m"], int, '"m"'), _json_typed(data["n"], int, '"n"')
    oracles = tuple(oracle_from_json(a, m)
                    for a in _json_typed(data["agents"], list, '"agents"'))
    return Instance(m, n, oracles)


def allocation_to_json(alloc: Allocation) -> dict:
    return {"allocation": [sorted(c + 1 for c in b) for b in alloc.bundles],
            "pool": sorted(c + 1 for c in alloc.pool)}


def allocation_from_json(data: Any, m: int) -> Allocation:
    data = _json_typed(data, dict, "an allocation")
    bundles = [[_json_typed(c, int, "a chore") - 1 for c in _json_typed(b, list, "a bundle")]
               for b in _json_typed(data["allocation"], list, '"allocation"')]
    pool = [_json_typed(c, int, "a chore") - 1
            for c in _json_typed(data.get("pool", []), list, '"pool"')]
    # sorted before any set: a set would merge a chore listed twice
    if sorted(itertools.chain(pool, *bundles)) != list(range(m)):
        raise ValueError(f"bundles and pool must hold each chore 1..{m} once")
    return Allocation(tuple(map(frozenset, bundles)), frozenset(pool))


def report_to_json(report: FairnessReport) -> dict:
    return {
        "criterion": report.criterion,
        "alpha": None if report.alpha is None else str(report.alpha),
        "verdict": report.verdict,
        "witnesses": [
            {"agent": w.agent + 1, "other": w.other + 1, "chore": w.chore + 1,
             "lhs": str(w.lhs), "rhs": str(w.rhs)}
            for w in report.witnesses
        ],
    }


def _event_line(event: Event) -> str:
    """One trace line, agents, chores and bundle positions 1-based."""
    agents = [a + 1 for a in event.agents]
    chore = None if event.chore is None else event.chore + 1
    if event.kind == "pick":
        line = f"round {event.step}: agent {agents[0]} takes chore {chore}"
    elif event.kind == "place":
        line = f"chore {chore} to sink agent {agents[0]}"
    elif event.kind == "cycle":
        line = "envy cycle " + " -> ".join(map(str, agents + agents[:1]))
    elif event.kind == "move":
        line = (f"level k={event.step}: chore {chore} from bundle {agents[0]} "
                f"to bundle {agents[1]}")
    else:
        line = event.note
        if agents:
            line += f", roles 1-3 played by agents {agents}"
    if event.allocation is not None:
        data = allocation_to_json(event.allocation)
        line += f": bundles {data['allocation']}"
        if data["pool"]:
            line += f", pool {data['pool']}"
    return line


def write_json_atomic(path: str, payload: dict) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _refuse_unread(args: argparse.Namespace, flags, reader: str) -> None:
    """Refuse the flags that are set, naming each: reader does not read them."""
    stray = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
    if stray:
        raise ValueError(f"{reader} does not use {', '.join(stray)}")


def _criterion_alpha(args: argparse.Namespace, default: int) -> tuple[str, int | Fraction]:
    """(--criterion or efx, --alpha or default); only alpha_efx reads --alpha."""
    criterion = args.criterion or "efx"
    if criterion != "alpha_efx":
        _refuse_unread(args, ("alpha",), f"criterion {criterion!r}")
    return criterion, parse_rational(default if args.alpha is None else args.alpha)


# the flags of `solve` that one algorithm reads and the others refuse
SOLVE_FLAGS = {"round-robin": ("order",), "tefx-two-group": ("k",),
               "tefx-three-group": ("group1", "group2", "group3"),
               "exhaustive": ("criterion", "alpha")}


def cmd_solve(args: argparse.Namespace) -> int:
    _refuse_unread(args, [flag for algorithm, flags in SOLVE_FLAGS.items()
                          if algorithm != args.algorithm for flag in flags],
                   f"algorithm {args.algorithm!r}")
    instance = instance_from_json(_load_json(args.instance))
    started = time.perf_counter()
    criterion, alpha = "alpha_efx", TWO
    trace: list[Event] | None = [] if args.trace else None

    if args.algorithm == "three-agent-2efx":
        alloc = three_agent_2efx(instance, trace)
    elif args.algorithm == "partial-ido-2efx":
        alloc = partial_ido_2efx(instance, trace)
    elif args.algorithm == "round-robin":
        order = (None if args.order is None
                 else _parse_index_list(args.order, instance.n, "--order"))
        alloc, picks = round_robin_allocate(instance, order)
        criterion, alpha = claimed_guarantee(instance) or (None, None)
        if trace is not None:
            trace.extend(picks.picks)
    elif args.algorithm == "tefx-two-group":
        # agents 1..n-k share C1 and agents n-k+1..n share C2
        n, k = instance.n, args.k
        if k is None or not 1 <= k < n:
            raise ValueError(f"tefx-two-group needs --k between 1 and n-1 = {n - 1}")
        groups = GroupSpec(frozenset(range(n - k)), frozenset(range(n - k, n)),
                           frozenset())
        alloc = tefx_three_group(instance, groups, trace)
        criterion, alpha = "tefx", None
    elif args.algorithm == "tefx-three-group":
        groups = GroupSpec(*(
            frozenset(_parse_index_list(raw or "", instance.n, "agent list"))
            for raw in (args.group1, args.group2, args.group3)))
        alloc = tefx_three_group(instance, groups, trace)
        criterion, alpha = "tefx", None
    elif args.algorithm == "exhaustive":
        criterion, alpha = _criterion_alpha(args, 1)
        alloc = exhaustive_search(instance, criterion, alpha)
        if alloc is None:
            print("no allocation satisfies the criterion", file=sys.stderr)
            return 1
    if not alloc.is_full:
        raise VerificationError(f"{args.algorithm} left chores unallocated")

    # out of every guarantee's scope, nothing is claimed and nothing checked
    report = (None if criterion is None
              else check_criterion(alloc, instance, criterion, alpha))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "algorithm": args.algorithm,
        **allocation_to_json(alloc),
        **(report_to_json(report) if report is not None else
           {"criterion": None, "alpha": None, "verdict": None, "witnesses": []}),
        "timings": {"seconds": round(time.perf_counter() - started, 6)},
    }
    if trace is not None:
        payload["trace"] = [_event_line(event) for event in trace]
    if args.output:
        write_json_atomic(args.output, payload)
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0 if report is None or report.verdict else 1


def cmd_verify(args: argparse.Namespace) -> int:
    instance = instance_from_json(_load_json(args.instance))
    alloc = allocation_from_json(_load_json(args.allocation), instance.m)
    report = check_criterion(alloc, instance, *_criterion_alpha(args, 2))
    json.dump(report_to_json(report), sys.stdout, indent=2, sort_keys=True)
    print()
    return 0 if report.verdict else 1


# `gen`'s flags: the counterexample family reads only --m1 and --m2, the
# generator families never read them
COUNTEREXAMPLE_FLAGS = ("m1", "m2")
GENERATOR_FLAGS = ("n", "m", "seed", "alpha", "k", "sizes", "rows")


def cmd_gen(args: argparse.Namespace) -> int:
    counterexample = args.family == "counterexample"
    _refuse_unread(args, GENERATOR_FLAGS if counterexample else COUNTEREXAMPLE_FLAGS,
                   f"family {args.family!r}")
    if counterexample:
        if args.m1 is None or args.m2 is None:
            raise ValueError("--m1 and --m2 are required for counterexample")
        instance = counterexample_instance(parse_rational(args.m1),
                                           parse_rational(args.m2))
    else:
        if args.n is None or args.m is None or args.seed is None:
            raise ValueError("--n, --m, and --seed are required")
        params: dict[str, Any] = {}
        if args.alpha is not None:
            params["alpha"] = parse_rational(args.alpha)
        if args.k is not None:
            params["k"] = args.k
        if args.sizes is not None:
            params["sizes"] = tuple(_parse_digit_list(args.sizes, "--sizes"))
        if args.rows is not None:
            params["rows"] = args.rows
        instance = generate_instance(args.family, args.n, args.m, args.seed,
                                     **params)
    payload = instance_to_json(instance)
    if args.output:
        write_json_atomic(args.output, payload)
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def cmd_repro_counterexample(args: argparse.Namespace) -> int:
    m1, m2 = parse_rational(args.m1), parse_rational(args.m2)
    run = rival_counterexample_run(m1, m2)
    instance = counterexample_instance(m1, m2)
    own = three_agent_2efx(instance)
    own_report = check_alpha_efx(own, instance, 1)
    lines = ["rival cycle-elimination run:"]
    for step, succ in enumerate(run.graphs):
        edges = [(i + 1, j + 1) for i, j in enumerate(succ) if j is not None]
        lines.append(f"  step {step}: envy graph {edges}")
    lines.append("  final: " + json.dumps(allocation_to_json(run.allocation)))
    lines.append(f"  envy ratio: {run.ratio} (= m2/3)")
    lines.append("own allocation: " + json.dumps(allocation_to_json(own)))
    lines.append(f"own EFX verdict: {own_report.verdict}")
    print("\n".join(lines))
    return 0 if run.ratio > 2 and own_report.verdict else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chorefair",
        description="Exact-arithmetic fair division of indivisible chores")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an allocation algorithm")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--algorithm", required=True,
                       choices=["three-agent-2efx", "partial-ido-2efx",
                                "round-robin", "tefx-two-group",
                                "tefx-three-group", "exhaustive"])
    solve.add_argument("--output")
    solve.add_argument("--trace", action="store_true")
    solve.add_argument("--order", help="round-robin agent order, e.g. 2,1,3")
    solve.add_argument("--k", type=int, help="second-group size for tefx-two-group")
    solve.add_argument("--group1", help="1-based agents, e.g. 1,2")
    solve.add_argument("--group2")
    solve.add_argument("--group3")
    solve.add_argument("--criterion", choices=CRITERIA)
    solve.add_argument("--alpha")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="check an allocation against a criterion")
    verify.add_argument("--instance", required=True)
    verify.add_argument("--allocation", required=True)
    verify.add_argument("--criterion", required=True, choices=CRITERIA)
    verify.add_argument("--alpha")
    verify.set_defaults(func=cmd_verify)

    gen = sub.add_parser("gen", help="generate a seeded instance file")
    gen.add_argument("--family", required=True)
    gen.add_argument("--n", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--alpha")
    gen.add_argument("--k", type=int)
    gen.add_argument("--sizes", help="identical-group sizes, e.g. 2,2,1")
    gen.add_argument("--rows", type=int)
    gen.add_argument("--m1", help="counterexample parameter")
    gen.add_argument("--m2", help="counterexample parameter")
    gen.add_argument("--output")
    gen.set_defaults(func=cmd_gen)

    repro = sub.add_parser("repro-counterexample",
                           help="contrast the rival algorithm with this one")
    repro.add_argument("--m1", required=True)
    repro.add_argument("--m2", required=True)
    repro.set_defaults(func=cmd_repro_counterexample)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except (ChorefairError, ValueError, KeyError, OSError,
            json.JSONDecodeError, ZeroDivisionError) as exc:
        # a KeyError is a JSON object without a key the file needs
        reason = f'missing key "{exc.args[0]}"' if isinstance(exc, KeyError) else exc
        print(f"error: {reason}", file=sys.stderr)
        code = 1 if isinstance(exc, VerificationError) else 2
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
