"""Command-line surface: instance I/O, algorithm dispatch, verification,
instance generation, and the counterexample walkthrough.

Rationals travel through files as "p/q" / integer strings, never floats.
Exit codes: 0 verified (or no guarantee claimed), 1 guarantee-or-verdict
failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
import tempfile
import time
from fractions import Fraction
from typing import Any, Callable, NamedTuple

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
    GENERATOR_FAMILIES,
    CostOracle,
    RowOracle,
    TabulatedOracle,
    generate_instance,
    require_monotone,
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


def _refuse_unread_keys(data: dict, keys: set[str], reader: str) -> None:
    """Refuse the keys of data that reader does not read, naming each."""
    if stray := sorted(data.keys() - keys):
        raise ValueError(f"{reader} does not use "
                         + ", ".join(f'"{key}"' for key in stray))


DIGITS = re.compile(r"[0-9]+")
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
RATIONAL_MAX_CHARS = 1000


def _rational_parts(value: Any) -> tuple[int, int | None]:
    """(p, q) of a JSON integer, or of a string "p" or "p/q" of at most
    RATIONAL_MAX_CHARS characters, as ints; q is None without "/" and never
    0.  Decimals and exponents are refused: Fraction expands an exponent in
    full, so "1e99999999" would never finish."""
    if type(value) is int:
        return value, None
    match = (isinstance(value, str) and len(value) <= RATIONAL_MAX_CHARS
             and _RATIONAL.fullmatch(value))
    if not match:
        raise ValueError(f"rationals must be integers or strings p or p/q, "
                         f"got {value!r:.40}")
    p, q = match.groups()
    if q is not None and not int(q):
        raise ValueError(f"rational {value!r:.40} has a zero denominator")
    return int(p), None if q is None else int(q)


def parse_rational(value: Any) -> int | Fraction:
    """A rational as _rational_parts reads it: an int, or for "p/q" a
    Fraction."""
    p, q = _rational_parts(value)
    return p if q is None else Fraction(p, q)


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
                "values": {_subset_key(k): _over(u, oracle.den)
                           for k, u in sorted(oracle._units.items(),
                                              key=lambda kv: sorted(kv[0]))}}
    raise ValueError(f"cannot serialize oracle {oracle!r}")


# the keys each agent "type" reads; any other key is refused
ORACLE_KEYS = {
    "additive": {"type", "costs"}, "capped_additive": {"type", "costs", "cap"},
    "max_of_additive": {"type", "rows"}, "table": {"type", "values"}}


def oracle_from_json(data: Any, m: int) -> CostOracle:
    kind = _json_typed(data, dict, "an agent").get("type")
    if kind not in ORACLE_KEYS:
        raise ValueError(f"unknown oracle type {kind!r}")
    _refuse_unread_keys(data, ORACLE_KEYS[kind], f"oracle type {kind!r}")
    if kind == "table":
        values = {_parse_subset_key(k, m): parse_rational(v)
                  for k, v in _json_typed(data["values"], dict, '"values"').items()}
        oracle = TabulatedOracle(m, values)
        require_monotone(oracle, "table")
        return oracle
    rows = (_json_typed(data["rows"], list, '"rows"')
            if kind == "max_of_additive" else [data["costs"]])
    caps = [data["cap"]] if kind == "capped_additive" else []
    # every value as (p, q), the cap's last, then as ints over the qs' lcm
    parts = [[_rational_parts(c) for c in _json_typed(row, list, "a row")]
             for row in rows] + [list(map(_rational_parts, caps))]
    den = math.lcm(*(q for row in parts for _, q in row if q))
    *units, cap = [[p * (den // (q or 1)) for p, q in row] for row in parts]
    return RowOracle.from_units(units, den, *cap)


def instance_to_json(instance: Instance) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "m": instance.m,
            "n": instance.n,
            "agents": [oracle_to_json(o) for o in instance.oracles]}


def instance_from_json(data: Any) -> Instance:
    data = _json_typed(data, dict, "an instance")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("unsupported or missing schema_version")
    _refuse_unread_keys(data, {"schema_version", "m", "n", "agents"}, "instance")
    m, n = _json_typed(data["m"], int, '"m"'), _json_typed(data["n"], int, '"n"')
    oracles = tuple(oracle_from_json(a, m)
                    for a in _json_typed(data["agents"], list, '"agents"'))
    return Instance(m, n, oracles)


def allocation_to_json(alloc: Allocation) -> dict:
    return {"allocation": [sorted(c + 1 for c in b) for b in alloc.bundles],
            "pool": sorted(c + 1 for c in alloc.pool)}


# an allocation's bundles and pool, and the other keys `solve` writes beside
# them, so that `verify --allocation` reads solve's output
ALLOCATION_KEYS = {"allocation", "pool", "schema_version", "algorithm", "criterion",
                   "alpha", "verdict", "witnesses", "timings", "trace"}


def allocation_from_json(data: Any, m: int) -> Allocation:
    data = _json_typed(data, dict, "an allocation")
    _refuse_unread_keys(data, ALLOCATION_KEYS, "allocation")
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


def _emit(payload: dict, path: str | None) -> None:
    """Write payload atomically to path, or without one to stdout."""
    if path:
        write_json_atomic(path, payload)
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()


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


def _run_round_robin(instance: Instance, args: argparse.Namespace, trace):
    order = (None if args.order is None
             else _parse_index_list(args.order, instance.n, "--order"))
    alloc, picks = round_robin_allocate(instance, order)
    if trace is not None:
        trace.extend(picks.picks)
    return alloc, claimed_guarantee(instance)


def _run_tefx_two_group(instance: Instance, args: argparse.Namespace, trace):
    # agents 1..n-k share C1 and agents n-k+1..n share C2
    n, k = instance.n, args.k
    if k is None or not 1 <= k < n:
        raise ValueError(f"tefx-two-group needs --k between 1 and n-1 = {n - 1}")
    groups = GroupSpec(frozenset(range(n - k)), frozenset(range(n - k, n)),
                       frozenset())
    return tefx_three_group(instance, groups, trace), ("tefx", None)


def _run_tefx_three_group(instance: Instance, args: argparse.Namespace, trace):
    groups = GroupSpec(*(
        frozenset(_parse_index_list(raw or "", instance.n, "agent list"))
        for raw in (args.group1, args.group2, args.group3)))
    return tefx_three_group(instance, groups, trace), ("tefx", None)


def _run_exhaustive(instance: Instance, args: argparse.Namespace, trace):
    claim = _criterion_alpha(args, 1)
    return exhaustive_search(instance, *claim), claim


class Solver(NamedTuple):
    """One `solve` algorithm: the flags only it reads, and its run
    (instance, args, trace) -> (allocation or None, (criterion, alpha) it
    claims or None).  Runs call the solvers through this module's globals,
    so a solver patched onto the module is the one that runs."""
    flags: tuple[str, ...]
    run: Callable[[Instance, argparse.Namespace, list[Event] | None],
                  tuple[Allocation | None, tuple | None]]


SOLVERS = {
    "three-agent-2efx": Solver((), lambda instance, args, trace: (
        three_agent_2efx(instance, trace), ("alpha_efx", TWO))),
    "partial-ido-2efx": Solver((), lambda instance, args, trace: (
        partial_ido_2efx(instance, trace), ("alpha_efx", TWO))),
    "round-robin": Solver(("order",), _run_round_robin),
    "tefx-two-group": Solver(("k",), _run_tefx_two_group),
    "tefx-three-group": Solver(("group1", "group2", "group3"), _run_tefx_three_group),
    "exhaustive": Solver(("criterion", "alpha"), _run_exhaustive),
}


def cmd_solve(args: argparse.Namespace) -> int:
    _refuse_unread(args, [flag for name, solver in SOLVERS.items()
                          if name != args.algorithm for flag in solver.flags],
                   f"algorithm {args.algorithm!r}")
    instance = instance_from_json(_load_json(args.instance))
    started = time.perf_counter()
    trace: list[Event] | None = [] if args.trace else None
    alloc, claim = SOLVERS[args.algorithm].run(instance, args, trace)
    if alloc is None:
        print("no allocation satisfies the criterion", file=sys.stderr)
        return 1
    if not alloc.is_full:
        raise VerificationError(f"{args.algorithm} left chores unallocated")

    # out of every guarantee's scope, nothing is claimed and nothing checked
    report = None if claim is None else check_criterion(alloc, instance, *claim)
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
    _emit(payload, args.output)
    return 0 if report is None or report.verdict else 1


def cmd_verify(args: argparse.Namespace) -> int:
    instance = instance_from_json(_load_json(args.instance))
    alloc = allocation_from_json(_load_json(args.allocation), instance.m)
    report = check_criterion(alloc, instance, *_criterion_alpha(args, 2))
    _emit(report_to_json(report), None)
    return 0 if report.verdict else 1


# `gen`'s families: every generator family, then the counterexample.  Its
# flags: counterexample reads only --m1 and --m2, a generator family --n,
# --m, --seed and the parameter GENERATOR_FAMILIES names, by its reader
GEN_FAMILIES = (*GENERATOR_FAMILIES, "counterexample")
COUNTEREXAMPLE_FLAGS = ("m1", "m2")
PARAMETER_READERS = {"alpha": parse_rational, "k": int, "rows": int,
                     "sizes": lambda raw: tuple(_parse_digit_list(raw, "--sizes"))}


def cmd_gen(args: argparse.Namespace) -> int:
    family = args.family
    if family not in GEN_FAMILIES:  # named before any flag it would not read
        raise ValueError(f"unknown family {family!r}; choose from {GEN_FAMILIES}")
    if family == "counterexample":
        _refuse_unread(args, ("n", "m", "seed", *PARAMETER_READERS), f"family {family!r}")
        if args.m1 is None or args.m2 is None:
            raise ValueError("--m1 and --m2 are required for counterexample")
        instance = counterexample_instance(parse_rational(args.m1),
                                           parse_rational(args.m2))
    else:
        param = GENERATOR_FAMILIES[family]
        _refuse_unread(args, [*COUNTEREXAMPLE_FLAGS, *(
            p for p in PARAMETER_READERS if p != param)], f"family {family!r}")
        if args.n is None or args.m is None or args.seed is None:
            raise ValueError("--n, --m, and --seed are required")
        params = {p: read(getattr(args, p)) for p, read in PARAMETER_READERS.items()
                  if getattr(args, p) is not None}
        instance = generate_instance(family, args.n, args.m, args.seed, **params)
    _emit(instance_to_json(instance), args.output)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared, so callers must
    not change it: each add_argument makes a help formatter, while parsing
    leaves the parser as it is and fills a fresh Namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="chorefair",
        description="Exact-arithmetic fair division of indivisible chores")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an allocation algorithm")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--algorithm", required=True,
                       choices=list(SOLVERS))
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
