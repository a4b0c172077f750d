"""chorefair benchmark runner (standard library only).

One workload, one process, one caller in a closed loop: solve an instance,
re-check it, then take the next.  Prints a human-readable report and, as
the last line of standard output, one JSON result.

    python3 bench/run.py --workload small_exact --seed 1 --seconds 27 --trace 0
    python3 bench/run.py                # every workload, end-to-end table
    python3 bench/run.py --trace 1      # every workload, per-layer table

The library is imported from `src/` of the checkout this file sits in,
never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SECONDS = 27

END_TO_END = {  # name -> unit
    "instances_per_s": "1/s",
    "solve_s.p50": "s",
    "check_s.p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_library():
    """Import `chorefair` from this checkout's `src/`, or exit 2."""
    if not (SRC / "chorefair" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'chorefair'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import chorefair

    if not Path(chorefair.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: chorefair imported from {chorefair.__file__}, not {SRC}")
    return chorefair


def source_lines() -> int:
    return sum(len(path.read_text().splitlines())
               for path in (SRC / "chorefair").glob("*.py"))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def canonical(alloc) -> list[list[int]]:
    return [sorted(bundle) for bundle in alloc.bundles]


def run_workload(name: str, seed: int, seconds: float, tracer, tiny: bool,
                 workdir: Path) -> dict:
    """Passes over the seed's instance set until `seconds` of wall time,
    set-up included, are spent.  The first pass always completes.

    Each pass rebuilds the set from the seed, so it gets fresh instances with
    cold oracle caches, and solves and re-checks every instance once.  An
    instance's time is its best pass, and so is the set-up time: the host's
    speed moves between regimes, and the best of several passes spread over
    the run is the time the program needs on a quiet host.
    """
    from workloads import WORKLOADS, is_correct

    build = WORKLOADS[name]
    setup, passes = [], 0
    attempted = failed = 0
    timed = 0.0
    first: list | None = None
    best_solve: list[float] = []
    best_check: list[float] = []
    first_counts = peak_kib = None
    deadline = perf_counter() + seconds
    while first is None or perf_counter() < deadline:
        started = perf_counter()
        batch = build(random.Random(f"{name}:{seed}"), tiny, workdir)
        setup.append(perf_counter() - started)
        if first is None:
            best_solve = [math.inf] * len(batch)
            best_check = [math.inf] * len(batch)
        outputs = []
        for index, op in enumerate(batch):
            if first is not None and perf_counter() >= deadline:
                break
            attempted += 1
            if tracer is not None:
                tracer.begin_op(attempted)
            start = perf_counter()
            try:
                result = op.solve()
                solved = perf_counter()
                verdict = op.check(result)
                done = perf_counter()
            except Exception:  # a failing operation is counted, never dropped
                done = perf_counter()
                traceback.print_exc(limit=3, file=sys.stderr)
                verdict = None
            finally:
                if tracer is not None:
                    tracer.end_op()
            timed += done - start
            output = None
            if verdict:
                try:
                    alloc = op.allocation(result)
                    output = canonical(alloc)
                    # the first pass checks each output independently; later
                    # passes must reproduce it exactly
                    ok = (is_correct(op, alloc) if first is None
                          else output == first[index])
                except Exception:
                    traceback.print_exc(limit=3, file=sys.stderr)
                    ok = False
                if ok:
                    best_solve[index] = min(best_solve[index], solved - start)
                    best_check[index] = min(best_check[index], done - solved)
                else:
                    output = None
            if output is None:
                failed += 1
                print(f"FAILED op {attempted} ({op.kind})", file=sys.stderr)
            outputs.append(output)
            batch[index] = None  # drop the instance and its oracle caches
        passes += 1
        if first is None:
            first = outputs
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer is not None:
                first_counts = tracer.snapshot_counts()
    measured = [i for i, t in enumerate(best_solve) if t < math.inf]
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "timed_s": timed,
        "ops_per_pass": len(first),
        "instances_per_s": len(measured) / sum(best_solve[i] + best_check[i]
                                               for i in measured)
        if measured else 0.0,
        "solve_s": [best_solve[i] for i in measured],
        "check_s": [best_check[i] for i in measured],
        "setup": setup,
        "digest": hashlib.sha256(json.dumps(first).encode()).hexdigest()[:16],
        "first_counts": first_counts,
        "peak_kib": peak_kib,
    }


def end_to_end(run: dict) -> dict[str, float]:
    def median(values: list[float]) -> float:  # 0 when every operation failed
        return statistics.median(values) if values else 0.0

    return {
        "instances_per_s": run["instances_per_s"],
        "solve_s.p50": median(run["solve_s"]),
        "check_s.p50": median(run["check_s"]),
        "peak_rss_mb": run["peak_kib"] * 1024 / 1e6,
        "setup_s": min(run["setup"]),
    }


def self_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Share of traced operation time per traced function and per module.
    The self times partition an operation, so each share is a self time
    over their sum."""
    self_s = {name[:-len(".self_s")]: value for name, value in metrics.items()
              if name.endswith(".self_s")}
    total = sum(self_s.values()) + metrics["trace.op_self_s"]
    shares: dict[str, float] = {}
    for function, value in self_s.items():
        module = function.split(".")[0]
        shares[module] = shares.get(module, 0.0) + value / total
        shares[function] = value / total
    return shares


def layer_table(metrics: dict[str, float]) -> list[str]:
    shares = self_shares(metrics)
    lines = [f"{'metric':48} {'value':>14}  share"]
    for name, value in metrics.items():
        share = name[:-len(".self_s")] if name.endswith(".self_s") else None
        lines.append(f"{name:48} {value:14.6g}"
                     + (f"  {100 * shares[share]:5.1f}%" if share else ""))
    modules = sorted((name for name in shares if "." not in name),
                     key=lambda name: -shares[name])
    lines.append("self-time share by module: " + ", ".join(
        f"{name} {100 * shares[name]:.1f}%" for name in modules))
    return lines


def single(args) -> int:
    chorefair = import_library()
    from tracing import Tracer, per_layer_units
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}"
    workdir.mkdir(exist_ok=True)
    try:
        run = run_workload(args.workload, args.seed, args.seconds, tracer,
                           args.tiny, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"chorefair {chorefair.__version__}, Python {platform.python_version()}, "
          f"src/chorefair {source_lines()} lines")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"tiny {args.tiny}  timed {run['timed_s']:.2f} s")
    print(f"operations {run['attempted']}  failed {run['failed']}  "
          f"failed_frac {run['failed'] / run['attempted']:.4g}  "
          f"passes {run['passes']} of {run['ops_per_pass']} instances")
    print(f"digest {run['digest']} over the first pass")
    if tracer is None:
        metrics, units = end_to_end(run), END_TO_END
        for name, value in metrics.items():
            print(f"  {name:16} {value:14.6g} {units[name]}")
        if len(run["solve_s"]) >= 1000:  # at least ten samples beyond p99
            print(f"  {'solve_s.p99':16} {percentile(run['solve_s'], 0.99):14.6g} s"
                  f" over {len(run['solve_s'])} solves (not gated)")
    else:
        metrics = tracer.metrics(run["first_counts"], run["attempted"],
                                 run["instances_per_s"])
        units = per_layer_units()
        for line in layer_table(metrics):
            print("  " + line)
        spans = OUT / f"spans-{args.workload}.jsonl"
        tracer.write_spans(spans)
        print(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def child_run(workload: str, seed: int, seconds: float, trace: int,
              tiny: bool = False) -> tuple[dict, list[str]]:
    """Run one workload in its own process (its own peak RSS); return the
    JSON result and the report lines before it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def report(args) -> int:
    from tracing import per_layer_units
    from workloads import WORKLOADS

    results, traced = {}, {}
    for workload in WORKLOADS:
        results[workload], lines = child_run(workload, args.seed, args.seconds,
                                             0, args.tiny)
        print(f"{workload}: " + "; ".join(
            line for line in lines if line.startswith(("operations", "digest"))))
        if args.trace:
            traced[workload], _ = child_run(workload, args.seed, args.seconds,
                                            1, args.tiny)
    print()
    header = f"{'metric':44}" + "".join(f"{w:>20}" for w in WORKLOADS)
    print(header)
    for name, unit in END_TO_END.items():
        print(f"{name + ' [' + unit + ']':44}" + "".join(
            f"{results[w]['metrics'][name]['value']:20.6g}" for w in WORKLOADS))
    print(f"{'failed_frac':44}" + "".join(
        f"{results[w]['failed'] / results[w]['attempted']:20.4g}" for w in WORKLOADS))
    if not args.trace:
        return 0
    print()
    print(header)
    for name in per_layer_units():
        print(f"{name:44}" + "".join(
            f"{traced[w]['metrics'][name]['value']:20.6g}" for w in WORKLOADS))
    shares = {w: self_shares({name: entry["value"]
                              for name, entry in traced[w]["metrics"].items()})
              for w in WORKLOADS}
    print()
    print(f"{'self-time share of operation time':44}"
          + "".join(f"{w:>20}" for w in WORKLOADS))
    for name in shares[next(iter(WORKLOADS))]:
        print(f"{name:44}" + "".join(f"{100 * shares[w][name]:19.1f}%"
                                     for w in WORKLOADS))
    print(f"{'tracing overhead (untraced/traced ops/s)':44}" + "".join(
        f"{results[w]['metrics']['instances_per_s']['value'] / traced[w]['metrics']['trace.instances_per_s']['value']:19.2f}x"
        for w in WORKLOADS))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; omit to run them all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="wall seconds of passes per run, set-up included")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny instance sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.workload is None:
        import_library()
        return report(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
