"""Smoke test for the benchmark: every workload at tiny scale.

    python3 bench/smoke.py

For each workload in BENCHMARK.json it checks that every named metric is
emitted with its unit, that no operation fails, and that the per-layer
counts and the allocation digest repeat exactly across runs with the same
seed.  It also checks that the benchmark refuses to run, without printing a
result, when the checkout holds no `src/chorefair`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import OUT, ROOT, child_run

SEED = 7


def digest(lines: list[str]) -> str:
    return next(line.split()[1] for line in lines if line.startswith("digest "))


def units(metrics: dict) -> dict[str, str]:
    return {name: entry["unit"] for name, entry in metrics.items()}


def check_workload(workload: str, spec: dict) -> list[str]:
    problems = []
    plain, plain_lines = child_run(workload, SEED, 0, 0, tiny=True)
    traced = [child_run(workload, SEED, 0, 1, tiny=True) for _ in range(2)]
    if units(plain["metrics"]) != {m["name"]: m["unit"] for m in spec["end_to_end"]}:
        problems.append("end-to-end metrics or units differ from BENCHMARK.json")
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if any(units(result["metrics"]) != layer_units for result, _ in traced):
        problems.append("per-layer metrics or units differ from BENCHMARK.json")
    for result in [plain] + [result for result, _ in traced]:
        if result["failed"] or not result["correct"]:
            problems.append(f"{result['failed']} of {result['attempted']} "
                            "operations failed")
    counts = [{name: result["metrics"][name]["value"]
               for name, unit in layer_units.items() if unit == "count"}
              for result, _ in traced]
    if counts[0] != counts[1]:
        changed = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        problems.append(f"per-layer counts differ between runs: {changed}")
    digests = {digest(lines) for lines in [plain_lines] + [lines for _, lines in traced]}
    if len(digests) != 1:
        problems.append(f"allocation digests differ between runs: {sorted(digests)}")
    return problems


def check_refuses_without_library() -> list[str]:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "small_exact",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["ran without src/chorefair"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        problems = check_workload(workload, spec)
        failures += len(problems)
        print(f"{workload}: " + ("ok" if not problems else "; ".join(problems)))
    problems = check_refuses_without_library()
    failures += len(problems)
    print("bare checkout: " + ("refused, ok" if not problems else problems[0]))
    print("smoke test " + ("passed" if not failures else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
