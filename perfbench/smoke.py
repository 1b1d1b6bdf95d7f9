"""Smoke test of the benchmark: every workload, briefly, timed and traced.

    python3 perfbench/smoke.py

Runs each workload named in BENCHMARK.json with ``--seconds 1``, once with
``--trace 0`` and once with ``--trace 1``, and checks that every run is
correct, exits 0 and prints every metric BENCHMARK.json names for that
mode with its unit. It is kept out of the test suite: the depth-16
workloads still build and load their 65,536-leaf trees, so the whole
smoke test takes a couple of minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"{where}: metric {name} missing")
        elif got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: metric {name} printed as {got}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in spec["workloads"]:
        for trace, expected in modes.items():
            found = check_run(workload["name"], trace, expected)
            print(f"{workload['name']} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems.extend(found)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
