"""Fast self-test of the benchmark at tiny sizes.

    python3 mechbench/selftest.py

Checks that every workload runs in both modes with every metric named in
``BENCHMARK.json`` printed under its unit, that a payment (or ratio) off by
one unit is reported as a failure, and that the benchmark refuses to run,
without a result, where the mechlab sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0  # has a recorded tiny digest, so the digest check runs too
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(*extra: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--seed", str(SEED), "--seconds", "0.3",
                           "--tiny", *extra], cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = result_of(run("--workload", workload, "--trace", str(trace)))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{workload} trace {trace}: metrics {got} != {expected[trace]}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{workload} trace {trace}: clean run reported {result}")
        corrupted = result_of(run("--workload", workload, "--corrupt"))
        if corrupted["correct"] or corrupted["failed"] < 1:
            problems.append(f"{workload}: corrupted output not reported: {corrupted}")
        print(f"{workload}: ok" if not problems else f"{workload}: {problems}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("--workload", "vcg_exact", cwd=bare, script=bare / HERE.name / "run.py")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else f"self-test failed ({len(problems)})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
