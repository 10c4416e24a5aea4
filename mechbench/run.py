"""The mechlab benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 mechbench/run.py --workload vcg_exact --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: a closed loop (one
caller, one thread, the next op starts when the previous one returns) timed
in a fresh process, plus the median set-up time over several fresh
processes.  With ``--trace 1`` it reports the per-layer metrics: the same
fixed op prefix runs once untraced and twice traced, each in a fresh
process; the two traced runs must agree on every count.  Every op's output
is checked, and the digest of the prefix outputs is compared with the one
recorded in ``digests.json`` for that seed, if any.

Times are calibrated: each op's wall time is divided by the time of a fixed
kernel run right after it (see ``worker.py``), and reported in ms of a
machine on which that kernel takes 1 ms.  This cancels the speed drift of
shared cores; the raw figures are printed as comments.

The last line of standard output is the result object.  The program fails
without a result if the checkout holds no ``src/mechlab``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"
SETUP_RUNS = 5  # set-up samples per result: four set-up-only processes and the measured one
DEADLINE_S = 170

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_frac": "frac",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


PER_LAYER_UNITS = {
    "wd.optimal.calls_per_op": "calls/op",
    "wd.optimal.ms_per_call": "ms",
    "wd.optimal.busy_frac": "frac",
    "wd.greedy.calls_per_op": "calls/op",
    "wd.greedy.ms_per_call": "ms",
    "wd.greedy.busy_frac": "frac",
    "wd.greedy.atoms_per_call": "atoms/call",
    "wd.affine.calls_per_op": "calls/op",
    "wd.affine.ms_per_call": "ms",
    "wd.affine_pref.ms_per_call": "ms",
    "wd.affine_nopref.ms_per_call": "ms",
    "payments.pivot.calls_per_op": "calls/op",
    "payments.pivot.solves_per_pivot": "solves/call",
    "payments.pivot.self_ms_per_op": "ms",
    "payments.run.self_frac": "frac",
    "second_chance.appeal.calls_per_op": "calls/op",
    "second_chance.appeal.steps_per_call": "steps/call",
    "second_chance.appeal.suggest_ratio": "frac",
    "second_chance.appeal.self_ms_per_call": "ms",
    "second_chance.closure.calls_per_op": "calls/op",
    "second_chance.candidates_per_op": "count/op",
    "core.value_table.misses_per_op": "misses/op",
    "core.value_table.hit_ratio": "frac",
    "core.value_table.entries": "count",
    "core.welfare.calls_per_op": "calls/op",
    "core.welfare.busy_frac": "frac",
    "cmap.outputs.calls_per_op": "calls/op",
    "cmap.outputs.ms_per_call": "ms",
    "cmap.outputs.allowable_ratio": "frac",
    "cmap.solve_optimal.calls_per_op": "calls/op",
    "cmap.label_setting.ms_per_call": "ms",
    "cmap.heuristic.ms_per_call": "ms",
    "cmap.welfare.calls_per_op": "calls/op",
    "trace.op_ms": "ms",
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
}


class ChildFailed(RuntimeError):
    pass


def child(args, mode: str, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, *extra]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    env = dict(os.environ, PYTHONHASHSEED="0")
    left = DEADLINE_S - (time.monotonic() - args.started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, left))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process exceeded the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrated_ms(run: dict) -> list[float]:
    return [lat / cal for lat, cal in zip(run["latencies_ns"], run["op_cal_ns"])]


def calibrated_setup_s(run: dict) -> float:
    return run["setup_s"] * 1e6 / run["setup_cal_ns"]


def failed_ops(run: dict, recorded: str | None, notes: list[str]) -> set[int]:
    """Ops that failed a check or raised; the whole prefix if the digest differs."""
    failed = {k for k, _ in run["failures"]}
    notes.extend(msg for _, msg in run["failures"])
    if recorded is not None and run["digest"] != recorded:
        failed.update(range(run["prefix_ops"]))
        notes.append(f"prefix digest {run['digest']} != recorded {recorded}: "
                     f"all {run['prefix_ops']} prefix ops fail")
    return failed


def end_to_end(args, recorded) -> tuple[dict, int, int, list[str]]:
    setups = [child(args, "setup") for _ in range(SETUP_RUNS - 1)]
    run = child(args, "measure", "--seconds", str(args.seconds))
    setups.append(run)
    notes = [
        f"measured {run['ops']} ops in {run['timed_ns'] / 1e9:.2f} s of op time: "
        f"{run['ops'] / (run['timed_ns'] / 1e9):.3f} ops/s uncalibrated, "
        f"median kernel time {statistics.median(run['op_cal_ns']) / 1e6:.4f} ms",
        f"uncalibrated set-up times (s): {[round(r['setup_s'], 4) for r in setups]}",
        f"prefix digest {run['digest']}",
    ]
    failed = failed_ops(run, recorded, notes)
    lat_ms = calibrated_ms(run)
    metrics = {
        "ops_per_s": run["ops"] / (sum(lat_ms) / 1e3),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "success_frac": 1 - len(failed) / run["ops"],
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(calibrated_setup_s(r) for r in setups),
    }
    return metrics, run["ops"], len(failed), notes


def per_layer(args, recorded) -> tuple[dict, int, int, list[str]]:
    OUT.mkdir(exist_ok=True)
    base = child(args, "untraced")
    traced = [
        child(args, "traced", "--spans", str(OUT / f"{args.workload}-{args.seed}-{i}.jsonl"))
        for i in (1, 2)
    ]
    runs = [base, *traced]
    notes = [f"prefix digest {base['digest']}; calibrated op ms untraced "
             f"{sum(calibrated_ms(base)) / base['ops']:.4f}"]
    failed = sum(len(failed_ops(run, recorded, notes)) for run in runs)
    if len({run["digest"] for run in runs}) != 1:
        failed += 1
        notes.append("traced and untraced runs disagree on the output digest")
    first, second = (run["counts"] for run in traced)
    if first != second:
        failed += 1
        notes.append(f"counts differ between two traced runs of one seed: {first} != {second}")
    metrics = dict(first)
    for name in traced[0]["times"]:
        metrics[name] = statistics.mean(run["times"][name] for run in traced)
    traced_ms = statistics.mean(sum(calibrated_ms(run)) for run in traced)
    metrics["trace.overhead_frac"] = traced_ms / sum(calibrated_ms(base)) - 1
    return metrics, sum(run["ops"] for run in runs), failed, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--corrupt", action="store_true",
                    help="self-test: perturb the first op's output by one unit")
    args = ap.parse_args()
    args.started = time.monotonic()

    if not (ROOT / "src" / "mechlab" / "__init__.py").is_file():
        print(f"no mechlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    table = json.loads(DIGESTS.read_text())["tiny" if args.tiny else "full"]
    recorded = table.get(args.workload, {}).get(str(args.seed))

    measure = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, failed, notes = measure(args, recorded)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    if recorded is None:
        notes.append(f"no recorded digest for seed {args.seed}; outputs checked by property only")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if set(metrics) != set(units):
        print(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    for note in notes:
        print(f"# {note}")
    for name, value in metrics.items():
        print(f"{name:42s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
