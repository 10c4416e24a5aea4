"""One benchmark process: set up a workload, run its ops, print one JSON line.

Started by ``run.py``, one process per measurement, so that import time,
caches and peak memory belong to that measurement alone.  Modes:

* ``setup``: import, input generation and one warm-up op, timed; nothing else.
* ``measure``: after set-up, a closed loop of ops for ``--seconds`` of op
  time and at least ``MIN_OPS`` ops.  Each op's input is generated and its
  output checked outside the timed region.  Peak memory is read after
  ``MIN_OPS`` ops, so that a faster program, which runs more ops and caches
  more valuations, is not charged for it.
* ``untraced`` / ``traced``: after set-up, exactly the first ``PREFIX_OPS``
  ops, with tracing off or on.  A fixed prefix makes every count in the
  traced run an exact function of the seed.

Speed calibration: on a virtual machine whose cores other tenants share,
speed drifts by up to 1.7x over seconds to minutes.
After every op the worker times a fixed pure-Python kernel that is
independent of mechlab (:func:`calibration_kernel`), and reports each op's
time together with the median kernel time of the ops around it.  ``run.py``
divides the one by the other, which cancels the drift but not a change in
the program.  Set-up time is scaled the same way, by kernel runs right after
set-up.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MIN_OPS = 100  # at least ten samples beyond the p90 latency
PREFIX_OPS = 56  # digested and traced prefix; a multiple of every op-mix period
TINY_MIN_OPS = 10
TINY_PREFIX_OPS = 8
SETUP_CALIBRATIONS = 15
CAL_WINDOW = 3  # an op's speed is the median kernel time of ops k-3 .. k+3

CAL_TABLE = tuple((i * 7919) % 1000003 for i in range(64))
CAL_LABEL = (0,) * 400


def calibration_kernel() -> tuple:
    """About 1 ms of the work mechlab does most.

    A subset DP over int lists, a ``Fraction`` sort, small tuples, and a heap
    of long bit-vector labels as in label-setting.
    """
    best = [0] * 64
    for _ in range(3):
        row = [0] * 64
        for mask in range(64):
            top = CAL_TABLE[0] + best[mask]
            sub = mask
            while sub:
                cand = CAL_TABLE[sub] + best[mask ^ sub]
                if cand > top:
                    top = cand
                sub = (sub - 1) & mask
            row[mask] = top
        best = row
    keys = sorted((-Fraction(v * v, 1 + i % 5), i) for i, v in enumerate(CAL_TABLE))
    parts = [tuple(range(i % 9)) for i in range(300)]
    heap: list = []
    for i in range(80):
        bits = list(CAL_LABEL)
        bits[i] = 1
        heapq.heappush(heap, (i % 5, tuple(bits)))
    while heap:
        last = heapq.heappop(heap)
    return best[-1], keys[0], len(parts), last[0]


def timed_kernel() -> int:
    start = time.perf_counter_ns()
    calibration_kernel()
    return time.perf_counter_ns() - start


def local_speeds(samples: list[int]) -> list[float]:
    """Per-op kernel time: the median over a window, robust to single spikes."""
    out = []
    for k in range(len(samples)):
        window = sorted(samples[max(0, k - CAL_WINDOW):k + CAL_WINDOW + 1])
        out.append(window[len(window) // 2])
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "untraced", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    prefix = TINY_PREFIX_OPS if args.tiny else PREFIX_OPS
    workload = workloads.WORKLOADS[args.workload](sizes)

    def generate(k):
        return workload.generate(workloads.op_rng(workload.name, args.seed, k), k)

    inputs = [generate(k) for k in range(prefix)]
    warm = generate(-1)
    errors = workload.check(warm, workload.prepare(warm, workloads.PLAIN)())
    if errors:
        raise SystemExit(f"warm-up op failed its check: {errors}")
    setup_s = time.perf_counter() - T0
    cal = sorted(timed_kernel() for _ in range(SETUP_CALIBRATIONS))
    result = {"setup_s": setup_s, "setup_cal_ns": cal[len(cal) // 2]}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    hooks = workloads.PLAIN
    recorder = None
    if args.mode == "traced":
        import tracing

        recorder = tracing.Recorder()
        hooks = tracing.TracingHooks(recorder)
        tracing.patch_modules(recorder, hooks)

    value_table = workloads.core.value_table
    cache = [0, 0]  # hits and misses of the value_table cache during ops
    latencies_ns: list[int] = []
    cal_ns: list[int] = []
    failures: list[tuple[int, str]] = []
    digest = hashlib.sha256()
    pending = []  # (k, input, output) checked after the loop in fixed-prefix modes

    def settle(k, inp, out):
        if isinstance(out, Exception):
            failures.append((k, f"op {k}: raised {out!r}"))
            encoded = repr(out).encode()
        else:
            if args.corrupt and k == 0:
                out = workload.corrupt(out)
            errors = workload.check(inp, out)
            if errors:
                failures.append((k, f"op {k}: {'; '.join(errors)}"))
            encoded = workload.encode(out)
        if k < prefix:
            digest.update(encoded)

    entries = value_table.cache_info().currsize
    min_ops = TINY_MIN_OPS if args.tiny else MIN_OPS
    peak_rss_mb = 0.0
    timed_ns = 0
    k = 0
    while True:
        if k == min_ops:  # memory after a fixed amount of work, however fast the ops are
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.mode == "measure":
            if timed_ns >= args.seconds * 1e9 and k >= min_ops:
                break
        elif k == prefix:
            break
        inp = inputs[k] if k < prefix else generate(k)
        op = workload.prepare(inp, hooks)
        before = value_table.cache_info()
        if recorder:
            recorder.begin_op(k)
        start = time.perf_counter_ns()
        try:
            out = op()
        except Exception as exc:  # an undocumented exception fails the op
            out = exc
        elapsed = time.perf_counter_ns() - start
        if recorder:
            recorder.end_op()
        after = value_table.cache_info()
        cache[0] += after.hits - before.hits
        cache[1] += after.misses - before.misses
        latencies_ns.append(elapsed)
        cal_ns.append(timed_kernel())
        timed_ns += elapsed
        if args.mode == "measure":
            settle(k, inp, out)
        else:
            pending.append((k, inp, out))
        k += 1
    entries = value_table.cache_info().currsize - entries
    for item in pending:
        settle(*item)

    result.update(
        ops=k,
        failures=failures,
        digest=digest.hexdigest()[:16],
        prefix_ops=prefix,
        latencies_ns=latencies_ns,
        op_cal_ns=local_speeds(cal_ns),
        timed_ns=timed_ns,
        peak_rss_mb=peak_rss_mb,
    )
    if recorder:
        counts, times = tracing.summarize(recorder.spans, result["op_cal_ns"])
        counts["core.value_table.misses_per_op"] = cache[1] / k
        counts["core.value_table.hit_ratio"] = cache[0] / max(1, cache[0] + cache[1])
        counts["core.value_table.entries"] = entries
        result.update(counts=counts, times=times)
        if args.spans:
            recorder.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
