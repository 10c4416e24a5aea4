"""Record, or verify, the per-seed output digests in ``digests.json``.

    python3 mechbench/record_digests.py --seeds 0-49 [--tiny] [--workload NAME]

For every workload and seed, runs the digested op prefix untimed in a fresh
process (the worker's ``untraced`` mode, two at a time) and compares its
digest with the recorded one.  Seeds without a digest are added; a digest
that differs is reported and left as it is, and the exit code is 1.  Record
only at a commit whose outputs are trusted: later refactors must reproduce
these digests bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def prefix_digest(workload: str, seed: int, tiny: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", "untraced"] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONHASHSEED="0"), timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-49")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = ap.parse_args()

    data = json.loads(DIGESTS.read_text())
    table = data["tiny" if args.tiny else "full"]
    jobs = [(w, s) for w in args.workload or WORKLOADS for s in args.seeds]
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(lambda job: prefix_digest(*job, args.tiny), jobs))
    status = 0
    for (workload, seed), run in zip(jobs, runs):
        if run["failures"]:
            print(f"{workload} seed {seed}: not recorded, ops failed: {run['failures']}")
            status = 1
            continue
        recorded = table.setdefault(workload, {}).setdefault(str(seed), run["digest"])
        if recorded != run["digest"]:
            print(f"{workload} seed {seed}: digest {run['digest']} != recorded {recorded}")
            status = 1
    for workload in table:
        table[workload] = dict(sorted(table[workload].items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(data, indent=1) + "\n")
    print(f"checked {len(jobs)} prefixes; {'mismatches above' if status else 'all match'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
