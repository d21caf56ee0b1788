#!/usr/bin/env python3
"""Print one digest of the result rows per benchmark workload.

    python3 scripts/row_digest.py --seed 1

For each workload in `perfbench/worker.py`'s WORKLOADS, the script writes
the workload's files for --seed with `perfbench/gen.write_workload` into a
temporary directory, loads them as the benchmark worker does, and runs the
workload's algorithms, seeds and pass cap under each tie policy. It prints
the row count and a sha256 over every row's file, algorithm, seed, tie
policy, initial_cut, optimal_cut, passes and final_side, in row order.
Two checkouts that print the same lines give the same rows; `elapsed_ms`
is left out. fmpart is imported through the worker, so it comes from the
`src/` next to this script.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import gen  # noqa: E402
import worker  # noqa: E402
from fmpart.gains import TIE_POLICIES  # noqa: E402


def workload_digest(workload: str, seed: int, tmp: str) -> tuple[int, str]:
    """(row count, sha256 hex) of the workload's rows under every tie policy."""
    spec = worker.WORKLOADS[workload]
    paths = [inst.path for inst in gen.write_workload(workload, seed, os.path.join(tmp, workload))]
    entries, _names = worker.Runner(workload, paths, tmp, None).setup()
    digest = hashlib.sha256()
    count = 0
    for tie in TIE_POLICIES:
        cfg = worker.FmConfig(seed=spec["seeds"][0], tie_policy=tie, max_passes=spec["max_passes"])
        rows, _summary = worker.run_experiment(entries, spec["algorithms"], spec["seeds"], cfg)
        for r in rows:
            side = "".join(map(str, r.final_side))
            fields = (r.label, r.algorithm, r.seed, tie, r.initial_cut, r.optimal_cut, r.passes, side)
            digest.update((",".join(map(str, fields)) + "\n").encode())
        count += len(rows)
    return count, digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in worker.WORKLOADS:
            count, hexdigest = workload_digest(workload, args.seed, tmp)
            print(f"{workload} rows={count} sha256={hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
