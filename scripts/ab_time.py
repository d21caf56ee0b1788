#!/usr/bin/env python3
"""Time this checkout's run loop against another checkout's in one process.

    python3 scripts/ab_time.py --parent ../fmpart-parent --workload fm_large
    python3 scripts/ab_time.py --parent ../fmpart-parent --workload fm_large --tie-policy lifo
    python3 scripts/ab_time.py --parent ../fmpart-parent --workload fm_large --algorithm fm_variant

Whole-benchmark wall times drift between processes on a shared host, and
the drift can hide a change of 10-20%. This script loads both checkouts'
`fmpart` packages into one process and parses the workload's files (from
`perfbench/gen.write_workload`) with each. It then alternates the two run
loops, swapping which goes first in each pair. A run loop is one
`run_experiment` call over the workload's algorithms, seeds and pass cap,
as in `perfbench/worker.py` (under --tie-policy, default that of `FmConfig`),
timed with `time.process_time`. --algorithm runs that one algorithm
instead of the workload's own, for example the swap variant on the
ibm01-sized `fm_large` netlist, which no benchmark workload runs. It
prints the ratio of each pair (this checkout over --parent), then their
median, the ratio of the two sides' minimum times, how many pairs this
checkout won (ratio below 1) and the ratios' quartiles, and exits 1 if the
two checkouts ever give different rows (`elapsed_ms` aside).

On a shared host load from elsewhere only adds time, so the minimum ratio
can be the steadier figure: over three rotations of 10-16 `fm_large` pairs
each, timing a prototype of the fused bag step loop (`gains.pass_steps`),
the minimum ratios spread 0.74-0.81 while the medians spread 0.77-0.94.
With no change (the parent timed against itself, three rotations of 8
pairs) the minimum ratios read 0.96-1.08 and the medians 0.97-1.05, so
neither figure resolves a change of a few percent on such a host.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402
import worker  # noqa: E402  (imports this checkout's fmpart)
from fmpart.cli import RUNNERS  # noqa: E402
from fmpart.fm import FmConfig  # noqa: E402
from fmpart.gains import TIE_POLICIES  # noqa: E402


def is_fmpart(name: str) -> bool:
    return name == "fmpart" or name.startswith("fmpart.")


def load_fmpart(root: str, *names: str):
    """The `fmpart` package of the checkout at root, imported afresh along
    with each submodule in names (`cli`, say), which is then an attribute
    of it; sys.modules and sys.path are left as they were."""
    saved = {k: v for k, v in sys.modules.items() if is_fmpart(k)}
    for k in saved:
        del sys.modules[k]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    try:
        package = importlib.import_module("fmpart")
        for name in names:
            importlib.import_module(f"fmpart.{name}")
    finally:
        sys.path.remove(src)
        for k in [k for k in sys.modules if is_fmpart(k)]:
            del sys.modules[k]
        sys.modules.update(saved)
    if not os.path.abspath(package.__file__).startswith(os.path.join(os.path.abspath(src), "")):
        raise SystemExit(f"fmpart imported from {package.__file__}, not from {src}")
    return package


def row_keys(rows) -> list[tuple]:
    return [(r.label, r.algorithm, r.seed, r.initial_cut, r.optimal_cut, r.passes, r.final_side) for r in rows]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="checkout to compare against, e.g. a clone of the parent commit")
    ap.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    ap.add_argument("--pairs", type=int, default=8, help="timed pairs (default 8)")
    ap.add_argument("--tie-policy", choices=TIE_POLICIES, default=FmConfig.tie_policy,
                    help=f"tie policy of every run (default {FmConfig.tie_policy})")
    ap.add_argument("--algorithm", choices=sorted(RUNNERS), default=None,
                    help="run this algorithm instead of the workload's own")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")

    spec = worker.WORKLOADS[args.workload]
    algorithms = [args.algorithm] if args.algorithm else spec["algorithms"]
    clis = {"parent": load_fmpart(args.parent, "cli").cli, "change": load_fmpart(ROOT, "cli").cli}
    with tempfile.TemporaryDirectory() as tmp:
        paths = [inst.path for inst in gen.write_workload(args.workload, args.seed, tmp)]
        entries = {
            side: [(os.path.basename(path), cli.load_document(path).to_hypergraph()) for path in paths]
            for side, cli in clis.items()
        }

    def run_loop(side: str) -> tuple[float, list]:
        cli = clis[side]
        cfg = cli.FmConfig(seed=spec["seeds"][0], tie_policy=args.tie_policy, max_passes=spec["max_passes"])
        gc.collect()
        start = time.process_time()
        rows, _summary = cli.run_experiment(entries[side], algorithms, spec["seeds"], cfg)
        return time.process_time() - start, row_keys(rows)

    ratios = []
    least = {"parent": float("inf"), "change": float("inf")}
    same_rows = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        times = {}
        rows = {}
        for side in order:
            times[side], rows[side] = run_loop(side)
        same_rows = same_rows and rows["parent"] == rows["change"]
        least = {side: min(least[side], times[side]) for side in least}
        ratios.append(times["change"] / times["parent"])
        print(
            f"pair {i + 1}/{args.pairs}: parent {times['parent']:.3f} s, change {times['change']:.3f} s, "
            f"ratio {ratios[-1]:.3f}",
            flush=True,
        )
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    wins = sum(r < 1 for r in ratios)
    print(f"{args.workload} {'/'.join(algorithms)} ({args.tie_policy}): median ratio {statistics.median(ratios):.3f} "
          f"(minimum ratio {least['change'] / least['parent']:.3f}) over {len(ratios)} pairs, "
          f"change won {wins}/{len(ratios)}, quartiles {q1:.3f}-{q3:.3f}, "
          f"rows {'identical' if same_rows else 'DIFFER'}")
    return 0 if same_rows else 1


if __name__ == "__main__":
    raise SystemExit(main())
