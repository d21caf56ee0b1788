#!/usr/bin/env python3
"""Process time per pin of one FM pass, by tie policy and instance size.

    python3 scripts/pass_scaling.py
    python3 scripts/pass_scaling.py --parent ../fmpart-parent

For 10k, 40k and 160k cells, the script builds `synth.random_hypergraph`
with as many nets as cells (2-6 pins each) and a random balanced start,
then times one `fm_pass` from that start under each tie policy with
`time.process_time`, best of three. It prints microseconds per pin for
this checkout and, given --parent, for that checkout too, on the same
instances. A figure that rises with size marks a superlinear path; no
benchmark workload runs lifo or fifo, so this is where their passes are
timed at scale.
"""

from __future__ import annotations

import argparse
import gc
import random
import time

from ab_time import ROOT, TIE_POLICIES, load_fmpart

SIZES = (10_000, 40_000, 160_000)


def us_per_pin(fmpart, cells: int) -> dict[str, float]:
    """The best of three timed passes per tie policy, in µs per pin."""
    h = fmpart.synth.random_hypergraph(random.Random(cells), cells, cells)
    start = fmpart.fm.random_initial_partition(h, random.Random(1))
    best = {}
    for policy in TIE_POLICIES:
        cfg = fmpart.fm.FmConfig(seed=1, tie_policy=policy)
        times = []
        for _ in range(3):
            p = start.clone()
            gc.collect()
            t = time.process_time()
            fmpart.fm.fm_pass(h, p, cfg, random.Random(2))
            times.append(time.process_time() - t)
        best[policy] = min(times) / h.pin_count * 1e6
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", help="checkout to compare against, e.g. a clone of the parent commit")
    args = ap.parse_args(argv)
    sides = {"change": load_fmpart(ROOT, "fm", "synth")}
    if args.parent:
        sides["parent"] = load_fmpart(args.parent, "fm", "synth")
    for cells in SIZES:
        figures = {side: us_per_pin(fmpart, cells) for side, fmpart in sides.items()}
        for policy in TIE_POLICIES:
            print(f"{policy:6} {cells:>7} cells: " + ", ".join(f"{s} {f[policy]:.2f} us/pin" for s, f in figures.items()),
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
