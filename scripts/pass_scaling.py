#!/usr/bin/env python3
"""Process time per pin of one FM pass, by tie policy and instance size.

    python3 scripts/pass_scaling.py
    python3 scripts/pass_scaling.py --parent ../fmpart-parent

For 10k, 40k and 160k cells, the script builds `synth.random_hypergraph`
with as many nets as cells (2-6 pins each) and a random balanced start,
then times one `fm_pass` from that start under each tie policy with
`time.process_time`, ten times (PAIRS). It prints the best
microseconds per pin of this checkout and, given --parent, of that
checkout too, on the same instances. With --parent the two checkouts'
passes run in alternating pairs, swapping which goes first in each pair
as `scripts/ab_time.py` does, and the script also prints the median of
the pairs' ratios (this checkout over --parent) and how many pairs this
checkout won (ratio below 1), each side's median microseconds per pin
and the spread of the parent's readings (upper minus lower quartile) as a
share of their median, as `scripts/ab_time.py` does: a flattening shows
when this checkout wins 9 of 10 pairs and its median falls below the
parent's by more than that spread. A single reading of each side, one
after the other, once put `random` at 10k cells 34% apart while its
opcodes per move differed by 3%. A figure that rises with size marks a
superlinear path; no benchmark workload runs lifo or fifo, so this is
where their passes are timed at scale.
"""

from __future__ import annotations

import argparse
import gc
import random
import statistics
import time

from ab_time import PAIRS, ROOT, TIE_POLICIES, load_fmpart, quartiles

SIZES = (10_000, 40_000, 160_000)


def instance(fmpart, cells: int):
    """The hypergraph of that size and its random balanced start."""
    h = fmpart.synth.random_hypergraph(random.Random(cells), cells, cells)
    return h, fmpart.fm.random_initial_partition(h, random.Random(1))


def us_per_pin(fmpart, h, start, policy: str) -> float:
    """One timed pass from a copy of start under policy, in µs per pin."""
    cfg = fmpart.fm.FmConfig(seed=1, tie_policy=policy)
    p = start.clone()
    gc.collect()
    t = time.process_time()
    fmpart.fm.fm_pass(h, p, cfg, random.Random(2))
    return (time.process_time() - t) / h.pin_count * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", help="checkout to compare against, e.g. a clone of the parent commit")
    args = ap.parse_args(argv)
    sides = {"change": load_fmpart(ROOT, "fm", "synth")}
    if args.parent:
        sides["parent"] = load_fmpart(args.parent, "fm", "synth")
    for cells in SIZES:
        instances = {side: instance(fmpart, cells) for side, fmpart in sides.items()}
        for policy in TIE_POLICIES:
            times = {side: [] for side in sides}
            for i in range(PAIRS):
                for side in sides if i % 2 == 0 else reversed(sides):
                    times[side].append(us_per_pin(sides[side], *instances[side], policy))
            line = f"{policy:6} {cells:>7} cells: " + ", ".join(f"{s} {min(t):.2f}" for s, t in times.items())
            line += f" us/pin (best of {PAIRS})"
            if args.parent:
                ratios = [c / p for c, p in zip(times["change"], times["parent"])]
                p1, parent_median, p3 = quartiles(times["parent"])
                line += (f", median ratio {statistics.median(ratios):.3f}, "
                         f"change won {sum(r < 1 for r in ratios)}/{len(ratios)} "
                         f"(median parent {parent_median:.2f}, "
                         f"change {statistics.median(times['change']):.2f} us/pin; "
                         f"parent spread {(p3 - p1) / parent_median:.1%} of its median)")
            print(line, flush=True)
        del instances
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
