#!/usr/bin/env python3
"""Timing and work-profile experiment: FM and pairwise pass time versus
instance size, and best-pair search effort versus block size and degree.

Example:
    python scripts/pass_scaling.py --sizes 5000 10000 20000 --reps 3
"""

import argparse
import random
import time

from fmpart.fm import FmConfig, fm_pass, random_initial_partition
from fmpart.gains import init
from fmpart.hypergraph import Partition
from fmpart.pairwise import best_pair, pad_dummy, selection_state, variant_pass
from fmpart.synth import random_balanced_sides, random_hypergraph


def time_pass(n, reps, tie):
    h = random_hypergraph(random.Random(100 + n), n, n, 2, 6)
    cfg = FmConfig(seed=1, tie_policy=tie)
    best = None
    for rep in range(reps):
        p = random_initial_partition(h, random.Random(rep))
        t0 = time.perf_counter()
        fm_pass(h, p, cfg, random.Random(rep))
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, h.pin_count


def equal_split(ph, rng):
    # the padded count is even, so the blocks come out equal
    return Partition.from_sides(ph.graph, random_balanced_sides(rng, ph.graph.cell_count))


def time_variant_pass(n, tie):
    h = random_hypergraph(random.Random(100 + n), n, n, 2, 6)
    ph = pad_dummy(h)
    rng = random.Random(1)
    p = equal_split(ph, rng)
    t0 = time.perf_counter()
    trace = variant_pass(ph, p, FmConfig(seed=1, tie_policy=tie), rng)
    return time.perf_counter() - t0, trace.pair_gain_evals / max(len(trace.steps), 1)


def first_call_evals(cells, nets, tie, reps=15, master=3):
    total = 0.0
    degree = 0.0
    for r in range(reps):
        rng = random.Random(master * 10_000 + r)
        h = random_hypergraph(rng, cells, nets, 2, 6)
        ph = pad_dummy(h)
        p = equal_split(ph, rng)
        state = init(ph.graph, p, tie)
        sel = selection_state(state)
        best_pair(sel, ph.graph, p, state.gain, rng)
        total += sel.pair_gain_evals
        degree += h.max_cell_degree
    return total / reps, degree / reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", type=int, nargs="+", default=[5000, 10000, 20000])
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--tie", choices=("random", "fifo", "lifo"), default="random")
    args = ap.parse_args(argv)

    print("pass time (cells = nets, pins 2..6):")
    prev = None
    for n in args.sizes:
        dt, pins = time_pass(n, args.reps, args.tie)
        note = "" if prev is None else f"  x{dt / prev:.2f} vs previous size"
        print(f"  n={n:>7} pins={pins:>8}  best-of-{args.reps} pass {dt * 1000:8.1f} ms{note}")
        prev = dt

    print("pairwise pass (cells = nets, pins 2..6):")
    for n in args.sizes:
        dt, per_step = time_variant_pass(n, args.tie)
        print(f"  n={n:>7}  pass {dt * 1000:8.1f} ms  {per_step:6.2f} pair evaluations per step")

    print("best-pair first-call evaluations:")
    for cells in (60, 120, 240, 480):
        e, d = first_call_evals(cells, cells, args.tie)
        print(f"  fixed density: cells={cells:>4} m={cells // 2:>4}: {e:7.1f} evals (avg max degree {d:.1f})")
    for nets in (60, 120, 240, 480):
        e, d = first_call_evals(120, nets, args.tie)
        print(f"  fixed cells=120: nets={nets:>4}: {e:7.1f} evals (avg max degree {d:.1f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
