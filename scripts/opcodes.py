#!/usr/bin/env python3
"""Bytecode opcodes run per FM move or per swap step, a work count that
host drift cannot move.

    python3 scripts/opcodes.py --workload pair_swap
    python3 scripts/opcodes.py --workload pair_swap --tie-policy lifo --parent ../fmpart-parent
    python3 scripts/opcodes.py --workload fm_large --algorithm fm_variant --runs 1

For each file of the workload (`perfbench/gen.write_workload`, --seed) and
each run seed of the workload, under its pass cap and --tie-policy, the
script makes one whole `fm_run` or `variant_run` (--algorithm, default the
workload's own algorithms) twice: once with a step hook that counts the
steps (one per FM move or swap step), and once under `sys.settrace` with
opcode events switched on in every frame, counting them. The hook is off
in the counted run, so neither the hook nor the counting adds an opcode.
It prints the opcodes per step of all runs together (start partition, gain
init, steps and rollback all count) for this checkout and, given --parent,
for that checkout too, on the same files, and exits 1 if the two give
different rows. Only Python bytecode counts, so work in C (list methods,
`random.getrandbits`) counts as the one opcode that calls it.

`sys.settrace` traces only this thread of this process; the count repeats
exactly from run to run. It slows a run about 35 times: on a 2-core VM
with Python 3.11, a whole `fm_large` workload (8 runs on the ibm01-sized
netlist) takes about 50 s per checkout, and --runs N counts only the
first N (file, seed) runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from ab_time import ROOT, TIE_POLICIES, load_fmpart, row_keys

sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402
import worker  # noqa: E402


def count_opcodes(run) -> tuple[int, object]:
    """The opcode events of run() in this thread, and what it returned."""
    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return on_opcode

    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return count, result


def opcodes_per_step(fmpart, paths, algorithms, spec, tie_policy, runs):
    """(opcodes per step, steps, rows) over the runs the arguments name."""
    graphs = [(os.path.basename(path), fmpart.cli.load_document(path).to_hypergraph()) for path in paths]
    tasks = [(label, h, algo, seed) for label, h in graphs for algo in algorithms for seed in spec["seeds"]]
    opcodes = steps = 0
    rows = []
    for label, h, algo, seed in tasks[:runs]:
        run = fmpart.cli.RUNNERS[algo]
        cfg = fmpart.fm.FmConfig(seed=seed, tie_policy=tie_policy, max_passes=spec["max_passes"])
        hooked = []
        row = run(h, cfg, label, lambda buckets, p, moved: hooked.append(None))
        count, bare = count_opcodes(lambda: run(h, cfg, label))
        if row_keys([row]) != row_keys([bare]):
            raise SystemExit(f"{label} {algo} seed {seed}: the counted run gave another row")
        rows += row_keys([bare])
        opcodes += count
        steps += len(hooked)
    return opcodes / steps, steps, rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    ap.add_argument("--algorithm", choices=("fm", "fm_variant"), default=None,
                    help="run this algorithm instead of the workload's own")
    ap.add_argument("--tie-policy", choices=TIE_POLICIES, default="random",
                    help="tie policy of every run (default random)")
    ap.add_argument("--runs", type=int, default=None, help="count only the first N (file, seed) runs")
    ap.add_argument("--parent", help="checkout to compare against, e.g. a clone of the parent commit")
    args = ap.parse_args(argv)
    if args.runs is not None and args.runs < 1:
        ap.error("--runs must be positive")

    spec = worker.WORKLOADS[args.workload]
    algorithms = [args.algorithm] if args.algorithm else spec["algorithms"]
    sides = {"change": ROOT}
    if args.parent:
        sides["parent"] = args.parent
    all_rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = [inst.path for inst in gen.write_workload(args.workload, args.seed, tmp)]
        for side, root in sides.items():
            fmpart = load_fmpart(root, "cli", "fm")
            per_step, steps, all_rows[side] = opcodes_per_step(
                fmpart, paths, algorithms, spec, args.tie_policy, args.runs
            )
            print(f"{side}: {args.workload} {'/'.join(algorithms)} ({args.tie_policy}) "
                  f"{per_step:.1f} opcodes per step over {steps} steps", flush=True)
    same = all(rows == all_rows["change"] for rows in all_rows.values())
    if not same:
        print("rows DIFFER", flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
