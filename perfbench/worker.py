"""Runs one workload's rounds against fmpart and streams the results.

Started by run.py in a process of its own, so that the peak resident memory
it reports belongs to the program's work alone and not to the generator or
the checks. It reads only the netlist files named in the manifest; the
generator's net lists stay in the parent.

Output is one JSON line per round, then one closing line, in --out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import fmpart  # noqa: E402

if os.path.dirname(os.path.abspath(fmpart.__file__)) != os.path.join(SRC, "fmpart"):
    raise SystemExit(f"fmpart imported from {fmpart.__file__}, not from {SRC}")

from fmpart.cli import load_document, run_experiment, write_rows_csv, write_summary_csv  # noqa: E402
from fmpart.fm import FmConfig, fm_run  # noqa: E402
from fmpart.oracle import exact_min_cut_balanced  # noqa: E402
from fmpart.pairwise import variant_run  # noqa: E402

from tracing import Tracer  # noqa: E402

# Algorithm seeds are fixed; the workload seed only shapes the instances.
# fm_large and pair_swap cap the passes: a run's pass count otherwise varies
# from 20 to 36 (FM, 12.8k cells) and 3 to 8 (swaps, 600 cells) between
# seeds, and would swamp every timing with the number of passes. The cap
# sits at or below the fewest passes seen, so each run makes the same number.
WORKLOADS = {
    "fm_large": {"algorithms": ["fm"], "seeds": list(range(1, 9)), "max_passes": 5},
    "pair_swap": {"algorithms": ["fm_variant"], "seeds": [1, 2], "max_passes": 3},
    # what `partition verify` runs: default seeds 1..10 and pass cap
    "verify_small": {"algorithms": ["fm", "fm_variant"], "seeds": list(range(1, 11)), "max_passes": 100},
}
SETUP_REPEATS = 5


def row_record(r) -> dict:
    return {
        "file": r.label,
        "algorithm": r.algorithm,
        "seed": r.seed,
        "initial_cut": r.initial_cut,
        "optimal_cut": r.optimal_cut,
        "passes": r.passes,
        "elapsed_ms": r.elapsed_ms,
        "final_side": list(r.final_side),
    }


class Runner:
    def __init__(self, workload: str, paths: list[str], out_dir: str, tracer: Tracer):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.paths = paths
        self.out_dir = out_dir
        self.tracer = tracer

    def setup(self):
        entries = []
        names = []
        for path in self.paths:
            doc = load_document(path)
            entries.append((os.path.basename(path), doc.to_hypergraph()))
            names.append(doc.cell_names)
        return entries, names

    def tasks_per_round(self) -> int:
        per_file = 1 if self.workload == "verify_small" else len(self.spec["seeds"])
        return per_file * len(self.paths)

    def round(self) -> dict:
        start = time.perf_counter()
        entries, names = self.setup()
        setup_s = time.perf_counter() - start
        if self.workload == "verify_small":
            results = self.verify(entries)
        else:
            results = self.experiment(entries)
        wall_s = time.perf_counter() - start
        # converting results for the checks is not part of the timed round
        tasks = []
        for task_s, runs, oracle in results:
            if isinstance(runs, str):
                tasks.append({"error": runs})
                continue
            task = {"task_s": task_s, "rows": [row_record(r) for r in runs]}
            if oracle is not None:
                task["oracle"] = {"file": runs[0].label, "optimum": oracle.optimum_cut, "witness": list(oracle.witness.side)}
            tasks.append(task)
        return {"wall_s": wall_s, "setup_s": setup_s, "names": names, "tasks": tasks}

    def experiment(self, entries) -> list:
        """One `run_experiment` call; each row is a task."""
        seeds = self.spec["seeds"]
        cfg = FmConfig(seed=seeds[0], max_passes=self.spec["max_passes"])
        with self.tracer.span("cli.run_experiment"):
            rows, summary = run_experiment(entries, self.spec["algorithms"], seeds, cfg)
        with self.tracer.span("cli.csv"):
            with open(os.path.join(self.out_dir, "rows.csv"), "w", newline="") as fh:
                write_rows_csv(rows, fh)
            with open(os.path.join(self.out_dir, "summary.csv"), "w", newline="") as fh:
                write_summary_csv(summary, seeds, fh)
        return [(r.elapsed_ms / 1000.0, [r], None) for r in rows]

    def verify(self, entries) -> list:
        """The verdict of `partition verify` for each file, one task each."""
        results = []
        for label, h in entries:
            start = time.perf_counter()
            try:
                with self.tracer.span("oracle.exact"):
                    oracle = exact_min_cut_balanced(h, "off_by_one")
                self.tracer.count["oracle.masks"] += 1 << max(h.cell_count - 1, 0)
                runs = []
                for seed in self.spec["seeds"]:
                    cfg = FmConfig(seed=seed, max_passes=self.spec["max_passes"])
                    runs.append(fm_run(h, cfg, label=label))
                    runs.append(variant_run(h, cfg, label=label))
            except Exception as exc:  # one failing file must not lose the others
                results.append((None, f"{label}: {exc!r}", None))
                continue
            results.append((time.perf_counter() - start, runs, oracle))
        return results


def graph_mb(runner: Runner) -> float:
    """tracemalloc size of the built hypergraphs, parsing excluded."""
    docs = [load_document(p) for p in runner.paths]
    tracemalloc.start()
    try:
        graphs = [d.to_hypergraph() for d in docs]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del graphs
    return size / (1 << 20)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(args.manifest) as fh:
        paths = json.load(fh)
    tracer = Tracer()
    runner = Runner(args.workload, paths, os.path.dirname(args.out), tracer)

    setup_samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        runner.setup()
        setup_samples.append(time.perf_counter() - start)

    layers = []
    with open(args.out, "w") as out:
        deadline = time.perf_counter() + args.seconds
        traced = False
        while True:
            # a traced run alternates untraced and traced rounds, so the
            # tracing overhead is measured on the same process and inputs
            if traced:
                tracer.reset()
                tracer.install()
            try:
                rec = runner.round()
            except Exception as exc:
                rec = {"error": repr(exc), "tasks": [{"error": repr(exc)}] * runner.tasks_per_round()}
            finally:
                tracer.uninstall()
            rec["traced"] = traced
            rec["max_passes"] = runner.spec["max_passes"]
            if traced:
                layers.append(tracer.layer_metrics())
            out.write(json.dumps(rec) + "\n")
            out.flush()
            if time.perf_counter() >= deadline and (not args.trace or traced):
                break
            traced = bool(args.trace) and not traced
        closing = {
            "setup_samples": setup_samples,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if args.trace:
            closing["layers"] = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
            closing["layers"]["hypergraph.graph_mb"] = graph_mb(runner)
        out.write(json.dumps(closing) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
