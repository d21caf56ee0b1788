"""fmpart benchmark: one seeded workload per call, checked, with its metrics.

    python3 perfbench/run.py --workload fm_large --seed 1 --seconds 20 --trace 0

Generates the workload's netlist files from --seed under .perfbench_runs/ in
the repository root, runs them through fmpart in a child process for about
--seconds seconds of whole rounds (worker.py), checks every result against
the generator's own net lists (checks.py), prints one line per metric, and
ends with one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones (tracing.py), from traced rounds alternated with
untraced ones. A task that raises or fails a check counts as failed;
`correct` is false when any check failed. Exit code 0 when every check
passed, 1 when a check failed, 2 when the program cannot be run at all or
returned nothing (then no JSON is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402

# a run is --seconds of rounds plus one round past the deadline; the longest
# round (pair_swap) takes under 10 s on a 2-core VM
CHILD_GRACE_S = 120


def check_round(truths: list[checks.Truth], rec: dict) -> tuple[int, int, list[str], list[str]]:
    """Tasks attempted and failed in one round, the errors of the tasks that
    raised, and the problems the checks found in the tasks that returned."""
    if "names" not in rec:
        n = len(rec["tasks"])
        return n, n, [rec["error"]], []
    by_label = {os.path.basename(t.inst.path): (t, names) for t, names in zip(truths, rec["names"])}
    failed = 0
    raised: list[str] = []
    wrong: list[str] = []
    for task in rec["tasks"]:
        if "error" in task:
            failed += 1
            raised.append(task["error"])
            continue
        found = []
        for row in task["rows"]:
            truth, names = by_label[row["file"]]
            found += checks.check_row(truth, names, row, rec["max_passes"])
        if "oracle" in task:
            truth, names = by_label[task["oracle"]["file"]]
            found += checks.check_oracle(truth, names, dict(task["oracle"], runs=task["rows"]))
        if found:
            failed += 1
            wrong += found
    return len(rec["tasks"]), failed, raised, wrong


def end_to_end(rounds: list[dict], closing: dict, sizes: dict[str, int]) -> dict[str, float]:
    """The six user-facing figures, from the untraced rounds that ran."""
    rows = [row for rec in rounds for task in rec["tasks"] for row in task.get("rows", ())]
    made = 0
    for row in rows:
        n = sizes[row["file"]]
        if row["algorithm"] == "fm_variant":
            n += n % 2  # a swap pass moves every cell of the padded graph
        made += row["passes"] * n
    run_s = sum(row["elapsed_ms"] for row in rows) / 1000.0
    return {
        "setup_s": statistics.median(closing["setup_samples"] + [r["setup_s"] for r in rounds]),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "task_s_p50": statistics.median(t["task_s"] for r in rounds for t in r["tasks"] if "task_s" in t),
        "moves_per_s": made / run_s,
        "cut_mean": statistics.fmean(row["optimal_cut"] for row in rows),
        "peak_rss_mb": closing["peak_rss_mb"],
    }


def run_worker(args, instances, run_dir: str) -> list[dict] | None:
    manifest = os.path.join(run_dir, "manifest.json")
    with open(manifest, "w") as fh:
        json.dump([inst.path for inst in instances], fh)
    out = os.path.join(run_dir, "rounds.jsonl")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--manifest", manifest,
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out,
    ]
    # fixed string hashing, so the parser's name table behaves alike in every run
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, env=env, timeout=args.seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        print("error: worker did not finish in time", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    with open(out) as fh:
        return [json.loads(line) for line in fh]


def main(argv=None) -> int:
    # workload names and metric units come from the benchmark's declaration
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "fmpart", "__init__.py")):
        print(f"error: no fmpart sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    run_dir = os.path.join(ROOT, ".perfbench_runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        instances = gen.write_workload(args.workload, args.seed, os.path.join(run_dir, "inputs"))
        records = run_worker(args, instances, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass  # another run still uses it
    if records is None:
        return 2

    closing = records.pop()
    truths = [checks.Truth(inst) for inst in instances]
    attempted = failed = 0
    raised: list[str] = []
    wrong: list[str] = []
    for rec in records:
        a, f, r, w = check_round(truths, rec)
        attempted += a
        failed += f
        raised += r
        wrong += w
    good = [r for r in records if "names" in r]
    if not good or not any("task_s" in t for r in good for t in r["tasks"]):
        print("error: no round returned a result", *raised[:5], sep="\n", file=sys.stderr)
        return 2

    if args.trace:
        metrics = dict(closing["layers"])
        traced = [r["wall_s"] for r in good if r["traced"]]
        plain = [r["wall_s"] for r in good if not r["traced"]]
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    else:
        sizes = {os.path.basename(inst.path): inst.cell_count for inst in instances}
        metrics = end_to_end(good, closing, sizes)
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    for msg in raised[:10]:
        print(f"raised: {msg}")
    for msg in wrong[:20]:
        print(f"check failed: {msg}")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} rounds={len(records)} attempted={attempted} failed={failed}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    raise SystemExit(main())
