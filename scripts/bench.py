#!/usr/bin/env python3
"""Run the benchmark on every workload and write the results to one JSON file.

    python3 scripts/bench.py --out BENCH_8.json --seed 1 --seconds 8 --runs 10 \\
        --parent ../fmpart-parent

Each run is one `perfbench/run.py --workload W --seed S --seconds T --trace X`
call, and the file keeps the JSON object that ends its output. With
--parent, a second checkout (for example a `git clone` of the parent commit)
is run too, alternating with this one and swapping which goes first in each
pair, and the file adds the median, the quartiles and the pairs won of each
end-to-end metric. Each checkout runs its own `perfbench/` on its own
`src/`, so both sides use the benchmark code they were committed with.

The file records the git SHA of each checkout (and whether it had
uncommitted changes), the Python version, the seed, the run length, the
--trace setting and the regression bounds of this checkout's BENCHMARK.json.
Exit code 0 when every run was correct, 1 when a check failed or a run
returned no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git_state(checkout: str) -> dict:
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", checkout, *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def run_once(checkout: str, workload: str, args) -> dict | None:
    """The final JSON object of one benchmark run, or None when it printed none."""
    cmd = [
        sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"error: {checkout} {workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, and the pairs
    in which the change read better (ties count for neither side)."""
    out = {}
    for m in metrics:
        name = m["name"]
        before = [r["metrics"][name]["value"] for r in parent]
        after = [r["metrics"][name]["value"] for r in change]
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(1 for b, a in zip(before, after) if sign * (b - a) > 0)
        out[name] = {"parent": quartiles(before), "change": quartiles(after), "change_wins": wins, "pairs": len(after)}
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_8.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1, help="runs (pairs, with --parent) per workload")
    ap.add_argument("--parent", default=None, help="checkout to compare against, run alternately with this one")
    args = ap.parse_args(argv)
    if args.runs < 1 or args.seconds <= 0:
        ap.error("--runs and --seconds must be positive")

    sides = {"change": ROOT} if args.parent is None else {"parent": args.parent, "change": ROOT}
    states = {side: git_state(path) for side, path in sides.items()}  # before the output file exists
    workloads = [w["name"] for w in bench["workloads"]]
    runs: dict[str, dict[str, list]] = {side: {w: [] for w in workloads} for side in sides}
    ok = True
    for workload in workloads:
        for i in range(args.runs):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                result = run_once(sides[side], workload, args)
                ok = ok and result is not None and result["correct"]
                runs[side][workload].append(result)
                print(f"{workload} run {i + 1}/{args.runs} {side}: {json.dumps(result)}", flush=True)

    doc = {
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
        "sides": {side: {**states[side], "runs": runs[side]} for side in sides},
    }
    if args.parent is not None and ok and not args.trace:
        doc["comparison"] = {
            w: compare(runs["parent"][w], runs["change"][w], bench["end_to_end"]) for w in workloads
        }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
