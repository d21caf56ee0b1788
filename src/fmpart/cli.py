"""Benchmark harness. Subcommands: run, verify, stats.

All randomness flows from the seed list; result rows come out in
(file, algorithm, seed) order regardless of worker scheduling.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass, replace
from decimal import Decimal, ROUND_DOWN
from typing import Optional, Sequence

from .fm import FmConfig, RunResult, fm_run
from .hypergraph import Hypergraph
from .netlist_io import NetlistDocument, NetlistFormatError, parse_hgr, parse_ibm_net
from .oracle import MAX_ORACLE_CELLS, exact_min_cut_balanced
from .pairwise import variant_run

ROW_FIELDS = ("file", "algorithm", "seed", "initial_cut", "optimal_cut", "passes", "elapsed_ms")
SUMMARY_FIELDS = ("file", "fm_best", "variant_best", "gain_mu")
JOBS_ENV_VAR = "PARTITION_JOBS"
DEFAULT_SEED_COUNT = 10


def gain_mu(fm_cut: int, variant_cut: int) -> float:
    """Percentage cut improvement of the pairwise variant over plain moves."""
    if fm_cut <= 0:
        raise ValueError("gain is undefined when the reference cut is 0")
    return (fm_cut - variant_cut) / fm_cut * 100.0


def format_gain_mu(value: float, decimals: int = 2) -> str:
    """Fixed-point display, truncated toward zero (44.0678 -> "44.06")."""
    q = Decimal(1).scaleb(-decimals)
    return str(Decimal(repr(value)).quantize(q, rounding=ROUND_DOWN))


@dataclass(frozen=True)
class ExperimentRow:
    """Per-file summary: best cut per algorithm across seeds, plus the gain.

    gain_mu is None when undefined (reference cut 0) or an algorithm did
    not run; the CSV writer flags such rows instead of computing a value.
    """

    label: str
    fm_best: Optional[int]
    variant_best: Optional[int]
    gain_mu: Optional[float]


@dataclass(frozen=True)
class TaskFailure:
    """One (file, algorithm, seed) task that raised, or whose worker process
    died, instead of giving a row."""

    label: str
    algorithm: str
    seed: int
    error: str


def _execute(task):
    label, algo, h, cfg = task
    runner = fm_run if algo == "fm" else variant_run
    return runner(h, cfg, label=label)


def _failure(task, exc: Exception) -> TaskFailure:
    label, algo, _h, cfg = task
    return TaskFailure(label, algo, cfg.seed, f"{type(exc).__name__}: {exc}")


def _attempt(task):
    """_execute(task), or a TaskFailure naming the task and what it raised.

    The error becomes text where it was raised, so a worker process never
    has to send back an exception object that may not pickle.
    """
    try:
        return _execute(task)
    except Exception as exc:  # one failing task must not lose the others
        return _failure(task, exc)


def run_experiment(
    entries: Sequence[tuple[str, Hypergraph]],
    algorithms: Sequence[str],
    seeds: Sequence[int],
    cfg: FmConfig,
    jobs: int = 1,
    failures: Optional[list[TaskFailure]] = None,
) -> tuple[list[RunResult], list[ExperimentRow]]:
    """Cross product of entries x algorithms x seeds with deterministic row order.

    entries are (label, hypergraph) pairs; algorithms use the row names
    "fm" and "fm_variant". The summary takes the best (minimum) optimal cut
    per algorithm across seeds for each entry. Each task runs cfg with its
    own seed in place of cfg.seed.

    Without a failures list, a task that raises ends the call with its
    exception. With one, each such task is appended to it as a TaskFailure,
    in row order, and the rows and summary hold the tasks that succeeded.
    A worker process that dies breaks the whole pool: with a failures list,
    every task that had not returned by then becomes a TaskFailure and the
    rows of the tasks that had are kept.
    """
    tasks = [
        (label, algo, h, replace(cfg, seed=seed))
        for label, h in entries
        for algo in algorithms
        for seed in seeds
    ]
    execute = _execute if failures is None else _attempt
    if jobs > 1 and len(tasks) > 1:
        # imported here: a serial run never loads the process pool
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        outcomes = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(execute, t) for t in tasks]
            for task, future in zip(tasks, futures):
                try:
                    outcomes.append(future.result())
                except BrokenProcessPool as exc:
                    if failures is None:
                        raise
                    outcomes.append(_failure(task, exc))
    else:
        outcomes = [execute(t) for t in tasks]
    rows = []
    for outcome in outcomes:
        if isinstance(outcome, TaskFailure):
            failures.append(outcome)
        else:
            rows.append(outcome)
    summary = []
    for label, _h in entries:
        best: dict[str, int] = {}
        for r in rows:
            if r.label == label:
                cur = best.get(r.algorithm)
                best[r.algorithm] = r.optimal_cut if cur is None else min(cur, r.optimal_cut)
        fm_best = best.get("fm")
        variant_best = best.get("fm_variant")
        value = None
        if fm_best is not None and variant_best is not None and fm_best > 0:
            value = gain_mu(fm_best, variant_best)
        summary.append(ExperimentRow(label, fm_best, variant_best, value))
    return rows, summary


def write_rows_csv(rows: Sequence[RunResult], fh) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(ROW_FIELDS)
    for r in rows:
        w.writerow(
            [r.label, r.algorithm, r.seed, r.initial_cut, r.optimal_cut, r.passes, f"{r.elapsed_ms:.3f}"]
        )


def write_summary_csv(summary: Sequence[ExperimentRow], seeds: Sequence[int], fh) -> None:
    fh.write(f"# best optimal_cut per algorithm over seeds {','.join(map(str, seeds))}\n")
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(SUMMARY_FIELDS)
    for row in summary:
        w.writerow(
            [
                row.label,
                "" if row.fm_best is None else row.fm_best,
                "" if row.variant_best is None else row.variant_best,
                "undefined" if row.gain_mu is None else format_gain_mu(row.gain_mu),
            ]
        )


def load_document(path: str, fmt: str = "auto") -> NetlistDocument:
    """Read and parse one netlist file; fmt 'auto' keys off the extension."""
    if fmt == "auto":
        suffix = os.path.splitext(path)[1].lower()
        fmt = {".netd": "netd", ".net": "net", ".hgr": "hgr"}.get(suffix, "")
        if not fmt:
            raise NetlistFormatError(f"cannot infer format from {path!r}; pass --format")
    with open(path, "rb") as fh:
        data = fh.read()
    if fmt == "hgr":
        return parse_hgr(data)
    if fmt == "netd":
        return parse_ibm_net(data, dialect="netD")
    if fmt == "net":
        return parse_ibm_net(data, dialect="net")
    raise ValueError(f"unknown format {fmt!r}")


def parse_seed_spec(text: str) -> list[int]:
    """Either "1,5,9" (explicit list) or "10" (meaning seeds 1..10)."""
    if "," in text:
        seeds = [int(t) for t in text.split(",") if t.strip()]
        if not seeds:
            raise ValueError("empty seed list")
        return seeds
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"seed count must be at least 1, got {count}")
    return list(range(1, count + 1))


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _default_jobs() -> int:
    """Worker count from the environment: 1 when unset or empty, else a
    positive integer; anything else raises ValueError."""
    raw = os.environ.get(JOBS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        return positive_int(raw)
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"{JOBS_ENV_VAR} must be an integer of at least 1, got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="partition",
        description="Hypergraph bipartitioning benchmark harness.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run algorithms over netlists and emit CSV results")
    run.add_argument("--input", nargs="+", required=True, help="netlist files")
    run.add_argument("--format", choices=("netd", "net", "hgr", "auto"), default="auto")
    run.add_argument("--algo", choices=("fm", "variant", "fm_variant", "both"), default="both")
    run.add_argument(
        "--seeds", type=parse_seed_spec, default=list(range(1, DEFAULT_SEED_COUNT + 1)),
        help="comma-separated seed list, or a count N meaning seeds 1..N (default 10)",
    )
    run.add_argument("--max-passes", type=positive_int, default=100)
    run.add_argument("--tie", choices=("random", "fifo", "lifo"), default="random")
    run.add_argument(
        "--jobs", type=positive_int, default=None,
        help=f"parallel workers (default ${JOBS_ENV_VAR} or 1)",
    )
    run.add_argument("--csv", default=None, help="per-run rows (default: stdout)")
    run.add_argument("--summary", default=None, help="per-file best-of-seeds summary")

    ver = sub.add_parser("verify", help="cross-check both algorithms against the exact oracle")
    ver.add_argument("--input", nargs="+", required=True)
    ver.add_argument("--format", choices=("netd", "net", "hgr", "auto"), default="auto")
    ver.add_argument("--seeds", type=parse_seed_spec, default=list(range(1, DEFAULT_SEED_COUNT + 1)))
    ver.add_argument("--max-passes", type=positive_int, default=100)
    ver.add_argument("--tie", choices=("random", "fifo", "lifo"), default="random")

    st = sub.add_parser("stats", help="print cells, nets, pins and max degree")
    st.add_argument("--input", required=True)
    st.add_argument("--format", choices=("netd", "net", "hgr", "auto"), default="auto")
    return ap


def _load_entries(paths, fmt):
    entries = []
    failed = False
    for path in paths:
        try:
            doc = load_document(path, fmt)
            entries.append((path, doc.to_hypergraph()))
        except (OSError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            failed = True
    return entries, failed


def _report_failures(failures: Sequence[TaskFailure]) -> None:
    for f in failures:
        print(f"error: {f.label} {f.algorithm} seed {f.seed}: {f.error}", file=sys.stderr)


def _cmd_run(args, jobs: int) -> int:
    entries, failed = _load_entries(args.input, args.format)
    algorithms = {
        "fm": ["fm"], "variant": ["fm_variant"], "fm_variant": ["fm_variant"], "both": ["fm", "fm_variant"],
    }[args.algo]
    cfg = FmConfig(seed=1, tie_policy=args.tie, max_passes=args.max_passes)
    failures: list[TaskFailure] = []
    rows, summary = run_experiment(entries, algorithms, args.seeds, cfg, jobs=jobs, failures=failures)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            write_rows_csv(rows, fh)
    else:
        write_rows_csv(rows, sys.stdout)
    if args.summary:
        with open(args.summary, "w", newline="") as fh:
            write_summary_csv(summary, args.seeds, fh)
    _report_failures(failures)
    if not entries:
        print("error: nothing to do, no readable inputs", file=sys.stderr)
        return 1
    return 1 if failed or failures else 0


def _cmd_verify(args) -> int:
    entries, failed = _load_entries(args.input, args.format)
    if not entries:
        print("error: nothing to do, no readable inputs", file=sys.stderr)
        return 1
    cfg = FmConfig(tie_policy=args.tie, max_passes=args.max_passes)
    for label, h in entries:
        if h.cell_count > MAX_ORACLE_CELLS:
            print(f"error: {label}: too large for the oracle ({h.cell_count} cells)", file=sys.stderr)
            failed = True
            continue
        optimum = exact_min_cut_balanced(h, "off_by_one").optimum_cut
        failures: list[TaskFailure] = []
        _rows, (best,) = run_experiment([(label, h)], ("fm", "fm_variant"), args.seeds, cfg, failures=failures)
        if failures:
            _report_failures(failures)
            failed = True
            continue
        match = "yes" if best.fm_best == optimum and best.variant_best == optimum else "no"
        print(f"{label}: fm={best.fm_best} variant={best.variant_best} oracle={optimum} match={match}")
    return 1 if failed else 0


def _cmd_stats(args) -> int:
    try:
        doc = load_document(args.input, args.format)
        h = doc.to_hypergraph()
    except (OSError, ValueError) as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 1
    print(
        f"{args.input}: cells={h.cell_count} nets={h.net_count} "
        f"pins={h.pin_count} max_degree={h.max_cell_degree}"
    )
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "run":
        jobs = args.jobs
        if jobs is None:
            try:
                jobs = _default_jobs()
            except ValueError as exc:
                ap.error(str(exc))
        return _cmd_run(args, jobs)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_stats(args)


if __name__ == "__main__":
    raise SystemExit(main())
