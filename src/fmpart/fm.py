"""Move-based bipartitioning pass and the multi-pass driver.

A pass moves every cell exactly once, highest stored gain first, with the
source block gated by a gain/size dominance rule, then rolls the partition
back to the best balanced prefix of the move sequence. The driver repeats
passes while they keep improving the cut. The pass close-out and the driver
are shared with the pairwise-swap pass, which differs only in its move unit.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .gains import TIE_POLICIES, StepHook, init, pass_steps

# unused here, but perfbench/tracing.py wraps these names in this module
from .gains import move_and_update, select_max  # noqa: F401
from .hypergraph import B1, B2, Hypergraph, Partition, apply_move


@dataclass(frozen=True)
class FmConfig:
    """Knobs shared by both pass flavors. max_passes=None means unbounded."""

    seed: int = 1
    tie_policy: str = "random"
    max_passes: Optional[int] = 100

    def __post_init__(self):
        if self.tie_policy not in TIE_POLICIES:
            raise ValueError(f"tie_policy must be one of {TIE_POLICIES}")
        if self.max_passes is not None and self.max_passes < 1:
            raise ValueError("max_passes must be positive when bounded")


@dataclass
class PassTrace:
    """One pass: the cut it started from and the one it settled on, the cells
    it moved in order (a swap step logs u, then v), and how many of them it
    kept."""

    initial_cut: int
    best_cut: int
    steps: list[int]
    best_prefix: int
    pair_gain_evals: int = 0


@dataclass
class RunResult:
    """One experiment row: a single (instance, algorithm, seed) execution."""

    label: str
    algorithm: str
    seed: int
    initial_cut: int
    optimal_cut: int
    passes: int
    elapsed_ms: float
    final_side: tuple[int, ...] = ()


def random_initial_partition(h: Hypergraph, rng: random.Random) -> Partition:
    """Uniformly random assignment with block sizes differing by at most one."""
    n = h.cell_count
    ids = list(range(n))
    rng.shuffle(ids)
    b1 = n // 2
    if n % 2:
        b1 += rng.randrange(2)
    side = [B2] * n
    for c in ids[:b1]:
        side[c] = B1
    return Partition.from_sides(h, side)


def rollback_to_prefix(h: Hypergraph, p: Partition, moved: list[int], keep: int) -> None:
    """Return p, which the pass moved cell by cell from its start in the
    order of moved, to its state after the first keep moves.

    moved lists each cell at most once, as locking guarantees within a
    pass, so when it is as long as h has cells, p is the complement of the
    pass's start. If the kept prefix is then shorter than the undone tail,
    p flips back to the start in O(cells), swapping its two per-block count
    lists, and replays the prefix; a partition and its complement cut the
    same nets, so the cut count needs no change. Otherwise the tail is
    undone move by move.
    """
    if len(moved) - keep > keep and len(moved) == h.cell_count:
        p.side[:] = [1 - s for s in p.side]
        p.block_size.reverse()
        p.counts.reverse()
        for c in moved[:keep]:
            apply_move(p, h, c)
        return
    for c in reversed(moved[keep:]):
        apply_move(p, h, c)


def close_pass(
    h: Hypergraph,
    p: Partition,
    initial_cut: int,
    moved: list[int],
    best_t: int,
    best_cut: int,
    pair_gain_evals: int = 0,
) -> PassTrace:
    """Roll p back to the first best_t moves of the pass, where its cut was
    best_cut, and record the pass."""
    rollback_to_prefix(h, p, moved, best_t)
    return PassTrace(initial_cut, best_cut, moved, best_t, pair_gain_evals)


def run_passes(
    h: Hypergraph,
    cfg: FmConfig,
    algorithm: str,
    one_pass: Callable[..., PassTrace],
    label: str,
    on_step: Optional[StepHook],
) -> RunResult:
    """One run: a random balanced start on h, then one_pass while it lowers
    the cut, at most cfg.max_passes times (None: no cap); the row names the
    algorithm."""
    rng = random.Random(cfg.seed)
    started = time.perf_counter()
    p = random_initial_partition(h, rng)
    initial_cut = p.cut_count
    passes = 0
    while cfg.max_passes is None or passes < cfg.max_passes:
        before = p.cut_count
        one_pass(h, p, cfg, rng, on_step)
        passes += 1
        if p.cut_count >= before:
            break
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return RunResult(label, algorithm, cfg.seed, initial_cut, p.cut_count, passes, elapsed_ms, tuple(p.side))


def fm_pass(
    h: Hypergraph,
    p: Partition,
    cfg: FmConfig,
    rng: random.Random,
    on_step: Optional[StepHook] = None,
) -> PassTrace:
    """Move every cell once under locking, then roll back to the best prefix.

    The best prefix is the earliest one of minimum cut among those with
    |S(B1) - S(B2)| <= 1; from an unbalanced start the first balanced prefix
    beats the start whatever its cut, and with none the pass keeps nothing.
    On return p sits at that prefix's configuration. The steps are
    `gains.pass_steps`.
    """
    buckets = init(h, p, cfg.tie_policy)
    sizes = p.block_size
    initial_cut = p.cut_count
    balanced_start = -1 <= sizes[B1] - sizes[B2] <= 1
    # an unbalanced start scores above every reachable cut, so the first
    # balanced prefix beats it
    best_t, best_cut = 0, (initial_cut if balanced_start else h.net_count + 1)
    moved, best_t, best_cut = pass_steps(buckets, h, p, rng, best_cut, on_step)
    return close_pass(h, p, initial_cut, moved, best_t, best_cut if best_t else initial_cut)


def fm_run(
    h: Hypergraph,
    cfg: FmConfig,
    label: str = "",
    on_step: Optional[StepHook] = None,
) -> RunResult:
    """Random balanced start, then passes while they improve the cut."""
    return run_passes(h, cfg, "fm", fm_pass, label, on_step)
