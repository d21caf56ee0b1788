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
from typing import Callable, NamedTuple, Optional

from .gains import TIE_POLICIES, Buckets, init, move_and_update, select_max
from .hypergraph import B1, B2, Hypergraph, Partition, apply_move
from .synth import random_balanced_sides

StepHook = Callable[[Buckets, Partition, list], None]


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


class PassStep(NamedTuple):
    cells: tuple[int, ...]
    gain: int
    cut_after: int
    size_diff: int


@dataclass
class PassTrace:
    """Ordered move log of one pass plus the prefix the pass settled on."""

    initial_cut: int
    initial_size_diff: int
    steps: list[PassStep]
    best_prefix: int
    pair_gain_evals: int = 0

    def prefix_cut(self, t: int) -> int:
        return self.initial_cut if t == 0 else self.steps[t - 1].cut_after

    @property
    def best_cut(self) -> int:
        return self.prefix_cut(self.best_prefix)

    @property
    def best_gain(self) -> int:
        return self.initial_cut - self.best_cut


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
    return Partition.from_sides(h, random_balanced_sides(rng, h.cell_count))


def _source_block(buckets: Buckets, p: Partition) -> Optional[int]:
    """Pick the block to move from: B1 when its max gain and size both
    dominate, else B2 when it is at least as large, else B1.

    Both buckets share one gain span, so their max slots compare as their
    max gains do; an empty bucket's max slot is -1."""
    b1, b2 = buckets
    m1 = b1.max_slot
    m2 = b2.max_slot
    if m1 < 0:
        return None if m2 < 0 else B2
    if m2 < 0:
        return B1
    s1, s2 = p.block_size
    if m1 >= m2 and s1 >= s2:
        return B1
    if s2 >= s1:
        return B2
    return B1


def best_prefix_index(initial_cut: int, initial_diff: int, steps: list[PassStep]) -> int:
    """Earliest prefix minimizing cut among prefixes with |S(B1)-S(B2)| <= 1.

    Falls back to prefix 0 (no moves) when no prefix is balanced, which can
    only happen for an unbalanced starting partition.
    """
    best_t = None
    best_cut = None
    if abs(initial_diff) <= 1:
        best_t, best_cut = 0, initial_cut
    for t, st in enumerate(steps, start=1):
        if abs(st.size_diff) <= 1 and (best_cut is None or st.cut_after < best_cut):
            best_t, best_cut = t, st.cut_after
    return 0 if best_t is None else best_t


def rollback_to_prefix(h: Hypergraph, p: Partition, steps: list[PassStep], keep: int) -> None:
    """Return p, which the steps moved from the pass's start, to its state
    after the first keep steps.

    When the steps moved every cell of h exactly once, p is the complement
    of the pass's start. If the kept prefix is then shorter than the undone
    tail, p flips back to the start in O(cells + nets) and replays the
    prefix; a partition and its complement cut the same nets, so the cut
    count needs no change. Otherwise the tail is undone step by step.
    """
    tail = steps[keep:]
    if len(tail) > keep:
        moved = [c for st in steps for c in st.cells]
        if len(moved) == h.cell_count == len(set(moved)):
            p.side[:] = [1 - s for s in p.side]
            p.block_size.reverse()
            for occ in p.net_occupancy:
                occ.reverse()
            for st in steps[:keep]:
                for c in st.cells:
                    apply_move(p, h, c)
            return
    for st in reversed(tail):
        for c in st.cells:
            apply_move(p, h, c)


def close_pass(
    h: Hypergraph,
    p: Partition,
    initial_cut: int,
    initial_diff: int,
    steps: list[PassStep],
    pair_gain_evals: int = 0,
) -> PassTrace:
    """Roll p back to the best balanced prefix of steps and record the pass."""
    best = best_prefix_index(initial_cut, initial_diff, steps)
    rollback_to_prefix(h, p, steps, best)
    return PassTrace(initial_cut, initial_diff, steps, best, pair_gain_evals)


def repeat_passes(p: Partition, max_passes: Optional[int], one_pass: Callable[[], object]) -> int:
    """Call one_pass while it lowers p's cut, at most max_passes times
    (None: no cap); return the number of passes made."""
    passes = 0
    while max_passes is None or passes < max_passes:
        before = p.cut_count
        one_pass()
        passes += 1
        if p.cut_count >= before:
            break
    return passes


def fm_pass(
    h: Hypergraph,
    p: Partition,
    cfg: FmConfig,
    rng: random.Random,
    on_step: Optional[StepHook] = None,
) -> PassTrace:
    """Move every cell once under locking, then roll back to the best prefix.

    On return p sits at the minimum-cut balanced configuration seen during
    the pass (or where it started, when nothing better appeared).
    """
    buckets = init(h, p, cfg.tie_policy)
    sizes = p.block_size
    initial_cut = p.cut_count
    initial_diff = sizes[B1] - sizes[B2]
    steps: list[PassStep] = []
    while True:
        blk = _source_block(buckets, p)
        if blk is None:
            break
        c = select_max(buckets, blk, rng)
        g = move_and_update(buckets, h, p, c)
        steps.append(PassStep((c,), g, p.cut_count, sizes[B1] - sizes[B2]))
        if on_step is not None:
            on_step(buckets, p, steps)
    return close_pass(h, p, initial_cut, initial_diff, steps)


def fm_run(
    h: Hypergraph,
    cfg: FmConfig,
    label: str = "",
    on_step: Optional[StepHook] = None,
) -> RunResult:
    """Random balanced start, then passes while they improve the cut."""
    rng = random.Random(cfg.seed)
    started = time.perf_counter()
    p = random_initial_partition(h, rng)
    initial_cut = p.cut_count
    passes = repeat_passes(p, cfg.max_passes, lambda: fm_pass(h, p, cfg, rng, on_step=on_step))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return RunResult(label, "fm", cfg.seed, initial_cut, p.cut_count, passes, elapsed_ms, tuple(p.side))
