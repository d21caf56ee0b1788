"""Pairwise-swap refinement: one cell from each block trades places per step,
so the blocks keep exactly equal sizes throughout a pass.

Swap gains are exact: the sum of the two single-cell gains minus a
correction for shared cut nets that both member gains claim but the joint
swap cannot uncut.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .fm import FmConfig, PassTrace, RunResult, StepHook, close_pass, run_passes
from .gains import GainBucket, correct_term, heap_scan, init, pass_steps

# unused here, but perfbench/tracing.py wraps this name in this module
from .gains import move_and_update  # noqa: F401
from .hypergraph import B1, B2, Hypergraph, Partition


def pad_dummy(h: Hypergraph) -> Hypergraph:
    """h with a degree-zero cell appended when its cell count is odd, else h.

    The filler lies on no net, so any assignment scores the same cut on the
    padded graph as on the original cells; it is stripped from reported
    partitions.
    """
    if h.cell_count % 2 == 0:
        return h
    return replace(h, cell_nets=h.cell_nets + ((),))


def pair_gain(h: Hypergraph, p: Partition, gains: Sequence[int], u: int, v: int) -> int:
    """Exact cut reduction of swapping u and v simultaneously."""
    return gains[u] + gains[v] - correct_term(h, p, u, v)


@dataclass(slots=True)
class PairSelectionState:
    """One step's pair search over the live gain bucket, and the exact pair
    gains `best_pair` has evaluated for it."""

    buckets: GainBucket
    pair_gain_evals: int = 0


def selection_state(buckets: GainBucket) -> PairSelectionState:
    """Set up a pair search over the current bucket; constant time."""
    return PairSelectionState(buckets)


def best_pair(
    state: PairSelectionState,
    h: Hypergraph,
    p: Partition,
    rng: random.Random,
) -> tuple[int, int, int]:
    """Cross-block pair with the highest exact swap gain, as (u, v, gain):
    `heap_scan` from the two top cells that `GainBucket.select` draws."""
    buckets = state.buckets
    if buckets.top[B1] < 0 or buckets.top[B2] < 0:
        raise ValueError("a block has no unlocked cells")
    u, v, gain, evals = heap_scan(buckets, h, p, rng, buckets.select(B1, rng), buckets.select(B2, rng))
    state.pair_gain_evals += evals
    return u, v, gain


def variant_pass(
    h: Hypergraph,
    p: Partition,
    cfg: FmConfig,
    rng: random.Random,
    on_step: Optional[StepHook] = None,
) -> PassTrace:
    """Swap-and-lock one best pair per step until every cell is locked,
    then roll back to the earliest minimum-cut prefix.

    Every step moves one cell each way, so all prefixes are balanced and
    eligible for rollback. cfg.tie_policy orders equal-gain cells in the
    pair search, and so decides between equally good pairs. h needs an even
    cell count (see pad_dummy) and p two blocks of half of it each. The
    steps are `gains.pass_steps` with swap set.
    """
    if 2 * p.side.count(B1) != h.cell_count:
        raise ValueError("pairwise pass needs equal block sizes")
    return close_pass(h, p, pass_steps(init(h, p, cfg.tie_policy), h, p, rng, on_step, swap=True))


def variant_run(
    h: Hypergraph,
    cfg: FmConfig,
    label: str = "",
    on_step: Optional[StepHook] = None,
) -> RunResult:
    """Pad to an even cell count, start from a random equal split, and run
    swap passes while they improve the cut. The row reports the sides of
    the original cells only; the filler never touches a net, so the cuts
    agree."""
    row = run_passes(pad_dummy(h), cfg, "fm_variant", variant_pass, label, on_step)
    return replace(row, final_side=row.final_side[: h.cell_count])
