"""Pairwise-swap refinement: one cell from each block trades places per step,
so the blocks keep exactly equal sizes throughout a pass.

Swap gains are exact: the sum of the two single-cell gains minus a
correction for shared cut nets that both member gains claim but the joint
swap cannot uncut.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, replace
from itertools import islice
from typing import Optional, Sequence

from .fm import FmConfig, PassTrace, RunResult, StepHook, close_pass, run_passes
from .gains import GainBucket, init, pass_steps

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


def correct_term(h: Hypergraph, p: Partition, u: int, v: int) -> int:
    """Overcount carried by shared cut nets that stay cut after swapping u and v.

    A net containing both endpoints keeps its block occupancy under the
    swap, so it remains cut. It was credited by each endpoint whose side
    holds it as the lone pin: twice for a two-pin net, once otherwise.
    """
    su = p.side[u]
    sv = p.side[v]
    if su == sv:
        raise ValueError("pair endpoints must lie in opposite blocks")
    nets_small = h.cell_nets[u]
    nets_other = h.cell_nets[v]
    if len(nets_small) > len(nets_other):
        nets_small, nets_other = nets_other, nets_small
    count_u = p.counts[su]
    count_v = p.counts[sv]
    pins_of = h.nets
    total = 0
    for n in nets_small:
        if n in nets_other:
            if count_u[n] == 1 or count_v[n] == 1:
                total += 2 if len(pins_of[n]) == 2 else 1
    return total


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
    `heap_scan` from the two top cells, drawn by `GainBucket.select` from
    B1, then B2. `gains.pass_steps` makes the same search, with the scan's
    direct return written inline."""
    buckets = state.buckets
    if buckets.top[B1] < 0 or buckets.top[B2] < 0:
        raise ValueError("a block has no unlocked cells")
    u, v, gain, evals = heap_scan(buckets, h, p, rng, buckets.select(B1, rng), buckets.select(B2, rng))
    state.pair_gain_evals += evals
    return u, v, gain


def heap_scan(
    buckets: GainBucket,
    h: Hypergraph,
    p: Partition,
    rng: random.Random,
    u: int,
    v: int,
) -> tuple[int, int, int, int]:
    """The best pair search from B1's and B2's top cells u and v, as drawn
    by `GainBucket.select`; returns (u, v, gain, pair gains evaluated).

    The search is Kernighan & Lin's sorted-list scan over each block's cells
    in nonincreasing gain order, ties in the order of the bucket's tie
    policy (`GainBucket.iter_descending`). Pairs come off a max-heap keyed
    by the bound gains[u] + gains[v], which the exact gain (`pair_gain`)
    never exceeds. Each pair (i, j) of the two orders enters the heap once,
    from (i, j - 1), or from (i - 1, 0) when j is 0, so bounds come off in
    nonincreasing order. The scan stops once the next bound is no higher
    than the best exact gain seen, and returns the first exact maximizer.
    The first pair is always the two top cells, so each order resumes past
    its top cell, and a zero correction term for it ends the scan at once.

    Only the random policy draws from rng: one draw on entering each slot
    of each order below the top one, in the order the scan enters them.
    The first are the look-aheads into B2's second cell and into B1's, each
    of which enters a lower slot when its top bag holds one cell.
    """
    span = buckets.span
    gu = buckets.slot[u] - span
    gv = buckets.slot[v] - span
    best = (u, v, gu + gv - correct_term(h, p, u, v))
    evals = 1
    order_u = buckets.iter_descending(B1, rng, u)
    order_v = buckets.iter_descending(B2, rng, v)
    us = [(u, gu)]
    vs = [(v, gv)]
    heap: list[tuple[int, int, int]] = []
    i = j = 0
    while True:
        # (i, j) is the pair just evaluated; its successors enter the heap
        if j + 1 == len(vs):
            vs.extend(islice(order_v, 1))
        if j + 1 < len(vs):
            heapq.heappush(heap, (-(gu + vs[j + 1][1]), i, j + 1))
        if j == 0:
            if i + 1 == len(us):
                us.extend(islice(order_u, 1))
            if i + 1 < len(us):
                heapq.heappush(heap, (-(us[i + 1][1] + gv), i + 1, 0))
        if not heap or -heap[0][0] <= best[2]:
            return (*best, evals)
        negb, i, j = heapq.heappop(heap)
        u, gu = us[i]
        v, gv = vs[j]
        g = -negb - correct_term(h, p, u, v)
        evals += 1
        if g > best[2]:
            best = (u, v, g)


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
    steps are `gains.pass_steps`: each draws the top pair and moves it,
    calling `heap_scan` only when the pair's correction term is nonzero.
    """
    if 2 * p.side.count(B1) != h.cell_count:
        raise ValueError("pairwise pass needs equal block sizes")
    return close_pass(h, p, pass_steps(init(h, p, cfg.tie_policy), h, p, rng, on_step, heap_scan))


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
