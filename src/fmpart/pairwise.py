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
from .gains import Buckets, bag_steps, init, move_and_update
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
    """One step's pair search over the live gain buckets, and the exact pair
    gains `best_pair` has evaluated for it."""

    buckets: Buckets
    pair_gain_evals: int = 0


def selection_state(buckets: Buckets) -> PairSelectionState:
    """Set up a pair search over the current buckets; constant time."""
    return PairSelectionState(buckets)


def best_pair(
    state: PairSelectionState,
    h: Hypergraph,
    p: Partition,
    rng: random.Random,
) -> tuple[int, int, int]:
    """Cross-block pair with the highest exact swap gain, as (u, v, gain).

    The search is Kernighan & Lin's sorted-list scan over each block's cells
    in nonincreasing gain order, ties in the order of the buckets' tie
    policy (`GainBucket.iter_descending`). Pairs come off a max-heap keyed
    by the bound gains[u] + gains[v], which the exact gain (`pair_gain`)
    never exceeds. Each pair (i, j) of the two orders enters the heap once,
    from (i, j - 1), or from (i - 1, 0) when j is 0, so bounds come off in
    nonincreasing order. The scan stops once the next bound is no higher
    than the best exact gain seen, and returns the first exact maximizer.

    The first pair is always the two top cells. So a step draws them with
    `GainBucket.select`, takes their exact gain and returns at once when
    their correction term is zero, as no other bound is higher. Only
    otherwise does it fall back to the heap, resuming each order past its
    top cell.

    Only the random policy draws from rng: one draw on entering each slot
    of each order, in the order the scan enters them. That is B1's top
    slot, B2's, then the look-ahead into B2's second cell and into B1's,
    each of which enters a lower slot when its top bag holds one cell; the
    direct return makes these two draws too.
    """
    b1, b2 = state.buckets
    top_u = b1.max_slot
    top_v = b2.max_slot
    if top_u < 0 or top_v < 0:
        raise ValueError("a block has no unlocked cells")
    u = b1.select(rng)
    v = b2.select(rng)
    correction = correct_term(h, p, u, v)
    span = b1.span
    gu = top_u - span
    gv = top_v - span
    best = (u, v, gu + gv - correction)
    state.pair_gain_evals += 1
    if not correction:
        # the pair is final, but the rng must advance as the heap scan's
        # look-aheads would advance it: B2's, then B1's
        if b1.order is None:
            if len(b2.members[top_v]) == 1:
                top_v = b2._top_from(top_v - 1)
                if top_v >= 0:
                    rng.randrange(len(b2.members[top_v]))
            if len(b1.members[top_u]) == 1:
                top_u = b1._top_from(top_u - 1)
                if top_u >= 0:
                    rng.randrange(len(b1.members[top_u]))
        return best
    order_u = b1.iter_descending(rng, u)
    order_v = b2.iter_descending(rng, v)
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
            return best
        negb, i, j = heapq.heappop(heap)
        u, gu = us[i]
        v, gv = vs[j]
        g = -negb - correct_term(h, p, u, v)
        state.pair_gain_evals += 1
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
    cell count (see pad_dummy) and p two blocks of half of it each. A step
    is `best_pair`, then moving u and v (in `bag_steps` over bags).
    """
    m = h.cell_count // 2
    if p.block_size[B1] != m or p.block_size[B2] != m:
        raise ValueError("pairwise pass needs equal block sizes")
    buckets = init(h, p, cfg.tie_policy)
    initial_cut = p.cut_count
    evals = 0

    def pick_pair() -> tuple[int, int]:
        nonlocal evals
        sel = selection_state(buckets)
        u, v, _ = best_pair(sel, h, p, rng)
        evals += sel.pair_gain_evals
        return u, v

    if buckets[B1].order is None:
        moved, best_t, best_cut = bag_steps(buckets, h, p, rng, initial_cut, on_step, pick_pair)
        return close_pass(h, p, initial_cut, moved, best_t, best_cut, evals)
    best_t, best_cut = 0, initial_cut
    moved: list[int] = []
    for _ in range(m):
        u, v = pick_pair()
        move_and_update(buckets, h, p, u)
        move_and_update(buckets, h, p, v)
        moved += (u, v)
        if p.cut_count < best_cut:
            best_t, best_cut = len(moved), p.cut_count
        if on_step is not None:
            on_step(buckets, p, moved)
    return close_pass(h, p, initial_cut, moved, best_t, best_cut, evals)


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
