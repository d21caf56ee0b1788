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
from typing import Iterator, Optional, Sequence

from .fm import FmConfig, PassTrace, RunResult, StepHook, close_pass, run_passes
from .gains import Buckets, init, move_and_update
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


@dataclass
class PairSelectionState:
    """One step's pair search over the live gain buckets.

    `best_pair` walks each block lazily in nonincreasing gain order, within
    a slot in the order of the buckets' tie policy, and draws cells only as
    its heap asks.
    """

    buckets: Buckets
    pair_gain_evals: int = 0


def selection_state(buckets: Buckets) -> PairSelectionState:
    """Set up a pair search over the current buckets; constant time."""
    return PairSelectionState(buckets)


def _reach(cells: list[tuple[int, int]], order: Iterator[tuple[int, int]], k: int) -> bool:
    """Whether cells[k] exists, drawing one more (cell, gain) from order when k is next."""
    if k < len(cells):
        return True
    entry = next(order, None)
    if entry is None:
        return False
    cells.append(entry)
    return True


def best_pair(
    state: PairSelectionState,
    h: Hypergraph,
    p: Partition,
    rng: random.Random,
) -> tuple[int, int, int]:
    """Cross-block pair with the highest exact swap gain, as (u, v, gain).

    Candidates come off a max-heap keyed by the bound gains[u] + gains[v],
    with both gains read from the buckets. The bound dominates the exact
    pair gain, which is the bound less the nonnegative correction term, as
    `pair_gain` computes it. Each pair (i, j) of the two gain orders enters
    the heap once, from (i, j - 1), or from (i - 1, 0) when j is 0, so
    bounds come off in nonincreasing order. The search stops once the next
    bound is no higher than the best exact gain seen (Kernighan & Lin's
    sorted-list scan) and returns the first exact maximizer met: ties break
    by bucket order under the tie policy, with rng drawn only by the random
    policy.
    """
    b1, b2 = state.buckets
    if b1.max_slot < 0 or b2.max_slot < 0:
        raise ValueError("a block has no unlocked cells")
    order_u = b1.iter_descending(rng)
    order_v = b2.iter_descending(rng)
    us = [next(order_u)]
    vs = [next(order_v)]
    best: Optional[tuple[int, int, int]] = None
    heap = [(-(us[0][1] + vs[0][1]), 0, 0)]
    while heap:
        negb, i, j = heapq.heappop(heap)
        if best is not None and -negb <= best[2]:
            break
        u, gu = us[i]
        v, gv = vs[j]
        g = -negb - correct_term(h, p, u, v)
        state.pair_gain_evals += 1
        if best is None or g > best[2]:
            best = (u, v, g)
        if _reach(vs, order_v, j + 1):
            heapq.heappush(heap, (-(gu + vs[j + 1][1]), i, j + 1))
        if j == 0 and _reach(us, order_u, i + 1):
            heapq.heappush(heap, (-(us[i + 1][1] + gv), i + 1, 0))
    return best


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
    cell count (see pad_dummy) and p two blocks of half of it each.
    """
    m = h.cell_count // 2
    if p.block_size[B1] != m or p.block_size[B2] != m:
        raise ValueError("pairwise pass needs equal block sizes")
    buckets = init(h, p, cfg.tie_policy)
    initial_cut = p.cut_count
    best_t, best_cut = 0, initial_cut
    moved: list[int] = []
    evals = 0
    for _ in range(m):
        sel = selection_state(buckets)
        u, v, _ = best_pair(sel, h, p, rng)
        evals += sel.pair_gain_evals
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
