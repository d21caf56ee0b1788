"""Gain bookkeeping for move-based passes.

Gains live in [-P, +P] where P is the maximum cell degree, so each block
keeps an array of cell slots indexed by gain plus a pointer to the highest
occupied index. A pass's whole state is one `GainBucket` holding both
blocks: a cell's slot is the only record of its gain, the live side list
says which block files it, and a cell is locked exactly when no slot holds
it. `init` fills it, and `pass_steps` runs a pass's steps under every tie
policy, a swap step's top-pair search among them. Over lifo and fifo it
moves cells with `move_by_operations`, one `GainBucket` operation per call;
over bags (the default `random` tie policy) it runs the same operations
written inline.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .hypergraph import B1, B2, Hypergraph, Partition

TIE_POLICIES = ("random", "fifo", "lifo")

_NONE = -1


class GainBucket:
    """The unlocked cells of both blocks filed by gain, with a max pointer
    per block.

    ``members[b]`` is block b's list of slots, ``top[b]`` its highest
    nonempty slot (-1 exactly when the block has no unlocked cell), and
    ``slot[c]`` the slot of cell c, -1 when c is locked. ``side`` is the
    partition's live side list: a filed cell keeps its side until it is
    locked, so ``side[c]`` names the block that files c. Each slot holds its
    cells in a container chosen by the tie policy when the bucket is built:

    - ``lifo`` and ``fifo``: an ``OrderedDict`` in entry order, oldest
      first, as a cell enters at the end; ``order`` is ``reversed`` for
      lifo and ``iter`` for fifo. Not a plain ``dict``: its iterators step
      over the entries deleted since its last resize, so reading a slot
      that cells keep leaving costs more than its size, and fifo passes
      grow faster than their pin count.
    - ``random`` (``order`` is None): an unordered list (a bag) with
      swap-removal and a per-cell position ``pos``, read only while the
      cell is filed, so a uniform pick costs O(1) instead of a walk; passes
      would otherwise go quadratic.

    Insert, remove and relocate are O(1); a max pointer falls back by
    linear scan when its slot drains. `select` and `iter_descending` order
    ties by the policy the bucket was built for.

    During a pass, `pass_steps` moves lifo and fifo buckets by
    `move_by_operations`, which calls `remove` and `relocate`. It moves
    bags itself, doing the removal and every relocation inline, in the
    order those calls would, and updates ``top`` in place, so the methods
    here see an exact bucket whenever they are called.
    """

    __slots__ = ("side", "span", "order", "slot", "pos", "members", "top")

    def __init__(self, side: list[int], span: int, policy: str):
        if policy not in TIE_POLICIES:
            raise ValueError(f"unknown tie policy {policy!r}")
        self.side = side
        self.span = span
        self.order = {"lifo": reversed, "fifo": iter}.get(policy)
        width = 2 * span + 1
        self.slot = [_NONE] * len(side)
        self.top = [_NONE, _NONE]
        if self.order is None:
            self.members = tuple([[] for _ in range(width)] for _ in (B1, B2))
            self.pos = [_NONE] * len(side)
        else:
            self.members = tuple([OrderedDict() for _ in range(width)] for _ in (B1, B2))
            self.pos = None

    def _top_from(self, block: int, slot: int) -> int:
        """The highest nonempty slot of block at or below slot, or -1."""
        members = self.members[block]
        while slot >= 0 and not members[slot]:
            slot -= 1
        return slot

    def fill(self, cells: Sequence[int], gains: Iterable[int]) -> None:
        """Insert cells[i] at gains[i] for each i in turn, at the end of its
        slot in the block of its side."""
        span = self.span
        side = self.side
        slot = self.slot
        members = self.members
        top = self.top
        pos = self.pos
        for c, g in zip(cells, gains):
            k = g + span
            b = side[c]
            cells_k = members[b][k]
            if pos is None:
                cells_k[c] = None
            else:
                pos[c] = len(cells_k)
                cells_k.append(c)
            slot[c] = k
            if k > top[b]:
                top[b] = k

    def _unlink(self, cell: int) -> tuple[int, int, bool]:
        """Take a filed cell out of its slot, leaving its slot record; return
        its block, that slot and whether it drained."""
        old = self.slot[cell]
        if old == _NONE:
            raise ValueError(f"cell {cell} not in bucket")
        b = self.side[cell]
        cells = self.members[b][old]
        if self.order is not None:
            del cells[cell]
        else:
            last = cells.pop()
            if last != cell:
                pos = self.pos
                i = pos[cell]
                cells[i] = last
                pos[last] = i
        return b, old, not cells

    def remove(self, cell: int) -> None:
        b, old, drained = self._unlink(cell)
        self.slot[cell] = _NONE
        if drained and old == self.top[b]:
            self.top[b] = self._top_from(b, old - 1)

    def relocate(self, cell: int, gain: int) -> None:
        """Move a filed cell to the slot of gain, as remove then insert
        would: the cell enters the new slot at its end."""
        b, old, drained = self._unlink(cell)
        new = gain + self.span
        cells = self.members[b][new]
        if self.order is not None:
            cells[cell] = None
        else:
            self.pos[cell] = len(cells)
            cells.append(cell)
        self.slot[cell] = new
        top = self.top
        if new > top[b]:
            top[b] = new
        elif drained and new < old == top[b]:
            # the cell moved down out of the max slot; the scan stops at new
            top[b] = self._top_from(b, old - 1)

    def select(self, block: int, rng: Optional[random.Random] = None) -> Optional[int]:
        """A cell of block's max slot, or None if the block has no unlocked
        cell: lifo picks the slot's newest cell, fifo its oldest, and random
        a uniform member of its bag, drawn from rng."""
        top = self.top[block]
        if top < 0:
            return None
        cells = self.members[block][top]
        if self.order is not None:
            return next(self.order(cells))
        if rng is None:
            raise ValueError("random tie policy needs an rng")
        return cells[rng.randrange(len(cells))]

    def iter_descending(
        self, block: int, rng: Optional[random.Random] = None, after: int = _NONE
    ) -> Iterator[tuple[int, int]]:
        """All (cell, gain) pairs of block, highest gain slot first, produced
        on demand.

        Within a slot the order follows the tie policy, so the first cell is
        the one `select` would pick: lifo reads the slot newest first, fifo
        oldest first, and random starts at a uniform position in the slot's
        bag, drawn from rng on entering the slot, and wraps around. Empty
        slots are skipped, so k cells cost O(k + gain span).

        Given after, the first cell such an order produced in its slot (the
        cell `select` drew, for the top slot), the walk resumes just past
        it and draws nothing until it enters a lower slot.
        """
        top = self.top[block] if after == _NONE else self.slot[after]
        members = self.members[block]
        order = self.order
        if order is not None:
            for slot in range(top, -1, -1):
                g = slot - self.span
                cells = order(members[slot])
                if after != _NONE:
                    next(cells)  # after, the slot's first cell
                    after = _NONE
                for c in cells:
                    yield c, g
            return
        if rng is None:
            raise ValueError("random tie policy needs an rng")
        if after != _NONE:
            bag = members[top]
            n = len(bag)
            # the slot's order runs from after's position around to the one before it
            first = self.pos[after]
            for i in range(first + 1, first + n):
                yield bag[i - n if i >= n else i], top - self.span
            top -= 1
        for slot in range(top, -1, -1):
            bag = members[slot]
            n = len(bag)
            if not n:
                continue
            g = slot - self.span
            k = rng.randrange(n)
            for i in range(k, k + n):
                yield bag[i - n if i >= n else i], g

    def audit(self) -> None:
        """Full-scan structural check; raises AssertionError on a broken invariant."""
        seen = 0
        for block, members in enumerate(self.members):
            top = _NONE
            for slot, cells in enumerate(members):
                for pos, cell in enumerate(cells):
                    if self.slot[cell] != slot:
                        raise AssertionError(f"cell {cell}: slot record disagrees with slot {slot}")
                    if self.side[cell] != block:
                        raise AssertionError(f"cell {cell} filed under the wrong block")
                    if self.pos is not None and self.pos[cell] != pos:
                        raise AssertionError(f"cell {cell}: stale bag position")
                if cells:
                    top = slot
                seen += len(cells)
            if self.top[block] != top:
                raise AssertionError(f"block {block}: max pointer is not the highest nonempty slot")
        if sum(1 for s in self.slot if s != _NONE) != seen:
            raise AssertionError("slot records disagree with slot contents")


# Called after every step of a pass with the live bucket, the partition and
# the pass's log of moved cells so far (two cells per swap step).
StepHook = Callable[[GainBucket, Partition, list[int]], None]

# A swap pass's pair search from the top pair (u, v) it is given, as
# (u, v, gain, pair gains evaluated); see `pairwise.heap_scan`.
PairScan = Callable[[GainBucket, Hypergraph, Partition, random.Random, int, int], tuple[int, int, int, int]]


def compute_gain(h: Hypergraph, p: Partition, c: int) -> int:
    """Exact cut reduction if cell c alone moved to the other block.

    Counts nets where c is the lone pin on its side, minus nets lying
    entirely in c's block. Single-pin nets cancel to zero.
    """
    f = p.side[c]
    count_f = p.counts[f]
    count_t = p.counts[1 - f]
    g = 0
    for n in h.cell_nets[c]:
        if count_f[n] == 1:
            g += 1
        if count_t[n] == 0:
            g -= 1
    return g


def init(h: Hypergraph, p: Partition, tie_policy: str) -> GainBucket:
    """Compute all gains and file every cell under the block of its side in
    one bucket built for tie_policy (see GainBucket) over p's live side
    list, and return it: the pass state that `pass_steps` runs on.

    All gains come from one sweep over the nets, as `compute_gain` would give
    them: an uncut net with two or more pins lowers each of its pins, and in
    a cut net the lone pin of a side holding one pin gains one. Cells enter
    in ascending id order.
    """
    n = h.cell_count
    side = p.side
    buckets = GainBucket(side, h.max_cell_degree, tie_policy)
    gain = [0] * n
    for pins, a, b in zip(h.nets, *p.counts):
        if a and b:
            if a == 1:
                for x in pins:
                    if side[x] == B1:
                        gain[x] += 1
                        break
            if b == 1:
                for x in pins:
                    if side[x] == B2:
                        gain[x] += 1
                        break
        elif a + b > 1:
            for x in pins:
                gain[x] -= 1
    buckets.fill(range(n), gain)
    return buckets


def move_by_operations(buckets: GainBucket, h: Hypergraph, p: Partition, c: int) -> int:
    """Lock c, move it, adjust unlocked neighbor gains in place, and return
    c's gain: one `GainBucket.remove` for c, then one `GainBucket.relocate`
    per neighbor update, in the order of the rule below. `pass_steps` calls
    it over lifo and fifo and inlines it for bags.

    For each net of c, with F the departing block and T the receiving one:
    before the pin transfer, a T-count of 0 raises every unlocked pin and a
    T-count of 1 lowers the lone T-side pin; after the transfer, an F-count
    of 0 lowers every unlocked pin and an F-count of 1 raises the lone
    F-side pin. A pin is unlocked exactly when its slot record is set.

    The transfer is done here, as `apply_move` would do it: the side
    flips between the two loops, each net's counts move as the second loop
    reaches it, and the cut falls by c's gain, which is exact because c was
    unlocked until this call.
    """
    side = p.side
    f = side[c]
    t = 1 - f
    slot = buckets.slot
    k = slot[c]
    if k < 0:
        raise ValueError(f"cell {c} is locked")
    buckets.remove(c)
    span = buckets.span
    # the gain one slot above or below slot k is k + up or k + down
    up = 1 - span
    down = -1 - span
    relocate = buckets.relocate
    nets = h.cell_nets[c]
    pins_of = h.nets
    count_f = p.counts[f]
    count_t = p.counts[t]
    for e in nets:
        tc = count_t[e]
        if tc == 0:
            for x in pins_of[e]:
                old = slot[x]
                if old >= 0:
                    relocate(x, old + up)
        elif tc == 1:
            for x in pins_of[e]:
                if side[x] == t:
                    old = slot[x]
                    if old >= 0:
                        relocate(x, old + down)
                    break
    side[c] = t
    gain = k - span
    p.cut_count -= gain
    for e in nets:
        fc = count_f[e] - 1
        count_f[e] = fc
        count_t[e] += 1
        if fc == 0:
            for x in pins_of[e]:
                old = slot[x]
                if old >= 0:
                    relocate(x, old + down)
        elif fc == 1:
            for x in pins_of[e]:
                if side[x] == f:
                    old = slot[x]
                    if old >= 0:
                        relocate(x, old + up)
                    break
    return gain


# the name fm and pairwise import the move by, where a tracer can wrap it
move_and_update = move_by_operations


def pass_steps(
    buckets: GainBucket,
    h: Hypergraph,
    p: Partition,
    rng: random.Random,
    best_cut: int,
    on_step: Optional[StepHook] = None,
    heap_scan: Optional[PairScan] = None,
) -> tuple[list[int], int, int, int]:
    """Run a pass's steps until every cell is locked; return the moved
    cells, the length of the earliest balanced prefix with a cut below
    best_cut (0 if none), its cut and the pair gains evaluated. This is
    the one step loop of FM and swap passes under every tie policy.

    A step is one FM move or, given heap_scan, a swap of u and v. An FM
    step moves a cell of the block to move from: the larger one; on equal
    sizes the one with the higher max gain, B1 on a tie. A block with no
    unlocked cell yields to the other. Both blocks share one gain span, so
    their max slots compare as their max gains do. The cell comes from that
    block's max slot, as `GainBucket.select` picks it: over lifo and fifo
    the slot's newest or oldest, over bags (random) the draw
    `rng.randrange(n)` as `Random` computes it.

    A swap step draws u from B1's max slot, then v from B2's, the same way.
    The pair is final when no net of both has a lone pin on either side,
    as no other pair's bound gain is higher; then, over bags, the step
    makes the draws the heap scan's first look-aheads would make: into B2's
    next slot, then B1's, each when its top bag holds only the drawn cell.
    Otherwise heap_scan(buckets, h, p, rng, u, v) searches on from the pair
    and returns the best (u, v, gain, pair gains evaluated).

    The loop reads and writes the bucket's ``top`` list in place. It keeps
    the cut and the imbalance d = |B1| - |B2| in locals: d is counted off
    the side list at entry and moves by 2 with every move; the cut is
    written back before on_step and on return, as heap_scan reads only the
    bucket, the side list and the pin counts.
    Over lifo and fifo the move is `move_by_operations`, and the loop
    lowers the cut by the gain it returns. Over bags the move is the one
    copy of `move_by_operations` written inline, its `remove` and
    `relocate` calls in the same order; each receiving count rises once its
    first loop has read it. A gain moves one slot at a time, so a rise can
    only lift the max slot, a fall that drains it leaves the slot below on
    top, and only a cell that was last in its bag can drain it.
    """
    span = buckets.span
    order = buckets.order
    slot = buckets.slot
    pos = buckets.pos
    members = buckets.members
    tops = buckets.top
    cut = p.cut_count
    side = p.side
    d = 2 * side.count(B1) - len(side)
    counts = p.counts
    count1, count2 = counts
    cell_nets = h.cell_nets
    pins_of = h.nets
    getrandbits = rng.getrandbits
    moved: list[int] = []
    best_t = 0
    evals = 0
    v = _NONE
    while True:
        if heap_scan is None:
            m1, m2 = tops
            if m1 < 0 and m2 < 0:
                break
            f = B1 if m2 < 0 or (m1 >= 0 and (d > 0 or d == 0 and m1 >= m2)) else B2
            k = tops[f]
            bag = members[f][k]
            if order is None:
                n = len(bag)
                bits = n.bit_length()
                r = getrandbits(bits)
                while r >= n:
                    r = getrandbits(bits)
                c = bag[r]
            else:
                c = next(order(bag))
        else:
            if v == _NONE:
                top_u, top_v = tops
                if top_u < 0 or top_v < 0:
                    break
                bag_u = members[B1][top_u]
                bag_v = members[B2][top_v]
                if order is None:
                    n = len(bag_u)
                    bits = n.bit_length()
                    r = getrandbits(bits)
                    while r >= n:
                        r = getrandbits(bits)
                    c = bag_u[r]
                    n = len(bag_v)
                    bits = n.bit_length()
                    r = getrandbits(bits)
                    while r >= n:
                        r = getrandbits(bits)
                    v = bag_v[r]
                else:
                    c = next(order(bag_u))
                    v = next(order(bag_v))
                nets_v = cell_nets[v]
                for e in cell_nets[c]:
                    if e in nets_v and (count1[e] == 1 or count2[e] == 1):
                        c, v, _, n = heap_scan(buckets, h, p, rng, c, v)
                        evals += n
                        break
                else:
                    evals += 1
                    if order is None:
                        if len(bag_v) == 1 and (k := buckets._top_from(B2, top_v - 1)) >= 0:
                            n = len(members[B2][k])
                            while getrandbits(n.bit_length()) >= n:
                                pass
                        if len(bag_u) == 1 and (k := buckets._top_from(B1, top_u - 1)) >= 0:
                            n = len(members[B1][k])
                            while getrandbits(n.bit_length()) >= n:
                                pass
            else:
                c, v = v, _NONE
            f = side[c]
            k = slot[c]
        if order is not None:
            cut -= move_by_operations(buckets, h, p, c)
        else:
            t = 1 - f
            bags_f = members[f]
            bags_t = members[t]
            top_f = tops[f]
            top_t = tops[t]
            bag = bags_f[k]
            last = bag.pop()
            if last != c:
                i = pos[c]
                bag[i], pos[last] = last, i
            slot[c] = _NONE
            if not bag and k == top_f:
                top_f = buckets._top_from(f, k - 1)
            count_f = counts[f]
            count_t = counts[t]
            nets = cell_nets[c]
            for e in nets:
                tc = count_t[e]
                count_t[e] = tc + 1
                if tc == 0:
                    for x in pins_of[e]:
                        old = slot[x]
                        if old >= 0:
                            bag = bags_f[old]
                            last = bag.pop()
                            if last != x:
                                i = pos[x]
                                bag[i], pos[last] = last, i
                            old += 1
                            bag = bags_f[old]
                            pos[x] = len(bag)
                            bag.append(x)
                            slot[x] = old
                            if old > top_f:
                                top_f = old
                elif tc == 1:
                    for x in pins_of[e]:
                        if side[x] == t:
                            old = slot[x]
                            if old >= 0:
                                bag = bags_t[old]
                                last = bag.pop()
                                if last != x:
                                    i = pos[x]
                                    bag[i], pos[last] = last, i
                                elif not bag and old == top_t:
                                    top_t = old - 1
                                old -= 1
                                bag = bags_t[old]
                                pos[x] = len(bag)
                                bag.append(x)
                                slot[x] = old
                            break
            side[c] = t
            for e in nets:
                fc = count_f[e] - 1
                count_f[e] = fc
                if fc == 0:
                    for x in pins_of[e]:
                        old = slot[x]
                        if old >= 0:
                            bag = bags_t[old]
                            last = bag.pop()
                            if last != x:
                                i = pos[x]
                                bag[i], pos[last] = last, i
                            elif not bag and old == top_t:
                                top_t = old - 1
                            old -= 1
                            bag = bags_t[old]
                            pos[x] = len(bag)
                            bag.append(x)
                            slot[x] = old
                elif fc == 1:
                    for x in pins_of[e]:
                        if side[x] == f:
                            old = slot[x]
                            if old >= 0:
                                bag = bags_f[old]
                                last = bag.pop()
                                if last != x:
                                    i = pos[x]
                                    bag[i], pos[last] = last, i
                                old += 1
                                bag = bags_f[old]
                                pos[x] = len(bag)
                                bag.append(x)
                                slot[x] = old
                                if old > top_f:
                                    top_f = old
                            break
            tops[f] = top_f
            tops[t] = top_t
            cut -= k - span
        d += 2 if f else -2  # a move from B2 (1) grows B1
        moved.append(c)
        if cut < best_cut and -1 <= d <= 1:
            best_t, best_cut = len(moved), cut
        if on_step is not None and v == _NONE:
            p.cut_count = cut
            on_step(buckets, p, moved)
    p.cut_count = cut
    return moved, best_t, best_cut, evals


def select_max(buckets: GainBucket, block: int, rng: Optional[random.Random] = None) -> Optional[int]:
    """A cell at the block's max gain index, or None if the block has no
    unlocked cell, picked by `GainBucket.select`."""
    return buckets.select(block, rng)


def audit(buckets: GainBucket, h: Hypergraph, p: Partition) -> None:
    """Cross-check the bucket's structure (`GainBucket.audit`) and the gains
    it files for h's cells against first principles: a cell with a slot
    record sits at the slot of its exact gain; a cell with none is locked
    and has no gain to check."""
    buckets.audit()
    for c in range(h.cell_count):
        g = buckets.slot[c] - buckets.span
        if buckets.slot[c] != _NONE and g != compute_gain(h, p, c):
            raise AssertionError(f"cell {c}: filed gain {g} is stale")
