"""Gain bookkeeping for move-based passes.

Gains live in [-P, +P] where P is the maximum cell degree, so each block
keeps an array of cell slots indexed by gain plus a pointer to the highest
occupied index. A pass's whole state is the two buckets: a cell's slot in
the bucket of its block is the only record of its gain, and a cell is
locked exactly when no bucket holds it. `init` fills them, and
`pass_steps` runs a pass's steps under every tie policy. Over lifo and
fifo buckets it moves cells with `move_by_operations`, one `GainBucket`
operation per call; over bags (the default `random` tie policy) it runs
the same operations written inline over the bags' lists.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .hypergraph import B1, B2, Hypergraph, Partition

TIE_POLICIES = ("random", "fifo", "lifo")

_NONE = -1


class GainBucket:
    """Cells of one block filed by gain, with a max pointer.

    Each slot of ``members`` holds its cells in a container chosen by the
    tie policy when the bucket is built:

    - ``lifo`` and ``fifo``: an ``OrderedDict`` in entry order, oldest
      first, as a cell enters at the end; ``order`` is ``reversed`` for
      lifo and ``iter`` for fifo. Not a plain ``dict``: its iterators step
      over the entries deleted since its last resize, so reading a slot
      that cells keep leaving costs more than its size, and fifo passes
      grow faster than their pin count.
    - ``random`` (``order`` is None): an unordered list (a bag) with
      swap-removal and a per-cell position, read only while the cell is
      filed, so a uniform pick costs O(1) instead of a walk; passes would
      otherwise go quadratic.

    Insert, remove and relocate are O(1); the max pointer falls back by
    linear scan when its slot drains, and is -1 exactly when the bucket is
    empty. `select` and `iter_descending` order ties by the policy the
    bucket was built for.

    During a pass, `pass_steps` moves lifo and fifo buckets by
    `move_by_operations`, which calls `remove` and `relocate`. It moves
    bags itself, doing the removal and every relocation inline, in the
    order those calls would, and keeps the max slots in locals. It writes
    `max_slot` back before it hands the buckets to a pair search or a step
    hook, and when the pass ends, so the methods here see an exact bucket
    whenever they are called.
    """

    __slots__ = ("span", "order", "slot", "max_slot", "members", "bag_pos")

    def __init__(self, cell_count: int, span: int, policy: str):
        if policy not in TIE_POLICIES:
            raise ValueError(f"unknown tie policy {policy!r}")
        self.span = span
        self.order = {"lifo": reversed, "fifo": iter}.get(policy)
        width = 2 * span + 1
        self.slot = [_NONE] * cell_count
        self.max_slot = _NONE
        if self.order is None:
            self.members = [[] for _ in range(width)]
            self.bag_pos = [_NONE] * cell_count
        else:
            self.members = [OrderedDict() for _ in range(width)]
            self.bag_pos = None

    def __contains__(self, cell: int) -> bool:
        return self.slot[cell] != _NONE

    def _top_from(self, slot: int) -> int:
        """The highest nonempty slot at or below slot, or -1."""
        members = self.members
        while slot >= 0 and not members[slot]:
            slot -= 1
        return slot

    def fill(self, cells: Sequence[int], gains: Iterable[int]) -> None:
        """Insert cells[i] at gains[i] for each i in turn, at the end of its
        slot."""
        span = self.span
        slot = self.slot
        top = self.max_slot
        if self.order is not None:
            members = self.members
            for c, g in zip(cells, gains):
                k = g + span
                members[k][c] = None
                slot[c] = k
                if k > top:
                    top = k
        else:
            bags = self.members
            bag_pos = self.bag_pos
            for c, g in zip(cells, gains):
                k = g + span
                bag = bags[k]
                bag_pos[c] = len(bag)
                bag.append(c)
                slot[c] = k
                if k > top:
                    top = k
        self.max_slot = top

    def _unlink(self, cell: int) -> tuple[int, bool]:
        """Take a bucketed cell out of its slot, leaving its slot record;
        return that slot and whether it drained."""
        old = self.slot[cell]
        if old == _NONE:
            raise ValueError(f"cell {cell} not in bucket")
        cells = self.members[old]
        if self.order is not None:
            del cells[cell]
        else:
            last = cells.pop()
            if last != cell:
                pos = self.bag_pos[cell]
                cells[pos] = last
                self.bag_pos[last] = pos
        return old, not cells

    def remove(self, cell: int) -> None:
        old, drained = self._unlink(cell)
        self.slot[cell] = _NONE
        if drained and old == self.max_slot:
            self.max_slot = self._top_from(old - 1)

    def relocate(self, cell: int, gain: int) -> None:
        """Move a bucketed cell to the slot of gain, as remove then insert
        would: the cell enters the new slot at its end."""
        old, drained = self._unlink(cell)
        new = gain + self.span
        cells = self.members[new]
        if self.order is not None:
            cells[cell] = None
        else:
            self.bag_pos[cell] = len(cells)
            cells.append(cell)
        self.slot[cell] = new
        top = self.max_slot
        if new > top:
            self.max_slot = new
        elif drained and new < old == top:
            # the cell moved down out of the max slot; the scan stops at new
            self.max_slot = self._top_from(old - 1)

    def select(self, rng: Optional[random.Random] = None) -> Optional[int]:
        """A cell of the max slot, or None if the bucket is empty: lifo picks
        the slot's newest cell, fifo its oldest, and random a uniform member
        of its bag, drawn from rng."""
        top = self.max_slot
        if top < 0:
            return None
        cells = self.members[top]
        if self.order is not None:
            return next(self.order(cells))
        if rng is None:
            raise ValueError("random tie policy needs an rng")
        return cells[rng.randrange(len(cells))]

    def iter_descending(
        self, rng: Optional[random.Random] = None, after: int = _NONE
    ) -> Iterator[tuple[int, int]]:
        """All (cell, gain) pairs, highest gain slot first, produced on demand.

        Within a slot the order follows the tie policy, so the first cell is
        the one `select` would pick: lifo reads the slot newest first, fifo
        oldest first, and random starts at a uniform position in the slot's
        bag, drawn from rng on entering the slot, and wraps around. Empty
        slots are skipped, so k cells cost O(k + gain span).

        Given after, the first cell such an order produced in its slot (the
        cell `select` drew, for the top slot), the walk resumes just past
        it and draws nothing until it enters a lower slot.
        """
        top = self.max_slot if after == _NONE else self.slot[after]
        members = self.members
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
            first = self.bag_pos[after]
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
        top = _NONE
        for slot, cells in enumerate(self.members):
            for pos, cell in enumerate(cells):
                if self.slot[cell] != slot:
                    raise AssertionError(f"cell {cell}: slot record disagrees with slot {slot}")
                if self.bag_pos is not None and self.bag_pos[cell] != pos:
                    raise AssertionError(f"cell {cell}: stale bag position")
            if cells:
                top = slot
            seen += len(cells)
        if sum(1 for s in self.slot if s != _NONE) != seen:
            raise AssertionError("slot records disagree with slot contents")
        if self.max_slot != top:
            raise AssertionError("max pointer is not the highest nonempty slot")


# The state of one pass: B1's and B2's `GainBucket`, in that order.
Buckets = tuple[GainBucket, GainBucket]

# Called after every step of a pass with the live buckets, the partition and
# the pass's log of moved cells so far (two cells per swap step).
StepHook = Callable[[Buckets, Partition, list[int]], None]


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


def init(h: Hypergraph, p: Partition, tie_policy: str) -> Buckets:
    """Compute all gains and file every cell in the bucket of its block,
    both built for tie_policy (see GainBucket), and return the pair, which
    is the pass state that `pass_steps` runs on.

    All gains come from one sweep over the nets, as `compute_gain` would give
    them: an uncut net with two or more pins lowers each of its pins, and in
    a cut net the lone pin of a side holding one pin gains one.
    """
    n = h.cell_count
    span = h.max_cell_degree
    buckets = (GainBucket(n, span, tie_policy), GainBucket(n, span, tie_policy))
    gain = [0] * n
    side = p.side
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
    for blk in (B1, B2):
        cells = [c for c in range(n) if side[c] == blk]
        buckets[blk].fill(cells, [gain[c] for c in cells])
    return buckets


def move_by_operations(buckets: Buckets, h: Hypergraph, p: Partition, c: int) -> int:
    """Lock c, move it, adjust unlocked neighbor gains in place, and return
    c's gain: one `GainBucket.remove` for c, then one `GainBucket.relocate`
    per neighbor update, in the order of the rule below. `pass_steps` calls
    it over lifo and fifo and inlines it for bags.

    For each net of c, with F the departing block and T the receiving one:
    before the pin transfer, a T-count of 0 raises every unlocked pin and a
    T-count of 1 lowers the lone T-side pin; after the transfer, an F-count
    of 0 lowers every unlocked pin and an F-count of 1 raises the lone
    F-side pin. A T-count of 0 puts every pin on F, and an F-count of 0
    after the transfer puts every pin on T, so each update knows its bucket,
    and a pin is unlocked exactly when that bucket files it.

    The transfer is done here, as `apply_move` would do it: side and sizes
    flip between the two loops, each net's counts move as the second loop
    reaches it, and the cut falls by c's gain, which is exact because c was
    unlocked until this call.
    """
    side = p.side
    f = side[c]
    t = 1 - f
    bucket_f = buckets[f]
    bucket_t = buckets[t]
    slot_f = bucket_f.slot
    slot_t = bucket_t.slot
    k = slot_f[c]
    if k < 0:
        raise ValueError(f"cell {c} is locked")
    bucket_f.remove(c)
    span = bucket_f.span
    # the gain one slot above or below slot k is k + up or k + down
    up = 1 - span
    down = -1 - span
    relocate_f = bucket_f.relocate
    relocate_t = bucket_t.relocate
    nets = h.cell_nets[c]
    pins_of = h.nets
    count_f = p.counts[f]
    count_t = p.counts[t]
    for e in nets:
        tc = count_t[e]
        if tc == 0:
            for x in pins_of[e]:
                old = slot_f[x]
                if old >= 0:
                    relocate_f(x, old + up)
        elif tc == 1:
            for x in pins_of[e]:
                if side[x] == t:
                    old = slot_t[x]
                    if old >= 0:
                        relocate_t(x, old + down)
                    break
    side[c] = t
    sizes = p.block_size
    sizes[f] -= 1
    sizes[t] += 1
    gain = k - span
    p.cut_count -= gain
    for e in nets:
        fc = count_f[e] - 1
        count_f[e] = fc
        count_t[e] += 1
        if fc == 0:
            for x in pins_of[e]:
                old = slot_t[x]
                if old >= 0:
                    relocate_t(x, old + down)
        elif fc == 1:
            for x in pins_of[e]:
                if side[x] == f:
                    old = slot_f[x]
                    if old >= 0:
                        relocate_f(x, old + up)
                    break
    return gain


# the name fm and pairwise import the move by, where a tracer can wrap it
move_and_update = move_by_operations


def pass_steps(
    buckets: Buckets,
    h: Hypergraph,
    p: Partition,
    rng: random.Random,
    best_cut: int,
    on_step: Optional[StepHook] = None,
    pick_pair: Optional[Callable[[], tuple[int, int]]] = None,
) -> tuple[list[int], int, int]:
    """Run a pass's steps until every cell is locked; return the moved
    cells, the length of the earliest balanced prefix with a cut below
    best_cut (0 if none) and its cut. This is the one step loop of FM and
    swap passes under every tie policy.

    A step is one FM move or, with pick_pair, u and then v of the pair
    pick_pair() returns. An FM step moves a cell of the block to move from:
    the larger one; on equal sizes the one with the higher max gain, B1 on
    a tie. A block with no unlocked cell yields to the other. Both buckets
    share one gain span, so their max slots compare as their max gains do.
    The cell comes from that block's max slot, as `GainBucket.select` picks
    it: over lifo and fifo the slot's newest or oldest, over bags (random)
    the draw `rng.randrange(n)` as `Random` computes it.

    The max slots and cut live in locals, written back before pick_pair,
    on_step and return. Over lifo and fifo the move is
    `move_by_operations`, after which the loop reads the max slots back and
    lowers the cut by the gain it returns. Over bags the move is the one
    copy of `move_by_operations` written inline, its `remove` and
    `relocate` calls in the same order; each receiving count rises once its
    first loop has read it. A gain moves one slot at a time, so a rise can
    only lift the max slot, a fall that drains it leaves the slot below on
    top, and only a cell that was last in its bag can drain it.
    """
    b1, b2 = buckets
    span = b1.span
    order = b1.order
    arrays = ((b1.slot, b1.members, b1.bag_pos, b1), (b2.slot, b2.members, b2.bag_pos, b2))
    tops = [b1.max_slot, b2.max_slot]
    cut = p.cut_count
    side = p.side
    sizes = p.block_size
    counts = p.counts
    cell_nets = h.cell_nets
    pins_of = h.nets
    getrandbits = rng.getrandbits
    moved: list[int] = []
    best_t = 0
    v = _NONE
    while True:
        if pick_pair is None:
            m1, m2 = tops
            if m1 < 0 and m2 < 0:
                break
            s1, s2 = sizes
            f = B1 if m2 < 0 or (m1 >= 0 and (s1 > s2 or s1 == s2 and m1 >= m2)) else B2
            k = tops[f]
            bag = arrays[f][1][k]
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
                b1.max_slot, b2.max_slot = tops
                p.cut_count = cut
                if tops[B1] < 0 or tops[B2] < 0:
                    break
                c, v = pick_pair()
            else:
                c, v = v, _NONE
            f = side[c]
            k = arrays[f][0][c]
        if order is not None:
            cut -= move_by_operations(buckets, h, p, c)
            tops = [b1.max_slot, b2.max_slot]
        else:
            t = 1 - f
            slot_f, bags_f, pos_f, bucket_f = arrays[f]
            slot_t, bags_t, pos_t, bucket_t = arrays[t]
            top_f = tops[f]
            top_t = tops[t]
            bag = bags_f[k]
            last = bag.pop()
            if last != c:
                i = pos_f[c]
                bag[i], pos_f[last] = last, i
            slot_f[c] = _NONE
            if not bag and k == top_f:
                top_f = bucket_f._top_from(k - 1)
            count_f = counts[f]
            count_t = counts[t]
            nets = cell_nets[c]
            for e in nets:
                tc = count_t[e]
                count_t[e] = tc + 1
                if tc == 0:
                    for x in pins_of[e]:
                        old = slot_f[x]
                        if old >= 0:
                            bag = bags_f[old]
                            last = bag.pop()
                            if last != x:
                                i = pos_f[x]
                                bag[i], pos_f[last] = last, i
                            old += 1
                            bag = bags_f[old]
                            pos_f[x] = len(bag)
                            bag.append(x)
                            slot_f[x] = old
                            if old > top_f:
                                top_f = old
                elif tc == 1:
                    for x in pins_of[e]:
                        if side[x] == t:
                            old = slot_t[x]
                            if old >= 0:
                                bag = bags_t[old]
                                last = bag.pop()
                                if last != x:
                                    i = pos_t[x]
                                    bag[i], pos_t[last] = last, i
                                elif not bag and old == top_t:
                                    top_t = old - 1
                                old -= 1
                                bag = bags_t[old]
                                pos_t[x] = len(bag)
                                bag.append(x)
                                slot_t[x] = old
                            break
            side[c] = t
            sizes[f] -= 1
            sizes[t] += 1
            for e in nets:
                fc = count_f[e] - 1
                count_f[e] = fc
                if fc == 0:
                    for x in pins_of[e]:
                        old = slot_t[x]
                        if old >= 0:
                            bag = bags_t[old]
                            last = bag.pop()
                            if last != x:
                                i = pos_t[x]
                                bag[i], pos_t[last] = last, i
                            elif not bag and old == top_t:
                                top_t = old - 1
                            old -= 1
                            bag = bags_t[old]
                            pos_t[x] = len(bag)
                            bag.append(x)
                            slot_t[x] = old
                elif fc == 1:
                    for x in pins_of[e]:
                        if side[x] == f:
                            old = slot_f[x]
                            if old >= 0:
                                bag = bags_f[old]
                                last = bag.pop()
                                if last != x:
                                    i = pos_f[x]
                                    bag[i], pos_f[last] = last, i
                                old += 1
                                bag = bags_f[old]
                                pos_f[x] = len(bag)
                                bag.append(x)
                                slot_f[x] = old
                                if old > top_f:
                                    top_f = old
                            break
            tops[f] = top_f
            tops[t] = top_t
            cut -= k - span
        moved.append(c)
        if cut < best_cut and -1 <= sizes[B1] - sizes[B2] <= 1:
            best_t, best_cut = len(moved), cut
        if on_step is not None and v == _NONE:
            b1.max_slot, b2.max_slot = tops
            p.cut_count = cut
            on_step(buckets, p, moved)
    b1.max_slot, b2.max_slot = tops
    p.cut_count = cut
    return moved, best_t, best_cut


def select_max(buckets: Buckets, block: int, rng: Optional[random.Random] = None) -> Optional[int]:
    """A cell at the block's max gain index, or None if the block has no
    unlocked cell, picked by `GainBucket.select`."""
    return buckets[block].select(rng)


def audit(buckets: Buckets, h: Hypergraph, p: Partition) -> None:
    """Cross-check bucket structure and filed gains against first principles.

    A cell no bucket holds is locked and has no gain to check; every other
    cell sits in the bucket of its block, at the slot of its exact gain."""
    for bucket in buckets:
        bucket.audit()
    for c in range(h.cell_count):
        in1 = c in buckets[B1]
        in2 = c in buckets[B2]
        if in1 and in2:
            raise AssertionError(f"cell {c} sits in both buckets")
        if not (in1 or in2):
            continue
        bucket = buckets[p.side[c]]
        if c not in bucket:
            raise AssertionError(f"cell {c} bucketed under the wrong block")
        g = bucket.slot[c] - bucket.span
        if g != compute_gain(h, p, c):
            raise AssertionError(f"cell {c}: filed gain {g} is stale")
