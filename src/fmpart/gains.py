"""Gain bookkeeping for move-based passes.

Gains live in [-P, +P] where P is the maximum cell degree, so each block
keeps an array of cell slots indexed by gain plus a pointer to the highest
occupied index. A pass's whole state is the two buckets: a cell's slot in
the bucket of its block is the only record of its gain, and a cell is
locked exactly when no bucket holds it. `init` fills them and binds the
pass's move: one `GainBucket` operation per call for lifo and fifo, and for
bags (the default `random` tie policy) the same operations written inline
over their lists.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from functools import partial
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

    During a pass the buckets are driven through the move that `init` binds
    (see `Buckets`). For lifo and fifo it calls `remove` and `relocate`
    (`move_by_operations`). For bags it does the removal and every
    relocation inline, in the order those calls would, and writes
    `max_slot` back after each move, so the methods here see an exact
    bucket between moves.
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


class Buckets(tuple):
    """The state of one pass: B1's and B2's `GainBucket`, in that order, with
    a move bound by `init` to the buckets' arrays and to the graph and
    partition the buckets were filled from."""

    move: Callable[[int], int]


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
    both built for tie_policy (see GainBucket), then bind the pass's move
    to the pair, which is the pass state: `move_by_operations` for lifo and
    fifo, and for bags the inlined move of `_bind_bags`.

    All gains come from one sweep over the nets, as `compute_gain` would give
    them: an uncut net with two or more pins lowers each of its pins, and in
    a cut net the lone pin of a side holding one pin gains one.
    """
    n = h.cell_count
    span = h.max_cell_degree
    buckets = Buckets((GainBucket(n, span, tie_policy), GainBucket(n, span, tie_policy)))
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
    if buckets[B1].order is not None:
        # over a plain pair, so the bound move holds no reference to buckets
        buckets.move = partial(move_by_operations, tuple(buckets), h, p)
    else:
        _bind_bags(buckets, h, p)
    return buckets


def move_by_operations(buckets: Sequence[GainBucket], h: Hypergraph, p: Partition, c: int) -> int:
    """The move `move_and_update` describes, one bucket operation per call:
    `GainBucket.remove` for c, then a `GainBucket.relocate` for each
    neighbor update, in the order the rule makes them. `init` binds it for
    lifo and fifo, and `_bind_bags` writes the same operations inline."""
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


def _bind_bags(buckets: Buckets, h: Hypergraph, p: Partition) -> None:
    """Bind the move for bagged buckets (random), the one move written out
    in place: it does what `move_by_operations` does, with
    `GainBucket.remove` and `GainBucket.relocate` inline in the order the
    calls would make them, and tracks both max slots in locals. A gain
    moves by one slot at a time, so a rise can only lift the max slot, and
    a fall that drains the max slot leaves the slot below it on top. A
    swap-removal that leaves its bag nonempty cannot have drained it, so
    only a cell that was last in its bag checks the max."""
    span = buckets[B1].span
    arrays = tuple((b.slot, b.members, b.bag_pos, b) for b in buckets)
    side = p.side
    sizes = p.block_size
    counts = p.counts
    cell_nets = h.cell_nets
    pins_of = h.nets

    def move(c: int) -> int:
        f = side[c]
        t = 1 - f
        slot_f, bags_f, pos_f, bucket_f = arrays[f]
        slot_t, bags_t, pos_t, bucket_t = arrays[t]
        k = slot_f[c]
        if k < 0:
            raise ValueError(f"cell {c} is locked")
        top_f = bucket_f.max_slot
        bag = bags_f[k]
        last = bag.pop()
        if last != c:
            i = pos_f[c]
            bag[i] = last
            pos_f[last] = i
        slot_f[c] = _NONE
        if not bag and k == top_f:
            top_f = bucket_f._top_from(k - 1)
        top_t = bucket_t.max_slot
        count_f = counts[f]
        count_t = counts[t]
        nets = cell_nets[c]
        for e in nets:
            tc = count_t[e]
            if tc == 0:
                for x in pins_of[e]:
                    old = slot_f[x]
                    if old >= 0:
                        bag = bags_f[old]
                        last = bag.pop()
                        if last != x:
                            i = pos_f[x]
                            bag[i] = last
                            pos_f[last] = i
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
                                bag[i] = last
                                pos_t[last] = i
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
                        bag = bags_t[old]
                        last = bag.pop()
                        if last != x:
                            i = pos_t[x]
                            bag[i] = last
                            pos_t[last] = i
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
                                bag[i] = last
                                pos_f[last] = i
                            old += 1
                            bag = bags_f[old]
                            pos_f[x] = len(bag)
                            bag.append(x)
                            slot_f[x] = old
                            if old > top_f:
                                top_f = old
                        break
        bucket_f.max_slot = top_f
        bucket_t.max_slot = top_t
        return gain

    buckets.move = move


def move_and_update(buckets: Buckets, h: Hypergraph, p: Partition, c: int) -> int:
    """Lock c, move it, adjust unlocked neighbor gains in place, and return
    c's gain. The move works on the graph and partition `init` bound the
    buckets to; h and p name them only so the per-move signature that step
    hooks, tracers and test wrappers see stays that of an unbound move.

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
    unlocked until this call. The work is done by the move `init` bound:
    `move_by_operations` for lifo and fifo and `_bind_bags`'s inlined copy
    of it for bags.
    """
    return buckets.move(c)


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
