"""Gain bookkeeping for move-based passes.

Gains live in [-P, +P] where P is the maximum cell degree, so each block
keeps an array of cell slots indexed by gain plus a pointer to the highest
occupied index. A pass's whole state is the two buckets: a cell's slot in
the bucket of its block is the only record of its gain, and a cell is
locked exactly when no bucket holds it.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Optional, Sequence

from .hypergraph import B1, B2, Hypergraph, Partition

TIE_POLICIES = ("random", "fifo", "lifo")

_NONE = -1


class GainBucket:
    """Cells of one block filed by gain, with a max pointer.

    A bucket keeps only the structure its tie policy reads, chosen when it
    is built:

    - ``lifo`` and ``fifo``: a circular doubly linked chain per slot in
      intrusive arrays, closed by one sentinel entry per slot after the
      cells, so links never branch on an end. New cells are pushed at the
      head, so head order is most-recent-first; lifo picks the head and
      fifo the tail.
    - ``random``: an unordered array per slot (a bag) with swap-removal and
      a per-cell position, so a uniform pick costs O(1) instead of a chain
      walk; passes would otherwise go quadratic.

    Chain order depends only on chain operations and bag order only on bag
    operations, so either structure alone orders its cells exactly as a
    bucket keeping both would. Insert, remove and relocate are O(1); the
    max pointer falls back by linear scan when its slot drains. `select`
    and `iter_descending` order ties by the policy the bucket was built for.
    """

    __slots__ = (
        "span", "policy", "chained", "slot", "size", "max_slot",
        "anchor", "nxt", "prv", "bags", "bag_pos",
    )

    def __init__(self, cell_count: int, span: int, policy: str):
        if policy not in TIE_POLICIES:
            raise ValueError(f"unknown tie policy {policy!r}")
        self.span = span
        self.policy = policy
        self.chained = policy != "random"
        width = 2 * span + 1
        self.slot = [_NONE] * cell_count
        self.size = 0
        self.max_slot = _NONE
        if self.chained:
            # slot k's sentinel is entry anchor + k; an empty slot links to itself
            self.anchor = cell_count
            self.nxt = [_NONE] * cell_count + list(range(cell_count, cell_count + width))
            self.prv = list(self.nxt)
            self.bags = self.bag_pos = None
        else:
            self.bags: list[list[int]] = [[] for _ in range(width)]
            self.bag_pos = [_NONE] * cell_count
            self.anchor = self.nxt = self.prv = None

    def __contains__(self, cell: int) -> bool:
        return self.slot[cell] != _NONE

    def _top_from(self, slot: int) -> int:
        """The highest nonempty slot at or below slot, or -1."""
        if self.chained:
            nxt = self.nxt
            s = self.anchor + slot
            while slot >= 0 and nxt[s] == s:
                slot -= 1
                s -= 1
        else:
            bags = self.bags
            while slot >= 0 and not bags[slot]:
                slot -= 1
        return slot

    def fill(self, cells: Sequence[int], gains: Iterable[int]) -> None:
        """Insert cells[i] at gains[i] for each i in turn: at the head of its
        slot's chain or at the end of its slot's bag."""
        span = self.span
        slot = self.slot
        top = self.max_slot
        if self.chained:
            nxt = self.nxt
            prv = self.prv
            anchor = self.anchor
            for c, g in zip(cells, gains):
                k = g + span
                s = anchor + k
                head = nxt[s]
                nxt[c] = head
                prv[c] = s
                prv[head] = c
                nxt[s] = c
                slot[c] = k
                if k > top:
                    top = k
        else:
            bags = self.bags
            bag_pos = self.bag_pos
            for c, g in zip(cells, gains):
                k = g + span
                bag = bags[k]
                bag_pos[c] = len(bag)
                bag.append(c)
                slot[c] = k
                if k > top:
                    top = k
        self.size += len(cells)
        self.max_slot = top

    def remove(self, cell: int) -> None:
        slot = self.slot[cell]
        if slot == _NONE:
            raise ValueError(f"cell {cell} not in bucket")
        if self.chained:
            n, p = self.nxt[cell], self.prv[cell]
            self.nxt[p] = n
            self.prv[n] = p
            drained = n == p
        else:
            bag = self.bags[slot]
            pos = self.bag_pos[cell]
            last = bag.pop()
            if last != cell:
                bag[pos] = last
                self.bag_pos[last] = pos
            self.bag_pos[cell] = _NONE
            drained = not bag
        self.slot[cell] = _NONE
        self.size -= 1
        if drained and slot == self.max_slot:
            self.max_slot = self._top_from(slot - 1)

    def relocate(self, cell: int, gain: int) -> None:
        """Move a bucketed cell to the slot of gain, as remove then insert
        would, in one body: the cell enters the new slot at the chain head
        or at the end of the bag."""
        slot = self.slot
        old = slot[cell]
        if old == _NONE:
            raise ValueError(f"cell {cell} not in bucket")
        new = gain + self.span
        if self.chained:
            nxt = self.nxt
            prv = self.prv
            n = nxt[cell]
            p = prv[cell]
            nxt[p] = n
            prv[n] = p
            # both neighbours are the old slot's sentinel only if it drained
            drained = n == p
            s = self.anchor + new
            head = nxt[s]
            nxt[cell] = head
            prv[cell] = s
            prv[head] = cell
            nxt[s] = cell
        else:
            bags = self.bags
            bag_pos = self.bag_pos
            bag = bags[old]
            last = bag.pop()
            if last != cell:
                pos = bag_pos[cell]
                bag[pos] = last
                bag_pos[last] = pos
            drained = not bag
            bag = bags[new]
            bag_pos[cell] = len(bag)
            bag.append(cell)
        slot[cell] = new
        top = self.max_slot
        if new > top:
            self.max_slot = new
        elif drained and new < old == top:
            # the cell moved down out of the max slot; the scan stops at new
            self.max_slot = self._top_from(old - 1)

    def max_gain(self) -> Optional[int]:
        return None if self.max_slot == _NONE else self.max_slot - self.span

    def iter_descending(self, rng: Optional[random.Random] = None) -> Iterator[tuple[int, int]]:
        """All (cell, gain) pairs, highest gain slot first, produced on demand.

        Within a slot the order follows the tie policy, so the first cell is
        the one `select` would pick: lifo walks the chain from the head,
        fifo from the tail, and random starts at a uniform position in the
        slot's bag, drawn from rng on entering the slot, and wraps around.
        Empty slots are skipped, so k cells cost O(k + gain span).
        """
        if self.chained:
            link = self.prv if self.policy == "fifo" else self.nxt
            base = self.anchor + self.span
            for end in range(self.anchor + self.max_slot, self.anchor - 1, -1):
                g = end - base
                c = link[end]
                while c != end:
                    yield c, g
                    c = link[c]
            return
        if rng is None:
            raise ValueError("random tie policy needs an rng")
        bags = self.bags
        for slot in range(self.max_slot, -1, -1):
            bag = bags[slot]
            n = len(bag)
            if not n:
                continue
            g = slot - self.span
            k = rng.randrange(n)
            for i in range(k, k + n):
                yield bag[i - n if i >= n else i], g

    def select(self, rng: Optional[random.Random] = None) -> Optional[int]:
        """One cell from the max slot in tie-policy order, or None when the
        bucket is empty; only the random policy draws from rng."""
        if self.size == 0:
            return None
        if self.chained:
            link = self.prv if self.policy == "fifo" else self.nxt
            return link[self.anchor + self.max_slot]
        if rng is None:
            raise ValueError("random tie policy needs an rng")
        bag = self.bags[self.max_slot]
        return bag[rng.randrange(len(bag))]

    def audit(self) -> None:
        """Full-scan structural check; raises AssertionError on a broken invariant."""
        seen = 0
        top = _NONE
        for slot in range(2 * self.span + 1):
            if self.chained:
                members = []
                end = self.anchor + slot
                prev = end
                c = self.nxt[end]
                while c != end:
                    if not 0 <= c < self.anchor or len(members) > self.size:
                        raise AssertionError(f"slot {slot}: chain leaves its cells")
                    if self.slot[c] != slot:
                        raise AssertionError(f"cell {c}: slot record disagrees with chain")
                    if self.prv[c] != prev:
                        raise AssertionError(f"cell {c}: broken prev link")
                    members.append(c)
                    prev = c
                    c = self.nxt[c]
                if self.prv[end] != prev:
                    raise AssertionError(f"slot {slot}: broken tail link")
            else:
                members = self.bags[slot]
                for pos, cell in enumerate(members):
                    if self.slot[cell] != slot:
                        raise AssertionError(f"cell {cell}: slot record disagrees with bag")
                    if self.bag_pos[cell] != pos:
                        raise AssertionError(f"cell {cell}: stale bag position")
            if members:
                top = slot
            seen += len(members)
        if seen != self.size:
            raise AssertionError("bucket size disagrees with slot contents")
        if sum(1 for s in self.slot if s != _NONE) != self.size:
            raise AssertionError("slot records disagree with bucket size")
        if self.max_slot != top:
            raise AssertionError("max pointer is not the highest nonempty slot")


Buckets = tuple[GainBucket, GainBucket]


def compute_gain(h: Hypergraph, p: Partition, c: int) -> int:
    """Exact cut reduction if cell c alone moved to the other block.

    Counts nets where c is the lone pin on its side, minus nets lying
    entirely in c's block. Single-pin nets cancel to zero.
    """
    f = p.side[c]
    t = 1 - f
    occ_of = p.net_occupancy
    g = 0
    for n in h.cell_nets[c]:
        occ = occ_of[n]
        if occ[f] == 1:
            g += 1
        if occ[t] == 0:
            g -= 1
    return g


def init(h: Hypergraph, p: Partition, tie_policy: str) -> Buckets:
    """Compute all gains and file every cell in the bucket of its block,
    both built for tie_policy (see GainBucket); the pair is the pass state.

    All gains come from one sweep over the nets, as `compute_gain` would give
    them: an uncut net with two or more pins lowers each of its pins, and in
    a cut net the lone pin of a side holding one pin gains one.
    """
    n = h.cell_count
    span = h.max_cell_degree
    buckets = (GainBucket(n, span, tie_policy), GainBucket(n, span, tie_policy))
    gain = [0] * n
    side = p.side
    for pins, (a, b) in zip(h.nets, p.net_occupancy):
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


def move_and_update(buckets: Buckets, h: Hypergraph, p: Partition, c: int) -> int:
    """Lock c, move it, adjust unlocked neighbor gains in place, and return
    c's gain.

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
    slot_f = bucket_f.slot
    slot_t = buckets[t].slot
    if slot_f[c] == _NONE:
        raise ValueError(f"cell {c} is locked")
    span = bucket_f.span
    gain = slot_f[c] - span
    bucket_f.remove(c)
    # slot k files gain k - span, and an unfiled cell's slot is -1
    up = 1 - span
    down = -1 - span
    relocate_f = bucket_f.relocate
    relocate_t = buckets[t].relocate
    nets = h.cell_nets[c]
    pins_of = h.nets
    occ_of = p.net_occupancy
    for n in nets:
        tc = occ_of[n][t]
        if tc == 0:
            for x in pins_of[n]:
                k = slot_f[x]
                if k >= 0:
                    relocate_f(x, k + up)
        elif tc == 1:
            for x in pins_of[n]:
                if side[x] == t:
                    k = slot_t[x]
                    if k >= 0:
                        relocate_t(x, k + down)
                    break
    side[c] = t
    sizes = p.block_size
    sizes[f] -= 1
    sizes[t] += 1
    p.cut_count -= gain
    for n in nets:
        occ = occ_of[n]
        fc = occ[f] - 1
        occ[f] = fc
        occ[t] += 1
        if fc == 0:
            for x in pins_of[n]:
                k = slot_t[x]
                if k >= 0:
                    relocate_t(x, k + down)
        elif fc == 1:
            for x in pins_of[n]:
                if side[x] == f:
                    k = slot_f[x]
                    if k >= 0:
                        relocate_f(x, k + up)
                    break
    return gain


def select_max(buckets: Buckets, block: int, rng: Optional[random.Random] = None) -> Optional[int]:
    """An unlocked cell at the block's max gain index, picked by the tie
    policy of the buckets, or None if none remain."""
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
