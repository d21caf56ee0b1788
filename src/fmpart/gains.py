"""Gain bookkeeping for move-based passes.

Gains live in [-P, +P] where P is the maximum cell degree, so each block
keeps an array of doubly linked cell lists indexed by gain plus a pointer
to the highest occupied index.
"""

from __future__ import annotations

import random
from typing import Optional

from .hypergraph import B1, B2, Hypergraph, Partition, apply_move

TIE_POLICIES = ("random", "fifo", "lifo")

_NONE = -1


class GainBucket:
    """Doubly linked cell lists per gain value with a max pointer.

    Links are intrusive arrays, so insert, remove and relocation are O(1);
    the max pointer only falls back by linear scan when its slot drains.
    New cells are pushed at the head, so head order is most-recent-first.
    Each slot also mirrors its cells in an unordered array (swap-removal,
    per-cell position), so a uniform random pick costs O(1) instead of a
    chain walk; passes would otherwise go quadratic under the default
    random tie policy.
    """

    __slots__ = (
        "span", "heads", "tails", "nxt", "prv", "slot",
        "bags", "bag_pos", "size", "max_slot",
    )

    def __init__(self, cell_count: int, span: int):
        self.span = span
        width = 2 * span + 1
        self.heads = [_NONE] * width
        self.tails = [_NONE] * width
        self.nxt = [_NONE] * cell_count
        self.prv = [_NONE] * cell_count
        self.slot = [_NONE] * cell_count
        self.bags: list[list[int]] = [[] for _ in range(width)]
        self.bag_pos = [_NONE] * cell_count
        self.size = 0
        self.max_slot = _NONE

    def __contains__(self, cell: int) -> bool:
        return self.slot[cell] != _NONE

    def insert(self, cell: int, gain: int) -> None:
        slot = gain + self.span
        head = self.heads[slot]
        self.nxt[cell] = head
        self.prv[cell] = _NONE
        if head != _NONE:
            self.prv[head] = cell
        else:
            self.tails[slot] = cell
        self.heads[slot] = cell
        self.slot[cell] = slot
        bag = self.bags[slot]
        self.bag_pos[cell] = len(bag)
        bag.append(cell)
        self.size += 1
        if slot > self.max_slot:
            self.max_slot = slot

    def remove(self, cell: int) -> None:
        slot = self.slot[cell]
        if slot == _NONE:
            raise ValueError(f"cell {cell} not in bucket")
        n, p = self.nxt[cell], self.prv[cell]
        if p != _NONE:
            self.nxt[p] = n
        else:
            self.heads[slot] = n
        if n != _NONE:
            self.prv[n] = p
        else:
            self.tails[slot] = p
        self.slot[cell] = _NONE
        bag = self.bags[slot]
        pos = self.bag_pos[cell]
        last = bag.pop()
        if last != cell:
            bag[pos] = last
            self.bag_pos[last] = pos
        self.bag_pos[cell] = _NONE
        self.size -= 1
        if self.size == 0:
            self.max_slot = _NONE
        elif slot == self.max_slot and not bag:
            s = slot
            while s >= 0 and not self.bags[s]:
                s -= 1
            self.max_slot = s

    def relocate(self, cell: int, gain: int) -> None:
        self.remove(cell)
        self.insert(cell, gain)

    def max_gain(self) -> Optional[int]:
        return None if self.size == 0 else self.max_slot - self.span

    def iter_descending(self, policy: str = "lifo", rng: Optional[random.Random] = None):
        """All cells, highest gain slot first, produced on demand.

        Within a slot the order follows the tie policy, so the first cell is
        the one `select` would pick: lifo walks the chain from the head,
        fifo from the tail, and random starts at a uniform position in the
        slot's bag, drawn from rng on entering the slot, and wraps around.
        Empty slots are skipped, so k cells cost O(k + gain span).
        """
        if policy not in TIE_POLICIES:
            raise ValueError(f"unknown tie policy {policy!r}")
        if policy == "random" and rng is None:
            raise ValueError("random tie policy needs an rng")
        first, link = (self.tails, self.prv) if policy == "fifo" else (self.heads, self.nxt)
        for slot in range(self.max_slot, -1, -1):
            bag = self.bags[slot]
            n = len(bag)
            if not n:
                continue
            if policy == "random":
                k = rng.randrange(n)
                for i in range(k, k + n):
                    yield bag[i - n if i >= n else i]
            else:
                c = first[slot]
                for _ in range(n):
                    yield c
                    c = link[c]

    def select(self, policy: str, rng: Optional[random.Random]) -> Optional[int]:
        """One cell from the max slot, or None when the bucket is empty."""
        if self.size == 0:
            return None
        slot = self.max_slot
        if policy == "lifo":
            return self.heads[slot]
        if policy == "fifo":
            return self.tails[slot]
        if policy == "random":
            if rng is None:
                raise ValueError("random tie policy needs an rng")
            bag = self.bags[slot]
            return bag[rng.randrange(len(bag))]
        raise ValueError(f"unknown tie policy {policy!r}")

    def audit(self) -> None:
        """Full-scan structural check; raises AssertionError on a broken invariant."""
        seen = 0
        top = _NONE
        for slot, head in enumerate(self.heads):
            members = []
            prev = _NONE
            c = head
            while c != _NONE:
                if self.slot[c] != slot:
                    raise AssertionError(f"cell {c}: slot record disagrees with chain")
                if self.prv[c] != prev:
                    raise AssertionError(f"cell {c}: broken prev link")
                members.append(c)
                prev = c
                c = self.nxt[c]
            if self.tails[slot] != prev:
                raise AssertionError(f"slot {slot}: broken tail pointer")
            bag = self.bags[slot]
            if sorted(bag) != sorted(members):
                raise AssertionError(f"slot {slot}: bag and chain disagree")
            for pos, cell in enumerate(bag):
                if self.bag_pos[cell] != pos:
                    raise AssertionError(f"cell {cell}: stale bag position")
            if members:
                top = slot
            seen += len(members)
        if seen != self.size:
            raise AssertionError("bucket size disagrees with chain contents")
        if self.max_slot != top:
            raise AssertionError("max pointer is not the highest nonempty slot")


class GainState:
    """Per-cell gains, lock flags, and one bucket per block for unlocked cells."""

    __slots__ = ("gain", "locked", "buckets")

    def __init__(self, gain: list[int], locked: list[bool], buckets: tuple[GainBucket, GainBucket]):
        self.gain = gain
        self.locked = locked
        self.buckets = buckets


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


def init(h: Hypergraph, p: Partition) -> GainState:
    """Unlock every cell, compute all gains, and fill both buckets."""
    span = h.max_cell_degree
    buckets = (GainBucket(h.cell_count, span), GainBucket(h.cell_count, span))
    gain = [0] * h.cell_count
    locked = [False] * h.cell_count
    for c in range(h.cell_count):
        g = compute_gain(h, p, c)
        gain[c] = g
        buckets[p.side[c]].insert(c, g)
    return GainState(gain, locked, buckets)


def move_and_update(state: GainState, h: Hypergraph, p: Partition, c: int) -> None:
    """Lock c, move it, and adjust unlocked neighbor gains in place.

    For each net of c, with F the departing block and T the receiving one:
    before the pin transfer, a T-count of 0 raises every unlocked pin and a
    T-count of 1 lowers the lone T-side pin; after the transfer, an F-count
    of 0 lowers every unlocked pin and an F-count of 1 raises the lone
    F-side pin. Locked cells keep stale gains; selection never reads them.
    """
    if state.locked[c]:
        raise ValueError(f"cell {c} is locked")
    gain = state.gain
    locked = state.locked
    buckets = state.buckets
    side = p.side
    f = side[c]
    t = 1 - f
    locked[c] = True
    buckets[f].remove(c)
    nets = h.cell_nets[c]
    pins_of = h.nets
    occ_of = p.net_occupancy
    for n in nets:
        tc = occ_of[n][t]
        if tc == 0:
            for x in pins_of[n]:
                if not locked[x]:
                    g = gain[x] + 1
                    gain[x] = g
                    buckets[side[x]].relocate(x, g)
        elif tc == 1:
            for x in pins_of[n]:
                if side[x] == t:
                    if not locked[x]:
                        g = gain[x] - 1
                        gain[x] = g
                        buckets[t].relocate(x, g)
                    break
    apply_move(p, h, c)
    for n in nets:
        fc = occ_of[n][f]
        if fc == 0:
            for x in pins_of[n]:
                if not locked[x]:
                    g = gain[x] - 1
                    gain[x] = g
                    buckets[side[x]].relocate(x, g)
        elif fc == 1:
            for x in pins_of[n]:
                if side[x] == f:
                    if not locked[x]:
                        g = gain[x] + 1
                        gain[x] = g
                        buckets[f].relocate(x, g)
                    break


def select_max(
    state: GainState,
    block: int,
    tie_policy: str = "random",
    rng: Optional[random.Random] = None,
) -> Optional[int]:
    """An unlocked cell at the block's max gain index, or None if none remain."""
    return state.buckets[block].select(tie_policy, rng)


def audit(state: GainState, h: Hypergraph, p: Partition) -> None:
    """Cross-check stored gains and bucket structure against first principles."""
    span = h.max_cell_degree
    for b in (B1, B2):
        state.buckets[b].audit()
    for c in range(h.cell_count):
        in1 = c in state.buckets[B1]
        in2 = c in state.buckets[B2]
        if state.locked[c]:
            if in1 or in2:
                raise AssertionError(f"locked cell {c} still bucketed")
            continue
        if in1 == in2:
            raise AssertionError(f"cell {c} must sit in exactly one bucket")
        b = B1 if in1 else B2
        if b != p.side[c]:
            raise AssertionError(f"cell {c} bucketed under the wrong block")
        g = state.gain[c]
        if abs(g) > span:
            raise AssertionError(f"cell {c}: gain {g} exceeds degree bound {span}")
        if g != compute_gain(h, p, c):
            raise AssertionError(f"cell {c}: stored gain {g} is stale")
        if state.buckets[b].slot[c] != g + span:
            raise AssertionError(f"cell {c} filed under the wrong gain index")
