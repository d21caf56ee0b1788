"""Hypergraph pin structure and mutable bipartition state with exact cut accounting.

Cells are dense integer ids. A net is the set of cells sharing one signal,
stored as a sorted tuple. Blocks are the two integers B1 = 0 and B2 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

B1 = 0
B2 = 1


@dataclass(frozen=True)
class Hypergraph:
    """Immutable pin structure; safe to share between runs and threads.

    Stores the pins of each net and the nets of each cell; every size is
    read off these two tables. `max_cell_degree` scans the cell table once
    per graph and keeps the result outside the fields, so equality, hashing
    and `dataclasses.replace` see only the two tables."""

    nets: tuple[tuple[int, ...], ...]
    cell_nets: tuple[tuple[int, ...], ...]

    @property
    def cell_count(self) -> int:
        return len(self.cell_nets)

    @cached_property
    def max_cell_degree(self) -> int:
        return max(map(len, self.cell_nets), default=0)

    @property
    def net_count(self) -> int:
        return len(self.nets)

    @property
    def pin_count(self) -> int:
        return sum(len(pins) for pins in self.nets)


def build(net_pin_lists: Iterable[Sequence[int]], cell_count: int) -> Hypergraph:
    """Assemble a hypergraph from per-net pin lists.

    Pins are sorted within each net. Empty and single-pin nets are retained
    but can never be cut. A net listing the same cell twice is rejected;
    parsers that tolerate duplicate pins must deduplicate before building.
    """
    if cell_count < 0:
        raise ValueError("cell_count must be nonnegative")
    nets = []
    cell_nets: list[list[int]] = [[] for _ in range(cell_count)]
    for net_id, raw in enumerate(net_pin_lists):
        pins = sorted(raw)
        for i, c in enumerate(pins):
            if not 0 <= c < cell_count:
                raise ValueError(f"net {net_id}: cell id {c} out of range 0..{cell_count - 1}")
            if i and pins[i - 1] == c:
                raise ValueError(f"net {net_id}: duplicate pin {c}")
            cell_nets[c].append(net_id)
        nets.append(tuple(pins))
    return Hypergraph(tuple(nets), tuple(tuple(ns) for ns in cell_nets))


@dataclass
class Partition:
    """Mutable block assignment: the side of each cell, per-net pin counts
    and a maintained cut count.

    counts[b][n] is the number of pins of net n on block b: one flat list per
    block, so a move indexes two lists and flipping every cell swaps them.
    Block sizes are not stored; `side.count(b)` gives them.

    Single-writer state: a partition belongs to one run at a time, though it
    may be handed to another thread between runs.
    """

    side: list[int]
    counts: list[list[int]]
    cut_count: int

    @classmethod
    def from_sides(cls, h: Hypergraph, sides: Iterable[int]) -> "Partition":
        side = list(sides)
        if len(side) != h.cell_count:
            raise ValueError(f"expected {h.cell_count} side entries, got {len(side)}")
        if any(s not in (B1, B2) for s in side):
            raise ValueError("side entries must be 0 or 1")
        on_b2 = side.__getitem__
        on_2 = [sum(map(on_b2, pins)) for pins in h.nets]  # B1 is 0 and B2 is 1
        on_1 = [len(pins) - b for pins, b in zip(h.nets, on_2)]
        cut = sum(1 for a, b in zip(on_1, on_2) if a and b)
        return cls(side, [on_1, on_2], cut)

    def clone(self) -> "Partition":
        on_1, on_2 = self.counts
        return Partition(list(self.side), [list(on_1), list(on_2)], self.cut_count)


def cut_count(h: Hypergraph, side: Sequence[int]) -> int:
    """Number of nets with pins in both blocks, recomputed from a side vector."""
    total = 0
    for pins in h.nets:
        if len(pins) < 2:
            continue
        first = side[pins[0]]
        for c in pins[1:]:
            if side[c] != first:
                total += 1
                break
    return total


def apply_move(p: Partition, h: Hypergraph, c: int) -> None:
    """Flip c's block, updating its side, pin counts and cut in O(degree of c)."""
    f = p.side[c]
    t = 1 - f
    p.side[c] = t
    count_f = p.counts[f]
    count_t = p.counts[t]
    delta = 0
    for n in h.cell_nets[c]:
        # with c still counted on f: cut before iff b > 0, after iff a > 1
        a = count_f[n]
        b = count_t[n]
        if b == 0:
            if a > 1:
                delta += 1
        elif a == 1:
            delta -= 1
        count_f[n] = a - 1
        count_t[n] = b + 1
    p.cut_count += delta
