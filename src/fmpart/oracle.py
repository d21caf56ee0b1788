"""Brute-force ground truth: exact balanced min-cut and from-scratch cut deltas.

Everything here recounts cuts from the side vector alone and never touches
the incremental bookkeeping it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph, Partition, cut_count

MAX_ORACLE_CELLS = 24

_POPCOUNT16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)
_CHUNK = 1 << 20


@dataclass(frozen=True)
class OracleResult:
    optimum_cut: int
    witness: Partition


def exact_min_cut_balanced(h: Hypergraph, balance: str = "off_by_one") -> OracleResult:
    """Exhaustive minimum over all bipartitions meeting the balance constraint.

    balance is "exact_halves" (even cell counts only) or "off_by_one"
    (sizes differ by at most one). Cell 0 is pinned to the first block,
    which halves the search space without losing optima since the cut is
    symmetric under block relabeling; masks are enumerated so that the
    returned witness is the lexicographically first optimal side vector.
    """
    n = h.cell_count
    if n > MAX_ORACLE_CELLS:
        raise ValueError(f"instance too large for enumeration ({n} > {MAX_ORACLE_CELLS} cells)")
    if balance not in ("exact_halves", "off_by_one"):
        raise ValueError(f"unknown balance constraint {balance!r}")
    if balance == "exact_halves" and n % 2:
        raise ValueError("exact_halves needs an even cell count")
    if n == 0:
        return OracleResult(0, Partition.from_sides(h, []))

    # cell i occupies bit (n-1-i); cell 0 is pinned, so ascending mask order
    # is lexicographic order of the side vector
    net_specs = []
    for pins in h.nets:
        if len(pins) < 2:
            continue
        mask = 0
        has_pinned = False
        for c in pins:
            if c == 0:
                has_pinned = True
            else:
                mask |= 1 << (n - 1 - c)
        net_specs.append((np.uint32(mask), has_pinned))

    best_cut = None
    best_mask = 0
    total = 1 << (n - 1)
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        masks = np.arange(start, stop, dtype=np.uint32)
        pop = (_POPCOUNT16[masks & 0xFFFF] + _POPCOUNT16[masks >> 16]).astype(np.int32)
        if balance == "exact_halves":
            ok = pop == n // 2
        else:
            ok = np.abs(n - 2 * pop) <= 1
        masks = masks[ok]
        if masks.size == 0:
            continue
        cuts = np.zeros(masks.size, dtype=np.int32)
        for mask, has_pinned in net_specs:
            sub = masks & mask
            if has_pinned:
                cuts += sub != 0
            else:
                cuts += (sub != 0) & (sub != mask)
        i = int(np.argmin(cuts))  # first occurrence keeps the earliest mask
        c = int(cuts[i])
        if best_cut is None or c < best_cut:
            best_cut = c
            best_mask = int(masks[i])

    side = [0] * n
    for c in range(1, n):
        side[c] = (best_mask >> (n - 1 - c)) & 1
    return OracleResult(int(best_cut), Partition.from_sides(h, side))


def delta_cut_move(h: Hypergraph, p: Partition, c: int) -> int:
    """cut(p) - cut(p with c flipped), by two full recounts."""
    side = list(p.side)
    before = cut_count(h, side)
    side[c] ^= 1
    return before - cut_count(h, side)


def delta_cut_swap(h: Hypergraph, p: Partition, u: int, v: int) -> int:
    """cut(p) - cut(p with u and v both flipped), by two full recounts."""
    if p.side[u] == p.side[v]:
        raise ValueError("swap endpoints share a block")
    side = list(p.side)
    before = cut_count(h, side)
    side[u] ^= 1
    side[v] ^= 1
    return before - cut_count(h, side)
