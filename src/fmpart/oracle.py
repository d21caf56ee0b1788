"""Ground truth: exact balanced min-cut and from-scratch cut deltas.

Everything here counts cuts from the pin lists alone and never touches
the incremental bookkeeping it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .hypergraph import Hypergraph, Partition, cut_count

if TYPE_CHECKING:
    import numpy as np

MAX_ORACLE_CELLS = 24

# Multiply-adds per matrix product, at most. OpenBLAS 0.3.31 runs products
# up to about 2**19 on the calling thread and hands larger ones to worker
# threads, whose wake-up took up to 8 ms on a 2-core VM, against 0.15 ms for
# a whole 462 x 252 x 88 block on one thread. So large blocks are
# multiplied a range of rows at a time.
_PRODUCT_SIZE = 1 << 18


@dataclass(frozen=True)
class OracleResult:
    optimum_cut: int
    witness: Partition


def _count_dtype(nets: int) -> type:
    """The float type whose dot products of 0/1 columns count `nets` exactly.

    Every partial sum of an uncut count is an integer no larger than the
    number of nets, and float32 holds each integer below 2**24 exactly, in
    any summation order; beyond that float64 (exact below 2**53) is used.
    """
    import numpy as np

    return np.float32 if nets < 1 << 24 else np.float64


def _indicators(bits: int, shift: int, masks: np.ndarray, targets: np.ndarray, dtype: type):
    """0/1 matrix of one half of the mask, rows grouped by popcount.

    Row r stands for the `bits`-wide half value order[r]. Its column j is 1
    when that value's bits under net column j's mask equal the column's
    target. Rows are sorted by popcount, then by value, and the rows with
    popcount a are start[a]:start[a + 1].
    """
    import numpy as np

    half = (1 << bits) - 1
    values = np.arange(1 << bits, dtype=np.int64)
    table = (values[:, None] & ((masks >> shift) & half)) == ((targets >> shift) & half)
    popcount = np.zeros(1, dtype=np.int64)
    for _ in range(bits):
        popcount = np.concatenate((popcount, popcount + 1))
    order = np.argsort(popcount, kind="stable")
    start = np.concatenate(([0], np.cumsum(np.bincount(popcount, minlength=bits + 1))))
    return table[order].astype(dtype), order, start


def exact_min_cut_balanced(h: Hypergraph, balance: str = "off_by_one") -> OracleResult:
    """Exact minimum over all bipartitions whose block sizes differ by at
    most one (equal halves on an even cell count); balance must name that
    rule, "off_by_one". Cell 0 is pinned to the first block,
    which halves the search space without losing optima since the cut is
    symmetric under block relabeling; the returned witness is the
    lexicographically first optimal side vector.

    Each free cell is one bit of a mask, split into a high and a low half.
    A net with two or more pins is uncut exactly when all its pins are on
    one block, and each of those two events is a test on the high half
    times a test on the low half. So the uncut counts of all masks form one
    product of two 0/1 matrices, and only the blocks of (high, low)
    popcounts that give a balanced partition are multiplied.
    """
    n = h.cell_count
    if n > MAX_ORACLE_CELLS:
        raise ValueError(f"instance too large for enumeration ({n} > {MAX_ORACLE_CELLS} cells)")
    if balance != "off_by_one":
        raise ValueError(f"unknown balance constraint {balance!r}")
    if n == 0:
        return OracleResult(0, Partition.from_sides(h, []))
    import numpy as np

    # cell i >= 1 occupies bit (n-1-i), set when it is on B2, and cell 0 is
    # pinned to B1, so ascending mask order is lexicographic order of the
    # side vector; the mask is (hi << lo_bits) | lo
    lo_bits = (n - 1) // 2
    hi_bits = n - 1 - lo_bits
    masks = []
    targets = []  # the pins' bits when the net is uncut: all on B1, or all on B2
    nets = 0
    for pins in h.nets:
        if len(pins) < 2:
            continue
        nets += 1
        mask = 0
        for c in pins:
            if c:
                mask |= 1 << (n - 1 - c)
        masks.append(mask)
        targets.append(0)
        if pins[0] != 0:  # a net on cell 0 is never all on B2
            masks.append(mask)
            targets.append(mask)
    masks = np.array(masks, dtype=np.int64)
    targets = np.array(targets, dtype=np.int64)
    dtype = _count_dtype(nets)
    hi, hi_order, hi_start = _indicators(hi_bits, lo_bits, masks, targets, dtype)
    lo, lo_order, lo_start = _indicators(lo_bits, 0, masks, targets, dtype)

    best = None  # (cut, mask)
    # B2 sizes allowed: n/2 for even n, either side of it for odd n
    for size in sorted({n // 2, (n + 1) // 2}):
        for a in range(max(0, size - lo_bits), min(hi_bits, size) + 1):
            b = size - a
            cols = lo[lo_start[b] : lo_start[b + 1]].T
            step = max(1, _PRODUCT_SIZE // max(cols.size, 1))
            for r0 in range(hi_start[a], hi_start[a + 1], step):
                uncut = hi[r0 : min(r0 + step, hi_start[a + 1])] @ cols
                i = int(uncut.argmax())  # first in row order keeps the smallest mask
                r, col = divmod(i, uncut.shape[1])
                mask = (int(hi_order[r0 + r]) << lo_bits) | int(lo_order[lo_start[b] + col])
                found = (nets - int(uncut.flat[i]), mask)
                if best is None or found < best:
                    best = found

    best_cut, best_mask = best
    side = [0] * n
    for c in range(1, n):
        side[c] = (best_mask >> (n - 1 - c)) & 1
    return OracleResult(best_cut, Partition.from_sides(h, side))


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
