import itertools
import random

import numpy as np
import pytest

from conftest import C1, C4, C5, balanced_partition
from fmpart.hypergraph import B1, B2, Partition, apply_move, build, cut_count
from fmpart.oracle import (
    MAX_ORACLE_CELLS,
    OracleResult,
    _count_dtype,
    delta_cut_move,
    delta_cut_swap,
    exact_min_cut_balanced,
)
from fmpart.synth import random_hypergraph


def brute_force_minimum(h):
    """Pure-itertools reference, independent of the vectorized enumeration."""
    n = h.cell_count
    best = None
    best_side = None
    for bits in itertools.product((0, 1), repeat=n):
        sizes = (bits.count(0), bits.count(1))
        if abs(sizes[0] - sizes[1]) > 1:
            continue
        c = cut_count(h, bits)
        if best is None or c < best:
            best, best_side = c, bits
    return best, best_side


_POPCOUNT16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)
_CHUNK = 1 << 20


def chunked_enumeration(h):
    """The oracle's earlier form: every mask in chunks, cut counted per net.

    Kept as the reference for instances too large for itertools.
    """
    n = h.cell_count
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


class TestExactMinCut:
    def test_five_cell_optimum_is_one(self, h_star):
        res = exact_min_cut_balanced(h_star, "off_by_one")
        assert res.optimum_cut == 1
        assert res.witness.cut_count == 1
        assert abs(res.witness.side.count(B1) - res.witness.side.count(B2)) <= 1

    def test_disjoint_pairs_reach_zero(self, h4):
        res = exact_min_cut_balanced(h4, "off_by_one")
        assert res.optimum_cut == 0
        assert [res.witness.side.count(B1), res.witness.side.count(B2)] == [2, 2]

    def test_single_isolated_cell(self):
        h = build([], 1)
        assert exact_min_cut_balanced(h, "off_by_one").optimum_cut == 0

    def test_empty(self):
        h = build([], 0)
        assert exact_min_cut_balanced(h, "off_by_one").optimum_cut == 0

    def test_size_guard(self):
        h = build([], 25)
        with pytest.raises(ValueError, match="too large"):
            exact_min_cut_balanced(h, "off_by_one")

    def test_exact_halves_rejected(self, h4):
        # off_by_one is the one balance rule; on an even count it already
        # means equal halves
        with pytest.raises(ValueError, match="unknown balance constraint 'exact_halves'"):
            exact_min_cut_balanced(h4, "exact_halves")

    def test_matches_pure_python_enumeration(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 8)
            h = random_hypergraph(rng, n, rng.randint(0, 10), 1, 5)
            want, _ = brute_force_minimum(h)
            assert exact_min_cut_balanced(h, "off_by_one").optimum_cut == want

    def test_witness_is_lexicographically_first(self):
        rng = random.Random(6)
        for _ in range(25):
            n = rng.randint(2, 8)
            h = random_hypergraph(rng, n, rng.randint(1, 10), 1, 4)
            res = exact_min_cut_balanced(h, "off_by_one")
            want_cut, _ = brute_force_minimum(h)
            candidates = [
                bits
                for bits in itertools.product((0, 1), repeat=n)
                if abs(2 * bits.count(0) - n) <= 1
                and cut_count(h, bits) == want_cut
            ]
            assert tuple(res.witness.side) == min(candidates)

    def test_matches_pure_python_enumeration_beyond_eight_cells(self):
        rng = random.Random(9)
        for n in (12, 13, 14):
            h = random_hypergraph(rng, n, 2 * n, 2, 5)
            want, _ = brute_force_minimum(h)
            assert exact_min_cut_balanced(h, "off_by_one").optimum_cut == want

    def test_matches_chunked_enumeration(self):
        rng = random.Random(10)
        for n in range(15, 23):
            h = random_hypergraph(rng, n, rng.randint(n, 3 * n), 2, rng.randint(2, 6))
            want = chunked_enumeration(h)
            got = exact_min_cut_balanced(h, "off_by_one")
            assert got.optimum_cut == want.optimum_cut
            assert got.witness.side == want.witness.side

    def test_planted_optima_at_the_size_limit(self):
        n = MAX_ORACLE_CELLS
        pairs = build([[2 * i, 2 * i + 1] for i in range(n // 2)], n)
        cycle = build([[i, (i + 1) % n] for i in range(n)], n)
        res = exact_min_cut_balanced(pairs, "off_by_one")
        assert res.optimum_cut == res.witness.cut_count == 0
        assert [res.witness.side.count(B1), res.witness.side.count(B2)] == [n // 2, n // 2]
        res = exact_min_cut_balanced(cycle, "off_by_one")
        assert res.optimum_cut == res.witness.cut_count == 2
        assert [res.witness.side.count(B1), res.witness.side.count(B2)] == [n // 2, n // 2]

    def test_float32_only_while_counts_are_exact(self):
        assert _count_dtype(0) is np.float32
        assert _count_dtype((1 << 24) - 1) is np.float32
        assert _count_dtype(1 << 24) is np.float64

    def test_deterministic(self, h_star):
        a = exact_min_cut_balanced(h_star, "off_by_one")
        b = exact_min_cut_balanced(h_star, "off_by_one")
        assert a.optimum_cut == b.optimum_cut
        assert a.witness == b.witness


class TestDeltas:
    def test_move_fixtures(self, h_star, p_star):
        assert delta_cut_move(h_star, p_star, C5) == -1
        assert delta_cut_move(h_star, p_star, C1) == 0

    def test_move_isolated(self):
        h = build([[0, 1]], 3)
        p = Partition.from_sides(h, [0, 1, 0])
        assert delta_cut_move(h, p, 2) == 0

    def test_swap_fixtures(self, h_star, p_star):
        assert delta_cut_swap(h_star, p_star, C5, C1) == -2
        assert delta_cut_swap(h_star, p_star, C4, C1) == -1

    def test_swap_isolated_pair(self):
        h = build([[0, 1]], 4)
        p = Partition.from_sides(h, [0, 0, 0, 1])
        assert delta_cut_swap(h, p, 2, 3) == 0

    def test_swap_same_block_rejected(self, h_star, p_star):
        with pytest.raises(ValueError):
            delta_cut_swap(h_star, p_star, C4, C5)

    def test_move_antisymmetry(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(1, 10)
            h = random_hypergraph(rng, n, rng.randint(0, 14), 1, 5)
            p = balanced_partition(h, rng)
            c = rng.randrange(n)
            before = delta_cut_move(h, p, c)
            apply_move(p, h, c)
            assert delta_cut_move(h, p, c) == -before
