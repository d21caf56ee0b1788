import pickle
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import C1, C3, C5, hypergraph_with_partition
from fmpart.hypergraph import B1, B2, Partition, apply_move, build, cut_count


class TestBuild:
    def test_five_cell_fixture(self, h_star):
        assert h_star.cell_count == 5
        assert h_star.net_count == 3
        assert h_star.max_cell_degree == 3  # c5 lies on all three nets
        assert h_star.nets == ((3, 4), (2, 4), (0, 1, 4))
        assert h_star.cell_nets[C5] == (0, 1, 2)
        assert h_star.cell_nets[C1] == (2,)

    def test_transpose_is_exact(self, h_star):
        for c in range(h_star.cell_count):
            for n in h_star.cell_nets[c]:
                assert c in h_star.nets[n]
        for n, pins in enumerate(h_star.nets):
            for c in pins:
                assert n in h_star.cell_nets[c]

    def test_empty(self):
        h = build([], 0)
        assert h.cell_count == 0
        assert h.max_cell_degree == 0
        assert h.net_count == 0

    def test_max_cell_degree_kept_outside_equality_and_pickling(self, h_star):
        fresh = build([[3, 4], [2, 4], [0, 1, 4]], 5)
        assert h_star.max_cell_degree == 3
        assert "max_cell_degree" in vars(h_star)  # computed once, then read back
        assert h_star == fresh and hash(h_star) == hash(fresh)
        for h in (h_star, fresh):
            loaded = pickle.loads(pickle.dumps(h))
            assert loaded == fresh and hash(loaded) == hash(fresh)
            assert loaded.max_cell_degree == 3
        # replace builds a new graph, which reads its own tables
        assert replace(h_star, cell_nets=h_star.cell_nets[:4]).max_cell_degree == 1

    def test_duplicate_pin_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build([[0, 0]], 2)

    def test_id_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build([[0, 5]], 5)
        with pytest.raises(ValueError):
            build([[-1]], 3)

    def test_negative_cell_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build([], -1)

    def test_degenerate_nets_retained(self):
        h = build([[], [0]], 2)
        assert h.net_count == 2
        assert h.pin_count == 1


class TestFromSides:
    @pytest.mark.parametrize("sides", [[0, 1, 0, 1], [0, 1, 0, 1, 0, 1], []])
    def test_wrong_length_rejected(self, h_star, sides):
        with pytest.raises(ValueError, match=f"expected 5 side entries, got {len(sides)}"):
            Partition.from_sides(h_star, sides)

    @pytest.mark.parametrize("bad", [2, -1, None])
    def test_side_other_than_0_or_1_rejected(self, h_star, bad):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            Partition.from_sides(h_star, [0, 1, bad, 1, 0])

    def test_partition_holds_no_block_sizes(self):
        # sizes are side.count(b); a stored copy would be one more list to keep in step
        assert [f.name for f in fields(Partition)] == ["side", "counts", "cut_count"]


class TestCutCount:
    def test_fixture_cut_is_one(self, h_star, p_star):
        assert cut_count(h_star, p_star.side) == 1
        assert p_star.cut_count == 1

    def test_everything_in_one_block(self, h_star):
        p = Partition.from_sides(h_star, [0] * 5)
        assert cut_count(h_star, p.side) == 0

    def test_three_cut_split(self, h_star):
        # B1 = {c1,c3,c4}, B2 = {c2,c5}: every net crosses
        p = Partition.from_sides(h_star, [0, 1, 0, 0, 1])
        assert cut_count(h_star, p.side) == 3

    def test_relabel_invariance(self, h_star, p_star):
        flipped = Partition.from_sides(h_star, [1 - s for s in p_star.side])
        assert cut_count(h_star, flipped.side) == cut_count(h_star, p_star.side)

    def test_degenerate_nets_never_cut(self):
        h = build([[], [0], [0, 1]], 2)
        p = Partition.from_sides(h, [0, 1])
        assert cut_count(h, p.side) == 1  # only the two-pin net


class TestApplyMove:
    def test_hub_move_updates_cut(self, h_star, p_star):
        apply_move(p_star, h_star, C5)
        assert p_star.side[C5] == 1
        assert p_star.cut_count == 2  # the triple net uncuts, both pairs cut
        assert [p_star.side.count(B1), p_star.side.count(B2)] == [2, 3]
        assert p_star.cut_count == cut_count(h_star, p_star.side)

    def test_involution(self, h_star, p_star):
        snapshot = p_star.clone()
        apply_move(p_star, h_star, C3)
        apply_move(p_star, h_star, C3)
        assert p_star == snapshot

    def test_isolated_cell_move(self):
        h = build([[0, 1]], 3)
        p = Partition.from_sides(h, [0, 0, 0])
        apply_move(p, h, 2)
        assert p.cut_count == 0
        assert [p.side.count(B1), p.side.count(B2)] == [2, 1]


@settings(max_examples=200)
@given(hypergraph_with_partition(), st.lists(st.integers(0, 10 ** 6), max_size=30))
def test_incremental_cut_matches_recount(hp, moves):
    h, p = hp
    for m in moves:
        apply_move(p, h, m % h.cell_count)
        assert p.cut_count == cut_count(h, p.side)
        for n, pins in enumerate(h.nets):
            assert p.counts[0][n] + p.counts[1][n] == len(pins)
            assert p.counts[0][n] == sum(1 for c in pins if p.side[c] == 0)


@settings(max_examples=100)
@given(hypergraph_with_partition())
def test_double_move_is_identity(hp):
    h, p = hp
    rng = random.Random(0)
    c = rng.randrange(h.cell_count)
    snapshot = p.clone()
    apply_move(p, h, c)
    apply_move(p, h, c)
    assert p == snapshot
