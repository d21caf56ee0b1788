"""The move `gains.init` binds for a pass, checked after every move
against the per-operation move (`gains.move_by_operations`) and against
first principles, and on large instances every few steps."""

import random

import pytest

import fmpart.fm
import fmpart.pairwise
from conftest import balanced_partition
from fmpart.fm import FmConfig, fm_pass, fm_run
from fmpart.gains import TIE_POLICIES, audit, init, move_by_operations, select_max
from fmpart.hypergraph import B1, B2, Partition, build
from fmpart.pairwise import pad_dummy, variant_pass, variant_run
from fmpart.synth import random_hypergraph


def reference_select(bucket, rng):
    """One cell of the bucket's max slot in tie-policy order, or None."""
    if bucket.max_slot < 0:
        return None
    cells = list(bucket.members[bucket.max_slot])
    if bucket.order is reversed:
        return cells[-1]
    if bucket.order is iter:
        return cells[0]
    return cells[rng.randrange(len(cells))]


def bucket_state(bucket):
    """Everything that fixes a bucket's order: slots, each slot's cells in
    order (as lists, since dicts compare equal in any order), bag positions
    and the max slot."""
    return bucket.slot, [list(cells) for cells in bucket.members], bucket.bag_pos, bucket.max_slot


def instances(rng, count, max_cells):
    """Random graphs with empty, one-pin and wide nets among small ones."""
    for _ in range(count):
        n = rng.randint(2, max_cells)
        nets = [rng.sample(range(n), min(rng.randint(2, 6), n)) for _ in range(rng.randint(0, 2 * n))]
        nets += [[]] * rng.randint(0, 1) + [[rng.randrange(n)] for _ in range(rng.randint(0, 2))]
        nets += [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(0, 2))]
        rng.shuffle(nets)
        yield build(nets, n)


class TestKernelMatchesReference:
    """After every move of a pass, the bound move must leave exactly what the
    per-operation move leaves on a mirror of the pass state, with every
    filed gain exact. For lifo and fifo the bound move is the per-operation
    move itself, so there the audit is what checks it."""

    @staticmethod
    def mirror_every_move(monkeypatch, module):
        real_init = module.init
        real_move = module.move_and_update
        mirror = {}
        moves = []
        draws = random.Random(0)

        def init_with_mirror(h, p, tie_policy):
            buckets = real_init(h, p, tie_policy)
            mirror_p = p.clone()
            mirror["state"] = (real_init(h, mirror_p, tie_policy), mirror_p)
            return buckets

        def checked_move(buckets, h, p, c):
            ref_buckets, ref_p = mirror["state"]
            expected = move_by_operations(ref_buckets, h, ref_p, c)
            assert real_move(buckets, h, p, c) == expected
            assert p == ref_p
            audit(buckets, h, p)
            for blk in (B1, B2):
                assert bucket_state(buckets[blk]) == bucket_state(ref_buckets[blk])
                seed = draws.random()
                assert select_max(buckets, blk, random.Random(seed)) == reference_select(
                    ref_buckets[blk], random.Random(seed)
                )
            moves.append(c)
            return expected

        monkeypatch.setattr(module, "init", init_with_mirror)
        monkeypatch.setattr(module, "move_and_update", checked_move)
        return moves

    @pytest.mark.parametrize("policy", TIE_POLICIES)
    def test_fm_pass(self, monkeypatch, policy):
        moves = self.mirror_every_move(monkeypatch, fmpart.fm)
        rng = random.Random(31)
        for h in instances(rng, 40, 40):
            moves.clear()
            fm_pass(h, balanced_partition(h, rng), FmConfig(seed=2, tie_policy=policy), rng)
            assert sorted(moves) == list(range(h.cell_count))

    @pytest.mark.parametrize("policy", TIE_POLICIES)
    def test_swap_pass(self, monkeypatch, policy):
        moves = self.mirror_every_move(monkeypatch, fmpart.pairwise)
        rng = random.Random(32)
        for h in instances(rng, 40, 40):
            h = pad_dummy(h)
            moves.clear()
            variant_pass(h, balanced_partition(h, rng), FmConfig(seed=2, tie_policy=policy), rng)
            assert sorted(moves) == list(range(h.cell_count))


class TestBinding:
    def test_random_select_needs_rng(self):
        h = build([[0, 1]], 2)
        buckets = init(h, Partition.from_sides(h, [0, 1]), "random")
        with pytest.raises(ValueError, match="needs an rng"):
            select_max(buckets, B1)


AUDIT_EVERY = 50


@pytest.mark.parametrize("policy", TIE_POLICIES)
@pytest.mark.parametrize("run", [fm_run, variant_run], ids=["fm", "swap"])
def test_audit_every_k_steps_on_1k_cells(run, policy):
    """Every AUDIT_EVERY steps and at each pass's last step, the filed gains
    are exact and the partition equals one rebuilt from its sides."""
    h = random_hypergraph(random.Random(41), 1000, 1100, 2, 8)
    audited = []

    def check(buckets, p, moved):
        step = len(audited) + 1
        last = buckets[B1].max_slot < 0 and buckets[B2].max_slot < 0
        if step % AUDIT_EVERY == 0 or last:
            audit(buckets, h, p)
            assert p == Partition.from_sides(h, p.side)
        audited.append(last)

    row = run(h, FmConfig(seed=5, tie_policy=policy, max_passes=2), on_step=check)
    assert audited.count(True) == row.passes
