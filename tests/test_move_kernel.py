"""A pass's moves, checked after every step against the per-operation move
(`gains.move_by_operations`) and against first principles, and on large
instances every few steps."""

import random

import pytest

import fmpart.fm
import fmpart.pairwise
from conftest import balanced_partition
from fmpart.fm import FmConfig, fm_pass, fm_run
from fmpart.gains import TIE_POLICIES, audit, init, move_by_operations, select_max
from fmpart.hypergraph import B1, B2, Partition, build
from fmpart.pairwise import best_pair, pad_dummy, selection_state, variant_pass, variant_run
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
    """After every FM move and every swap step of a pass, the pass state
    must be exactly what `move_by_operations` leaves on a mirror of it that
    makes the same moves, with every filed gain exact. Every pass runs
    `gains.pass_steps`: under random this checks its inlined move; under
    lifo and fifo the loop moves by `move_by_operations` itself, so there
    the audit and the max slots the hook sees are what check it."""

    @staticmethod
    def mirror_every_step(monkeypatch, module, cells_per_step):
        """An on_step hook that replays the step's cells on the mirror that
        module's `init` now builds beside each pass state, then compares."""
        real_init = module.init
        mirror = {}
        draws = random.Random(0)

        def init_with_mirror(h, p, tie_policy):
            buckets = real_init(h, p, tie_policy)
            mirror_p = p.clone()
            mirror.update(h=h, buckets=real_init(h, mirror_p, tie_policy), p=mirror_p, moved=0)
            return buckets

        def check(buckets, p, moved):
            h, ref_buckets, ref_p = mirror["h"], mirror["buckets"], mirror["p"]
            assert len(moved) == mirror["moved"] + cells_per_step
            for c in moved[mirror["moved"] :]:
                move_by_operations(ref_buckets, h, ref_p, c)
            mirror["moved"] = len(moved)
            assert p == ref_p
            audit(buckets, h, p)
            for blk in (B1, B2):
                assert bucket_state(buckets[blk]) == bucket_state(ref_buckets[blk])
                seed = draws.random()
                assert select_max(buckets, blk, random.Random(seed)) == reference_select(
                    ref_buckets[blk], random.Random(seed)
                )

        monkeypatch.setattr(module, "init", init_with_mirror)
        return check, mirror

    @pytest.mark.parametrize("policy", TIE_POLICIES)
    def test_fm_pass(self, monkeypatch, policy):
        check, mirror = self.mirror_every_step(monkeypatch, fmpart.fm, 1)
        rng = random.Random(31)
        for h in instances(rng, 40, 40):
            trace = fm_pass(h, balanced_partition(h, rng), FmConfig(seed=2, tie_policy=policy), rng, check)
            assert mirror["moved"] == len(trace.steps)
            assert sorted(trace.steps) == list(range(h.cell_count))

    @pytest.mark.parametrize("policy", TIE_POLICIES)
    def test_swap_pass(self, monkeypatch, policy):
        check, mirror = self.mirror_every_step(monkeypatch, fmpart.pairwise, 2)
        rng = random.Random(32)
        for h in instances(rng, 40, 40):
            h = pad_dummy(h)
            trace = variant_pass(h, balanced_partition(h, rng), FmConfig(seed=2, tie_policy=policy), rng, check)
            assert mirror["moved"] == len(trace.steps)
            assert sorted(trace.steps) == list(range(h.cell_count))


def reference_source_block(buckets, p):
    """The block an FM step moves from: the larger one; on equal sizes the
    one with the higher max gain, B1 on a tie. A block with no unlocked
    cell yields to the other, and with none left there is no block.

    Both buckets share one gain span, so their max slots compare as their
    max gains do; an empty bucket's max slot is -1."""
    m1 = buckets[B1].max_slot
    m2 = buckets[B2].max_slot
    if m1 < 0:
        return None if m2 < 0 else B2
    if m2 < 0:
        return B1
    s1, s2 = p.block_size
    return B1 if (s1, m1) >= (s2, m2) else B2


def reference_fm_steps(h, p, rng, policy):
    """Each step of an FM pass under policy as (cells, gain, cut after),
    made one call at a time: `reference_source_block`,
    `GainBucket.select(rng)` and `move_by_operations`."""
    buckets = init(h, p, policy)
    steps = []
    while (blk := reference_source_block(buckets, p)) is not None:
        c = buckets[blk].select(rng)
        gain = move_by_operations(buckets, h, p, c)
        steps.append(((c,), gain, p.cut_count))
    return steps


def reference_swap_steps(h, p, rng, policy):
    """Each step of a swap pass under policy as (cells, gain, cut after),
    made one call at a time: `best_pair`, then `move_by_operations` for u
    and for v; and the pair gains evaluated."""
    buckets = init(h, p, policy)
    steps = []
    evals = 0
    for _ in range(h.cell_count // 2):
        sel = selection_state(buckets)
        u, v, pair = best_pair(sel, h, p, rng)
        evals += sel.pair_gain_evals
        gain = move_by_operations(buckets, h, p, u) + move_by_operations(buckets, h, p, v)
        assert gain == pair
        steps.append(((u, v), gain, p.cut_count))
    return steps, evals


def fused_steps(run_pass, h, p, rng, cells_per_step, policy):
    """Each step of run_pass under policy as (cells, gain, cut after), read
    by its step hook, and the pass's trace. The same pass without the hook
    must end in the same state."""
    cfg = FmConfig(seed=1, tie_policy=policy)
    bare_p = p.clone()
    bare_rng = random.Random()
    bare_rng.setstate(rng.getstate())
    steps = []
    cut = p.cut_count

    def record(buckets, q, moved):
        nonlocal cut
        steps.append((tuple(moved[-cells_per_step:]), cut - q.cut_count, q.cut_count))
        cut = q.cut_count

    trace = run_pass(h, p, cfg, rng, record)
    assert [c for cells, _, _ in steps for c in cells] == trace.steps
    assert run_pass(h, bare_p, cfg, bare_rng) == trace
    assert bare_p == p
    assert bare_rng.getstate() == rng.getstate()
    return steps, trace


def twin_rngs(seed):
    rng = random.Random(seed)
    twin = random.Random()
    twin.setstate(rng.getstate())
    return rng, twin


class TestFusedStepLoop:
    """Every pass runs `gains.pass_steps`: one loop with the source-block
    rule and the pick written inline, and under random the move too. Under
    every tie policy it must make the steps of a loop built from the
    per-call operations, with the same cell, gain and cut at every step and
    the same rng state at the end."""

    @staticmethod
    def graphs(rng):
        """Small graphs, then a few of 300 cells, whose gains span more slots."""
        yield from instances(rng, 60, 40)
        for _ in range(4):
            yield random_hypergraph(rng, 300, 400, 2, 8)

    @pytest.mark.parametrize("policy", TIE_POLICIES)
    def test_fm_pass_matches_select_and_move(self, policy):
        rng = random.Random(33)
        for h in self.graphs(rng):
            # a balanced start and a lopsided one
            for p in (balanced_partition(h, rng), Partition.from_sides(h, [rng.randrange(2) for _ in h.cell_nets])):
                start = p.clone()
                pass_rng, ref_rng = twin_rngs(rng.random())
                steps, _ = fused_steps(fm_pass, h, p, pass_rng, 1, policy)
                assert steps == reference_fm_steps(h, start, ref_rng, policy)
                assert pass_rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("policy", TIE_POLICIES)
    def test_swap_pass_matches_best_pair_and_moves(self, policy):
        rng = random.Random(34)
        for h in self.graphs(rng):
            h = pad_dummy(h)
            p = balanced_partition(h, rng)
            start = p.clone()
            pass_rng, ref_rng = twin_rngs(rng.random())
            steps, trace = fused_steps(variant_pass, h, p, pass_rng, 2, policy)
            ref_steps, evals = reference_swap_steps(h, start, ref_rng, policy)
            assert steps == ref_steps
            assert trace.pair_gain_evals == evals
            assert pass_rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_draw_is_randrange_for_every_bag_size(self, seed):
        # with no nets every gain is 0, so each step draws from one whole
        # bag, and the blocks take turns (the larger block, or B1 on equal
        # sizes and max slots): the bags drawn from hold 4,097 cells, then
        # 4,097, 4,096, 4,096 and so on down to 1 and 1. The expected cells
        # come from Random.randrange and a list model of the swap-removal
        n = 4097
        h = build([], 2 * n)
        rng, ref_rng = twin_rngs(seed)
        for _ in range(seed):
            rng.getrandbits(1 + seed)
            ref_rng.getrandbits(1 + seed)
        bags = [list(range(n)), list(range(n, 2 * n))]
        expected = []
        for step in range(2 * n):
            bag = bags[step % 2]
            i = ref_rng.randrange(len(bag))
            expected.append(bag[i])
            last = bag.pop()
            if i < len(bag):
                bag[i] = last
        trace = fm_pass(h, Partition.from_sides(h, [B1] * n + [B2] * n), FmConfig(), rng)
        assert trace.steps == expected
        assert rng.getstate() == ref_rng.getstate()


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
