import itertools
import random

import pytest

import fmpart.fm
from conftest import balanced_partition
from fmpart.fm import (
    FmConfig,
    fm_pass,
    fm_run,
    random_initial_partition,
    rollback_to_prefix,
)
from fmpart.gains import TIE_POLICIES, GainBucket
from fmpart.hypergraph import B1, B2, Partition, apply_move, build, cut_count
from fmpart.oracle import exact_min_cut_balanced
from fmpart.pairwise import pad_dummy, variant_pass
from fmpart.synth import random_hypergraph


class TestConfig:
    def test_defaults(self):
        cfg = FmConfig()
        assert cfg.max_passes == 100
        assert cfg.tie_policy == "random"

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FmConfig(tie_policy="sorted")
        with pytest.raises(ValueError):
            FmConfig(max_passes=0)

    def test_unbounded_allowed(self):
        assert FmConfig(max_passes=None).max_passes is None


class TestRandomInitialPartition:
    def test_odd_count_splits_three_two(self, h_star):
        p = random_initial_partition(h_star, random.Random(1))
        assert sorted([p.side.count(B1), p.side.count(B2)]) == [2, 3]

    def test_even_count_splits_evenly(self, h4):
        p = random_initial_partition(h4, random.Random(1))
        assert [p.side.count(B1), p.side.count(B2)] == [2, 2]

    def test_same_seed_same_partition(self, h_star):
        a = random_initial_partition(h_star, random.Random(9))
        b = random_initial_partition(h_star, random.Random(9))
        assert a == b

    def test_both_orientations_reachable(self, h_star):
        sides = [random_initial_partition(h_star, random.Random(s)).side for s in range(40)]
        sizes = {(side.count(B1), side.count(B2)) for side in sides}
        assert sizes == {(2, 3), (3, 2)}


class TestFmPass:
    def test_disjoint_pairs_reach_zero_for_every_seed(self, h4):
        for seed in range(1, 21):
            p = Partition.from_sides(h4, [0, 0, 1, 1])
            assert p.cut_count == 2
            fm_pass(h4, p, FmConfig(seed=seed), random.Random(seed))
            assert p.cut_count == 0
            assert [p.side.count(B1), p.side.count(B2)] == [2, 2]

    def test_two_cell_net_keeps_balance(self):
        # the only cut-free configurations put both cells in one block;
        # those are unbalanced, so the pass must settle for cut 1
        h = build([[0, 1]], 2)
        for seed in range(1, 11):
            p = Partition.from_sides(h, [0, 1])
            trace = fm_pass(h, p, FmConfig(seed=seed), random.Random(seed))
            assert p.cut_count == 1
            assert sorted([p.side.count(B1), p.side.count(B2)]) == [1, 1]
            assert trace.best_cut == 1

    def test_start_at_optimum_never_worsens(self, h_star):
        res = exact_min_cut_balanced(h_star, "off_by_one")
        p = res.witness.clone()
        trace = fm_pass(h_star, p, FmConfig(seed=2), random.Random(2))
        assert p.cut_count == res.optimum_cut
        assert trace.best_cut == res.optimum_cut

    def test_empty_hypergraph(self):
        h = build([], 0)
        p = Partition.from_sides(h, [])
        trace = fm_pass(h, p, FmConfig(seed=1), random.Random(1))
        assert trace.steps == []
        assert trace.best_prefix == 0

    def test_trace_consistency_on_random_instances(self, monkeypatch):
        # each step's gain, as the buckets filed it for the moved cell just
        # before the step, and the cut after it, as the pass's partition
        # holds it
        filed = {}
        real_init = fmpart.fm.init

        def init_recording_gains(h, p, tie_policy):
            buckets = real_init(h, p, tie_policy)
            record_filed_gains(buckets)
            return buckets

        def record_filed_gains(buckets):
            filed.clear()
            filed.update((c, k - buckets.span) for c, k in enumerate(buckets.slot) if k >= 0)

        monkeypatch.setattr(fmpart.fm, "init", init_recording_gains)
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(1, 12)
            h = random_hypergraph(rng, n, rng.randint(0, 18), 1, 6)
            p = balanced_partition(h, rng)
            start = p.clone()
            gains = []
            cuts_after = []

            def on_step(buckets, q, moved):
                gains.append(filed[moved[-1]])
                cuts_after.append(q.cut_count)
                record_filed_gains(buckets)

            trace = fm_pass(h, p, FmConfig(seed=1), rng, on_step=on_step)
            # every cell moved exactly once
            assert len(trace.steps) == n == len(gains) == len(cuts_after)
            assert sorted(trace.steps) == list(range(n))
            q = start.clone()
            for c, gain, cut_after in zip(trace.steps, gains, cuts_after):
                assert gain == q.cut_count - cut_after
                apply_move(q, h, c)
                assert q.cut_count == cut_after
                assert cut_count(h, q.side) == cut_after

    def test_rollback_replay_reproduces_partition(self):
        rng = random.Random(22)
        for _ in range(80):
            n = rng.randint(1, 12)
            h = random_hypergraph(rng, n, rng.randint(0, 18), 1, 6)
            p = balanced_partition(h, rng)
            start = p.clone()
            before_cut = p.cut_count
            trace = fm_pass(h, p, FmConfig(seed=3), rng)
            assert p.cut_count <= before_cut  # never worsens
            assert trace.best_cut == p.cut_count
            replay = start.clone()
            for c in trace.steps[: trace.best_prefix]:
                apply_move(replay, h, c)
            assert replay == p

    def test_pass_respects_balance_on_return(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(2, 12)
            h = random_hypergraph(rng, n, rng.randint(1, 16), 1, 6)
            p = balanced_partition(h, rng)
            fm_pass(h, p, FmConfig(seed=4), rng)
            assert abs(p.side.count(B1) - p.side.count(B2)) <= 1

    def test_pass_relocations_linear_in_pins(self, monkeypatch):
        # criterion 09's instances and starts, with work counted, not timed:
        # the gain updates the FM rule asks of each move, counted from the
        # state before it by replaying the pass's moves from its start, come
        # to about 0.73 per pin at every size and tie policy. The move does
        # each in O(1); its only other work is the max-slot scans, counted as
        # slots inspected: at most 0.055 per pin under random, 0.056 under
        # lifo and 0.058 under fifo. A lifo or fifo move calls `relocate`,
        # which scans from the slot below when a cell moving down drains the
        # max slot; the bag move of `pass_steps` steps down without a scan,
        # and calls `_top_from` through the bucket only when the moving cell
        # drains the max slot. A move that rescanned from the top on every
        # call would inspect several per pin
        top_from = GainBucket._top_from
        scanned = 0

        def counted_scan(bucket, block, slot):
            nonlocal scanned
            top = top_from(bucket, block, slot)
            scanned += slot - top + (top >= 0)
            return top

        monkeypatch.setattr(GainBucket, "_top_from", counted_scan)
        for n in (5000, 10000, 20000):
            h = random_hypergraph(random.Random(100 + n), n, n, 2, 6)
            for policy, rep in itertools.product(TIE_POLICIES, range(3)):
                p = random_initial_partition(h, random.Random(rep))
                start = p.clone()
                scanned = 0
                trace = fm_pass(h, p, FmConfig(seed=1, tie_policy=policy), random.Random(rep))
                updates = replayed_gain_updates(h, start, trace.steps)
                where = f"{n} cells, {policy}"
                assert 0 < updates <= h.pin_count, f"{where}: {updates / h.pin_count:.3f} updates per pin"
                assert 0 < scanned <= h.pin_count // 4, f"{where}: {scanned / h.pin_count:.3f} slot scans per pin"


def replayed_gain_updates(h, start, moved):
    """`required_gain_updates` summed over the moves of moved, replayed in
    order from start, with each block's unlocked cells standing for its
    bucket: a cell is unlocked until it moves, and only moved cells change
    block."""
    q = start.clone()
    unlocked = [{c for c in range(h.cell_count) if q.side[c] == b} for b in (B1, B2)]
    total = 0
    for c in moved:
        total += required_gain_updates(unlocked, h, q, c)
        unlocked[q.side[c]].discard(c)
        apply_move(q, h, c)
    return total


def required_gain_updates(buckets, h, p, c):
    """How many unlocked neighbors of c change gain when c moves, net by net:
    every other pin of a net with no pin on the receiving block, the lone
    pin on the receiving block, every other pin of a net that c leaves
    empty on its block, and the lone other pin c leaves on its block."""
    f = p.side[c]
    t = 1 - f
    count_f = p.counts[f]
    count_t = p.counts[t]
    total = 0
    for n in h.cell_nets[c]:
        others = [x for x in h.nets[n] if x != c]
        if count_t[n] == 0:
            total += sum(1 for x in others if x in buckets[f])
        elif count_t[n] == 1:
            total += sum(1 for x in others if x in buckets[t])
        if count_f[n] == 1:
            total += sum(1 for x in others if x in buckets[t])
        elif count_f[n] == 2:
            total += sum(1 for x in others if x in buckets[f])
    return total


def flip_cells(p, h, moved):
    for c in moved:
        apply_move(p, h, c)


class TestRollbackToPrefix:
    """Complement-and-replay for full passes with a short kept prefix, tail
    undo otherwise; each result must equal the kept prefix replayed from a
    clone of the start."""

    @staticmethod
    def rolled_back(monkeypatch, h, start, moved, keep):
        """Roll start moved by the cells in moved back to keep of them; the flips it took."""
        p = start.clone()
        flip_cells(p, h, moved)
        flips = []

        def counted(q, g, c):
            flips.append(c)
            apply_move(q, g, c)

        with monkeypatch.context() as m:
            m.setattr(fmpart.fm, "apply_move", counted)
            rollback_to_prefix(h, p, moved, keep)
        replay = start.clone()
        flip_cells(replay, h, moved[:keep])
        assert p == replay
        return len(flips)

    @pytest.mark.parametrize("kind", ["fm", "swap"])
    def test_each_path_matches_prefix_replay(self, monkeypatch, kind):
        rng = random.Random(31)
        taken = set()
        # prefixes end on step boundaries: one cell per FM step, two per swap
        unit = 1 if kind == "fm" else 2
        for _ in range(40):
            n = rng.randint(1, 14)
            g = random_hypergraph(rng, n, rng.randint(0, 2 * n), 1, 6)
            if kind == "fm":
                h = g
                start = balanced_partition(h, rng)
                moved = fm_pass(h, start.clone(), FmConfig(seed=5), rng).steps
            else:
                h = pad_dummy(g)
                start = random_initial_partition(h, rng)
                moved = variant_pass(h, start.clone(), FmConfig(seed=5), rng).steps
            for keep in range(0, len(moved) + 1, unit):
                flips = self.rolled_back(monkeypatch, h, start, moved, keep)
                if 2 * keep < len(moved):
                    assert flips == keep
                    taken.add(("complement", n % 2))
                else:
                    assert flips == len(moved) - keep
                    taken.add(("undo", n % 2))
            # a pass cut short leaves cells unmoved, so it is undone
            for j in range(unit, len(moved), unit):
                assert self.rolled_back(monkeypatch, h, start, moved[:j], 0) == j
                taken.add(("partial", n % 2))
        assert taken == {(path, odd) for path in ("complement", "undo", "partial") for odd in (0, 1)}


def prefix_log(nets, cells, side):
    """One pass from side: its trace, the partition it left, and the cut and
    size difference S(B1) - S(B2) of every prefix, the empty one first."""
    h = build(nets, cells)
    p = Partition.from_sides(h, side)
    log = [(p.cut_count, p.side.count(B1) - p.side.count(B2))]

    def on_step(buckets, q, moved):
        log.append((q.cut_count, q.side.count(B1) - q.side.count(B2)))

    trace = fm_pass(h, p, FmConfig(seed=1), random.Random(1), on_step=on_step)
    assert len(log) == len(trace.steps) + 1
    return trace, p, log


class TestBestPrefix:
    def test_unbalanced_prefixes_skipped(self):
        trace, p, log = prefix_log([[0, 1, 3], [0, 2, 3], [0, 2], [0, 2]], 4, [1, 1, 0, 0])
        # the first move cuts 1 net but leaves sizes 1 and 3
        assert log[:3] == [(4, 0), (1, 2), (2, 0)]
        assert (trace.best_prefix, trace.best_cut) == (2, 2)
        assert (p.cut_count, [p.side.count(B1), p.side.count(B2)]) == (2, [2, 2])

    def test_tie_resolves_to_earliest(self):
        trace, p, log = prefix_log([[0, 1, 4], [1, 2, 4], [0, 2, 3]], 5, [0, 0, 1, 0, 1])
        # prefixes 1, 2 and 3 are balanced and all cut 2 nets
        assert [cut for cut, _ in log[:4]] == [3, 2, 2, 2]
        assert all(abs(diff) <= 1 for _, diff in log[:4])
        assert (trace.best_prefix, trace.best_cut) == (1, 2)
        assert p.cut_count == 2

    def test_no_improvement_keeps_the_start(self):
        # a 4-ring split into two arcs already cuts the balanced minimum of 2
        side = [0, 0, 1, 1]
        trace, p, log = prefix_log([[0, 1], [1, 2], [2, 3], [3, 0]], 4, side)
        assert min(cut for cut, diff in log if abs(diff) <= 1) == 2
        assert (trace.best_prefix, trace.best_cut) == (0, trace.initial_cut) == (0, 2)
        assert p.side == side

    def test_unbalanced_start_takes_first_balanced_prefix(self):
        # both cells start in B1: the first move balances at cut 1, the
        # second reaches cut 0 with both cells in B2
        trace, p, log = prefix_log([[0, 1]], 2, [0, 0])
        assert log == [(0, 2), (1, 0), (0, -2)]
        assert (trace.initial_cut, trace.best_cut, trace.best_prefix) == (0, 1, 1)
        assert (p.cut_count, [p.side.count(B1), p.side.count(B2)]) == (1, [1, 1])


class TestFmRun:
    def test_disjoint_pairs_always_optimal(self, h4):
        for seed in range(1, 11):
            r = fm_run(h4, FmConfig(seed=seed))
            assert r.optimal_cut == 0
            assert r.passes >= 1
            assert r.optimal_cut <= r.initial_cut

    def test_five_cell_always_optimal(self, h_star):
        for seed in range(1, 11):
            r = fm_run(h_star, FmConfig(seed=seed))
            assert r.optimal_cut == 1

    def test_empty_hypergraph(self):
        h = build([], 0)
        r = fm_run(h, FmConfig(seed=1))
        assert (r.initial_cut, r.optimal_cut, r.passes) == (0, 0, 1)

    def test_same_seed_reproduces_run(self, h_star):
        a = fm_run(h_star, FmConfig(seed=5))
        b = fm_run(h_star, FmConfig(seed=5))
        assert (a.initial_cut, a.optimal_cut, a.passes, a.final_side) == (
            b.initial_cut,
            b.optimal_cut,
            b.passes,
            b.final_side,
        )

    def test_max_passes_cap(self):
        rng = random.Random(24)
        h = random_hypergraph(rng, 40, 60, 2, 5)
        r = fm_run(h, FmConfig(seed=1, max_passes=1))
        assert r.passes == 1

    def test_never_below_oracle_optimum(self):
        rng = random.Random(25)
        for _ in range(30):
            n = rng.randint(2, 14)
            h = random_hypergraph(rng, n, rng.randint(1, 20), 1, 6)
            optimum = exact_min_cut_balanced(h, "off_by_one").optimum_cut
            r = fm_run(h, FmConfig(seed=rng.randrange(1000)))
            assert r.optimal_cut >= optimum
