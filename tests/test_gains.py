import random

import pytest

from conftest import C1, C2, C3, C4, C5, balanced_partition, bucket_gains, filed_count
from fmpart.fm import FmConfig, fm_pass, random_initial_partition
from fmpart.gains import TIE_POLICIES, GainBucket, audit, compute_gain, init, move_and_update, select_max
from fmpart.hypergraph import B1, B2, Partition, build, cut_count
from fmpart.oracle import delta_cut_move
from fmpart.pairwise import pad_dummy, variant_pass
from fmpart.synth import random_hypergraph


class TestComputeGain:
    def test_fixture_gains(self, h_star, p_star):
        assert compute_gain(h_star, p_star, C5) == -1
        assert compute_gain(h_star, p_star, C1) == 0
        assert compute_gain(h_star, p_star, C4) == -1

    def test_isolated_cell(self):
        h = build([[0, 1]], 3)
        p = Partition.from_sides(h, [0, 1, 0])
        assert compute_gain(h, p, 2) == 0

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randint(1, 12)
            h = random_hypergraph(rng, n, rng.randint(0, 20), 1, 6)
            p = balanced_partition(h, rng)
            for c in range(n):
                assert compute_gain(h, p, c) == delta_cut_move(h, p, c)


class TestInit:
    def test_fixture_state(self, h_star, p_star):
        st = init(h_star, p_star, "lifo")
        assert bucket_gains(st) == [0, 0, -1, -1, -1]  # no cell locked
        assert st.top[B1] - st.span == -1
        assert st.top[B2] - st.span == 0
        audit(st, h_star, p_star)

    def test_empty_hypergraph(self):
        h = build([], 0)
        p = Partition.from_sides(h, [])
        st = init(h, p, "lifo")
        assert st.top[B1] == -1
        assert st.top[B2] == -1

    def test_random_instances_audit_clean(self):
        rng = random.Random(14)
        for _ in range(100):
            n = rng.randint(1, 12)
            h = random_hypergraph(rng, n, rng.randint(0, 16), 1, 6)
            p = balanced_partition(h, rng)
            audit(init(h, p, "lifo"), h, p)


    def test_one_sweep_equals_compute_gain_under_every_policy(self):
        # empty, 1-pin and 2-pin nets among larger ones; every third start
        # puts all cells on B1 and every third on B2, so every net lies on
        # one side, and the small random starts leave many such nets too
        rng = random.Random(17)
        for trial in range(200):
            n = rng.randint(1, 12)
            nets = [[]] * rng.randint(0, 2) + [[rng.randrange(n)] for _ in range(rng.randint(0, 3))]
            nets += [rng.sample(range(n), min(rng.randint(2, 6), n)) for _ in range(rng.randint(0, 14))]
            rng.shuffle(nets)
            h = build(nets, n)
            kind = trial % 3
            side = [kind] * n if kind < 2 else [rng.randint(0, 1) for _ in range(n)]
            p = Partition.from_sides(h, side)
            expected = [compute_gain(h, p, c) for c in range(n)]
            for policy in TIE_POLICIES:
                st = init(h, p, policy)
                assert bucket_gains(st) == expected
                audit(st, h, p)


class TestMoveAndUpdate:
    def test_neighbor_gains_after_hub_move(self, h_star, p_star):
        st = init(h_star, p_star, "lifo")
        assert move_and_update(st, h_star, p_star, C5) == -1
        gains = bucket_gains(st)
        assert gains[C4] == 1  # its pair net became cut with c4 alone on B1
        assert gains[C3] == 1
        assert gains[C5] is None  # locked: in no slot
        assert st.slot[C5] == -1
        assert filed_count(st) == 4
        audit(st, h_star, p_star)

    def test_isolated_move_changes_no_neighbor(self):
        h = build([[0, 1]], 3)
        p = Partition.from_sides(h, [0, 1, 0])
        st = init(h, p, "lifo")
        before = bucket_gains(st)[:2]
        assert move_and_update(st, h, p, 2) == 0
        assert bucket_gains(st) == before + [None]
        audit(st, h, p)

    @pytest.mark.parametrize("policy", TIE_POLICIES)
    def test_locked_move_rejected(self, h_star, p_star, policy):
        st = init(h_star, p_star, policy)
        move_and_update(st, h_star, p_star, C5)
        with pytest.raises(ValueError, match="locked"):
            move_and_update(st, h_star, p_star, C5)

    def test_incremental_equals_scratch_along_random_sequences(self):
        rng = random.Random(15)
        for _ in range(150):
            n = rng.randint(1, 12)
            h = random_hypergraph(rng, n, rng.randint(0, 18), 1, 6)
            p = balanced_partition(h, rng)
            st = init(h, p, "lifo")
            order = list(range(n))
            rng.shuffle(order)
            for moves, c in enumerate(order, start=1):
                expected = compute_gain(h, p, c)
                assert move_and_update(st, h, p, c) == expected
                audit(st, h, p)  # also checks filed gains == from-scratch
                assert st.slot[c] == -1
                assert filed_count(st) == n - moves
                assert p.cut_count == cut_count(h, p.side)

    def test_gain_bound_holds_throughout(self):
        rng = random.Random(16)
        for _ in range(60):
            n = rng.randint(2, 12)
            h = random_hypergraph(rng, n, rng.randint(1, 18), 1, 6)
            p = balanced_partition(h, rng)
            st = init(h, p, "lifo")
            bound = h.max_cell_degree
            assert all(abs(g) <= bound for g in bucket_gains(st))
            order = list(range(n))
            rng.shuffle(order)
            for c in order:
                move_and_update(st, h, p, c)
                assert all(abs(g) <= bound for g in bucket_gains(st) if g is not None)


class TestSelectMax:
    def test_single_candidate(self):
        h = build([[0, 1]], 2)
        p = Partition.from_sides(h, [0, 1])
        for policy in TIE_POLICIES:
            st = init(h, p, policy)
            assert select_max(st, B1, random.Random(0)) == 0

    def test_empty_bucket_returns_none(self):
        h = build([], 2)
        p = Partition.from_sides(h, [0, 0])
        for policy in TIE_POLICIES:
            st = init(h, p, policy)
            assert select_max(st, B2, random.Random(0)) is None

    def test_seeded_random_pick_is_reproducible(self, h_star, p_star):
        # regression pin: both zero-gain cells of the smaller block tie
        st = init(h_star, p_star, "random")
        assert select_max(st, B2, random.Random(42)) == C1
        assert select_max(st, B2, random.Random(42)) == C1
        assert select_max(st, B2, random.Random(7)) == C2

    def test_fifo_lifo_orders(self, h_star, p_star):
        # cells enter buckets in ascending id order at init
        assert select_max(init(h_star, p_star, "fifo"), B2) == C1
        assert select_max(init(h_star, p_star, "lifo"), B2) == C2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown tie policy"):
            GainBucket([B1, B1], span=1, policy="best")


class TestAuditFiresOnCorruption:
    """Each check of `audit` raises on the fixture's state under random (B1
    files c3, c4 and c5 at gain -1, slot 2; B2 files c1 and c2 at gain 0,
    slot 3) once it is broken in just the way the check guards against."""

    @staticmethod
    def stale_slot_record(st, p):
        st.slot[C3] = 3

    @staticmethod
    def stale_bag_position(st, p):
        st.pos[C1], st.pos[C2] = st.pos[C2], st.pos[C1]

    @staticmethod
    def wrong_max_slot(st, p):
        st.top[B1] = 3

    @staticmethod
    def filed_under_wrong_block(st, p):
        p.side[C1] = B1

    @staticmethod
    def stale_gain(st, p):
        st.relocate(C4, 0)

    @staticmethod
    def slot_count_mismatch(st, p):
        st.remove(C1)
        st.slot[C1] = 3

    @pytest.mark.parametrize(
        "corruption, message",
        [
            ("stale_slot_record", "slot record disagrees with slot 2"),
            ("stale_bag_position", "stale bag position"),
            ("wrong_max_slot", "max pointer is not the highest nonempty slot"),
            ("filed_under_wrong_block", "filed under the wrong block"),
            ("stale_gain", "filed gain 0 is stale"),
            ("slot_count_mismatch", "slot records disagree with slot contents"),
        ],
    )
    def test_check_fires(self, h_star, p_star, corruption, message):
        st = init(h_star, p_star, "random")
        audit(st, h_star, p_star)
        getattr(self, corruption)(st, p_star)
        with pytest.raises(AssertionError, match=message):
            audit(st, h_star, p_star)


# one tie policy per bucket structure: ordered slots ("chain") serve lifo and
# fifo, bags random
STRUCTURES = pytest.mark.parametrize("policy", ["lifo", "random"], ids=["chain", "bag"])


class TestGainBucket:
    @STRUCTURES
    def test_max_pointer_falls_back_on_drain(self, policy):
        b = GainBucket([B1] * 4, span=3, policy=policy)
        b.fill((0, 1, 2), (2, 2, -1))
        assert b.top[B1] - b.span == 2
        b.remove(0)
        assert b.top[B1] - b.span == 2
        b.remove(1)
        assert b.top[B1] - b.span == -1
        b.audit()
        b.remove(2)
        assert b.top[B1] == -1
        b.audit()

    @STRUCTURES
    def test_relocate_keeps_links_consistent(self, policy):
        rng = random.Random(17)
        b = GainBucket([B1] * 10, span=5, policy=policy)
        gains = [rng.randint(-5, 5) for _ in range(10)]
        b.fill(range(10), gains)
        for _ in range(200):
            c = rng.randrange(10)
            gains[c] = rng.randint(-5, 5)
            b.relocate(c, gains[c])
            b.audit()
        assert filed_count(b) == 10

    @STRUCTURES
    def test_remove_absent_cell_rejected(self, policy):
        b = GainBucket([B1] * 3, span=1, policy=policy)
        with pytest.raises(ValueError):
            b.remove(0)
        with pytest.raises(ValueError):
            b.relocate(0, 1)

    @pytest.mark.parametrize("policy", TIE_POLICIES)
    def test_relocate_orders_cells_as_remove_then_insert(self, policy):
        # relocate is one body; the order it leaves must be the one that
        # remove followed by a one-cell fill leaves, slot by slot
        rng = random.Random(18)
        one = GainBucket([B1] * 12, span=4, policy=policy)
        two = GainBucket([B1] * 12, span=4, policy=policy)
        for c in range(12):
            g = rng.randint(-4, 4)
            one.fill((c,), (g,))
            two.fill((c,), (g,))
        for _ in range(300):
            c = rng.randrange(12)
            g = rng.randint(-4, 4)
            one.relocate(c, g)
            two.remove(c)
            two.fill((c,), (g,))
            one.audit()
            seed = rng.random()
            assert list(one.iter_descending(B1, random.Random(seed))) == list(
                two.iter_descending(B1, random.Random(seed))
            )
            assert one.top == two.top

    @pytest.mark.parametrize("policy", ["lifo", "fifo"])
    def test_tie_order_after_churn_matches_a_list_model(self, policy):
        # the model files a cell at the end of its slot's list whenever it
        # enters the slot, by fill or relocate (also into the slot it left);
        # lifo reads each slot newest first, fifo oldest first
        rng = random.Random(20)
        span = 3
        for _ in range(40):
            n = rng.randint(1, 12)
            bucket = GainBucket([B1] * n, span, policy)
            model = [[] for _ in range(2 * span + 1)]
            for _ in range(60):
                filed = [c for c in range(n) if bucket.slot[c] >= 0]
                free = [c for c in range(n) if bucket.slot[c] < 0]
                kind = rng.random()
                if free and (not filed or kind < 0.3):
                    cells = rng.sample(free, rng.randint(1, len(free)))
                    gains = [rng.randint(-span, span) for _ in cells]
                    bucket.fill(cells, gains)
                    for c, g in zip(cells, gains):
                        model[g + span].append(c)
                else:
                    c = rng.choice(filed)
                    next(cells for cells in model if c in cells).remove(c)
                    if kind < 0.5:
                        bucket.remove(c)
                    else:
                        g = rng.randint(-span, span)
                        bucket.relocate(c, g)
                        model[g + span].append(c)
                bucket.audit()
                want = [
                    (c, k - span)
                    for k in range(2 * span, -1, -1)
                    for c in (model[k][::-1] if policy == "lifo" else model[k])
                ]
                assert list(bucket.iter_descending(B1)) == want
                assert bucket.select(B1) == (want[0][0] if want else None)
                for i, (c, g) in enumerate(want):
                    if i == 0 or want[i - 1][1] != g:
                        # resumed past the first cell of its slot
                        assert list(bucket.iter_descending(B1, after=c)) == want[i + 1:]

    @pytest.mark.parametrize("policy", TIE_POLICIES)
    def test_resumed_order_is_the_rest_of_the_order(self, policy):
        # an order resumed past the first cell it yields in a slot yields
        # what the whole order yields after it and leaves rng as the whole
        # order would
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randint(1, 14)
            bucket = GainBucket([B1] * n, span=3, policy=policy)
            bucket.fill(range(n), [rng.randint(-3, 3) for _ in range(n)])
            seed = rng.random()
            whole = list(bucket.iter_descending(B1, random.Random(seed)))
            pick_rng, step_rng = random.Random(seed), random.Random(seed)
            next(bucket.iter_descending(B1, step_rng))
            assert (bucket.select(B1, pick_rng), pick_rng.getstate()) == (whole[0][0], step_rng.getstate())
            for k in range(1, n + 1):
                if k > 1 and whole[k - 2][1] == whole[k - 1][1]:
                    continue
                walk_rng = random.Random(seed)
                walk = bucket.iter_descending(B1, walk_rng)
                head = [next(walk) for _ in range(k)]
                resume_rng = random.Random()
                resume_rng.setstate(walk_rng.getstate())
                rest = list(bucket.iter_descending(B1, resume_rng, head[-1][0]))
                assert head + rest == whole
                assert rest == list(walk)
                assert resume_rng.getstate() == walk_rng.getstate()


class TestPartitionAfterEveryMove:
    """A pass moves the pins itself; after each step p must equal a
    partition rebuilt from its side vector, and the buckets must hold
    exactly the cells not yet moved."""

    @staticmethod
    def check_every_step(h, seen):
        """An on_step hook for a pass over h; seen collects the moved cells
        it has checked."""

        def check(state, p, moved):
            assert p == Partition.from_sides(h, p.side)
            for c in moved[len(seen) :]:
                assert state.slot[c] == -1
                seen.append(c)
            assert seen == moved
            assert filed_count(state) == h.cell_count - len(moved)

        return check

    @pytest.mark.parametrize("policy", TIE_POLICIES)
    def test_fm_pass(self, policy):
        rng = random.Random(18)
        for _ in range(30):
            n = rng.randint(1, 40)
            h = random_hypergraph(rng, n, rng.randint(0, 2 * n), 1, 6)
            moved = []
            p = balanced_partition(h, rng)
            fm_pass(h, p, FmConfig(seed=2, tie_policy=policy), rng, self.check_every_step(h, moved))
            assert sorted(moved) == list(range(n))

    @pytest.mark.parametrize("policy", TIE_POLICIES)
    def test_swap_pass(self, policy):
        rng = random.Random(19)
        for _ in range(30):
            h = pad_dummy(random_hypergraph(rng, rng.randint(1, 40), rng.randint(0, 80), 1, 6))
            p = random_initial_partition(h, rng)
            moved = []
            variant_pass(h, p, FmConfig(seed=2, tie_policy=policy), rng, self.check_every_step(h, moved))
            assert sorted(moved) == list(range(h.cell_count))
