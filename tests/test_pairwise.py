import heapq
import random

import pytest

import fmpart.pairwise
from conftest import C1, C2, C4, C5, balanced_partition, bucket_gains
from fmpart.fm import FmConfig
from fmpart.gains import TIE_POLICIES, compute_gain, init, move_by_operations
from fmpart.hypergraph import B1, B2, Partition, apply_move, build, cut_count
from fmpart.oracle import delta_cut_swap, exact_min_cut_balanced
from fmpart.pairwise import (
    best_pair,
    correct_term,
    pad_dummy,
    pair_gain,
    selection_state,
    variant_pass,
    variant_run,
)
from fmpart.synth import clustered_hypergraph, random_hypergraph


def exact_balanced_partition(h, rng):
    ids = list(range(h.cell_count))
    rng.shuffle(ids)
    side = [B2] * h.cell_count
    for c in ids[: h.cell_count // 2]:
        side[c] = B1
    return Partition.from_sides(h, side)


def all_gains(h, p):
    return [compute_gain(h, p, c) for c in range(h.cell_count)]


def copy_rng(rng):
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


def heap_best_pair(state, h, p, rng):
    """The pair search as a bound heap alone, the reference for `best_pair`:
    Kernighan & Lin's sorted-list scan over two `iter_descending` orders,
    with no direct path for the top pair."""

    def reach(cells, order, k):
        if k < len(cells):
            return True
        entry = next(order, None)
        if entry is None:
            return False
        cells.append(entry)
        return True

    order_u = state.buckets.iter_descending(B1, rng)
    order_v = state.buckets.iter_descending(B2, rng)
    us = [next(order_u)]
    vs = [next(order_v)]
    best = None
    heap = [(-(us[0][1] + vs[0][1]), 0, 0)]
    while heap:
        negb, i, j = heapq.heappop(heap)
        if best is not None and -negb <= best[2]:
            break
        u, gu = us[i]
        v, gv = vs[j]
        g = -negb - correct_term(h, p, u, v)
        state.pair_gain_evals += 1
        if best is None or g > best[2]:
            best = (u, v, g)
        if reach(vs, order_v, j + 1):
            heapq.heappush(heap, (-(gu + vs[j + 1][1]), i, j + 1))
        if j == 0 and reach(us, order_u, i + 1):
            heapq.heappush(heap, (-(us[i + 1][1] + gv), i + 1, 0))
    return best


class TestPadDummy:
    def test_odd_count_gets_isolated_filler(self, h_star):
        ph = pad_dummy(h_star)
        assert ph.cell_count == 6
        assert ph.cell_count // 2 == 3
        assert ph.cell_nets[:5] == h_star.cell_nets
        assert ph.cell_nets[5] == ()

    def test_even_count_unchanged(self, h4):
        ph = pad_dummy(h4)
        assert ph is h4
        assert ph.cell_count // 2 == 2

    def test_cut_ignores_dummy_placement(self, h_star):
        ph = pad_dummy(h_star)
        a = Partition.from_sides(ph, [1, 1, 0, 0, 0, 0])
        b = Partition.from_sides(ph, [1, 1, 0, 0, 0, 1])
        assert a.cut_count == b.cut_count == 1


    def test_equals_a_rebuild_with_one_more_cell(self):
        rng = random.Random(41)
        for _ in range(40):
            n = 2 * rng.randint(0, 10) + 1
            nets = [[], [rng.randrange(n)]]
            nets += [rng.sample(range(n), min(rng.randint(2, 5), n)) for _ in range(rng.randint(0, 15))]
            rng.shuffle(nets)
            h = build(nets, n)
            ph = pad_dummy(h)
            assert ph == build(h.nets, n + 1)


class TestCorrectTerm:
    def test_shared_triple_net(self, h_star, p_star):
        assert correct_term(h_star, p_star, C5, C1) == 1

    def test_lone_two_pin_net_counts_double(self):
        h = build([[0, 1]], 2)
        p = Partition.from_sides(h, [0, 1])
        assert correct_term(h, p, 0, 1) == 2

    def test_no_shared_nets(self, h_star, p_star):
        assert correct_term(h_star, p_star, C4, C1) == 0

    def test_same_block_rejected(self, h_star, p_star):
        with pytest.raises(ValueError):
            correct_term(h_star, p_star, C4, C5)

    def test_nonnegative_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(2, 12)
            h = random_hypergraph(rng, n, rng.randint(0, 16), 1, 6)
            p = balanced_partition(h, rng)
            for u in range(n):
                for v in range(n):
                    if p.side[u] == B1 and p.side[v] == B2:
                        assert correct_term(h, p, u, v) >= 0


class TestPairGain:
    def test_fixture_pairs(self, h_star, p_star):
        gains = all_gains(h_star, p_star)
        assert pair_gain(h_star, p_star, gains, C5, C1) == -2
        assert pair_gain(h_star, p_star, gains, C4, C1) == -1

    def test_disjoint_pair_nets(self, h4):
        p = Partition.from_sides(h4, [0, 0, 1, 1])
        gains = all_gains(h4, p)
        assert pair_gain(h4, p, gains, 0, 3) == 2

    def test_matches_oracle_swap_delta(self):
        rng = random.Random(32)
        for _ in range(200):
            n = rng.randint(2, 12)
            h = random_hypergraph(rng, n, rng.randint(0, 18), 1, 6)
            p = balanced_partition(h, rng)
            gains = all_gains(h, p)
            for u in range(n):
                for v in range(n):
                    if p.side[u] == B1 and p.side[v] == B2:
                        assert pair_gain(h, p, gains, u, v) == delta_cut_swap(h, p, u, v)


class TestBestPair:
    def test_single_pair(self):
        h = build([[0, 1]], 2)
        p = Partition.from_sides(h, [0, 1])
        st = init(h, p, "lifo")
        sel = selection_state(st)
        u, v, _ = best_pair(sel, h, p, random.Random(0))
        assert (u, v) == (0, 1)

    def test_disjoint_pairs_find_plus_two(self, h4):
        p = Partition.from_sides(h4, [0, 0, 1, 1])
        st = init(h4, p, "lifo")
        sel = selection_state(st)
        u, v, _ = best_pair(sel, h4, p, random.Random(1))
        assert (u, v) in ((0, 3), (1, 2))
        assert pair_gain(h4, p, bucket_gains(st), u, v) == 2

    def test_five_cell_maximum_is_minus_one(self, h_star, p_star):
        st = init(h_star, p_star, "lifo")
        sel = selection_state(st)
        u, v, _ = best_pair(sel, h_star, p_star, random.Random(2))
        assert pair_gain(h_star, p_star, bucket_gains(st), u, v) == -1
        assert (u, v) not in ((C5, C1), (C5, C2))

    def test_empty_block_rejected(self):
        h = build([], 2)
        p = Partition.from_sides(h, [0, 0])
        st = init(h, p, "lifo")
        sel = selection_state(st)
        with pytest.raises(ValueError):
            best_pair(sel, h, p, random.Random(0))

    def test_equals_exhaustive_enumeration(self):
        rng = random.Random(33)
        for _ in range(200):
            n = rng.choice([2, 4, 6, 8, 10, 12, 14, 16])
            h = random_hypergraph(rng, n, rng.randint(1, 24), 1, 6)
            p = exact_balanced_partition(h, rng)
            st = init(h, p, "lifo")
            sel = selection_state(st)
            u, v, _ = best_pair(sel, h, p, rng)
            gains = bucket_gains(st)
            got = pair_gain(h, p, gains, u, v)
            exhaustive = max(
                pair_gain(h, p, gains, a, b)
                for a in range(n)
                for b in range(n)
                if p.side[a] == B1 and p.side[b] == B2
            )
            assert got == exhaustive
            assert sel.pair_gain_evals <= (n // 2) ** 2

    def test_returned_gain_is_the_exact_swap_gain(self):
        rng = random.Random(35)
        for _ in range(100):
            n = rng.choice([2, 4, 6, 8, 10])
            h = random_hypergraph(rng, n, rng.randint(1, 16), 1, 6)
            p = exact_balanced_partition(h, rng)
            for policy in TIE_POLICIES:
                st = init(h, p, policy)
                u, v, g = best_pair(selection_state(st), h, p, rng)
                assert g == pair_gain(h, p, bucket_gains(st), u, v) == delta_cut_swap(h, p, u, v)

    def test_exact_under_every_tie_policy_through_a_pass(self):
        # mid-size blocks at every step of a pass: locked cells gone, gains spread
        rng = random.Random(37)
        checked = dict.fromkeys(TIE_POLICIES, 0)

        def checker(policy):
            def on_step(state, p, steps):
                if state.top[B1] < 0:
                    return
                gains = bucket_gains(state)
                unlocked = [c for c in range(h.cell_count) if gains[c] is not None]
                exhaustive = max(
                    pair_gain(h, p, gains, a, b)
                    for a in unlocked
                    for b in unlocked
                    if p.side[a] == B1 and p.side[b] == B2
                )
                sel = selection_state(state)
                u, v, _ = best_pair(sel, h, p, random.Random(checked[policy]))
                assert (p.side[u], p.side[v]) == (B1, B2)
                assert gains[u] is not None and gains[v] is not None
                assert pair_gain(h, p, gains, u, v) == exhaustive
                checked[policy] += 1

            return on_step

        for _ in range(8):
            n = rng.choice([40, 60])
            h = random_hypergraph(rng, n, rng.randint(n, 2 * n), 2, 6)
            start = exact_balanced_partition(h, rng)
            # only the random policy draws from rng, so the instances stay the
            # ones a single random-policy pass per instance would see
            for policy in TIE_POLICIES:
                cfg = FmConfig(seed=1, tie_policy=policy)
                variant_pass(pad_dummy(h), start.clone(), cfg, rng, on_step=checker(policy))
        for policy in TIE_POLICIES:
            assert checked[policy] > 100

    @pytest.mark.parametrize("policy", TIE_POLICIES)
    def test_matches_the_heap_scan_at_every_step(self, monkeypatch, policy):
        # every swap step of a pass, the inline top pair or the heap_scan
        # fallback, against a mirror that searches by the heap scan alone
        # and moves by move_by_operations: same pair and gain, same draws
        # (the rng states agree at the pass's start and after every step),
        # and the same evaluations per pass
        seen = {"shared two-pin cut net": 0, "fallback": 0, "look-ahead enters a lower slot": 0}
        real_pass = fmpart.pairwise.variant_pass

        def top_pair(buckets, rng):
            pair = []
            for blk in (B1, B2):
                cells = list(buckets.members[blk][buckets.top[blk]])
                if buckets.order is reversed:
                    pair.append(cells[-1])
                elif buckets.order is iter:
                    pair.append(cells[0])
                else:
                    pair.append(cells[rng.randrange(len(cells))])
            return pair

        def mirrored_pass(h, p, cfg, rng, on_step=None):
            ref_p = p.clone()
            ref_buckets = init(h, ref_p, cfg.tie_policy)
            ref_rng = copy_rng(rng)
            evals = 0

            def check(buckets, q, moved):
                nonlocal evals
                u, v = top_pair(ref_buckets, copy_rng(ref_rng))
                # a two-pin net on u and v is cut, as they lie on opposite blocks
                if any(len(h.nets[n]) == 2 for n in h.cell_nets[u] if n in h.cell_nets[v]):
                    seen["shared two-pin cut net"] += 1
                if ref_buckets.order is None and any(
                    len(ref_buckets.members[blk][top]) == 1 and ref_buckets._top_from(blk, top - 1) >= 0
                    for blk, top in enumerate(ref_buckets.top)
                ):
                    seen["look-ahead enters a lower slot"] += 1
                ref = selection_state(ref_buckets)
                u, v, gain = heap_best_pair(ref, h, ref_p, ref_rng)
                evals += ref.pair_gain_evals
                if ref.pair_gain_evals > 1:
                    seen["fallback"] += 1
                cut_before = ref_p.cut_count
                move_by_operations(ref_buckets, h, ref_p, u)
                move_by_operations(ref_buckets, h, ref_p, v)
                assert moved[-2:] == [u, v]
                assert cut_before - q.cut_count == gain
                assert q == ref_p
                assert rng.getstate() == ref_rng.getstate()

            trace = real_pass(h, p, cfg, rng, check)
            assert trace.pair_gain_evals == evals
            return trace

        monkeypatch.setattr(fmpart.pairwise, "variant_pass", mirrored_pass)
        rng = random.Random(40)
        for _ in range(12):
            n = rng.choice([40, 61, 100])
            h = clustered_hypergraph(rng, n, n, cross_fraction=0.4, max_pins=3)
            variant_run(h, FmConfig(seed=rng.randrange(1000), tie_policy=policy, max_passes=2))
        assert seen["shared two-pin cut net"] > 0
        assert seen["fallback"] > 0
        if policy == "random":
            assert seen["look-ahead enters a lower slot"] > 0

    def test_ordering_is_nonincreasing(self):
        rng = random.Random(34)
        for _ in range(50):
            n = rng.choice([4, 8, 12])
            h = random_hypergraph(rng, n, rng.randint(1, 16), 1, 5)
            p = exact_balanced_partition(h, rng)
            for policy in TIE_POLICIES:
                st = init(h, p, policy)
                for block in (B1, B2):
                    order = list(st.iter_descending(block, rng))
                    gains = [g for _, g in order]
                    assert gains == sorted(gains, reverse=True)
                    assert all(g == compute_gain(h, p, c) for c, g in order)
                    assert sorted(c for c, _ in order) == sorted(c for c in range(n) if p.side[c] == block)


class TestVariantPass:
    def test_disjoint_pairs_step_one_reaches_zero(self, h4):
        for seed in range(1, 11):
            p = Partition.from_sides(h4, [0, 0, 1, 1])
            ph = pad_dummy(h4)
            trace = variant_pass(ph, p, FmConfig(seed=seed), random.Random(seed))
            # the kept prefix is the first swap, and it cuts nothing
            assert trace.best_prefix == 2
            assert trace.best_cut == 0
            assert p.cut_count == 0

    def test_start_at_optimum_unchanged(self, h4):
        p = Partition.from_sides(h4, [0, 1, 0, 1])
        assert p.cut_count == 0
        snapshot = p.clone()
        trace = variant_pass(pad_dummy(h4), p, FmConfig(seed=1), random.Random(1))
        assert trace.best_prefix == 0
        assert p == snapshot

    def test_five_cell_padded_fixture(self, h_star):
        ph = pad_dummy(h_star)
        p = Partition.from_sides(ph, [0, 0, 1, 1, 1, 0])  # B1={c1,c2,D}, cut 1
        assert p.cut_count == 1
        variant_pass(ph, p, FmConfig(seed=1), random.Random(1))
        assert p.cut_count == 1  # already optimal

    def test_unbalanced_start_rejected(self, h4):
        p = Partition.from_sides(h4, [0, 0, 0, 1])
        with pytest.raises(ValueError):
            variant_pass(pad_dummy(h4), p, FmConfig(seed=1), random.Random(1))

    def test_odd_cell_count_rejected_without_padding(self, h_star):
        p = Partition.from_sides(h_star, [0, 0, 1, 1, 1])
        with pytest.raises(ValueError, match="equal block sizes"):
            variant_pass(h_star, p, FmConfig(seed=1), random.Random(1))

    def test_blocks_stay_equal_every_step(self):
        rng = random.Random(35)

        def on_step(buckets, q, moved):
            assert q.side.count(B1) == q.side.count(B2)
            assert len(moved) % 2 == 0

        for _ in range(50):
            n = rng.choice([2, 4, 6, 8, 10, 12])
            h = random_hypergraph(rng, n, rng.randint(1, 18), 1, 6)
            ph = pad_dummy(h)
            p = exact_balanced_partition(ph, rng)
            trace = variant_pass(ph, p, FmConfig(seed=1), rng, on_step=on_step)
            assert len(trace.steps) == 2 * (ph.cell_count // 2)
            assert sorted(trace.steps) == list(range(ph.cell_count))

    def test_step_gains_are_exact_and_rollback_replays(self):
        # each step's gain, read from the cut before and after it, is the
        # exact swap gain of its pair and what a replay of its moves gives
        rng = random.Random(36)
        for _ in range(60):
            n = rng.choice([2, 4, 6, 8, 10, 12])
            h = random_hypergraph(rng, n, rng.randint(1, 18), 1, 6)
            ph = pad_dummy(h)
            p = exact_balanced_partition(ph, rng)
            start = p.clone()
            before = p.cut_count
            cuts_after = []

            def on_step(buckets, q, moved):
                cuts_after.append(q.cut_count)

            trace = variant_pass(ph, p, FmConfig(seed=2), rng, on_step=on_step)
            assert p.cut_count <= before
            assert len(trace.steps) == 2 * len(cuts_after)
            q = start.clone()
            for t, cut_after in enumerate(cuts_after):
                cut_before = q.cut_count
                u, v = trace.steps[2 * t : 2 * t + 2]
                assert cut_before - cut_after == delta_cut_swap(ph, q, u, v)
                apply_move(q, ph, u)
                apply_move(q, ph, v)
                assert q.cut_count == cut_after
            replay = start.clone()
            for c in trace.steps[: trace.best_prefix]:
                apply_move(replay, ph, c)
            assert replay == p

    @pytest.mark.parametrize("policy", TIE_POLICIES)
    @pytest.mark.parametrize("cells", [401, 800])
    def test_pass_work_linear_in_block_size(self, cells, policy):
        # a whole pass, not one call: pair evaluations stay within a few per step
        rng = random.Random(cells)
        h = clustered_hypergraph(rng, cells, cells, cross_fraction=0.4)
        ph = pad_dummy(h)
        p = exact_balanced_partition(ph, rng)
        trace = variant_pass(ph, p, FmConfig(seed=1, tie_policy=policy), rng)
        assert len(trace.steps) == 2 * (ph.cell_count // 2)
        assert trace.pair_gain_evals <= 4 * (ph.cell_count // 2)


class TestVariantRun:
    def test_disjoint_pairs_always_optimal(self, h4):
        for seed in range(1, 11):
            r = variant_run(h4, FmConfig(seed=seed))
            assert r.optimal_cut == 0

    def test_five_cell_always_optimal(self, h_star):
        for seed in range(1, 11):
            r = variant_run(h_star, FmConfig(seed=seed))
            assert r.optimal_cut == 1
            assert len(r.final_side) == 5  # dummy stripped from the report

    def test_single_net_pair_cannot_uncut(self):
        # a 1/1 split of a two-pin net stays cut: the only swap is a no-op
        h = build([[0, 1]], 2)
        for seed in range(1, 6):
            r = variant_run(h, FmConfig(seed=seed))
            assert r.optimal_cut == 1

    def test_empty_hypergraph(self):
        h = build([], 0)
        r = variant_run(h, FmConfig(seed=1))
        assert (r.initial_cut, r.optimal_cut, r.passes) == (0, 0, 1)

    def test_dummy_neutrality(self, h_star):
        # padding an odd instance behaves exactly like handing over the same
        # instance with one explicit isolated cell appended
        h_even = build(list(h_star.nets), 6)
        for seed in range(1, 8):
            padded = variant_run(h_star, FmConfig(seed=seed))
            explicit = variant_run(h_even, FmConfig(seed=seed))
            assert padded.optimal_cut == explicit.optimal_cut
            assert padded.initial_cut == explicit.initial_cut
            assert len(padded.final_side) == 5
            assert len(explicit.final_side) == 6

    def test_never_below_oracle_optimum(self):
        rng = random.Random(38)
        for _ in range(30):
            n = rng.randint(2, 14)
            h = random_hypergraph(rng, n, rng.randint(1, 20), 1, 6)
            optimum = exact_min_cut_balanced(h, "off_by_one").optimum_cut
            r = variant_run(h, FmConfig(seed=rng.randrange(1000)))
            assert r.optimal_cut >= optimum

    def test_reported_sizes_balanced_on_original_cells(self):
        rng = random.Random(39)
        for _ in range(20):
            n = rng.randint(2, 13)
            h = random_hypergraph(rng, n, rng.randint(1, 16), 1, 6)
            r = variant_run(h, FmConfig(seed=7))
            ones = sum(r.final_side)
            assert abs((n - ones) - ones) <= 1

    def test_tie_policy_reproducible_and_effective(self):
        h = clustered_hypergraph(random.Random(5), 200, 260)
        finals = {}
        for policy in TIE_POLICIES:
            runs = [variant_run(h, FmConfig(seed=5, tie_policy=policy)).final_side for _ in range(2)]
            assert runs[0] == runs[1]
            finals[policy] = runs[0]
        assert finals["lifo"] != finals["fifo"]
