import random

import pytest

import fmpart.fm
from conftest import balanced_partition
from fmpart.fm import (
    FmConfig,
    PassTrace,
    best_prefix_index,
    fm_pass,
    fm_run,
    random_initial_partition,
    rollback_to_prefix,
)
from fmpart.hypergraph import B1, B2, Partition, apply_move, build, cut_count
from fmpart.oracle import exact_min_cut_balanced
from fmpart.pairwise import pad_dummy, variant_pass
from fmpart.synth import random_balanced_sides, random_hypergraph


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
        assert sorted(p.block_size) == [2, 3]

    def test_even_count_splits_evenly(self, h4):
        p = random_initial_partition(h4, random.Random(1))
        assert p.block_size == [2, 2]

    def test_same_seed_same_partition(self, h_star):
        a = random_initial_partition(h_star, random.Random(9))
        b = random_initial_partition(h_star, random.Random(9))
        assert a == b

    def test_both_orientations_reachable(self, h_star):
        sizes = {
            tuple(random_initial_partition(h_star, random.Random(s)).block_size)
            for s in range(40)
        }
        assert sizes == {(2, 3), (3, 2)}


class TestFmPass:
    def test_disjoint_pairs_reach_zero_for_every_seed(self, h4):
        for seed in range(1, 21):
            p = Partition.from_sides(h4, [0, 0, 1, 1])
            assert p.cut_count == 2
            fm_pass(h4, p, FmConfig(seed=seed), random.Random(seed))
            assert p.cut_count == 0
            assert p.block_size == [2, 2]

    def test_two_cell_net_keeps_balance(self):
        # the only cut-free configurations put both cells in one block;
        # those are unbalanced, so the pass must settle for cut 1
        h = build([[0, 1]], 2)
        for seed in range(1, 11):
            p = Partition.from_sides(h, [0, 1])
            trace = fm_pass(h, p, FmConfig(seed=seed), random.Random(seed))
            assert p.cut_count == 1
            assert sorted(p.block_size) == [1, 1]
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

    def test_trace_consistency_on_random_instances(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(1, 12)
            h = random_hypergraph(rng, n, rng.randint(0, 18), 1, 6)
            p = balanced_partition(h, rng)
            start = p.clone()
            trace = fm_pass(h, p, FmConfig(seed=1), rng)
            # every cell moved exactly once
            assert len(trace.steps) == n
            assert sorted(c for st in trace.steps for c in st.cells) == list(range(n))
            q = start.clone()
            for st in trace.steps:
                assert st.gain == q.cut_count - st.cut_after
                for c in st.cells:
                    apply_move(q, h, c)
                assert q.cut_count == st.cut_after
                assert cut_count(h, q.side) == st.cut_after

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
            replay = start.clone()
            for st in trace.steps[: trace.best_prefix]:
                for c in st.cells:
                    apply_move(replay, h, c)
            assert replay == p

    def test_pass_respects_balance_on_return(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(2, 12)
            h = random_hypergraph(rng, n, rng.randint(1, 16), 1, 6)
            p = balanced_partition(h, rng)
            fm_pass(h, p, FmConfig(seed=4), rng)
            assert abs(p.block_size[B1] - p.block_size[B2]) <= 1


def flip_steps(p, h, steps):
    for st in steps:
        for c in st.cells:
            apply_move(p, h, c)


def cells_in(steps):
    return sum(len(st.cells) for st in steps)


class TestRollbackToPrefix:
    """Complement-and-replay for full passes with a short kept prefix, tail
    undo otherwise; each result must equal the kept prefix replayed from a
    clone of the start."""

    @staticmethod
    def rolled_back(monkeypatch, h, start, steps, keep):
        """Roll start moved by steps back to keep steps; the flips it took."""
        p = start.clone()
        flip_steps(p, h, steps)
        flips = []

        def counted(q, g, c):
            flips.append(c)
            apply_move(q, g, c)

        with monkeypatch.context() as m:
            m.setattr(fmpart.fm, "apply_move", counted)
            rollback_to_prefix(h, p, steps, keep)
        replay = start.clone()
        flip_steps(replay, h, steps[:keep])
        assert p == replay
        return len(flips)

    @pytest.mark.parametrize("kind", ["fm", "swap"])
    def test_each_path_matches_prefix_replay(self, monkeypatch, kind):
        rng = random.Random(31)
        taken = set()
        for _ in range(40):
            n = rng.randint(1, 14)
            g = random_hypergraph(rng, n, rng.randint(0, 2 * n), 1, 6)
            if kind == "fm":
                h = g
                start = balanced_partition(h, rng)
                steps = fm_pass(h, start.clone(), FmConfig(seed=5), rng).steps
            else:
                ph = pad_dummy(g)
                h = ph.graph
                start = Partition.from_sides(h, random_balanced_sides(rng, h.cell_count))
                steps = variant_pass(ph, start.clone(), FmConfig(seed=5), rng).steps
            for keep in range(len(steps) + 1):
                flips = self.rolled_back(monkeypatch, h, start, steps, keep)
                if 2 * keep < len(steps):
                    assert flips == cells_in(steps[:keep])
                    taken.add(("complement", n % 2))
                else:
                    assert flips == cells_in(steps[keep:])
                    taken.add(("undo", n % 2))
            # a pass cut short leaves cells unmoved, so it is undone
            for j in range(1, len(steps)):
                assert self.rolled_back(monkeypatch, h, start, steps[:j], 0) == cells_in(steps[:j])
                taken.add(("partial", n % 2))
        assert taken == {(path, odd) for path in ("complement", "undo", "partial") for odd in (0, 1)}


class TestBestPrefixIndex:
    def test_prefers_earliest_minimum(self):
        trace = PassTrace(5, 1, [], 0)
        assert trace.best_cut == 5

    def test_unbalanced_prefixes_skipped(self):
        from fmpart.fm import PassStep

        steps = [
            PassStep((0,), 2, 3, 2),   # better cut but unbalanced
            PassStep((1,), -1, 4, 1),
        ]
        assert best_prefix_index(5, 1, steps) == 2

    def test_tie_resolves_to_earliest(self):
        from fmpart.fm import PassStep

        steps = [
            PassStep((0,), 0, 5, 1),
            PassStep((1,), 0, 5, 0),
        ]
        assert best_prefix_index(5, 0, steps) == 0

    def test_steps_are_immutable(self):
        from fmpart.fm import PassStep

        step = PassStep((0,), 1, 4, 1)
        assert (step.cells, step.gain, step.cut_after, step.size_diff) == ((0,), 1, 4, 1)
        with pytest.raises(AttributeError):
            step.cut_after = 3


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
