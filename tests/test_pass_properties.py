"""Property test of `gains.pass_steps`, the one step loop of FM and swap
passes, on small drawn graphs under every tie policy.

The graphs have up to 14 cells and 24 nets of up to 7 pins, among them
empty and single-pin nets, and cells on no net. FM passes start from any
assignment, balanced or not; swap passes pad an odd cell count with
`pad_dummy` and start from a drawn equal split. After every step the bucket
and its filed gains pass `audit`, the cut equals a recount, and the step's
gain is the best on offer: for FM the highest gain of the block the cell
left, for a swap the highest exact gain over the unlocked pairs. After the
pass, the kept prefix is the earliest balanced one of least cut, and
replaying it from the start gives the partition the pass left.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hypergraphs
from fmpart.fm import FmConfig, fm_pass
from fmpart.gains import TIE_POLICIES, audit, compute_gain
from fmpart.hypergraph import B1, B2, Partition, apply_move, cut_count
from fmpart.pairwise import correct_term, pad_dummy, variant_pass

EXAMPLES = 120

SMALL_GRAPHS = hypergraphs(min_cells=1, max_cells=14, max_nets=24, min_pins=0, max_pins=7)

PASS_SETTINGS = settings(
    max_examples=EXAMPLES,
    derandomize=True,
    database=None,
    deadline=None,
)


@st.composite
def fm_cases(draw):
    h = draw(SMALL_GRAPHS)
    side = draw(st.lists(st.integers(B1, B2), min_size=h.cell_count, max_size=h.cell_count))
    return h, Partition.from_sides(h, side), draw(st.integers(0, 2**32 - 1))


@st.composite
def swap_cases(draw):
    h = pad_dummy(draw(SMALL_GRAPHS))
    order = draw(st.permutations(range(h.cell_count)))
    side = [B2] * h.cell_count
    for c in order[: h.cell_count // 2]:
        side[c] = B1
    return h, Partition.from_sides(h, side), draw(st.integers(0, 2**32 - 1))


def best_move_gain(h, p, unlocked, moved_cell):
    """The highest gain among the unlocked cells of moved_cell's block."""
    return max(compute_gain(h, p, c) for c in unlocked if p.side[c] == p.side[moved_cell])


def best_swap_gain(h, p, unlocked, moved_cell):
    """The highest exact swap gain among the unlocked cross-block pairs."""
    gains = {c: compute_gain(h, p, c) for c in unlocked}
    return max(
        gains[u] + gains[v] - correct_term(h, p, u, v)
        for u in unlocked if p.side[u] == B1
        for v in unlocked if p.side[v] == B2
    )


def checked_pass(run_pass, cells_per_step, best_gain, h, p, seed, policy):
    """Run one pass with the per-step checks; then check its kept prefix."""
    start = p.clone()
    sizes = [start.side.count(B1) - start.side.count(B2)]
    cuts = [start.cut_count]
    before = start.clone()

    def check(buckets, q, moved):
        nonlocal before
        audit(buckets, h, q)
        assert q.cut_count == cut_count(h, q.side)
        assert len(moved) == cells_per_step * len(cuts)
        assert all(buckets.slot[c] == -1 for c in moved)
        unlocked = set(range(h.cell_count)).difference(moved[:-cells_per_step])
        assert cuts[-1] - q.cut_count == best_gain(h, before, unlocked, moved[-1])
        before = q.clone()
        sizes.append(q.side.count(B1) - q.side.count(B2))
        cuts.append(q.cut_count)

    trace = run_pass(h, p, FmConfig(seed=1, tie_policy=policy), random.Random(seed), check)
    assert sorted(trace.steps) == list(range(h.cell_count))
    assert len(cuts) == 1 + h.cell_count // cells_per_step

    # the pass keeps the earliest balanced prefix of least cut (the empty
    # one among them), and nothing when none is balanced
    eligible = [(cut, i) for i, (cut, d) in enumerate(zip(cuts, sizes)) if -1 <= d <= 1]
    best_cut, best_step = min(eligible, default=(start.cut_count, 0))
    assert trace.best_prefix == cells_per_step * best_step
    assert trace.best_cut == p.cut_count == best_cut
    replay = start.clone()
    for c in trace.steps[: trace.best_prefix]:
        apply_move(replay, h, c)
    assert replay == p


@pytest.mark.parametrize("policy", TIE_POLICIES)
@PASS_SETTINGS
@given(case=fm_cases())
def test_fm_pass_steps(policy, case):
    h, p, seed = case
    checked_pass(fm_pass, 1, best_move_gain, h, p, seed, policy)


@pytest.mark.parametrize("policy", TIE_POLICIES)
@PASS_SETTINGS
@given(case=swap_cases())
def test_swap_pass_steps(policy, case):
    h, p, seed = case
    checked_pass(variant_pass, 2, best_swap_gain, h, p, seed, policy)
