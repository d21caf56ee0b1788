import random

import pytest
from hypothesis import strategies as st

from fmpart.fm import random_initial_partition
from fmpart.hypergraph import B1, B2, Partition, build

# the five-cell three-net fixture used throughout: c1..c5 are ids 0..4,
# nets {c4,c5}, {c3,c5}, {c1,c2,c5}
FIVE_CELL_NETS = [[3, 4], [2, 4], [0, 1, 4]]
C1, C2, C3, C4, C5 = range(5)


@pytest.fixture
def h_star():
    return build(FIVE_CELL_NETS, 5)


@pytest.fixture
def p_star(h_star):
    # B1 = {c3, c4, c5}, B2 = {c1, c2}; exactly one net crosses
    return Partition.from_sides(h_star, [1, 1, 0, 0, 0])


@pytest.fixture
def h4():
    # two disjoint two-pin nets {a,c} and {b,d}
    return build([[0, 2], [1, 3]], 4)


@st.composite
def hypergraphs(draw, min_cells=1, max_cells=12, max_nets=20, min_pins=1, max_pins=6):
    n = draw(st.integers(min_cells, max_cells))
    nets = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=min_pins, max_size=max_pins, unique=True),
            max_size=max_nets,
        )
    )
    return build(nets, n)


@st.composite
def hypergraph_with_partition(draw, **kwargs):
    h = draw(hypergraphs(**kwargs))
    side = draw(st.lists(st.integers(0, 1), min_size=h.cell_count, max_size=h.cell_count))
    return h, Partition.from_sides(h, side)


def balanced_partition(h, rng: random.Random) -> Partition:
    return random_initial_partition(h, rng)


def bucket_gains(buckets) -> list:
    """Each cell's gain as the pass bucket files it, or None for a locked
    cell, which no slot holds."""
    gains = [None] * len(buckets.slot)
    for block in (B1, B2):
        for c, g in buckets.iter_descending(block, random.Random(0)):
            gains[c] = g
    return gains


def filed_count(buckets) -> int:
    """How many cells the bucket holds, counted from its slot records."""
    return sum(s >= 0 for s in buckets.slot)
