"""Transient memory of one FM pass.

A pass logs only the ids of the cells it moves and tracks its best prefix as
it runs, so beyond the gain buckets it holds one list entry per cell.
tracemalloc counts every Python allocation, so on a fixed instance and seed
its peak repeats exactly from run to run.
"""

import random
import tracemalloc

from fmpart.fm import FmConfig, fm_pass, random_initial_partition
from fmpart.synth import clustered_hypergraph

# Peak bytes per cell of one pass on the instance below: about 304 when every
# step kept a record of its cells, cut and size difference, about 131 with
# the flat log of moved cells, about 93 once rollback no longer builds a set
# of that log.
MAX_PASS_BYTES_PER_CELL = 200


def test_pass_peak_memory_per_cell():
    cells = 2001
    rng = random.Random(cells)
    h = clustered_hypergraph(rng, cells, cells)
    p = random_initial_partition(h, rng)
    tracemalloc.start()
    try:
        trace = fm_pass(h, p, FmConfig(seed=1), rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.steps) == cells
    assert peak < MAX_PASS_BYTES_PER_CELL * cells, (
        f"one pass peaked at {peak / cells:.1f} bytes per cell ({peak / 2**20:.2f} MiB)"
    )
