"""Random instance generation shared by experiments and tests."""

from __future__ import annotations

import random

from .hypergraph import Hypergraph, build


def random_hypergraph(
    rng: random.Random,
    cell_count: int,
    net_count: int,
    min_pins: int = 2,
    max_pins: int = 6,
) -> Hypergraph:
    """Each net draws a uniform pin count in [min_pins, max_pins], clamped to
    the cell count, and samples that many distinct cells."""
    nets = []
    for _ in range(net_count):
        k = min(rng.randint(min_pins, max_pins), cell_count)
        nets.append(rng.sample(range(cell_count), k))
    return build(nets, cell_count)


def clustered_hypergraph(
    rng: random.Random,
    cell_count: int,
    net_count: int,
    cross_fraction: float = 0.4,
    min_pins: int = 2,
    max_pins: int = 6,
) -> Hypergraph:
    """Random hypergraph with two planted clusters, mimicking the locality of
    circuit netlists: most nets sample their pins inside one cluster, a
    cross_fraction of them sample globally."""
    half = cell_count // 2
    groups = (list(range(half)), list(range(half, cell_count)))
    nets = []
    for _ in range(net_count):
        k = min(rng.randint(min_pins, max_pins), cell_count)
        if rng.random() < cross_fraction:
            nets.append(rng.sample(range(cell_count), k))
        else:
            g = groups[rng.randrange(2)]
            nets.append(rng.sample(g, min(k, len(g))))
    return build(nets, cell_count)
