"""Seeded instance generator for the benchmark workloads.

Everything here is a function of the workload seed. The program under test
only ever sees the files written by `write_workload`; the benchmark keeps the
generator's own net lists (`Instance.nets`, in generator cell ids) to check
the program's answers independently of its parsers.

Every cell lies on at least one net: the IBM parser builds its cell table
from the pin lines alone, so a cell on no net would vanish from the parsed
hypergraph.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

# ibm01 (ISPD98) has 12,752 cells, 14,111 nets and about 50k pins. One cell
# fewer gives an odd count, so the single-move stopping property of FM holds
# (see checks.fm_stop_violation) and applies to every row.
LARGE_CELLS = 12_751
LARGE_PADS = 246
# Net sizes as (size, count): mostly 2-3 pins, a heavy tail up to 400 pins;
# 14,111 nets and 49,635 pins on every seed.
LARGE_NET_SIZES = (
    [(2, 7_700), (3, 3_500), (4, 1_300)]
    + [(k, 240) for k in range(5, 10)]
    + [(k, 30) for k in range(10, 21)]
    + [(21 + k % 40, 1) for k in range(70)]
    + [(k, 1) for k in (100, 120, 140, 160, 180, 200, 240, 280, 320, 360, 400)]
)

# same-size instances, so the median task is a median over all of them
PAIR_CELLS = (600, 601) * 3
VERIFY_CELLS = tuple(n for n in range(12, 23) for _ in range(3))


@dataclass
class Instance:
    """One generated netlist: the file the program reads and the truth behind it."""

    path: str
    cell_count: int
    nets: list[list[int]]
    # name of each generator cell as written to the file
    names: list[str]


def circuit_nets(rng: random.Random, cells: int, sizes: list[tuple[int, int]]) -> list[list[int]]:
    """Nets with circuit-like, hierarchical locality.

    Cell i drives net i (so every cell lies on a net); the remaining nets get
    random drivers. Each other pin comes from the driver's group of 64
    consecutive cells with probability 0.7, from its region of 1,024 cells
    with probability 0.2, and from anywhere otherwise.
    """
    net_sizes = [k for k, count in sizes for _ in range(count)]
    rng.shuffle(net_sizes)
    if len(net_sizes) < cells:
        raise ValueError("need at least one net per cell")
    nets = []
    for i, k in enumerate(net_sizes):
        driver = i if i < cells else rng.randrange(cells)
        pins = {driver}
        while len(pins) < k:
            r = rng.random()
            width = 64 if r < 0.7 else 1024 if r < 0.9 else cells
            lo = driver - driver % width
            pins.add(min(lo + rng.randrange(width), cells - 1))
        rest = sorted(pins - {driver})
        rng.shuffle(rest)
        nets.append([driver] + rest)
    return nets


def planted_nets(rng: random.Random, cells: int, net_count: int, cross: int) -> list[list[int]]:
    """Two hidden halves of random cells; `cross` nets span both halves.

    Each cell first gets one 2-pin net to another cell of its own half; the
    rest of the nets have 2 to 4 pins drawn from one half, except the
    `cross` nets, which draw from both. The planted bisection therefore cuts
    at most `cross` nets.
    """
    order = list(range(cells))
    rng.shuffle(order)
    halves = (order[: cells // 2], order[cells // 2 :])
    first = set(halves[0])
    nets = []
    for c in range(cells):
        half = halves[0] if c in first else halves[1]
        other = c
        while other == c:
            other = rng.choice(half)
        nets.append([c, other])
    while len(nets) < net_count:
        k = rng.randint(2, 4)
        if len(nets) < cells + cross:
            a = rng.sample(halves[0], k // 2 or 1)
            nets.append(a + rng.sample(halves[1], k - len(a)))
        else:
            nets.append(rng.sample(halves[rng.randrange(2)], k))
    rng.shuffle(nets)
    return nets


def write_netd(path: str, nets: list[list[int]], names: list[str]) -> None:
    """IBM .netD: five header lines, then one '<name> <s|l> <O|I>' line per pin."""
    pins = sum(len(n) for n in nets)
    pads = sum(1 for nm in names if nm.startswith("p"))
    lines = ["0", str(pins), str(len(nets)), str(len(names)), str(len(names) - pads - 1)]
    for net in nets:
        lines.append(f"{names[net[0]]} s O")
        lines.extend(f"{names[c]} l I" for c in net[1:])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_hgr(path: str, nets: list[list[int]], cells: int) -> None:
    """.hgr: '<net_count> <cell_count>', then 1-based cell ids per net."""
    with open(path, "w") as fh:
        fh.write(f"{len(nets)} {cells}\n")
        fh.writelines(" ".join(str(c + 1) for c in net) + "\n" for net in nets)


def _covered(nets: list[list[int]], cells: int) -> bool:
    seen = set()
    for net in nets:
        seen.update(net)
    return len(seen) == cells


def write_workload(workload: str, seed: int, out_dir: str) -> list[Instance]:
    """Write the workload's files for `seed` into out_dir and describe them."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(out_dir, exist_ok=True)
    out = []
    if workload == "fm_large":
        n = LARGE_CELLS
        nets = circuit_nets(rng, n, LARGE_NET_SIZES)
        rng.shuffle(nets)  # the parser numbers cells by first appearance
        names = [f"a{i}" for i in range(n - LARGE_PADS)] + [f"p{j + 1}" for j in range(LARGE_PADS)]
        path = os.path.join(out_dir, "ibm01like.netD")
        write_netd(path, nets, names)
        out.append(Instance(path, n, nets, names))
    elif workload == "pair_swap":
        for i, n in enumerate(PAIR_CELLS):
            nets = planted_nets(rng, n, round(1.3 * n), round(0.12 * n))
            path = os.path.join(out_dir, f"planted{i}_{n}.hgr")
            write_hgr(path, nets, n)
            out.append(Instance(path, n, nets, [str(c + 1) for c in range(n)]))
    elif workload == "verify_small":
        for i, n in enumerate(VERIFY_CELLS):
            nets = planted_nets(rng, n, 2 * n, round(0.4 * n))
            path = os.path.join(out_dir, f"small{i:02d}_{n}.hgr")
            write_hgr(path, nets, n)
            out.append(Instance(path, n, nets, [str(c + 1) for c in range(n)]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for inst in out:
        if not _covered(inst.nets, inst.cell_count):
            raise AssertionError(f"{inst.path}: a cell lies on no net")
    return out
