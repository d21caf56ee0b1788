"""Parser memory: the IBM parser at ibm01 scale, and .hgr cells declared
by the header alone.

parse_ibm_net closes each net into a tuple as soon as the next 's' line
opens another, so no pin list is held twice. tracemalloc counts every
Python allocation, so on a fixed input its peak repeats exactly from run to
run: the peak minus what the returned document keeps is the parse's
transient memory, and it is bounded per pin line. parse_hgr keeps one name
per declared cell and builds no name index, so its whole peak is bounded
per declared cell.
"""

import random
import tracemalloc

from fmpart.netlist_io import parse_hgr, parse_ibm_net

# Transient bytes per pin line on an ibm01-sized .netD: about 113 when every
# net is kept as a list and copied into a tuple at the end, about 75 when
# each net is closed into a tuple as it ends.
MAX_TRANSIENT_BYTES_PER_PIN = 94
# Peak bytes per declared cell of a header-only .hgr of 100,000 cells: about
# 144 with a name-to-id index beside the names, about 62 with the names alone.
MAX_HGR_BYTES_PER_DECLARED_CELL = 90


def ibm01_sized_netd(cells: int = 12_000, net_count: int = 14_000, seed: int = 1) -> bytes:
    """A seeded .netD: cell i drives net i, so every cell lies on a net, and
    the other pins come from the driver's neighbourhood of 64 cells."""
    rng = random.Random(seed)
    body = []
    for i in range(net_count):
        driver = i if i < cells else rng.randrange(cells)
        lo = driver - driver % 64
        size = rng.choice((2, 2, 2, 3, 3, 4, 5, 7))
        pins = [driver] + rng.sample([c for c in range(lo, min(lo + 64, cells)) if c != driver], size - 1)
        body.append(f"a{pins[0]} s O")
        body.extend(f"a{c} l I" for c in pins[1:])
    header = ["0", str(len(body)), str(net_count), str(cells), str(cells - 1)]
    return ("\n".join(header + body) + "\n").encode()


def test_transient_parse_memory_per_pin():
    data = ibm01_sized_netd()
    tracemalloc.start()
    try:
        doc = parse_ibm_net(data, dialect="netD")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert doc.cell_count == 12_000 and len(doc.nets) == 14_000
    pins = doc.declared_pin_count
    assert 45_000 < pins < 55_000
    transient = peak - retained
    assert transient <= MAX_TRANSIENT_BYTES_PER_PIN * pins, (
        f"parse held {transient / pins:.1f} transient bytes per pin "
        f"({transient / 2**20:.2f} MiB for {pins} pins)"
    )


def test_header_only_hgr_memory_per_declared_cell():
    cells = 100_000
    tracemalloc.start()
    try:
        doc = parse_hgr(f"0 {cells}\n".encode())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert doc.cell_count == cells and doc.nets == []
    assert peak < MAX_HGR_BYTES_PER_DECLARED_CELL * cells, (
        f"parse_hgr peaked at {peak / cells:.1f} bytes per declared cell ({peak / 2**20:.2f} MiB)"
    )
