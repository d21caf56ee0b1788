"""Hypergraph bipartitioning toolkit.

Move-based refinement with gain buckets, a pairwise-swap variant with exact
swap gains, IBM/.hgr netlist parsing, a brute-force oracle, and a benchmark
CLI (installed as `partition`).

The package exports what a user drives: the run configuration and results,
the hypergraph and partition, the runs and single passes of both
algorithms, the oracle and the parsers. Gain buckets, pair search and other
pass internals stay in their modules (`fmpart.gains`, `fmpart.pairwise`).
"""

from .fm import FmConfig, PassTrace, RunResult, fm_pass, fm_run, random_initial_partition
from .hypergraph import Hypergraph, Partition, build, cut_count
from .netlist_io import (
    NetlistDocument,
    NetlistFormatError,
    parse_hgr,
    parse_ibm_net,
    read_partition,
    write_partition,
)
from .oracle import OracleResult, delta_cut_move, delta_cut_swap, exact_min_cut_balanced
from .pairwise import pad_dummy, variant_pass, variant_run

__all__ = [
    "FmConfig",
    "Hypergraph",
    "NetlistDocument",
    "NetlistFormatError",
    "OracleResult",
    "Partition",
    "PassTrace",
    "RunResult",
    "build",
    "cut_count",
    "delta_cut_move",
    "delta_cut_swap",
    "exact_min_cut_balanced",
    "fm_pass",
    "fm_run",
    "pad_dummy",
    "parse_hgr",
    "parse_ibm_net",
    "random_initial_partition",
    "read_partition",
    "variant_pass",
    "variant_run",
    "write_partition",
]
