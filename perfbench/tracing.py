"""Per-layer tracing from outside the program.

`Tracer.install` replaces the names that fmpart's modules look up at call
time (for example `fmpart.fm.move_and_update`) with wrappers that add the
call's duration and count to per-name totals; `uninstall` puts the originals
back. Totals are inclusive: `fm.pass` contains the `gains.*` calls made
inside it. High-frequency calls are folded into totals rather than kept as
individual spans; `GainBucket.relocate` is only counted.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import fmpart.cli
import fmpart.fm
import fmpart.netlist_io
import fmpart.pairwise
from fmpart.gains import GainBucket
from fmpart.hypergraph import Partition


class Tracer:
    def __init__(self):
        self.time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.time.clear()
        self.count.clear()

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark itself makes."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.time[name] += time.perf_counter() - start
            self.count[name] += 1

    def _timed(self, name, fn, on_result=None):
        clock = time.perf_counter
        totals = self.time
        counts = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            totals[name] += clock() - start
            counts[name] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _replace(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, module, attr, name, on_result=None) -> None:
        self._replace(module, attr, self._timed(name, getattr(module, attr), on_result))

    def _on_parse(self, doc) -> None:
        self.count["netlist_io.pins"] += doc.declared_pin_count

    def _on_fm_pass(self, trace) -> None:
        self.count["fm.moves"] += len(trace.steps)
        self.count["fm.kept"] += trace.best_prefix

    def _on_variant_pass(self, trace) -> None:
        self.count["pairwise.steps"] += len(trace.steps)
        self.count["pairwise.kept"] += trace.best_prefix
        self.count["pairwise.pair_gain_evals"] += trace.pair_gain_evals

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._wrap(fmpart.cli, "parse_ibm_net", "netlist_io.parse", self._on_parse)
        self._wrap(fmpart.cli, "parse_hgr", "netlist_io.parse", self._on_parse)
        self._wrap(fmpart.netlist_io, "build", "hypergraph.build")
        from_sides = Partition.__dict__["from_sides"].__func__
        self._replace(Partition, "from_sides", classmethod(self._timed("hypergraph.from_sides", from_sides)))
        for module in (fmpart.fm, fmpart.pairwise):
            self._wrap(module, "init", "gains.init")
            self._wrap(module, "move_and_update", "gains.move_and_update")
        self._wrap(fmpart.fm, "select_max", "gains.select")
        self._wrap(fmpart.fm, "fm_pass", "fm.pass", self._on_fm_pass)
        self._wrap(fmpart.fm, "rollback_to_prefix", "fm.rollback")
        self._wrap(fmpart.pairwise, "pad_dummy", "pairwise.pad_dummy")
        self._wrap(fmpart.pairwise, "variant_pass", "pairwise.pass", self._on_variant_pass)
        self._wrap(fmpart.pairwise, "selection_state", "pairwise.selection_state")
        self._wrap(fmpart.pairwise, "best_pair", "pairwise.best_pair")

        relocate = GainBucket.relocate
        counts = self.count

        def counted_relocate(bucket, cell, gain):
            counts["gains.relocate"] += 1
            return relocate(bucket, cell, gain)

        self._replace(GainBucket, "relocate", counted_relocate)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures of what was traced since the last reset."""
        t, c = self.time, self.count

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "netlist_io.parse_s": t["netlist_io.parse"],
            "netlist_io.pins_per_s": ratio(c["netlist_io.pins"], t["netlist_io.parse"]),
            "hypergraph.build_s": t["hypergraph.build"],
            "hypergraph.from_sides_s": t["hypergraph.from_sides"],
            "gains.init_s": t["gains.init"],
            "gains.init_calls": c["gains.init"],
            "pairwise.pad_dummy_s": t["pairwise.pad_dummy"],
            "gains.move_and_update_s": t["gains.move_and_update"],
            "gains.move_and_update_calls": c["gains.move_and_update"],
            "gains.relocate_calls": c["gains.relocate"],
            "gains.select_s": t["gains.select"],
            "fm.pass_s": t["fm.pass"],
            "fm.passes": c["fm.pass"],
            "fm.rollback_s": t["fm.rollback"],
            "fm.kept_ratio": ratio(c["fm.kept"], c["fm.moves"]),
            "pairwise.pass_s": t["pairwise.pass"],
            "pairwise.selection_state_s": t["pairwise.selection_state"],
            "pairwise.best_pair_s": t["pairwise.best_pair"],
            "pairwise.best_pair_calls": c["pairwise.best_pair"],
            "pairwise.pair_gain_evals": c["pairwise.pair_gain_evals"],
            "pairwise.evals_per_step": ratio(c["pairwise.pair_gain_evals"], c["pairwise.steps"]),
            "pairwise.kept_ratio": ratio(c["pairwise.kept"], c["pairwise.steps"]),
            "oracle.exact_s": t["oracle.exact"],
            "oracle.masks_per_s": ratio(c["oracle.masks"], t["oracle.exact"]),
            "cli.run_experiment_s": t["cli.run_experiment"],
            "cli.csv_s": t["cli.csv"],
        }
