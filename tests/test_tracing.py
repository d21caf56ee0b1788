"""The benchmark's per-layer tracer (perfbench/tracing.py) sees each layer of
both algorithms: it wraps fmpart's module-level names, so a layer that
bypasses them at call time goes uncounted."""

import os
import random

import pytest

from fmpart.fm import FmConfig, fm_run
from fmpart.pairwise import variant_run
from fmpart.synth import clustered_hypergraph

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


@pytest.mark.parametrize("runner,pass_layer", [(fm_run, "fm.pass"), (variant_run, "pairwise.pass")])
def test_every_pass_rollback_is_traced(tracer, runner, pass_layer):
    h = clustered_hypergraph(random.Random(5), 81, 100)
    r = runner(h, FmConfig(seed=1, tie_policy="lifo", max_passes=3))
    assert tracer.count[pass_layer] == r.passes
    assert tracer.count["fm.rollback"] == r.passes
    assert tracer.time["fm.rollback"] > 0


@pytest.mark.parametrize("runner", [fm_run, variant_run])
def test_pass_figures_read_from_the_trace(tracer, runner):
    # what the tracer reads from each PassTrace: the moved cells, the kept
    # prefix and the pair evaluations
    h = clustered_hypergraph(random.Random(5), 81, 100)
    r = runner(h, FmConfig(seed=1, tie_policy="lifo", max_passes=3))
    layers = tracer.layer_metrics()
    assert 0 <= layers["fm.kept_ratio"] <= 1
    assert 0 <= layers["pairwise.kept_ratio"] <= 1
    if runner is fm_run:
        assert tracer.count["fm.moves"] == r.passes * h.cell_count
    else:
        assert tracer.count["pairwise.pair_gain_evals"] > 0
        # steps count moved cells: the padded graph's 82, once per pass
        assert tracer.count["pairwise.steps"] == r.passes * (h.cell_count + 1)
