"""The top-level package exports what a user drives and no pass internals."""

import os
import subprocess
import sys

import fmpart


def test_exported_names_resolve():
    for name in fmpart.__all__:
        assert getattr(fmpart, name) is not None


def test_pass_internals_stay_in_their_modules():
    internals = {
        "GainBucket", "select_max", "init", "move_and_update", "compute_gain",
        "PairSelectionState", "selection_state", "best_pair", "correct_term", "pair_gain",
    }
    assert not internals & set(fmpart.__all__)
    assert not any(hasattr(fmpart, name) for name in internals)



IMPORT_GUARD = """
import sys

import fmpart, fmpart.cli, fmpart.fm, fmpart.oracle, fmpart.pairwise
from fmpart import FmConfig, build, exact_min_cut_balanced, fm_run, variant_run

h = build([[3, 4], [2, 4], [0, 1, 4]], 5)
fm_run(h, FmConfig(seed=1))
variant_run(h, FmConfig(seed=1))
fmpart.cli.run_experiment([("star", h)], ["fm", "fm_variant"], [1, 2], FmConfig())
print(sorted(m for m in ("numpy", "concurrent.futures") if m in sys.modules))
result = exact_min_cut_balanced(h)
print("numpy" in sys.modules, result.optimum_cut, result.witness.side)
"""


def test_numpy_and_process_pool_load_only_when_used():
    """A fresh interpreter: importing the package and running both algorithms
    serially loads neither numpy nor concurrent.futures; the oracle loads
    numpy on its first call. The test process itself already holds numpy."""
    src = os.path.dirname(os.path.dirname(fmpart.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.splitlines() == ["[]", "True 1 [0, 0, 1, 1, 1]"]
