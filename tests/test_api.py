"""The top-level package exports what a user drives and no pass internals."""

import fmpart


def test_exported_names_resolve():
    for name in fmpart.__all__:
        assert getattr(fmpart, name) is not None


def test_pass_internals_stay_in_their_modules():
    internals = {
        "GainBucket", "GainState", "select_max", "init", "move_and_update", "compute_gain",
        "PairSelectionState", "selection_state", "best_pair", "correct_term", "pair_gain",
    }
    assert not internals & set(fmpart.__all__)
    assert not any(hasattr(fmpart, name) for name in internals)

