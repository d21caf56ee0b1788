"""Each script under scripts/ imports and answers --help, so renaming a name
a script imports from fmpart or perfbench fails here, not at the next
measurement."""

import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", ["ab_time", "bench", "opcodes", "pass_scaling", "row_digest"])
def test_script_help_exits_zero(monkeypatch, capsys, name):
    # syspath_prepend restores sys.path afterwards, the scripts' own inserts too
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.syspath_prepend(os.path.join(ROOT, "scripts"))
    script = importlib.import_module(name)
    with pytest.raises(SystemExit) as exc:
        script.main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out
