import hashlib
import runpy
import sys
from pathlib import Path

import pytest

CLASSIFIER_GRID = Path(__file__).resolve().parent.parent / "scripts" / "classifier_grid.py"
GRID_ARGS = ["--max-n", "60", "--chars", "0", "2", "3", "5", "7", "11", "13"]


def run_classifier_grid(monkeypatch, capsys, *extra):
    monkeypatch.setattr(sys, "argv", [str(CLASSIFIER_GRID), *GRID_ARGS, *extra])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(CLASSIFIER_GRID), run_name="__main__")
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_classifier_grid_json_digest(monkeypatch, capsys):
    out = run_classifier_grid(monkeypatch, capsys, "--json")
    assert out.count("\n") == 6300
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "15ccb08ec9c19a208392cff0b1f48eb653c81f6d328e615908c79542b2b97e9f"
    )


def test_classifier_grid_table_digest(monkeypatch, capsys):
    out = run_classifier_grid(monkeypatch, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1145a3c374d3c41b75fe55977109d921fb8c35674c9aa958f10255cf2aa492d9"
    )
