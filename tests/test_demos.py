"""Every narrative script in demos/ runs to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

#: Files a demo writes into its working directory.
WRITES = {"phase_fringes.py": ["phase_fringes.csv"]}


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
    assert sorted(path.name for path in tmp_path.iterdir()) == WRITES.get(script.name, [])
