import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "orientability_census.py"


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("orientability_census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("max_n,span", [(3, "none"), (4, "4..4")])
def test_triangle_free_census_girth_line(census, monkeypatch, capsys, max_n, span):
    # below four vertices every connected triangle-free graph is a tree
    monkeypatch.setattr(sys, "argv", ["orientability_census.py", "--family",
                                      "triangle-free", "--max-n", str(max_n)])
    assert census.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"girth range among non-forests: {span}"
