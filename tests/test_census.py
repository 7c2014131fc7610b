import importlib.util
import re
import sys
from pathlib import Path

import networkx as nx
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


def test_degree_four_census(census, monkeypatch, capsys):
    # the paper's open case: every connected graph of maximum degree exactly
    # four, here to n = 6, checked against exhaustive enumeration; the
    # per-n counts must match networkx's atlas of all graphs on up to 7 vertices
    monkeypatch.setattr(sys, "argv", ["orientability_census.py", "--family", "deg4",
                                      "--max-n", "6"])
    assert census.main() == 0
    out = capsys.readouterr().out
    rows = dict(map(int, m.groups()) for m in re.finditer(r"^ +(\d+) +(\d+) +\d+$", out, re.M))
    atlas = [h for h in nx.graph_atlas_g()[1:] if h.number_of_nodes() <= 6
             and nx.is_connected(h) and max(d for _v, d in h.degree()) == 4]
    want = {n: sum(h.number_of_nodes() == n for h in atlas) for n in (5, 6)}
    assert rows == want
    total = sum(want.values())
    assert f"total {total} graphs" in out
    assert f"{total} enumerated, 0 decision disagreements" in out
