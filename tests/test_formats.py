import random
from pathlib import Path

import pytest
from hypothesis import given

from mixedqt import formats
from mixedqt.formats import (
    GraphFormatError,
    graph_to_dot,
    mixed_to_dot,
    parse_graph,
    parse_mixed,
    serialize_graph,
    serialize_mixed,
)
from mixedqt.graphs import Graph, MixedGraph

from conftest import graphs, mixed_graphs
from helpers import cycle_graph, mutants


@given(graphs())
def test_graph_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


@given(mixed_graphs())
def test_mixed_round_trip(m):
    assert parse_mixed(serialize_mixed(m)) == m


@given(graphs())
def test_serialisation_is_canonical(g):
    text = serialize_graph(g)
    assert serialize_graph(parse_graph(text)) == text


def test_comments_and_blank_lines_ignored():
    text = "c a comment\n\np graph 3 1\nc another\ne 0 2\n"
    assert parse_graph(text) == Graph(3, frozenset({(0, 2)}))


def test_graph_header_required():
    with pytest.raises(GraphFormatError):
        parse_graph("e 0 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph("")


def test_wrong_kind_rejected():
    with pytest.raises(GraphFormatError):
        parse_graph("p mixed 2 0 1\na 0 1\n")
    with pytest.raises(GraphFormatError):
        parse_mixed("p graph 2 1\ne 0 1\n")


def test_count_mismatch_rejected():
    with pytest.raises(GraphFormatError):
        parse_graph("p graph 3 2\ne 0 1\n")
    with pytest.raises(GraphFormatError):
        parse_mixed("p mixed 3 0 2\na 0 1\n")


def test_duplicate_edge_rejected():
    with pytest.raises(GraphFormatError):
        parse_graph("p graph 3 2\ne 0 1\ne 1 0\n")


def test_loop_rejected():
    with pytest.raises(GraphFormatError):
        parse_graph("p graph 3 1\ne 1 1\n")


def test_out_of_range_rejected():
    with pytest.raises(GraphFormatError):
        parse_graph("p graph 2 1\ne 0 5\n")


def test_digon_rejected():
    with pytest.raises(GraphFormatError):
        parse_mixed("p mixed 2 0 2\na 0 1\na 1 0\n")


def test_pair_with_edge_and_arc_rejected():
    with pytest.raises(GraphFormatError):
        parse_mixed("p mixed 2 1 1\ne 0 1\na 0 1\n")


@pytest.mark.parametrize("text", [
    "p mixed 2 1\ne 0 1\n",
    "p mixed 2 0 1\nx 0 1\n",
    "p mixed 2 0 1\na 0 z\n",
    "p mixed 2 0 2\na 0 1\na 0 1\n",
], ids=["header-arity", "unknown-record", "non-integer-endpoint", "duplicate-arc"])
def test_malformed_mixed_rejected(text):
    with pytest.raises(GraphFormatError):
        parse_mixed(text)


def test_garbage_line_rejected():
    with pytest.raises(GraphFormatError):
        parse_graph("p graph 2 1\nx 0 1\n")


def test_dot_graph():
    dot = graph_to_dot(cycle_graph(3))
    assert dot.startswith("graph G {")
    assert "0 -- 1;" in dot and "1 -- 2;" in dot and "0 -- 2;" in dot


def test_dot_mixed_distinguishes_edges_from_arcs():
    m = MixedGraph(3, edges=frozenset({(1, 2)}), arcs=frozenset({(0, 1)}))
    dot = mixed_to_dot(m)
    assert "digraph" in dot
    assert "1 -> 2 [dir=none];" in dot
    assert "0 -> 1;" in dot


@pytest.mark.parametrize("text,message", [
    ("p graph 3 1\ne 1 1\n", "line 2: loop at vertex 1"),
    ("p graph 3 2\ne 0 1\ne 1 0\n", "line 3: duplicate edge 1 0"),
    ("p graph 3 1\ne 0 x\n", "line 2: non-integer endpoint"),
    ("p graph 2 1\nx 0 1\n", "line 2: expected 'e <u> <v>'"),
    ("p graph 2 1\ne 0 1 1\n", "line 2: expected 'e <u> <v>'"),
    ("p graph 3 2\ne 0 1\n", "header declares 2 edges, body has 1"),
    ("p mixed 2 0 1\na 0 1\n", "line 1: expected 'p graph' header"),
    ("c header on line 3\n\np digraph 2 1\n", "line 3: expected 'p graph' header"),
    ("p graph 2 1\ne 0 5\n", "edge (0,5) out of range for n=2"),
    ("p graph\n", "graph header needs exactly <n> <m>"),
    ("p graph 2 x\n", "line 1: non-integer header field"),
    ("c only a comment\n  \n", "empty graph file"),
    ("p graph ² 1\ne 0 1\n", "line 1: non-integer header field"),
], ids=["loop", "reversed-duplicate", "non-integer-endpoint", "unknown-record",
        "long-record", "count-mismatch", "wrong-kind", "late-header", "out-of-range",
        "header-arity", "non-integer-header", "no-header", "non-ascii-header-digit"])
def test_graph_error_messages(text, message):
    with pytest.raises(GraphFormatError) as info:
        parse_graph(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text,message", [
    ("p mixed 3 1 0\ne 2 2\n", "line 2: loop at vertex 2"),
    ("p mixed 3 2 0\ne 0 1\ne 1 0\n", "line 3: duplicate edge 1 0"),
    ("p mixed 3 0 2\na 0 1\na 0 1\n", "line 3: duplicate arc 0 1"),
    ("p mixed 3 0 1\na 0 z\n", "line 2: non-integer endpoint"),
    ("p mixed 2 0 1\nx 0 1\n", "line 2: expected 'e <u> <v>' or 'a <tail> <head>'"),
    ("p mixed 3 0 2\na 0 1\n", "header declares 0 edges / 2 arcs, body has 0 / 1"),
    ("p graph 2 1\ne 0 1\n", "line 1: expected 'p mixed' header"),
    ("p mixed 2 0 1\na 0 5\n", "arc (0,5) out of range for n=2"),
    ("p mixed 2 1 0\ne 5 0\n", "edge (0,5) out of range for n=2"),
    ("p mixed 2 0 1\na 1 1\n", "loop arc at vertex 1"),
    ("p mixed 2 1\ne 0 1\n", "mixed header needs exactly <n> <m_edges> <m_arcs>"),
    ("", "empty mixed-graph file"),
    ("p mixed ² 0 1\na 0 1\n", "line 1: non-integer header field"),
], ids=["loop", "reversed-duplicate", "duplicate-arc", "non-integer-endpoint",
        "unknown-record", "count-mismatch", "wrong-kind", "arc-out-of-range",
        "edge-out-of-range", "loop-arc", "header-arity", "empty", "non-ascii-header-digit"])
def test_mixed_error_messages(text, message):
    with pytest.raises(GraphFormatError) as info:
        parse_mixed(text)
    assert str(info.value) == message


def test_comments_between_and_indented_are_skipped():
    text = "p graph 4 2\ne 0 1\nc between the edges\n   c indented comment\n\ne 2 3\n"
    assert parse_graph(text) == Graph(4, frozenset({(0, 1), (2, 3)}))
    mixed = "p mixed 4 1 1\ne 0 1\n\tc indented\nc between\na 3 2\n"
    assert parse_mixed(mixed) == MixedGraph(4, frozenset({(0, 1)}), frozenset({(3, 2)}))


def test_line_numbers_count_skipped_lines():
    # blank lines and comments still advance the line number in messages
    text = "c one\n\np graph 3 2\nc four\ne 0 1\n\ne 1 0\n"
    with pytest.raises(GraphFormatError, match="^line 7: duplicate edge 1 0$"):
        parse_graph(text)



# ---------------------------------------------------------------------------
# The bulk reader of canonical text against the line reader

FIXTURES = Path(__file__).parent / "fixtures"
BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def canonical_texts():
    """Canonical graph and mixed-graph texts: the fixtures, every seed-1
    benchmark ladder graph, and each of these with a seeded random choice of
    edges made arcs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import ladders

        corpus = [r.graph for build in ladders.LADDERS.values() for r in build(1)]
    corpus += [parse_graph(p.read_text()) for p in sorted(FIXTURES.glob("*.graph"))]
    corpus += [Graph(0), Graph(3)]
    corpus = list(dict.fromkeys(corpus))
    rng = random.Random("canonical-texts")
    mixed = []
    for g in corpus:
        kept, arcs = set(), set()
        for u, v in sorted(g.edges):
            choice = rng.randrange(3)
            (kept if choice == 0 else arcs).add((u, v) if choice < 2 else (v, u))
        mixed.append(MixedGraph(g.n, frozenset(kept), frozenset(arcs)))
    return [serialize_graph(g) for g in corpus], [serialize_mixed(m) for m in mixed]


def _read_both(parse, text):
    """``parse`` on ``text`` and on ``text`` with a comment line after it,
    which only the line reader reads: both must give the same graph or the
    same message, which is returned."""
    results = []
    for t in (text, text + ("" if text.endswith("\n") else "\n") + "c\n"):
        try:
            results.append(parse(t))
        except GraphFormatError as exc:
            results.append(str(exc))
    assert results[0] == results[1], text
    return results[0]


def test_bulk_and_line_readers_agree(canonical_texts):
    # canonical text takes the bulk path; a trailing comment sends the same
    # text to the line reader, and every mutant must read alike both ways
    graph_texts, _ = canonical_texts
    rng = random.Random(20261020)
    for text in graph_texts:
        value = _read_both(parse_graph, text)
        assert formats._parse_canonical_graph(text) == value and serialize_graph(value) == text
    mutated = [t for t in graph_texts if t.count("\n") > 1]
    outcomes = {type(_read_both(parse_graph, m)) for t in rng.sample(mutated, 24) for m in mutants(t, rng)}
    assert outcomes == {Graph, str}


def test_mixed_texts_read_alike_with_a_trailing_comment(canonical_texts):
    # mixed text has the line reader alone: each text reads back to itself,
    # and each text and mutant reads alike with a comment line after it
    _, mixed_texts = canonical_texts
    rng = random.Random(20261021)
    for text in mixed_texts:
        assert serialize_mixed(_read_both(parse_mixed, text)) == text
    mutated = [t for t in mixed_texts if t.count("\n") > 1]
    outcomes = {type(_read_both(parse_mixed, m)) for t in rng.sample(mutated, 24) for m in mutants(t, rng)}
    assert outcomes == {MixedGraph, str}
