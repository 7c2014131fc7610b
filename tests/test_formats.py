import pytest
from hypothesis import given

from mixedqt.formats import (
    GraphFormatError,
    graph_to_dot,
    mixed_to_dot,
    parse_graph,
    parse_mixed,
    serialize_graph,
    serialize_mixed,
)
from mixedqt.graphs import Graph, MixedGraph, cycle_graph

from conftest import graphs, mixed_graphs


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
