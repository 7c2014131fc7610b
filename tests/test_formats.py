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
from helpers import cycle_graph


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
ARABIC_INDIC = "٠١٢٣٤٥٦٧٨٩"


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


def _mutants(text: str, rng: random.Random) -> list[str]:
    """Texts one fault or one non-canonical detail away from ``text``, a
    canonical text with at least one record, each at a random record."""
    header, *body = text.splitlines()
    fields = header.split()
    i = rng.randrange(len(body))
    kind, u, v = body[i].split()
    other = "a" if kind == "e" else "e"
    n = int(fields[2])

    def line(*new: str) -> str:
        return "\n".join([header, *body[:i], *new, *body[i + 1:]]) + "\n"

    def head(*counts: str) -> str:
        return "\n".join([" ".join(fields[:2] + list(counts)), *body]) + "\n"

    return [
        line(f"{kind} {v} {u}"),                            # reversed pair
        line(body[i], body[i]),                             # duplicate
        line(body[i], f"{kind} {v} {u}"),                   # reversed duplicate, a digon for arcs
        line(body[i], f"{other} {u} {v}"),                  # the same pair as both kinds
        line(f"{kind} {u} {u}"),                            # loop
        line(f"{kind} {u} {n}"),                            # out of range
        line(f"{kind} -1 {v}"),                             # negative endpoint
        line(f"{kind} {u} {'9' * 5000}"),                   # too long for int()
        line(f"{kind} {u} {v} {v}"),                        # four fields
        line(f"{kind} 0{u} 00{v}"),                         # leading zeros
        line(f"{kind} +{u} {v}"),                           # a sign
        line(f"{kind} {u} {''.join(ARABIC_INDIC[int(d)] for d in v)}"),  # non-ASCII digits
        line(f"{kind}  {u} {v} "),                          # extra spaces
        line(),                                             # a record short of the header
        "\n".join([header, body[-1], *body[:-1]]) + "\n",   # the last record first
        text.replace("\n", "\r\n"),                         # CRLF endings
        text[:-1],                                          # no final newline
        head("²", *fields[3:]),                             # non-ASCII digit in the header
        head("".join(ARABIC_INDIC[int(d)] for d in fields[2]), *fields[3:]),
        head("9" * 5000, *fields[3:]),
        head(*fields[2:-1], str(int(fields[-1]) + 1)),     # a count one too high
    ]


def test_bulk_and_line_readers_agree(canonical_texts):
    # canonical text takes the bulk path; a trailing comment sends the same
    # text to the line reader, and every mutant must read alike both ways
    graph_texts, mixed_texts = canonical_texts
    rng = random.Random(20261020)
    outcomes = set()
    for texts, parse, bulk, serialize in (
            (graph_texts, parse_graph, formats._parse_canonical_graph, serialize_graph),
            (mixed_texts, parse_mixed, formats._parse_canonical_mixed, serialize_mixed)):
        for text in texts:
            value = _read_both(parse, text)
            assert bulk(text) == value and serialize(value) == text
        mutated = [t for t in texts if t.count("\n") > 1]
        for text in rng.sample(mutated, 24):
            for mutant in _mutants(text, rng):
                outcomes.add(type(_read_both(parse, mutant)))
    assert outcomes == {Graph, MixedGraph, str}

