"""Line-oriented text formats and DOT export for graphs and mixed graphs.

Graph files::

    c optional comment
    p graph <n> <m>
    e <u> <v>

Mixed-graph files use ``p mixed <n> <m_edges> <m_arcs>`` with ``e`` lines for
edges and ``a <tail> <head>`` lines for arcs.  Vertices are 0-indexed.
Serialisation is canonical (sorted body lines), so parse o serialize is the
identity on canonical files.

A graph text in the exact form :func:`serialize_graph` writes (single
spaces, ASCII digits, ``\n`` after every line, no comment or blank line) is
read in bulk: one regular expression over the whole text, and one
``json.loads`` of its records rewritten as a JSON array, which converts all
its numbers at once.  Any other graph text, and any canonical-looking text
that fails a check (a number JSON rejects, such as one with a leading zero,
a duplicate, a loop, a count or range fault), goes to the line reader, which
alone reports errors, so both paths give the same graph or the same message.
Only graph files are read in bulk, since ``mixedqt decide`` reads them and
the benchmark times those calls; mixed-graph files, which ``verify``,
``square`` and ``extract`` read, have the line reader alone.
"""

from __future__ import annotations

import json
import re
from operator import lt
from typing import Any, Callable, Iterator

from .graphs import Graph, MixedGraph, _unchecked


class GraphFormatError(ValueError):
    """Raised when a graph, witness, CNF or map file cannot be parsed."""


def _built(make: Callable[..., Any], *args: object) -> Any:
    """``make(*args)``, any ValueError it raises turned into a format error."""
    try:
        return make(*args)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def _read_header(lines: Iterator[tuple[int, str]], kind: str, empty: str) -> list[int]:
    """The counts on the first line that is neither blank nor a comment,
    which must read ``p <kind> ...``; ``lines`` is left at the line after."""
    for lineno, raw in lines:
        fields = raw.split()
        if not fields or fields[0][0] == "c":
            continue
        if len(fields) < 2 or fields[0] != "p" or fields[1] != kind:
            raise GraphFormatError(f"line {lineno}: expected 'p {kind}' header")
        try:
            return [int(x) for x in fields[2:]]
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer header field") from None
    raise GraphFormatError(empty)


# Body records by kind: how the expected line reads, and the record's name.
_RECORDS = {"e": ("'e <u> <v>'", "edge"), "a": ("'a <tail> <head>'", "arc")}


def _read_body(lines: Iterator[tuple[int, str]], kinds: str) -> dict[str, set[tuple[int, int]]]:
    """The body's records, one set per kind letter in ``kinds``, skipping
    blank and comment lines.  Edges are normalised (sorted pairs); arcs keep
    their direction.  A record already in its set is a duplicate."""
    found: dict[str, set[tuple[int, int]]] = {k: set() for k in kinds}
    for lineno, raw in lines:
        fields = raw.split()
        if len(fields) != 3 or fields[0] not in found:
            if not fields or fields[0][0] == "c":
                continue
            expected = " or ".join(_RECORDS[k][0] for k in kinds)
            raise GraphFormatError(f"line {lineno}: expected {expected}")
        kind = fields[0]
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoint") from None
        if kind == "a" or u < v:
            pair = (u, v)
        elif v < u:
            pair = (v, u)
        else:
            raise GraphFormatError(f"line {lineno}: loop at vertex {u}")
        records = found[kind]
        size = len(records)
        records.add(pair)
        if len(records) == size:
            raise GraphFormatError(f"line {lineno}: duplicate {_RECORDS[kind][1]} {u} {v}")
    return found


# The graph serialiser's canonical form; ``[0-9]`` admits ASCII digits only.
# The record repeats are possessive (``*+``, ``++``): a greedy repeat would keep
# backtracking state for every line, some 350 bytes a line until the match ends.
_CANONICAL_GRAPH = re.compile(r"p graph ([0-9]+) ([0-9]+)\n((?:e [0-9]++ [0-9]++\n)*+)")


def _parse_canonical_graph(text: str) -> Graph | None:
    """The graph of a text in canonical form, or None when the text is not in
    that form or fails a check, for the line reader to read or reject.

    The expression admits only ASCII digits and single spaces in the block
    of ``e <u> <v>`` lines, so the block less its ``e`` letters, with a comma
    for each separator, is a JSON array of the endpoints.  The checks run
    over whole columns: every edge written low end first, which rules out a
    loop, and the largest end below n.  The graph is then built without
    :class:`Graph`'s own pass over its edges."""
    match = _CANONICAL_GRAPH.fullmatch(text)
    if match is None:
        return None
    n, m, block = match.groups()
    try:
        numbers = json.loads("[" + block[2:-1].replace("\ne ", ",").replace(" ", ",") + "]")
        count, declared = int(n), int(m)
    except ValueError:  # a leading zero, or a number too long for int()
        return None
    us, vs = numbers[0::2], numbers[1::2]
    if not (all(map(lt, us, vs)) and max(vs, default=-1) < count):
        return None
    edges = frozenset(zip(us, vs))
    # as many distinct edges as lines, and as the header declares
    return _unchecked(Graph, n=count, edges=edges) if len(edges) == declared == len(us) else None


def parse_graph(text: str) -> Graph:
    g = _parse_canonical_graph(text)
    if g is not None:
        return g
    lines = enumerate(text.splitlines(), start=1)
    counts = _read_header(lines, "graph", "empty graph file")
    if len(counts) != 2:
        raise GraphFormatError("graph header needs exactly <n> <m>")
    n, m = counts
    edges = _read_body(lines, "e")["e"]
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges, body has {len(edges)}")
    return _built(Graph, n, frozenset(edges))


def parse_mixed(text: str) -> MixedGraph:
    lines = enumerate(text.splitlines(), start=1)
    counts = _read_header(lines, "mixed", "empty mixed-graph file")
    if len(counts) != 3:
        raise GraphFormatError("mixed header needs exactly <n> <m_edges> <m_arcs>")
    n, me, ma = counts
    body = _read_body(lines, "ea")
    edges, arcs = body["e"], body["a"]
    if len(edges) != me or len(arcs) != ma:
        raise GraphFormatError(
            f"header declares {me} edges / {ma} arcs, body has {len(edges)} / {len(arcs)}")
    return _built(MixedGraph, n, frozenset(edges), frozenset(arcs))


def serialize_graph(g: Graph) -> str:
    lines = [f"p graph {g.n} {len(g.edges)}"]
    lines += [f"e {u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def serialize_mixed(m: MixedGraph) -> str:
    lines = [f"p mixed {m.n} {len(m.edges)} {len(m.arcs)}"]
    lines += [f"e {u} {v}" for u, v in sorted(m.edges)]
    lines += [f"a {t} {h}" for t, h in sorted(m.arcs)]
    return "\n".join(lines) + "\n"


def graph_to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in sorted(g.edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def mixed_to_dot(m: MixedGraph) -> str:
    lines = ["digraph G {"]
    lines += [f"  {v};" for v in range(m.n)]
    lines += [f"  {u} -> {v} [dir=none];" for u, v in sorted(m.edges)]
    lines += [f"  {t} -> {h};" for t, h in sorted(m.arcs)]
    lines.append("}")
    return "\n".join(lines) + "\n"
