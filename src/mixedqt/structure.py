"""Polynomial-time structure algorithms for orientability.

Covers the removable-vertex reduction for graphs of maximum degree three,
detection of the net (a triangle with a pendant edge at each corner, which
forbids a quasi-transitive partial orientation at maximum degree three), the
resulting degree-three decision procedure, the triangle-free decision via
bipartiteness, and the embedding showing that every graph occurs as an
induced subgraph of an orientable square.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Graph,
    MixedGraph,
    bipartition,
    delete_vertices,
    edge,
    edge_subgraph,
    find_odd_cycle,
    has_triangle,
    triangle_free_edges,
    underlying,
    undirected_square,
)
from .solver import (
    PartialOrientation,
    SolveOptions,
    WitnessError,
    decide_qt,
    is_qt,
)


def _require_deg3(g: Graph) -> None:
    if g.max_degree() > 3:
        raise ValueError(f"maximum degree {g.max_degree()} exceeds three")


@dataclass(frozen=True)
class RemovalStep:
    """One removed degree-2 vertex with its neighbourhood at removal time.

    ``nbr_low < nbr_high`` are the two adjacent degree-3 neighbours;
    ``outer_low`` / ``outer_high`` are their respective third neighbours.
    """

    vertex: int
    nbr_low: int
    nbr_high: int
    outer_low: int
    outer_high: int


@dataclass(frozen=True)
class RemovalTrace:
    """Everything needed to replay a removable-vertex reduction backwards."""

    original_n: int
    steps: tuple[RemovalStep, ...]
    kept: tuple[int, ...]  # original id of each vertex of the reduced graph


def is_removable(g: Graph, u: int) -> bool:
    """True when u has degree two, its neighbours are adjacent degree-3
    vertices, and u is their only common neighbour."""
    _require_deg3(g)
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} out of range")
    return _removable(g, u)


def _removable(g: Graph, u: int) -> bool:
    adj = g.adj
    if len(adj[u]) != 2:
        return False
    v, w = sorted(adj[u])
    if w not in adj[v]:
        return False
    if len(adj[v]) != 3 or len(adj[w]) != 3:
        return False
    return adj[v] & adj[w] == {u}


def removable_vertices(g: Graph) -> tuple[int, ...]:
    _require_deg3(g)
    return tuple(u for u in range(g.n) if _removable(g, u))


def reduce_removable(g: Graph) -> tuple[Graph, RemovalTrace]:
    """Delete every removable vertex of g at once.

    The removable set is computed on the input graph; removing any of its
    members neither creates new removable vertices nor disturbs the others,
    so deletion order is irrelevant.  The result is asserted to contain no
    removable vertex.
    """
    _require_deg3(g)
    doomed = removable_vertices(g)
    steps = []
    for u in doomed:
        v, w = sorted(g.adj[u])
        (vo,) = g.adj[v] - {u, w}
        (wo,) = g.adj[w] - {u, v}
        steps.append(RemovalStep(u, v, w, vo, wo))
    reduced, kept = delete_vertices(g, doomed)
    if removable_vertices(reduced):
        raise RuntimeError("reduction left removable vertices; this should be impossible")
    return reduced, RemovalTrace(g.n, tuple(steps), kept)


def reinsert_removable(witness: PartialOrientation, trace: RemovalTrace) -> PartialOrientation:
    """Extend a witness of the reduced graph back to the original graph.

    For each removed vertex u with neighbours v, w, the edge vw is an arc in
    any valid witness (v and w have no remaining common neighbour); with a
    the tail and b the head, u is reinserted with arcs a -> u and u -> b.
    The only 2-dipath this creates runs a -> u -> b, and its ends stay
    adjacent through the arc ab.
    """
    if witness.base.n != len(trace.kept):
        raise WitnessError(
            f"witness has {witness.base.n} vertices but trace kept {len(trace.kept)}")
    violation = is_qt(witness.mixed)
    if violation is not None:
        raise WitnessError(violation.describe())
    kept = trace.kept
    edges_o = {edge(kept[u], kept[v]) for u, v in witness.mixed.edges}
    arcs_o = {(kept[t], kept[h]) for t, h in witness.mixed.arcs}
    present = set(kept)
    for step in reversed(trace.steps):
        u, v, w = step.vertex, step.nbr_low, step.nbr_high
        if u in present:
            raise WitnessError(f"trace reinserts vertex {u} twice")
        if v not in present or w not in present:
            raise WitnessError(f"trace references absent neighbours of {u}")
        if (v, w) in arcs_o:
            a, b = v, w
        elif (w, v) in arcs_o:
            a, b = w, v
        else:
            raise WitnessError(f"edge {v}-{w} is not an arc; trace inconsistent with witness")
        arcs_o.add((a, u))
        arcs_o.add((u, b))
        present.add(u)
    mixed = MixedGraph(trace.original_n, frozenset(edges_o), frozenset(arcs_o))
    violation = is_qt(mixed)
    if violation is not None:
        raise WitnessError(f"reinsertion produced an invalid witness: {violation.describe()}")
    return PartialOrientation(underlying(mixed), mixed)


def serialize_trace(trace: RemovalTrace) -> str:
    lines = [f"r {s.vertex} {s.nbr_low} {s.nbr_high} {s.outer_low} {s.outer_high}"
             for s in trace.steps]
    return "".join(line + "\n" for line in lines)


def parse_trace(text: str, n: int) -> RemovalTrace:
    from .formats import GraphFormatError

    steps = []
    removed = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] != "r" or len(fields) != 6:
            raise GraphFormatError(f"line {lineno}: expected 'r <u> <v> <w> <v'> <w'>'")
        try:
            u, v, w, vo, wo = (int(x) for x in fields[1:])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer field") from None
        if not all(0 <= x < n for x in (u, v, w, vo, wo)):
            raise GraphFormatError(f"line {lineno}: vertex out of range for n={n}")
        if u in removed:
            raise GraphFormatError(f"line {lineno}: vertex {u} removed twice")
        removed.add(u)
        steps.append(RemovalStep(u, v, w, vo, wo))
    kept = tuple(v for v in range(n) if v not in removed)
    return RemovalTrace(n, tuple(steps), kept)


@dataclass(frozen=True)
class NetEmbedding:
    """A subgraph copy of the net: a triangle plus one pendant edge per corner."""

    triangle: tuple[int, int, int]
    pendants: tuple[int, int, int]


def find_net(g: Graph) -> NetEmbedding | None:
    """Locate a net subgraph in a graph of maximum degree three.

    At maximum degree three a triangle corner of degree three has exactly one
    neighbour outside the triangle; the triangle extends to a net exactly
    when all three corners have degree three and those outside neighbours
    are pairwise distinct.
    """
    _require_deg3(g)
    adj = g.adj
    for u, v in sorted(g.edges):
        for w in sorted(adj[u] & adj[v]):
            if w < v:
                continue
            if len(adj[u]) == len(adj[v]) == len(adj[w]) == 3:
                (pu,) = adj[u] - {v, w}
                (pv,) = adj[v] - {u, w}
                (pw,) = adj[w] - {u, v}
                if len({pu, pv, pw}) == 3:
                    return NetEmbedding((u, v, w), (pu, pv, pw))
    return None


def decide_deg3(g: Graph) -> bool:
    """Decide orientability for graphs of maximum degree three.

    After deleting removable vertices, the answer is yes exactly when no net
    occurs as a subgraph and the edges lying in no triangle span a bipartite
    graph.  Runs in polynomial time.
    """
    _require_deg3(g)
    reduced, _trace = reduce_removable(g)
    return _reduced_orientable(reduced)


def _reduced_orientable(reduced: Graph) -> bool:
    """The degree-three test on a graph without removable vertices: no net,
    and the edges lying in no triangle span a bipartite graph."""
    if find_net(reduced) is not None:
        return False
    tf = triangle_free_edges(reduced)
    sub, _ids = edge_subgraph(reduced, tf)
    return find_odd_cycle(sub) is None


def orient_deg3(g: Graph, opts: SolveOptions | None = None) -> PartialOrientation | None:
    """Construct a witness for a degree-three graph, or None when unorientable.

    The graph is reduced once.  The no answer comes from the test of
    :func:`decide_deg3` on the reduced graph and stays polynomial; on a yes
    answer the exact solver orients the reduced graph and the removal trace
    is replayed backwards.  Triangle-free parts need no search there: every
    vertex on a triangle-free edge is a source or a sink, so the solver
    orients those edges from the 2-colouring and searches only the regions
    around triangles.  The solver failing to find a witness the decider
    promised would be a bug, not a no answer.
    """
    _require_deg3(g)
    reduced, trace = reduce_removable(g)
    if not _reduced_orientable(reduced):
        return None
    sol = decide_qt(reduced, opts)
    if sol is None:
        raise RuntimeError("internal error: no witness found although the "
                           "degree-three characterisation holds")
    return reinsert_removable(sol, trace)


def decide_girth4(g: Graph) -> PartialOrientation | None:
    """Decide orientability for triangle-free graphs (girth four or more).

    A triangle-free graph is orientable exactly when it has no odd cycle; a
    witness orients every edge from one colour class to the other, making
    every vertex a source or a sink.
    """
    if has_triangle(g):
        raise ValueError("graph contains a triangle; girth must be at least four")
    parts = bipartition(g)
    if parts is None:
        return None
    v1, _v2 = parts
    arcs = frozenset((u, v) if u in v1 else (v, u) for u, v in g.edges)
    return PartialOrientation(g, MixedGraph(g.n, frozenset(), arcs))


def embed_universal(g: Graph) -> tuple[Graph, MixedGraph]:
    """Embed g as an induced subgraph of an orientable square.

    Each edge is oriented low index to high and bisected by a fresh vertex,
    giving an oriented graph whose undirected square restricted to the
    original vertices is exactly g.  Returns the square and that oriented
    root; the root's mixed square is a valid witness for the square.
    """
    elist = sorted(g.edges)
    arcs = set()
    for i, (u, v) in enumerate(elist):
        mid = g.n + i
        arcs.add((u, mid))
        arcs.add((mid, v))
    root = MixedGraph(g.n + len(elist), frozenset(), frozenset(arcs))
    return undirected_square(root), root
