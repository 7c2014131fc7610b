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
from typing import Literal

from .graphs import (
    Graph,
    MixedGraph,
    delete_vertices,
    find_odd_cycle,
    triangle_free_edges,
    undirected_square,
)
from .solver import (
    PartialOrientation,
    SolveOptions,
    decide_qt,
)


def _require_deg3(g: Graph) -> None:
    if g.max_degree() > 3:
        raise ValueError(f"maximum degree {g.max_degree()} exceeds three")


@dataclass(frozen=True)
class RemovalTrace:
    """What a removable-vertex reduction deleted.

    ``steps`` holds one entry per removed vertex: its id in the input graph,
    in increasing order.
    """

    steps: tuple[int, ...]


def _removable(g: Graph, u: int) -> bool:
    """True when u has degree two, its neighbours are adjacent degree-3
    vertices, and u is their only common neighbour."""
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
    removable vertex.  Returns the reduced graph, its survivors re-indexed
    densely in their original order, and the removed vertices.
    """
    doomed = removable_vertices(g)   # which checks the degree
    reduced, _kept = delete_vertices(g, doomed)
    if removable_vertices(reduced):
        raise RuntimeError("reduction left removable vertices; this should be impossible")
    return reduced, RemovalTrace(doomed)


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
    graph.  That graph is 2-coloured on all vertices of the reduced graph:
    the ones on no such edge are isolated, which leaves bipartiteness
    unchanged.  Runs in polynomial time.
    """
    reduced, _trace = reduce_removable(g)   # which checks the degree
    if find_net(reduced) is not None:
        return False
    return find_odd_cycle(Graph(reduced.n, triangle_free_edges(reduced))) is None


def orient_deg3(g: Graph, opts: SolveOptions | None = None) -> PartialOrientation | None:
    """Construct a witness for a degree-three graph, or None when unorientable.

    The no answer comes from :func:`decide_deg3` and stays polynomial.  On a
    yes answer the witness is the exact solver's orientation of g itself,
    which searches only the regions around triangles.  The solver failing to
    find a witness the decider promised would be a bug, not a no answer.
    """
    if not decide_deg3(g):
        return None
    sol = decide_qt(g, opts)
    if sol is None:
        raise RuntimeError("internal error: no witness found although the "
                           "degree-three characterisation holds")
    return sol


def decide_girth4(g: Graph, *, witness: bool = True
                  ) -> PartialOrientation | Literal[True] | None:
    """Decide orientability for triangle-free graphs (girth four or more).

    A triangle-free graph is orientable exactly when it has no odd cycle.
    The triangle check runs first, then :func:`decide_qt`, which orients a
    graph with no triangle by its 2-colouring, with no search; with
    ``witness=False`` it answers True instead and builds no orientation.
    """
    if len(triangle_free_edges(g)) < len(g.edges):
        raise ValueError("graph contains a triangle; girth must be at least four")
    return decide_qt(g, witness=witness)


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
