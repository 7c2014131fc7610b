"""Small named graphs, a networkx bridge, a brute-force oracle and a
reference CNF encoder that only the tests use."""

from itertools import combinations
from typing import Iterator

import networkx as nx

from mixedqt.graphs import Graph, _components_of


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def path_graph(k: int) -> Graph:
    return Graph(k, frozenset((i, i + 1) for i in range(k - 1)))


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(k, frozenset((i, (i + 1) % k) for i in range(k)))


def complete_graph(k: int) -> Graph:
    return Graph(k, frozenset(combinations(range(k), 2)))


def net_graph() -> Graph:
    """Triangle 0,1,2 with pendant edges 0-3, 1-4, 2-5."""
    return Graph(6, frozenset({(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)}))


def prism_graph() -> Graph:
    """The triangular prism: two triangles joined by a perfect matching."""
    return Graph(6, frozenset({(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                               (0, 3), (1, 4), (2, 5)}))


VertexCut = tuple[frozenset[int], frozenset[int], frozenset[int]]


def independent_vertex_cuts(g: Graph, max_size: int = 3) -> list[VertexCut]:
    """All triples (I, V1, V2) where the independent set I separates V1 from V2.

    The triple partitions the vertex set; every vertex of I has a neighbour
    on both sides, no V1-V2 edge exists, and each side is a nonempty union of
    components of g-I.  Bipartitions are produced once, with the component
    containing the smallest remaining vertex always on the V1 side.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    adj = g.adj
    if len(_components_of(range(g.n), adj)) > 1:
        raise ValueError("graph must be connected")
    cuts: list[VertexCut] = []
    for size in range(1, max_size + 1):
        for cand in combinations(range(g.n), size):
            if any(b in adj[a] for a, b in combinations(cand, 2)):
                continue
            rest = set(range(g.n)) - set(cand)
            comps = _components_of(rest, adj)
            if len(comps) < 2:
                continue
            touch = [frozenset(i for i, c in enumerate(comps) if adj[v] & c)
                     for v in cand]
            for mask in range(2 ** (len(comps) - 1)):
                side2_idx = {i + 1 for i in range(len(comps) - 1) if mask >> i & 1}
                if not side2_idx:
                    continue
                side1_idx = set(range(len(comps))) - side2_idx
                if not all(t & side1_idx and t & side2_idx for t in touch):
                    continue
                v1 = frozenset().union(*(comps[i] for i in sorted(side1_idx)))
                v2 = frozenset().union(*(comps[i] for i in sorted(side2_idx)))
                cuts.append((frozenset(cand), v1, v2))
    return cuts


def reference_clauses(k: int, edges: frozenset[tuple[int, int]],
                      pinned: tuple[int, ...]) -> Iterator[tuple[int, ...] | list[int]]:
    """The clauses of ``solver._encode``'s CNF, one at a time and in the
    order its solver must meet them, stated clause by clause: per edge the
    clause against both arcs, then per wedge (sorted) and direction the two
    implications of its variable, then the edge's cover clause; per vertex
    w and pair of its neighbours (in set order) the clause against an
    induced 2-dipath through w; per pinned vertex and neighbour the clauses
    making it a source or a sink."""
    elist = sorted(edges)
    adj: list[set[int]] = [set() for _ in range(k)]
    for u, v in elist:
        adj[u].add(v)
        adj[v].add(u)
    wedges = [sorted(adj[u] & adj[v]) for u, v in elist]
    first_pin = 2 * len(elist)
    first_wedge = first_pin + len(pinned)
    index = {e: 4 * i for i, e in enumerate(elist)}

    def arc(a: int, b: int) -> int:
        return index[a, b] if a < b else index[b, a] + 2

    x = 2 * first_wedge   # the next wedge variable's literal
    for (u, v), ws in zip(elist, wedges):
        yield arc(u, v) ^ 1, arc(v, u) ^ 1
        cover = [arc(u, v), arc(v, u)]
        for w in ws:
            for a, b in ((u, v), (v, u)):
                yield x + 1, arc(a, w)
                yield x + 1, arc(w, b)
                cover.append(x)
                x += 2
        yield cover
    for w in range(k):
        for u in adj[w]:
            for v in adj[w]:
                if u != v and v not in adj[u]:
                    yield arc(u, w) ^ 1, arc(w, v) ^ 1
    for v, p in zip(pinned, range(2 * first_pin, 2 * first_wedge, 2)):
        for y in adj[v]:
            yield p + 1, arc(y, v) ^ 1
            yield p, arc(v, y) ^ 1
