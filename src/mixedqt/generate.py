"""Exhaustive and random generation of small test graphs.

``connected_graphs`` yields one representative per isomorphism class,
growing graphs a vertex at a time: every connected graph on k+1 vertices
arises from a connected graph on k vertices by deleting a non-cut vertex,
and the degree-bounded / triangle-free classes are hereditary, so attaching
a new vertex to every admissible subset of every k-vertex representative is
exhaustive.  Deduplication uses a canonical form: colours are refined to a
fixed point, then the edge bitmask is minimised over all colour-preserving
vertex orders.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product
from typing import Iterator

from .graphs import Graph, MixedGraph, edge
from .reduction import CnfInstance


def _refine_colours(n: int, adj: list[set[int]]) -> list[int]:
    colours = [len(adj[v]) for v in range(n)]
    while True:
        sigs = [(colours[v], tuple(sorted(colours[w] for w in adj[v]))) for v in range(n)]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colours:
            return colours
        colours = new


def canonical_key(g: Graph) -> tuple:
    """A canonical form equal across isomorphic graphs (tiny graphs only).

    Minimises the adjacency bitmask over all orders consistent with the
    refined colouring; the worst case tries every permutation of each colour
    class, which is affordable for the vertex counts used here.
    """
    n = g.n
    adj = [set(g.adj[v]) for v in range(n)]
    colours = _refine_colours(n, adj)
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colours[v], []).append(v)
    blocks = [classes[c] for c in sorted(classes)]
    best: int | None = None
    for perms in product(*(permutations(b) for b in blocks)):
        order = [v for block in perms for v in block]
        pos = {v: i for i, v in enumerate(order)}
        mask = 0
        for u, v in g.edges:
            i, j = pos[u], pos[v]
            if i > j:
                i, j = j, i
            mask |= 1 << (i * n + j)
        if best is None or mask < best:
            best = mask
    return (n, best)


def connected_graphs(max_n: int, *, max_degree: int | None = None,
                     triangle_free: bool = False) -> Iterator[Graph]:
    """All connected graphs with up to ``max_n`` vertices, one per
    isomorphism class, optionally degree-bounded or triangle-free."""
    if max_n < 1:
        return
    level: list[Graph] = [Graph(1)]
    yield level[0]
    for n in range(2, max_n + 1):
        seen: set[tuple] = set()
        nxt: list[Graph] = []
        for g in level:
            candidates = [v for v in range(g.n)
                          if max_degree is None or g.degree(v) < max_degree]
            max_new_deg = g.n if max_degree is None else max_degree
            for size in range(1, min(len(candidates), max_new_deg) + 1):
                for attach in combinations(candidates, size):
                    if triangle_free and any(b in g.adj[a]
                                             for a, b in combinations(attach, 2)):
                        continue
                    h = Graph(g.n + 1, g.edges | frozenset(edge(a, g.n) for a in attach))
                    key = canonical_key(h)
                    if key not in seen:
                        seen.add(key)
                        nxt.append(h)
        level = nxt
        yield from level


def random_connected_graph(n: int, max_degree: int, rng: random.Random) -> Graph:
    """A random connected graph with the given degree bound.

    A random tree comes first, each new vertex hung from an earlier one with
    room left; while the bound is at least two a leaf always has room.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > 1 and max_degree < min(n - 1, 2):
        raise ValueError(f"no connected graph on {n} vertices has maximum degree {max_degree}")
    edges: set[tuple[int, int]] = set()
    degree = [0] * n
    for v in range(1, n):
        u = rng.choice([u for u in range(v) if degree[u] < max_degree])
        edges.add(edge(u, v))
        degree[u] += 1
        degree[v] += 1
    spare = [(u, v) for u, v in combinations(range(n), 2) if (u, v) not in edges]
    rng.shuffle(spare)
    extra = rng.randint(0, len(spare))
    for u, v in spare[:extra]:
        if degree[u] < max_degree and degree[v] < max_degree:
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
    return Graph(n, frozenset(edges))


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """An Erdos-Renyi style random graph."""
    edges = frozenset((u, v) for u, v in combinations(range(n), 2) if rng.random() < p)
    return Graph(n, edges)


def random_oriented(n: int, mean_degree: float, rng: random.Random) -> MixedGraph:
    """A random oriented graph with round(n * mean_degree / 2) arcs."""
    m = round(n * mean_degree / 2)
    if m > n * (n - 1) // 2:
        raise ValueError(f"{m} arcs do not fit on {n} vertices")
    arcs: set[tuple[int, int]] = set()
    while len(arcs) < m:
        u, v = rng.sample(range(n), 2)
        if (u, v) not in arcs and (v, u) not in arcs:
            arcs.add((u, v))
    return MixedGraph(n, frozenset(), frozenset(arcs))


def random_nae_instance(num_vars: int, num_clauses: int, rng: random.Random) -> CnfInstance:
    """A random monotone NAE3SAT instance."""
    if num_vars < 3:
        raise ValueError("need at least three variables")
    clauses = []
    for _ in range(num_clauses):
        a, b, c = rng.sample(range(1, num_vars + 1), 3)
        clauses.append((a, b, c))
    return CnfInstance(num_vars, tuple(clauses))
