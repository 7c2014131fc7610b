"""Simple graphs, mixed graphs, and the directed-square operation.

Vertices are dense integer ids 0..n-1.  Edges are unordered pairs stored as
sorted tuples; arcs are ordered (tail, head) pairs.  All types are immutable
and every operation is a pure function, so values can be shared freely
between threads.  ``Graph.adj`` is built on first use, or frozen from the
neighbour lists that ``decide_qt`` builds for its first 2-colouring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import AbstractSet, Iterable, Sequence, TypeVar

Edge = tuple[int, int]
Arc = tuple[int, int]
T = TypeVar("T")


def edge(u: int, v: int) -> Edge:
    """Normalise an unordered vertex pair."""
    if u == v:
        raise ValueError(f"loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _checked_edges(edges: Iterable[Edge], n: int) -> frozenset[Edge]:
    """The edge set of a graph on vertices 0..n-1, validated and normalised.

    A frozenset of tuples ``(u, v)`` with ``0 <= u < v < n`` is already
    normalised and is returned as it is after one pass.  Anything else is
    rebuilt through :func:`edge` and range-checked, which raises the error
    for a loop or an out-of-range pair.
    """
    if edges.__class__ is frozenset:
        try:
            for e in edges:
                u, v = e
                if e.__class__ is not tuple or not 0 <= u < v < n:
                    break
            else:
                return edges
        except (TypeError, ValueError):
            pass  # malformed pairs: the rebuild below raises the usual error
    norm = frozenset(edge(u, v) for u, v in edges)
    for u, v in norm:
        if not (0 <= u and v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
    return norm


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative vertex count")
        object.__setattr__(self, "edges", _checked_edges(self.edges, self.n))

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, _neighbour_lists(self)))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def _neighbour_lists(g: Graph) -> list[list[int]]:
    """Each vertex's neighbours as a list, in the order of ``g.edges``: what
    :attr:`Graph.adj` freezes."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def _frozen_adj(g: Graph, nbrs: Sequence[Iterable[int]]) -> tuple[frozenset[int], ...]:
    """``g.adj``, frozen from ``nbrs``, the neighbour lists of g, when it is
    not built yet, so those lists are not built a second time."""
    adj = g.__dict__.get("adj")
    if adj is None:
        adj = g.__dict__["adj"] = tuple(map(frozenset, nbrs))
    return adj


def _unchecked(cls: type[T], **fields: object) -> T:
    """An instance of the frozen dataclass ``cls`` with these fields, made
    without its ``__post_init__`` checks: only for values that are valid by
    construction, never for input."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class MixedGraph:
    """A mixed graph: disjoint sets of undirected edges and directed arcs.

    Invariants: no loops, no pair carrying both an edge and an arc, and no
    digons (arcs in both directions between the same pair).
    """

    n: int
    edges: frozenset[Edge] = frozenset()
    arcs: frozenset[Arc] = frozenset()
    # The arcs as unordered pairs, normalised like edges; set by __post_init__.
    arc_pairs: frozenset[Edge] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("negative vertex count")
        norm = _checked_edges(self.edges, self.n)
        arcs = frozenset(self.arcs)
        object.__setattr__(self, "edges", norm)
        object.__setattr__(self, "arcs", arcs)
        # Set-level checks: the arcs' loop-free normalised pairs are as many
        # as the arcs (no loop, no digon), miss the edges and lie in range.
        # Only when one fails are the arcs walked, to name the offending arc.
        try:
            pairs = frozenset({(t, h) if t < h else (h, t) for t, h in arcs if t != h})
            valid = (len(pairs) == len(arcs) and pairs.isdisjoint(norm)
                     and min(map(itemgetter(0), pairs), default=0) >= 0
                     and max(map(itemgetter(1), pairs), default=-1) < self.n)
        except (TypeError, ValueError):
            valid = False  # malformed arcs: the walk below raises the usual error
        if not valid:
            for t, h in arcs:
                if t == h:
                    raise ValueError(f"loop arc at vertex {t}")
                if not (0 <= min(t, h) and max(t, h) < self.n):
                    raise ValueError(f"arc ({t},{h}) out of range for n={self.n}")
                if (h, t) in arcs:
                    raise ValueError(f"digon between {t} and {h}")
                if edge(t, h) in norm:
                    raise ValueError(f"pair {{{t},{h}}} carries both an edge and an arc")
        object.__setattr__(self, "arc_pairs", pairs)

    @cached_property
    def out_adj(self) -> tuple[frozenset[int], ...]:
        outs: list[set[int]] = [set() for _ in range(self.n)]
        for t, h in self.arcs:
            outs[t].add(h)
        return tuple(frozenset(s) for s in outs)

    @cached_property
    def in_adj(self) -> tuple[frozenset[int], ...]:
        ins: list[set[int]] = [set() for _ in range(self.n)]
        for t, h in self.arcs:
            ins[h].add(t)
        return tuple(frozenset(s) for s in ins)

    def __repr__(self) -> str:
        return f"MixedGraph(n={self.n}, edges={len(self.edges)}, arcs={len(self.arcs)})"


# ---------------------------------------------------------------------------
# Squares

def underlying(m: MixedGraph) -> Graph:
    """Forget all directions: every arc becomes an edge."""
    return Graph(m.n, m.edges | m.arc_pairs)


def _square_edges(m: MixedGraph) -> set[Edge]:
    """The pairs at directed distance two that no edge or arc joins, as
    sorted tuples: the edges the square adds.

    One pass over the edges and arcs builds each vertex's in-arc and out-arc
    lists and its neighbour set in the underlying graph; then each 2-dipath
    u -> w -> v is read off the lists of its middle vertex w.
    """
    n = m.n
    ins: list[list[int]] = [[] for _ in range(n)]
    outs: list[list[int]] = [[] for _ in range(n)]
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in m.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for t, h in m.arcs:
        outs[t].append(h)
        ins[h].append(t)
        nbrs[t].add(h)
        nbrs[h].add(t)
    new: set[Edge] = set()
    for w in range(n):
        out = outs[w]
        if not out:
            continue
        for u in ins[w]:
            near = nbrs[u]
            for v in out:
                if v != u and v not in near:
                    new.add((u, v) if u < v else (v, u))
    return new


def mixed_square(m: MixedGraph) -> MixedGraph:
    """Add an edge between each non-adjacent pair at directed distance two.

    Arcs are unchanged; pairs already joined by an edge or an arc in either
    direction gain nothing.  The new edges come from one scan of per-vertex
    arc lists (:func:`_square_edges`).
    """
    return MixedGraph(m.n, m.edges | _square_edges(m), m.arcs)


def undirected_square(m: MixedGraph) -> Graph:
    """The simple graph underlying the mixed square, built from the same scan
    as :func:`mixed_square` with no intermediate mixed graph."""
    return Graph(m.n, m.edges | m.arc_pairs | _square_edges(m))


# ---------------------------------------------------------------------------
# Structural queries

def triangle_free_edges(g: Graph) -> frozenset[Edge]:
    """Edges whose endpoints have no common neighbour (in no triangle)."""
    adj = g.adj
    return frozenset(e for e in g.edges if adj[e[0]].isdisjoint(adj[e[1]]))


def _two_colour(vertices: Sequence[int], adj: Sequence[Iterable[int]]
                ) -> tuple[list[int], list[int | None], list[int], tuple[int, int] | None]:
    """Breadth-first 2-colouring of the graph ``adj`` induces on ``vertices``,
    rooting each component at its first vertex in the order of ``vertices``.

    ``adj`` is indexed by vertex, and each entry may be any iterable of
    neighbours: a set, or a list such as :func:`_neighbour_lists` builds.
    Returns lists indexed by vertex of the colours (2 outside ``vertices``,
    -1 where unreached) and the BFS parents (None at a root); the vertices in the order reached, each root before
    the rest of its tree; and the first edge found with both ends the same
    colour (None when the graph is bipartite), where the search stops.
    Neighbours are met in the order of ``adj``: on a bipartite graph no
    colour depends on it, only which clash, and so which odd cycle, is found
    on one that is not.
    """
    colour = [2] * len(adj)  # 2 outside ``vertices``: never reached, never a clash
    for v in vertices:
        colour[v] = -1
    parent: list[int | None] = [None] * len(adj)
    order: list[int] = []
    for root in vertices:
        if colour[root] < 0:  # not reached from an earlier root
            colour[root] = 0
            queue = [root]
            for v in queue:  # the list grows as the search reaches new vertices
                c = colour[v]
                for w in adj[v]:
                    cw = colour[w]
                    if cw < 0:
                        colour[w] = c ^ 1
                        parent[w] = v
                        queue.append(w)
                    elif cw == c:
                        return colour, parent, order + queue, (v, w)
            order += queue
    return colour, parent, order, None


def find_odd_cycle(g: Graph) -> tuple[int, ...] | None:
    """An odd cycle as a vertex sequence, or None when the graph is bipartite."""
    _colour, parent, _order, clash = _two_colour(range(g.n), g.adj)
    return None if clash is None else _tree_cycle(parent, *clash)


def _tree_cycle(parent: list[int | None], x: int, y: int) -> tuple[int, ...]:
    """Close the tree paths of x and y into a cycle through their meeting point."""
    px = [x]
    while parent[px[-1]] is not None:
        px.append(parent[px[-1]])
    py = [y]
    while parent[py[-1]] is not None:
        py.append(parent[py[-1]])
    ay = set(py)
    meet = next(v for v in px if v in ay)
    cx = px[: px.index(meet) + 1]
    cy = py[: py.index(meet)]
    return tuple(cx + cy[::-1])


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle; ``math.inf`` for forests.

    Runs one BFS per vertex; every non-tree edge closes a walk of length
    dist(x)+dist(y)+1 which contains a cycle no longer than that, and a BFS
    rooted on a shortest cycle attains its exact length.
    """
    best: int | float = math.inf
    edges = sorted(g.edges)
    for root in range(g.n):
        dist = {root: 0}
        parent: dict[int, int | None] = {root: None}
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for w in g.adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
        for x, y in edges:
            if x in dist and y in dist and parent[x] != y and parent[y] != x:
                cand = dist[x] + dist[y] + 1
                if cand < best:
                    best = cand
    return best


def _articulation_points(k: int, edges: Iterable[Edge]) -> set[int]:
    """Articulation points of the graph on vertices 0..k-1 with these edges,
    found by one iterative depth-first search per component."""
    adj: list[list[int]] = [[] for _ in range(k)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    disc = [-1] * k
    low = [0] * k
    points: set[int] = set()
    timer = 0
    for root in range(k):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack = [(root, -1, iter(adj[root]))]   # a vertex, its parent, its neighbours left
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if disc[w] < 0:
                    if v == root:
                        root_children += 1
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != parent:
                    low[v] = min(low[v], disc[w])
            else:   # every neighbour seen: v is done
                stack.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[v])
                    if parent != root and low[v] >= disc[parent]:
                        points.add(parent)
        if root_children >= 2:
            points.add(root)
    return points


def _components_of(vertices: Iterable[int], adj: Sequence[AbstractSet[int]]
                   ) -> list[frozenset[int]]:
    """Connected components of the subgraph induced on ``vertices``, sorted
    by smallest member; ``adj`` is indexed by vertex."""
    left = set(vertices)
    comps = []
    for root in sorted(left):
        if root not in left:
            continue
        comp = {root}
        stack = [root]
        left.discard(root)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w in left:
                    left.discard(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def delete_vertices(g: Graph, vs: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Remove vertices, re-indexing survivors densely.

    Returns the reduced graph together with the original id of every new
    vertex in index order.
    """
    doomed = set(vs)
    if not doomed <= set(range(g.n)):
        raise ValueError("vertex to delete out of range")
    kept = tuple(v for v in range(g.n) if v not in doomed)
    index = {v: i for i, v in enumerate(kept)}  # increasing, so pairs stay sorted
    edges = frozenset((index[u], index[v]) for u, v in g.edges
                      if u not in doomed and v not in doomed)
    return Graph(len(kept), edges), kept
