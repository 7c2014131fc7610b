"""Deciding whether a graph admits a quasi-transitive partial orientation.

A mixed graph is quasi-transitive when it has no induced 2-dipath (a directed
path u -> w -> v whose ends are non-adjacent) and every edge's endpoints are
joined by some 2-dipath.  A graph admits such a partial orientation exactly
when it arises as the undirected square of an oriented graph, which is what
:func:`decide_qt` decides.

The exact solver assigns each edge one of three states (kept as an edge,
oriented forward, oriented backward) and searches with constraint
propagation.  Edges lying in no triangle must become arcs and their endpoints
must be sources or sinks, which drives an alternating propagation along
triangle-free paths.

The search rests on one fact: a source or a sink is never the middle of a
2-dipath.  So fix a source/sink polarity on every vertex of any set S.  Then
every 2-dipath and every covering 2-dipath lies inside one component C of
G - S together with C's neighbours in S, and the instance is orientable
exactly when adjacent vertices of S have opposite polarities and each such
region is orientable under the fixed polarities.  An edge between two
vertices of S becomes the arc from the source to the sink: that arc lies on
no 2-dipath, and a kept edge there would cover nothing.

Two kinds of vertex are forced to be sources or sinks.  The vertices on
triangle-free edges are, by the propagation above.  So is each vertex of an
independent vertex cut (with neighbours on both sides), a cut vertex being a
cut of one.  It has an arc, because a kept edge is covered by a 2-dipath
through both its ends.  It is not internal: an in-arc and an out-arc on
opposite sides form an induced 2-dipath.  With both on one side, an edge to
the other side can be neither an arc nor a kept edge: a kept edge's covering
2-dipath passes through a common neighbour, which lies on that other side
too, and any arc at the cut vertex to that side would form an induced
2-dipath with one of the first two arcs.  The argument holds inside a region
under fixed polarities as well.

:func:`decide_qt` starts with S = the vertices on triangle-free edges and a
worklist of regions: the components of G - S, each with its neighbours in S.
A region with more than ``FLAT_CUTOFF`` edges is split at all of its cut
vertices or, when it has none, at a small independent cut: the cut joins S,
and the components of the region - S, each with its neighbours in S, take
its place on the worklist.  A region with no cut is final.  A region
without a cut vertex in which every vertex's neighbourhood is connected (a
locally connected region, such as the square of a directed path) has no
independent cut at all, so none is sought there.  Adjacent
vertices of S alternate, so each connected piece of the graph S induces is
a polarity class decided by one bit, and an odd cycle there is a NO before
any search.  The class bits are searched; each final region is a constraint
over the classes it touches, decided lazily by a memoised flat search whose
results are shared per region shape (the region relabelled in vertex order),
so regions of one shape are searched once per pattern of their bits.  A
final region that touches no class is solved directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Union

from .graphs import (
    Edge,
    Graph,
    MixedGraph,
    _articulation_points,
    _components_of,
    _two_colour,
    connected_components,
    edge,
    triangle_free_edges,
    underlying,
)


class VertexStatus(Enum):
    SOURCE = "source"
    SINK = "sink"
    ARC_FREE = "arc-free"
    INTERNAL = "internal"


@dataclass(frozen=True)
class InducedTwoDipath:
    """Arcs u -> w -> v with u and v non-adjacent."""

    u: int
    w: int
    v: int

    def describe(self) -> str:
        return f"violation induced-2-dipath {self.u} {self.w} {self.v}"


@dataclass(frozen=True)
class UncoveredEdge:
    """An edge whose endpoints are joined by no 2-dipath."""

    u: int
    v: int

    def describe(self) -> str:
        return f"violation uncovered-edge {self.u} {self.v}"


QtViolation = Union[InducedTwoDipath, UncoveredEdge]


def is_qt(m: MixedGraph) -> QtViolation | None:
    """None when the mixed graph is quasi-transitive, else the first violation."""
    out, inn = m.out_adj, m.in_adj
    for w in range(m.n):
        for u in sorted(inn[w]):
            for v in sorted(out[w]):
                if u != v and not m.adjacent(u, v):
                    return InducedTwoDipath(u, w, v)
    for u, v in sorted(m.edges):
        if not ((out[u] & inn[v]) or (out[v] & inn[u])):
            return UncoveredEdge(u, v)
    return None


def vertex_status(m: MixedGraph, v: int) -> VertexStatus:
    if not 0 <= v < m.n:
        raise ValueError(f"vertex {v} out of range")
    has_out = bool(m.out_adj[v])
    has_in = bool(m.in_adj[v])
    if has_out and has_in:
        return VertexStatus.INTERNAL
    if has_out:
        return VertexStatus.SOURCE
    if has_in:
        return VertexStatus.SINK
    return VertexStatus.ARC_FREE


Signature = tuple[str, str, str]


def signature(m: MixedGraph, triple: tuple[int, int, int]) -> Signature:
    """Source/sink pattern of three designated vertices, '+' meaning source."""
    components = []
    for v in triple:
        st = vertex_status(m, v)
        if st is VertexStatus.SOURCE:
            components.append("+")
        elif st is VertexStatus.SINK:
            components.append("-")
        else:
            raise ValueError(f"vertex {v} is {st.value}, not a source or sink")
    return (components[0], components[1], components[2])


@dataclass(frozen=True)
class PartialOrientation:
    """A mixed graph whose underlying simple graph is the base graph."""

    base: Graph
    mixed: MixedGraph

    def __post_init__(self) -> None:
        if underlying(self.mixed) != self.base:
            raise ValueError("mixed graph is not a partial orientation of the base graph")


class WitnessError(ValueError):
    """A claimed witness or replay trace fails validation."""


@dataclass(frozen=True)
class WitnessCheck:
    """Outcome of verifying a claimed orientation witness against a graph."""

    ok: bool
    problems: tuple[str, ...] = ()
    violation: QtViolation | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_witness(g: Graph, m: MixedGraph) -> WitnessCheck:
    """Check that m is a quasi-transitive partial orientation of g."""
    problems: list[str] = []
    if m.n != g.n:
        problems.append(f"mismatch vertex-count {m.n} {g.n}")
        return WitnessCheck(False, tuple(problems))
    und = underlying(m)
    for u, v in sorted(g.edges - und.edges):
        problems.append(f"mismatch missing-edge {u} {v}")
    for u, v in sorted(und.edges - g.edges):
        problems.append(f"mismatch extra-adjacency {u} {v}")
    if problems:
        return WitnessCheck(False, tuple(problems))
    violation = is_qt(m)
    if violation is not None:
        return WitnessCheck(False, (violation.describe(),), violation)
    return WitnessCheck(True)


# ---------------------------------------------------------------------------
# Exhaustive enumeration

ENUMERATION_EDGE_CAP = 16


def enumerate_qt(g: Graph) -> Iterator[PartialOrientation]:
    """Yield every quasi-transitive partial orientation of g.

    Each edge independently takes one of the states kept / forward / backward,
    and exactly the assignments satisfying :func:`is_qt` are produced, in
    lexicographic order of the state vector over the sorted edge list (kept <
    forward < backward).  The 3^m state space limits this to small graphs.
    """
    elist = sorted(g.edges)
    m = len(elist)
    if m > ENUMERATION_EDGE_CAP:
        raise ValueError(f"enumeration supports at most {ENUMERATION_EDGE_CAP} edges, got {m}")
    n = g.n
    adjm = [0] * n
    for u, v in elist:
        adjm[u] |= 1 << v
        adjm[v] |= 1 << u
    eidx = {e: i for i, e in enumerate(elist)}

    # Wedge table: for edge (u, v) and common neighbour w, the two edges
    # {u,w}, {w,v} with the state orienting u->w resp. w->v.  State codes are
    # 0 kept, 1 forward (low->high), 2 backward.
    def arc_code(a: int, b: int) -> int:
        return 1 if a < b else 2

    wedges: list[tuple[tuple[int, int, int, int, int], ...]] = []
    for u, v in elist:
        ws = []
        for w in sorted(g.adj[u] & g.adj[v]):
            j1 = eidx[edge(u, w)]
            j2 = eidx[edge(w, v)]
            ws.append((w, j1, arc_code(u, w), j2, arc_code(w, v)))
        wedges.append(tuple(ws))

    choice = [0] * m
    out = [0] * n
    inn = [0] * n
    kept_at: list[list[int]] = [[] for _ in range(n)]

    def supported(i: int, depth: int) -> bool:
        # A kept edge needs one wedge whose two edges can still be oriented
        # into a covering 2-dipath; edges beyond `depth` are undecided.
        for _w, j1, c1, j2, c2 in wedges[i]:
            if (j1 > depth or choice[j1] == c1) and (j2 > depth or choice[j2] == c2):
                return True
            if (j2 > depth or choice[j2] == 3 - c2) and (j1 > depth or choice[j1] == 3 - c1):
                return True
        return False

    def kept_ok(u: int, v: int, depth: int) -> bool:
        for i in kept_at[u]:
            if not supported(i, depth):
                return False
        for i in kept_at[v]:
            if not supported(i, depth):
                return False
        return True

    def build() -> PartialOrientation:
        edges = frozenset(elist[i] for i in range(m) if choice[i] == 0)
        arcs = frozenset(
            elist[i] if choice[i] == 1 else (elist[i][1], elist[i][0])
            for i in range(m) if choice[i] != 0
        )
        return PartialOrientation(g, MixedGraph(n, edges, arcs))

    def search(d: int) -> Iterator[PartialOrientation]:
        if d == m:
            yield build()
            return
        u, v = elist[d]
        bu, bv = 1 << u, 1 << v
        # kept
        if wedges[d]:
            choice[d] = 0
            if supported(d, d) and kept_ok(u, v, d):
                kept_at[u].append(d)
                kept_at[v].append(d)
                yield from search(d + 1)
                kept_at[u].pop()
                kept_at[v].pop()
        # forward arc u -> v
        choice[d] = 1
        if not (inn[u] & ~(adjm[v] | bv)) and not (out[v] & ~(adjm[u] | bu)):
            if kept_ok(u, v, d):
                out[u] |= bv
                inn[v] |= bu
                yield from search(d + 1)
                out[u] &= ~bv
                inn[v] &= ~bu
        # backward arc v -> u
        choice[d] = 2
        if not (inn[v] & ~(adjm[u] | bu)) and not (out[u] & ~(adjm[v] | bv)):
            if kept_ok(u, v, d):
                out[v] |= bu
                inn[u] |= bv
                yield from search(d + 1)
                out[v] &= ~bu
                inn[u] &= ~bv

    return search(0)


# ---------------------------------------------------------------------------
# Exact decision procedure

class BudgetExceeded(RuntimeError):
    """The solver hit its configured node limit before reaching an answer."""

    def __init__(self, nodes: int):
        super().__init__(f"search node limit exceeded after {nodes} nodes")
        self.nodes = nodes


# Regions with at most FLAT_CUTOFF edges are searched directly; independent
# cuts of 2..MAX_CUT_SIZE vertices are only sought in regions of at most
# CUT_SEARCH_LIMIT vertices without a cut vertex.
FLAT_CUTOFF = 10
MAX_CUT_SIZE = 3
CUT_SEARCH_LIMIT = 256


@dataclass(frozen=True)
class SolveOptions:
    """Options for :func:`decide_qt`.

    ``node_limit`` bounds the number of search nodes before raising
    :class:`BudgetExceeded`; None means unbounded, negative values are
    rejected.  A NO that needs no search (an odd cycle of edges between
    vertices on triangle-free edges) is returned whatever the limit.
    """

    node_limit: int | None = None

    def __post_init__(self) -> None:
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError(f"node limit must be non-negative, got {self.node_limit}")


class _Budget:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int | None):
        self.nodes = 0
        self.limit = limit

    def spend(self) -> None:
        self.nodes += 1
        if self.limit is not None and self.nodes > self.limit:
            raise BudgetExceeded(self.nodes)


_KEPT, _FWD, _REV = 1, 2, 4
_SINGLETONS = {_KEPT, _FWD, _REV}
_BRANCH_ORDER = (_FWD, _REV, _KEPT)
# _TWO_LEFT[d]: domain d has exactly two values left
_TWO_LEFT = (False, False, False, True, False, True, True, False)


class _FlatSearch:
    """The state of one flat search, changed in place and undone by a trail.

    Each trail entry records one change: ``j << 3 | old`` restores edge j's
    domain to ``old`` (never 0), ``j << 3`` takes edge j out of ``applied``
    and ``~v`` (negative) removes vertex v's polarity.  ``two`` and
    ``three`` are bitmasks of the edges with two and three values left,
    kept in step with every domain change and every undo.
    """

    __slots__ = ("elist", "adj", "inc", "wedges", "two_sided",
                 "dom", "pol", "applied", "trail", "two", "three")

    def __init__(self, vertices: frozenset[int], edges: frozenset[Edge],
                 adj: dict[int, set[int]], forced: dict[int, int]):
        self.elist = sorted(edges)
        eidx = {e: i for i, e in enumerate(self.elist)}
        self.adj = adj
        inc: dict[int, list[int]] = {v: [] for v in vertices}
        for i, (u, v) in enumerate(self.elist):
            inc[u].append(i)
            inc[v].append(i)
        self.inc = inc
        wedges = []
        two_sided = set(forced)
        for u, v in self.elist:
            ws = []
            for w in sorted(adj[u] & adj[v]):
                j1 = eidx[edge(u, w)]
                j2 = eidx[edge(w, v)]
                b1 = _FWD if u < w else _REV      # orients u -> w
                b2 = _FWD if w < v else _REV      # orients w -> v
                ws.append((j1, b1, j2, b2))
            wedges.append(tuple(ws))
            if not ws:
                two_sided.add(u)
                two_sided.add(v)
        self.wedges = wedges
        self.two_sided = two_sided
        self.dom = [(_KEPT | _FWD | _REV) if ws else (_FWD | _REV) for ws in wedges]
        self.pol = dict(forced)
        self.applied: set[int] = set()
        self.trail: list[int] = []
        self.three = sum(1 << i for i, ws in enumerate(wedges) if ws)
        self.two = ((1 << len(wedges)) - 1) ^ self.three

    def arc_bit(self, i: int, tail: int) -> int:
        """Domain bit orienting edge i away from ``tail``."""
        return _FWD if tail == self.elist[i][0] else _REV

    def narrow(self, j: int, nd: int) -> None:
        """Shrink edge j's domain to ``nd`` and log the old value."""
        old = self.dom[j]
        self.trail.append(j << 3 | old)
        self.dom[j] = nd
        b = 1 << j
        if old == 7:
            self.three ^= b
        if _TWO_LEFT[old] != _TWO_LEFT[nd]:
            self.two ^= b

    def undo(self, mark: int) -> None:
        """Pop the trail back to ``mark``, restoring every logged change."""
        dom, trail = self.dom, self.trail
        two, three = self.two, self.three
        while len(trail) > mark:
            e = trail.pop()
            if e < 0:
                del self.pol[~e]
            elif e & 7:
                j, old = e >> 3, e & 7
                b = 1 << j
                if old == 7:
                    three ^= b
                if _TWO_LEFT[old] != _TWO_LEFT[dom[j]]:
                    two ^= b
                dom[j] = old
            else:
                self.applied.discard(e >> 3)
        self.two, self.three = two, three

    def branch_edge(self) -> int:
        """The lowest-indexed edge with the fewest values left, or -1 when
        every edge is decided."""
        mask = self.two or self.three
        return (mask & -mask).bit_length() - 1

    def supported(self, i: int) -> bool:
        dom = self.dom
        for j1, b1, j2, b2 in self.wedges[i]:
            if dom[j1] & b1 and dom[j2] & b2:
                return True
            if dom[j2] & (b2 ^ 6) and dom[j1] & (b1 ^ 6):
                return True
        return False

    def propagate(self, work: list[int], vwork: list[int]) -> bool:
        """Run pruning rules to a fixpoint; False on contradiction.

        ``work`` holds edge indices to (re)examine and ``vwork`` vertices
        whose polarity still has to be applied.  Domains only shrink, so the
        fixpoint is unique.
        """
        dom, pol, applied, trail = self.dom, self.pol, self.applied, self.trail
        elist, inc, adj, two_sided = self.elist, self.inc, self.adj, self.two_sided
        narrow, arc_bit = self.narrow, self.arc_bit

        def clear(j: int, bits: int) -> bool:
            nd = dom[j] & ~bits
            if nd == dom[j]:
                return True
            narrow(j, nd)
            if nd == 0:
                return False
            work.append(j)
            for x in elist[j]:
                for k in inc[x]:
                    if dom[k] & _KEPT:
                        work.append(k)
            return True

        def set_pol(v: int, p: int) -> bool:
            cur = pol.get(v)
            if cur is not None:
                return cur == p
            pol[v] = p
            trail.append(~v)
            vwork.append(v)
            return True

        while work or vwork:
            while vwork:
                v = vwork.pop()
                p = pol[v]
                for j in inc[v]:
                    # a source admits no incoming arc, a sink no outgoing one
                    other = elist[j][1] if elist[j][0] == v else elist[j][0]
                    forbidden = arc_bit(j, other) if p == 1 else arc_bit(j, v)
                    if not clear(j, forbidden):
                        return False
            if not work:
                break
            i = work.pop()
            d = dom[i]
            if d == 0:
                return False
            if d & _KEPT and not self.supported(i):
                if not clear(i, _KEPT):
                    return False
                d = dom[i]
            if d in _SINGLETONS and i not in applied:
                applied.add(i)
                trail.append(i << 3)
                if d != _KEPT:
                    u, v = elist[i]
                    a, b = (u, v) if d == _FWD else (v, u)
                    if b in two_sided and not set_pol(b, -1):
                        return False
                    if a in two_sided and not set_pol(a, 1):
                        return False
                    # arc a -> b: forbid extensions into induced 2-dipaths
                    for j in inc[b]:
                        if j == i:
                            continue
                        y = elist[j][1] if elist[j][0] == b else elist[j][0]
                        if y != a and y not in adj[a]:
                            if not clear(j, arc_bit(j, b)):
                                return False
                    for j in inc[a]:
                        if j == i:
                            continue
                        x = elist[j][1] if elist[j][0] == a else elist[j][0]
                        if x != b and x not in adj[b]:
                            if not clear(j, arc_bit(j, x)):
                                return False
        return True

    def is_qt(self) -> bool:
        """Full quasi-transitivity check of a fully decided assignment."""
        dom, elist, adj = self.dom, self.elist, self.adj
        out: dict[int, set[int]] = {v: set() for v in self.inc}
        inn: dict[int, set[int]] = {v: set() for v in self.inc}
        for i, (u, v) in enumerate(elist):
            if dom[i] == _FWD:
                out[u].add(v)
                inn[v].add(u)
            elif dom[i] == _REV:
                out[v].add(u)
                inn[u].add(v)
        for w in self.inc:
            for u in inn[w]:
                for v in out[w]:
                    if u != v and v not in adj[u]:
                        return False
        for i, (u, v) in enumerate(elist):
            if dom[i] == _KEPT and not ((out[u] & inn[v]) or (out[v] & inn[u])):
                return False
        return True

    def extract(self) -> tuple[frozenset[Edge], frozenset[tuple[int, int]]]:
        dom, elist = self.dom, self.elist
        kept = frozenset(e for e, d in zip(elist, dom) if d == _KEPT)
        arcs = frozenset(e if d == _FWD else (e[1], e[0])
                         for e, d in zip(elist, dom) if d in (_FWD, _REV))
        return kept, arcs


def _flat_solve(vertices: frozenset[int], edges: frozenset[Edge],
                adj: dict[int, set[int]], forced: dict[int, int],
                budget: _Budget) -> tuple[frozenset[Edge], frozenset[tuple[int, int]]] | None:
    """Depth-first search over edge states with propagation, without recursion.

    The search keeps an explicit stack of frames, each holding its branch
    edge, the index of the next value to try (forward, backward, kept) and
    its mark on the undo trail of :class:`_FlatSearch`.  Propagation changes
    the one state in place; backtracking pops the trail back to the frame's
    mark.  The branch edge is the lowest-indexed edge with the fewest values
    left, read off the bitmasks of edges with two and with three values.
    One node is spent at the root after the first propagation and one after
    each branch value that propagates without contradiction.
    """
    s = _FlatSearch(vertices, edges, adj, forced)
    if not s.propagate(list(range(len(s.elist))), list(s.pol)):
        return None
    budget.spend()
    stack: list[list[int]] = []
    while True:
        i = s.branch_edge()
        if i >= 0:
            stack.append([i, 0, len(s.trail)])
        elif s.is_qt():
            return s.extract()
        # move the top frame on to its next value that propagates; every
        # polarity was applied by the time of the frame's mark, so the
        # propagation starts from the branch edge alone
        while stack:
            frame = stack[-1]
            i, k, mark = frame
            s.undo(mark)
            while k < 3:
                value = _BRANCH_ORDER[k]
                k += 1
                if s.dom[i] & value:
                    s.narrow(i, value)
                    if s.propagate([i], []):
                        break
                    s.undo(mark)
            else:
                stack.pop()
                continue
            frame[1] = k
            break
        else:
            return None
        budget.spend()


_Shape = tuple[list[int], frozenset[Edge], tuple[tuple[int, int, int], ...]]


class _ComponentSolver:
    """The memoised flat solve of one :func:`decide_qt` call.

    Each connected piece of the graph the fixed vertices induce is a
    polarity class; a vertex outside them is a class of its own.
    ``class_id`` and ``parity`` give each vertex its class and its colour in
    the 2-colouring of that graph.  A final region is solved once for each
    pattern of bits on the classes it touches, and the result is shared by
    every region of the same shape: the region relabelled in vertex order,
    its sorted vertices mapped to 0..k-1, with its edges and its forced
    polarities under that map.  The map keeps vertex order, so the sorted
    edge list, every wedge list and the propagation fixpoint are those of
    the region itself, and so are the search and its witness; the clause
    gadgets of an NAE reduction are searched once per pattern, not once per
    clause.
    """

    def __init__(self, adj: tuple[frozenset[int], ...], fixed_graph: Graph,
                 parity: dict[int, int], budget: _Budget):
        self.adj = adj
        self.class_id = [0] * len(adj)
        for c, comp in enumerate(connected_components(fixed_graph)):
            for v in comp:
                self.class_id[v] = c
        self.parity = parity
        self.budget = budget
        self.memo: dict = {}

    def shape(self, region: frozenset[int], fixed: set[int]) -> _Shape:
        """The region relabelled in vertex order: its sorted vertices, its
        edges under the map to 0..k-1, and the local index, class and parity
        of each of its fixed vertices."""
        order = sorted(region)
        index = {v: i for i, v in enumerate(order)}
        adj, class_id, parity = self.adj, self.class_id, self.parity
        edges = frozenset((i, index[w]) for i, v in enumerate(order)
                          for w in adj[v] if w > v and w in index)
        pins = tuple((i, class_id[v], parity[v]) for i, v in enumerate(order) if v in fixed)
        return order, edges, pins

    def solve(self, shape: _Shape, bits: dict[int, int]):
        """Kept edges and arcs orienting a region's shape, in its local
        labels, or None, given the bits of the classes it touches."""
        order, edges, pins = shape
        forced = tuple((i, 1 if p == bits[c] else -1) for i, c, p in pins)
        key = (edges, forced)
        if key in self.memo:
            return self.memo[key]
        self.budget.spend()
        adj: dict[int, set[int]] = {i: set() for i in range(len(order))}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        result = _flat_solve(frozenset(adj), edges, adj, dict(forced), self.budget)
        self.memo[key] = result
        return result


def _region_cut(vertices: frozenset[int], adj: dict[int, frozenset[int]]) -> frozenset[int]:
    """The vertices at which a region splits: all of its cut vertices or,
    when it has none and at most ``CUT_SEARCH_LIMIT`` vertices, the smallest
    independent cut :func:`_grow_cut` finds; empty when there is neither.

    A region without a cut vertex whose every vertex has a connected
    neighbourhood has no independent cut, so :func:`_grow_cut` is not run
    there.  Take an inclusion-minimal independent cut B.  Each v in B has
    neighbours in two components of the region - B, or B - v would still
    separate it (and be non-empty, as v alone is no cut vertex).  B is
    independent, so those neighbours lie in the region - B, where no edge
    joins two components: v's neighbourhood is disconnected.
    """
    points = _articulation_points(vertices, adj)
    if (points or len(vertices) > CUT_SEARCH_LIMIT
            or all(len(_components_of(adj[v], adj)) == 1 for v in vertices)):
        return frozenset(points)
    best = frozenset()
    for seed in sorted(vertices):
        cut = _grow_cut(seed, vertices, adj)
        if cut and (not best or len(cut) < len(best)):
            best = cut
            if len(best) == 2:
                break
    return best


def _grow_cut(seed: int, vertices: frozenset[int],
              adj: dict[int, frozenset[int]]) -> frozenset[int] | None:
    """Grow a region from ``seed`` until its neighbourhood is an independent
    set of at most ``MAX_CUT_SIZE`` vertices separating it from the rest.

    A greedy heuristic: boundary vertices with no neighbour outside are
    absorbed, otherwise the vertex whose absorption keeps the boundary
    smallest is taken.  Finding a cut is a performance device only, so
    incompleteness here costs time, never correctness.
    """
    region = {seed}
    boundary = set(adj[seed])
    rest = vertices - region - boundary
    while True:
        if not boundary or not rest:
            return None
        # the absorb test reads ``rest`` as it stood before the pass
        absorbed = False
        for b in sorted(boundary):
            if not adj[b] & rest:
                region.add(b)
                boundary.discard(b)
                boundary |= adj[b] - region
                absorbed = True
        if absorbed:
            rest -= boundary
            continue
        if len(boundary) <= MAX_CUT_SIZE and not any(
                adj[a] & boundary for a in boundary):
            return frozenset(boundary)
        # taking b moves its neighbours in ``rest`` into the boundary
        pick = None
        pick_size = None
        for b in sorted(boundary):
            size = len(adj[b] & rest)
            if pick_size is None or size < pick_size:
                pick, pick_size = b, size
        region.add(pick)
        boundary.discard(pick)
        boundary |= adj[pick] - region
        rest -= boundary


def _search_classes(solver: _ComponentSolver,
                    constraints: list[tuple[_Shape, tuple[int, ...]]]
                    ) -> dict[int, int] | None:
    """Bits for the classes the constraints touch under which every
    constraint's region is orientable, or None when there are none.

    A constraint is a region's shape with the classes of its fixed
    vertices; its table is decided lazily by :meth:`_ComponentSolver.solve`,
    whose memo keeps every entry.  A class in no constraint is left out and
    reads as 0.  Classes that share no constraint, directly or through other
    classes, are searched one group after another.  Within a group the
    search runs on an explicit stack of frames, each holding a class and the
    next bit to try.
    It branches on the free class that completes the most constraints, then
    on the one in the most constraints, and checks each constraint as soon
    as its last class is set.  One node is spent per bit tried.
    """
    watch: dict[int, list[int]] = {}
    for k, (_region, scope) in enumerate(constraints):
        for c in scope:
            watch.setdefault(c, []).append(k)
    unset = [len(scope) for _region, scope in constraints]
    bits: dict[int, int] = {}

    def consistent(c: int) -> bool:
        for k in watch[c]:
            if not unset[k] and solver.solve(constraints[k][0], bits) is None:
                return False
        return True

    def urgency(c: int) -> tuple[int, int, int]:
        return sum(unset[k] == 1 for k in watch[c]), len(watch[c]), -c

    linked = {c: {x for k in ks for x in constraints[k][1]} for c, ks in watch.items()}
    for group in _components_of(watch, linked):
        stack: list[list[int]] = []
        while True:
            free = [c for c in group if c not in bits]
            if not free:
                break
            stack.append([max(free, key=urgency), 0])
            # move the top frame on to its next bit that keeps every
            # complete constraint orientable
            while stack:
                frame = stack[-1]
                c, b = frame
                if c in bits:
                    del bits[c]
                    for k in watch[c]:
                        unset[k] += 1
                if b == 2:
                    stack.pop()
                    continue
                frame[1] = b + 1
                solver.budget.spend()
                bits[c] = b
                for k in watch[c]:
                    unset[k] -= 1
                if consistent(c):
                    break
            else:
                return None
    return bits


def _regions(vertices: Iterable[int], adj: tuple[frozenset[int], ...],
             fixed: set[int]) -> list[frozenset[int]]:
    """The components of ``vertices`` minus ``fixed``, each joined to its
    neighbours in ``fixed``."""
    return [comp | {w for v in comp for w in adj[v] if w in fixed}
            for comp in _components_of((v for v in vertices if v not in fixed), adj)]


def decide_qt(g: Graph, opts: SolveOptions | None = None) -> PartialOrientation | None:
    """A quasi-transitive partial orientation of g, or None when none exists.

    Deterministic: identical inputs and options produce identical witnesses.
    Raises :class:`BudgetExceeded` when a node limit is configured and hit,
    which is distinct from a NO answer.
    """
    opts = opts or SolveOptions()
    adj0 = g.adj
    fixed = {v for e in triangle_free_edges(g) for v in e}
    regions = _regions(range(g.n), adj0, fixed)
    final = []
    # the pieces of a split region are appended, so this loop meets them too
    for region in regions:
        adj = {v: adj0[v] & region for v in region}
        cut = _region_cut(region, adj) if sum(map(len, adj.values())) > 2 * FLAT_CUTOFF else None
        if cut:
            fixed |= cut
            regions.extend(_regions(region, adj0, fixed))
        else:
            final.append(region)
    fixed_graph = Graph(g.n, frozenset(e for e in g.edges if e[0] in fixed and e[1] in fixed))
    parity, _parent, clash = _two_colour(fixed_graph)
    if clash is not None:
        return None  # adjacent fixed vertices alternate, which an odd cycle forbids
    solver = _ComponentSolver(adj0, fixed_graph, parity, _Budget(opts.node_limit))
    class_id = solver.class_id
    solved = []
    constraints = []
    for region in final:
        shape = solver.shape(region, fixed)
        scope = tuple(sorted({c for _i, c, _p in shape[2]}))
        if scope:
            constraints.append((shape, scope))
            continue
        sub = solver.solve(shape, {})
        if sub is None:
            return None
        solved.append((shape[0], sub))
    bits = _search_classes(solver, constraints)
    if bits is None:
        return None
    solved += [(shape[0], solver.solve(shape, bits)) for shape, _scope in constraints]
    kept: set[Edge] = set()
    arcs: set[tuple[int, int]] = set()
    for order, (sub_kept, sub_arcs) in solved:
        kept.update((order[u], order[v]) for u, v in sub_kept)
        arcs.update((order[u], order[v]) for u, v in sub_arcs)
    # an edge between two fixed vertices runs from the source to the sink,
    # whatever a region made of it: that arc lies on no 2-dipath
    for u, v in fixed_graph.edges:
        kept.discard((u, v))
        arcs.add((u, v) if parity[u] == bits.get(class_id[u], 0) else (v, u))
    return PartialOrientation(g, MixedGraph(g.n, frozenset(kept), frozenset(arcs)))
