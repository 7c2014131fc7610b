"""Deciding whether a graph admits a quasi-transitive partial orientation.

A mixed graph is quasi-transitive when it has no induced 2-dipath (a directed
path u -> w -> v whose ends are non-adjacent) and every edge's endpoints are
joined by some 2-dipath.  A graph admits such a partial orientation exactly
when it arises as the undirected square of an oriented graph, which is what
:func:`decide_qt` decides.

The exact solver states the definition as a CNF over each region it has to
search: per edge, one variable for each of its two arcs (kept when both are
false); per wedge under an edge, one variable for each direction, which
implies that direction's two arcs, with one clause per edge asking for an
arc or a covering wedge; a binary clause against each possible induced
2-dipath; and a variable per pinned vertex making it a source or a sink.
The clause-learning solver of :mod:`mixedqt.sat` decides it, branching on
arcs and pins only: a wedge variable occurs positively only in the cover
clauses and negatively only beside its two arcs, so once every arc is set
with no conflict, each wedge left open reads as true.  The arcs of a
pinned vertex's edges are tried as arcs first, since a pin is a source or
a sink, and the pin's polarity picks their direction.  An edge lying in no
triangle has no wedge, so it must be an arc, and the induced-2-dipath
clauses then make its endpoints sources or sinks.

The search rests on one fact: a source or a sink is never the middle of a
2-dipath.  So fix a source/sink polarity on every vertex of any set S.  Then
every 2-dipath and every covering 2-dipath lies inside one component C of
G - S together with C's neighbours in S, and the instance is orientable
exactly when adjacent vertices of S have opposite polarities and each such
region is orientable under the fixed polarities.  An edge between two
vertices of S becomes the arc from the source to the sink: that arc lies on
no 2-dipath, and a kept edge there would cover nothing.

Two kinds of vertex are forced to be sources or sinks: those on
triangle-free edges, as above, and the cut vertices of a region.  A cut
vertex c has an arc, because a kept edge is covered by a 2-dipath through
both its ends.  It is not internal: an in-arc and an out-arc on opposite
sides form an induced 2-dipath.  With both on one side, an edge cx to the
other side can be neither an arc, which would form an induced 2-dipath with
one of them, nor a kept edge, whose covering 2-dipath would pass through a
common neighbour on x's side and so put an arc at c on that side.  The
argument holds inside a region under fixed polarities as well.

:func:`decide_qt` starts with S = the vertices on triangle-free edges and a
worklist of regions: the components of G - S with an edge of G, each with
its neighbours in S.  Each region is relabelled once, its sorted vertices
mapped to 0..k-1; all else reads that local graph.  A region with more than
``FLAT_CUTOFF`` edges is split at all of its cut vertices, found in the
local graph: they join S, and the components of the region - S, each with
its neighbours in S, go onto the end of the worklist, to be relabelled and
tested in turn.  A region with no cut vertex is final: its local graph is
its shape, its fixed vertices are its pins, and its shape with its pins'
local indices is its key.  Adjacent vertices of S alternate, so each
connected piece of the graph S induces is a polarity class decided by one
bit, and an odd cycle there is a NO before any search.  The class bits are
the model of a second CNF, one variable per class that some final region
touches, with no clause at first, so the first model is all zeros.  Each
final region is solved under the model: each key is encoded once per call,
and the pattern of its pins' class bits is solved as assumptions on its pin
variables, so what the solver learns under one pattern serves the next.
The answer is memoised per key and pattern.  Reversing every arc keeps an
orientation quasi-transitive and swaps its sources and sinks, so each solve
also answers the complement pattern, with the same kept edges and the arcs
reversed or with the same final conflict: a key with p pins takes at most
2^(p-1) solves.  Each region that fails adds a clause against the bits of
the classes in its final conflict, the empty clause when it has no pin
(lazy clause generation), and the CNF is solved again, until every region
holds or it has no model.  A 2-colouring of G comes first: a bipartite
graph has no triangle, and each edge becomes the arc from colour 0 to colour
1; an odd cycle in a graph with no triangle is a NO before any search.  The
colouring always runs over fresh neighbour lists, which are frozen into
``g.adj`` when it meets an odd cycle and ``g.adj`` is not built yet.  A
bipartite graph's colours do not depend on neighbour order, and on any
other graph only the clash test is read, so the lists give the answers and
witnesses that ``g.adj`` would.

The witnesses :func:`decide_qt` builds are valid by construction, so they
are made without the checks of :class:`MixedGraph` and
:class:`PartialOrientation`.  Those classes' constructors, and the readers
of :mod:`mixedqt.formats`, check every value that comes from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Literal, Union, overload

from .graphs import (
    Arc,
    Edge,
    Graph,
    MixedGraph,
    _articulation_points,
    _components_of,
    _frozen_adj,
    _neighbour_lists,
    _two_colour,
    _unchecked,
    edge,
    triangle_free_edges,
)
from .sat import Solver


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
    """None when the mixed graph is quasi-transitive, else the first violation:
    the first 2-dipath u -> w -> v in (w, u, v) order whose ends are not
    adjacent, else the first uncovered edge."""
    out_adj, in_adj = m.out_adj, m.in_adj
    pairs = m.edges | m.arc_pairs   # the adjacent pairs, as sorted tuples
    for w in range(m.n):
        if not out_adj[w]:
            continue
        heads = sorted(out_adj[w])
        for u in sorted(in_adj[w]):
            for v in heads:
                if v != u and ((u, v) if u < v else (v, u)) not in pairs:
                    return InducedTwoDipath(u, w, v)
    for u, v in sorted(m.edges):
        if out_adj[u].isdisjoint(in_adj[v]) and out_adj[v].isdisjoint(in_adj[u]):
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
        # MixedGraph forbids digons and pairs carrying both an edge and an
        # arc, so these pairs are distinct and equal counts make the sets equal
        base, mixed = self.base, self.mixed
        pairs = base.edges
        if (mixed.n != base.n
                or len(mixed.edges) + len(mixed.arcs) != len(pairs)
                or not mixed.edges <= pairs
                or not mixed.arc_pairs <= pairs):
            raise ValueError("mixed graph is not a partial orientation of the base graph")


class WitnessError(ValueError):
    """A claimed witness fails validation."""


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
    if m.n != g.n:
        return WitnessCheck(False, (f"mismatch vertex-count {m.n} {g.n}",))
    pairs = m.edges | m.arc_pairs   # the pairs of the graph underlying m
    problems = [f"mismatch missing-edge {u} {v}" for u, v in sorted(g.edges - pairs)]
    problems += [f"mismatch extra-adjacency {u} {v}" for u, v in sorted(pairs - g.edges)]
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


# Regions with at most FLAT_CUTOFF edges are not split further.  10 is the
# edge count of the clause gadget's final region; splitting every region
# costs about 6% of nae-reductions decide_qt time and saves no node.
FLAT_CUTOFF = 10


@dataclass(frozen=True)
class SolveOptions:
    """Options for :func:`decide_qt`.

    ``node_limit`` bounds the number of search nodes before raising
    :class:`BudgetExceeded`; None means unbounded, negative values are
    rejected.  A node is one region solve that is not answered from the
    memo, or one decision or one conflict of either clause-learning solver:
    the one over the class bits or the one inside a region solve.  A
    pattern whose complement was solved before is answered from the memo,
    so it is no node.  Answers that need no search come whatever the limit:
    on a graph with no triangle, and a NO at an odd cycle of edges between
    vertices on triangle-free edges.
    """

    node_limit: int | None = None

    def __post_init__(self) -> None:
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError(f"node limit must be non-negative, got {self.node_limit}")


def _encode(k: int, edges: frozenset[Edge], pinned: tuple[int, ...]
            ) -> tuple[list[Edge], Solver, list[int]]:
    """The module's CNF for a region shape on vertices 0..k-1, with the
    polarities of its pinned vertices left open, and its solver.

    Edge i of the sorted edge list has variable 2i for the arc from its
    lower end and 2i + 1 for the reverse arc; the pins' variables come next
    (true: a source) and the wedges' last, and the solver decides only the
    arcs and the pins.  The CNF is written in one pass, its binary clauses
    straight into the solver's implication lists.  Returns the edge list,
    the solver and the pins' positive literals, in the order of ``pinned``.
    """
    elist = sorted(edges)
    adj: list[set[int]] = [set() for _ in range(k)]
    for u, v in elist:
        adj[u].add(v)
        adj[v].add(u)
    wedges = [sorted(adj[u] & adj[v]) for u, v in elist]
    first_pin = 2 * len(elist)   # the pins' variables follow the arcs', then the wedges'
    first_wedge = first_pin + len(pinned)
    lits = list(range(2 * (first_wedge + 2 * sum(map(len, wedges)))))
    # one int object per literal, shared by its clauses: arc[a][b] is the
    # literal of the arc a -> b and nix[a][b] its negation
    arc: list[dict[int, int]] = [{} for _ in range(k)]
    nix: list[dict[int, int]] = [{} for _ in range(k)]
    for i, (u, v) in enumerate(elist):
        arc[u][v], nix[u][v], arc[v][u], nix[v][u] = lits[4 * i:4 * i + 4]
    # a wedge literal's list is a tuple built whole, which takes less memory
    # than a list: the two arcs the wedge implies, or none for its negation
    bins: list = [[] for _ in range(2 * first_wedge)]
    covers = []
    for (u, v), ws in zip(elist, wedges):
        bins[arc[u][v]].append(nix[v][u])
        bins[arc[v][u]].append(nix[u][v])
        if not ws:   # an edge in no triangle is an arc
            bins[nix[u][v]].append(arc[v][u])
            bins[nix[v][u]].append(arc[u][v])
            continue
        cover = [arc[u][v], arc[v][u]]
        for w in ws:   # u -> w -> v, then v -> w -> u
            x = len(bins)
            bins += (arc[u][w], arc[w][v]), (), (arc[v][w], arc[w][u]), ()
            bins[nix[u][w]].append(lits[x + 1])
            bins[nix[w][v]].append(lits[x + 1])
            bins[nix[v][w]].append(lits[x + 3])
            bins[nix[w][u]].append(lits[x + 3])
            cover += lits[x], lits[x + 2]
        covers.append(cover)
    for w in range(k):
        out, nout = arc[w], nix[w]
        for u in adj[w]:
            uw, not_uw, near = arc[u][w], nix[u][w], adj[u]
            for v in adj[w]:
                if u != v and v not in near:
                    bins[uw].append(nout[v])
                    bins[out[v]].append(not_uw)
    for v, p in zip(pinned, range(2 * first_pin, 2 * first_wedge, 2)):
        for x in adj[v]:
            bins[p].append(nix[x][v])
            bins[arc[x][v]].append(lits[p + 1])
            bins[p + 1].append(nix[v][x])
            bins[arc[v][x]].append(lits[p])
    # no wedge is decided: at a conflict-free fixpoint each unassigned one
    # reads as true, which its two arcs, being true, allow
    sat = Solver(bins, covers, first_wedge)
    for v in pinned:   # a pin is a source or a sink, so its edges are arcs
        for x in adj[v]:
            sat.phase[arc[v][x] >> 1] = sat.phase[arc[x][v] >> 1] = 0
    return elist, sat, lits[2 * first_pin:2 * first_wedge:2]


def _decode(elist: list[Edge], model: list[bool]
            ) -> tuple[frozenset[Edge], frozenset[tuple[int, int]]]:
    """The kept edges and the arcs of a model of :func:`_encode`'s CNF."""
    states = [(e, model[2 * i], model[2 * i + 1]) for i, e in enumerate(elist)]
    return (frozenset(e for e, f, r in states if not (f or r)),
            frozenset(e if f else (e[1], e[0]) for e, f, r in states if f or r))


class _ClassSearch:
    """The class stage of one :func:`decide_qt` call, with its node count.

    A final region comes in as its sorted vertices, its shape and, per pin,
    the local index, the class (the smallest vertex of its piece) and the
    parity (its colour in the 2-colouring of the graph the fixed vertices
    induce).  It is kept as its sorted vertices, its key and, per pin, the
    class variable and the parity; the variables number the classes in
    increasing order.  A region's answer is its kept edges and arcs in
    local labels, and None; or None and the indices into its pins of its
    final conflict.
    """

    def __init__(self, limit: int | None,
                 final: list[tuple[list[int], frozenset[Edge], list[tuple[int, int, int]]]]):
        self.nodes = 0   # the call's search nodes, counted against its limit
        self.limit = limit
        classes = sorted({c for _order, _edges, pins in final for _i, c, _p in pins})
        self.var = {c: x for x, c in enumerate(classes)}
        self.regions = [(order, (edges, tuple(i for i, _c, _p in pins)),
                         tuple((self.var[c], p) for _i, c, p in pins))
                        for order, edges, pins in final]
        self.sat = Solver([()] * (2 * len(classes)), [])
        self.engines: dict = {}
        self.memo: dict = {}

    def spend(self) -> None:
        self.nodes += 1
        if self.limit is not None and self.nodes > self.limit:
            raise BudgetExceeded(self.nodes)

    def search(self) -> list[bool] | None:
        """A class model under which every region holds, or None."""
        while (model := self.sat.solve((), self.spend)) is not None:
            cores = [{region[2][j][0] for j in core} for region in self.regions
                     if (core := self.solve(region, model)[1]) is not None]
            if not cores:
                return model
            for cs in cores:
                self.sat.add_clause([2 * c + model[c] for c in sorted(cs)])
        return None

    def solve(self, region: tuple, model: list[bool]) -> tuple:
        """A region's answer under a class model."""
        order, key, pins = region
        forced = tuple(p == model[c] for c, p in pins)   # True: a source
        if (key, forced) in self.memo:
            return self.memo[key, forced]
        self.spend()
        if key not in self.engines:
            self.engines[key] = _encode(len(order), *key)
        elist, sat, pin_lits = self.engines[key]
        assumed = [x if f else x ^ 1 for x, f in zip(pin_lits, forced)]
        found = sat.solve(assumed, self.spend)
        if found is None:
            core = [j for j, x in enumerate(assumed) if x in sat.core]
            result = reverse = (None, core)
        else:
            kept, arcs = _decode(elist, found)
            result = (kept, arcs), None
            reverse = (kept, frozenset((v, u) for u, v in arcs)), None
        # with no pin the complement is the pattern itself, and its own
        # answer is stored last
        self.memo[key, tuple(not f for f in forced)] = reverse
        self.memo[key, forced] = result
        return result


def _witness(g: Graph, kept: frozenset[Edge], arcs: frozenset[Arc]) -> PartialOrientation:
    """The partial orientation of g that keeps ``kept`` and orients every
    other edge of g once, as in ``arcs``, built without the checks of
    :class:`MixedGraph` and :class:`PartialOrientation`: the solver builds
    it valid, and the arcs' pairs are the edges not kept."""
    mixed = _unchecked(MixedGraph, n=g.n, edges=kept, arcs=arcs, arc_pairs=g.edges - kept)
    return _unchecked(PartialOrientation, base=g, mixed=mixed)


def _arcs_by_colour(g: Graph, colour: list[int]) -> PartialOrientation:
    """Each edge of g as the arc from colour 0 to colour 1 of a proper
    2-colouring, so every vertex is a source or a sink."""
    arcs = frozenset((u, v) if colour[u] == 0 else (v, u) for u, v in g.edges)
    return _witness(g, frozenset(), arcs)


def _regions(vertices: Iterable[int], adj: tuple[frozenset[int], ...],
             fixed: set[int]) -> list[frozenset[int]]:
    """The components of ``vertices`` minus ``fixed``, each joined to its
    neighbours in ``fixed``."""
    return [comp | {w for v in comp for w in adj[v] if w in fixed}
            for comp in _components_of((v for v in vertices if v not in fixed), adj)]


@overload
def decide_qt(g: Graph, opts: SolveOptions | None = None, *,
              witness: Literal[True] = True) -> PartialOrientation | None: ...
@overload
def decide_qt(g: Graph, opts: SolveOptions | None = None, *,
              witness: Literal[False]) -> Literal[True] | None: ...
@overload
def decide_qt(g: Graph, opts: SolveOptions | None = None, *,
              witness: bool) -> PartialOrientation | Literal[True] | None: ...


def decide_qt(g: Graph, opts: SolveOptions | None = None, *,
              witness: bool = True) -> PartialOrientation | Literal[True] | None:
    """A quasi-transitive partial orientation of g, or None when none exists.

    With ``witness=False`` the answer is True instead of an orientation, and
    nothing is built that only the orientation needs: a bipartite graph is
    answered by its 2-colouring's clash test, any other graph as soon as the
    class bits are found.  Both modes spend the same search nodes.

    A 2-colouring comes first: it answers a bipartite graph, and a graph
    with an odd cycle but no triangle is a NO.  Deterministic: identical
    inputs and options produce identical witnesses.  Raises :class:`BudgetExceeded`
    when a node limit is configured and hit, which is distinct from a NO answer.
    """
    nbrs = _neighbour_lists(g)
    colour, _parent, _order, clash = _two_colour(range(g.n), nbrs)
    if clash is None:  # no triangle, and the general path would take twice as long
        return _arcs_by_colour(g, colour) if witness else True
    adj = _frozen_adj(g, nbrs)
    del nbrs   # frozen into g.adj, or g.adj was built already
    free = triangle_free_edges(g)
    if len(free) == len(g.edges):
        return None  # an odd cycle and no triangle: no region to search
    opts = opts or SolveOptions()
    fixed = {v for e in free for v in e}
    regions = _regions((v for v in range(g.n) if adj[v]), adj, fixed)  # no lone vertex
    final = []
    # each region relabelled once, by position in its sorted vertices; the
    # pieces of a split region are appended, so this loop meets them too
    for region in regions:
        order = sorted(region)
        index = {v: i for i, v in enumerate(order)}
        edges = frozenset((i, index[w]) for i, v in enumerate(order)
                          for w in adj[v] if w > v and w in index)
        cut = _articulation_points(len(order), edges) if len(edges) > FLAT_CUTOFF else None
        if cut:
            fixed.update(order[i] for i in cut)
            regions.extend(_regions(region, adj, fixed))
        else:
            final.append((order, edges))
    # the graph the fixed vertices induce, rooted in increasing order
    parity, parent, reached, clash = _two_colour(sorted(fixed), adj)
    if clash is not None:
        return None  # adjacent fixed vertices alternate, which an odd cycle forbids
    # the BFS meets each tree's root, the smallest vertex of its piece, first
    # and every parent before its children, so one pass names each class
    class_id = [0] * g.n
    for v in reached:
        class_id[v] = v if parent[v] is None else class_id[parent[v]]
    search = _ClassSearch(opts.node_limit, [
        (order, edges, [(i, class_id[v], parity[v]) for i, v in enumerate(order) if v in fixed])
        for order, edges in final])
    model = search.search()
    if model is None:
        return None
    if not witness:
        return True  # every region holds under this model
    solved = [(region[0], search.solve(region, model)[0]) for region in search.regions]
    var = search.var
    del search   # its region solvers are done with; free them before the witness is built
    kept: set[Edge] = set()
    arcs: set[tuple[int, int]] = set()
    for order, (sub_kept, sub_arcs) in solved:
        kept.update((order[u], order[v]) for u, v in sub_kept)
        arcs.update((order[u], order[v]) for u, v in sub_arcs)
    # an edge between two fixed vertices runs from the source to the sink,
    # whatever a region made of it: that arc lies on no 2-dipath
    for u in reached:
        c = var.get(class_id[u])   # a class in no final region reads as 0
        source = parity[u] == (c is not None and model[c])
        for v in adj[u]:
            if u < v and v in fixed:
                kept.discard((u, v))
                arcs.add((u, v) if source else (v, u))
    return _witness(g, frozenset(kept), frozenset(arcs))
