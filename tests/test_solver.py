import hashlib
import random
import sys
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixedqt.solver as solver_module
from mixedqt.formats import parse_graph, serialize_mixed
from mixedqt.generate import (
    connected_graphs,
    random_connected_graph,
    random_nae_instance,
    random_oriented,
)
from mixedqt.graphs import (
    Graph,
    MixedGraph,
    edge,
    find_odd_cycle,
    mixed_square,
    underlying,
    undirected_square,
)
from mixedqt.reduction import (
    CnfInstance,
    brute_nae,
    build_reduction,
    is_nae_satisfying,
    parse_dimacs,
    witness_to_assignment,
)
from mixedqt.sat import Solver
from mixedqt.solver import (
    BudgetExceeded,
    InducedTwoDipath,
    PartialOrientation,
    SolveOptions,
    UncoveredEdge,
    VertexStatus,
    decide_qt,
    enumerate_qt,
    is_qt,
    signature,
    verify_witness,
    vertex_status,
)

from conftest import graphs, mixed_graphs
from helpers import (
    complete_graph,
    cycle_graph,
    independent_vertex_cuts,
    net_graph,
    reference_clauses,
)

FIXTURES = Path(__file__).parent / "fixtures"
BENCH = Path(__file__).resolve().parents[1] / "perfbench"
COMPLETE_5 = CnfInstance(5, tuple(combinations(range(1, 6), 3)))
# K3 x K3, the line graph of K_{3,3}: every edge lies in a triangle, so its
# one region has no pin
ROOK_3X3 = Graph(9, frozenset((u, v) for u, v in combinations(range(9), 2)
                              if u // 3 == v // 3 or u % 3 == v % 3))


def fixture_formula(name):
    return parse_dimacs((FIXTURES / name).read_text())


def dipath_square(n):
    """P_n squared: the undirected square of the directed path on n vertices."""
    return undirected_square(MixedGraph(n, arcs=frozenset((i, i + 1) for i in range(n - 1))))


def triangle_chain(k):
    """k triangles in a row, each sharing one vertex with the next."""
    return Graph(2 * k + 1, frozenset(
        e for t in range(k)
        for e in (edge(2 * t, 2 * t + 1), edge(2 * t + 1, 2 * t + 2), edge(2 * t, 2 * t + 2))))


def disjoint_union(a, b):
    return Graph(a.n + b.n, a.edges | {(u + a.n, v + a.n) for u, v in b.edges})


def two_tree(n, rng):
    """A random 2-tree: a triangle, then each new vertex joined to both ends
    of a random edge, so every edge lies on a triangle."""
    edges = {(0, 1), (0, 2), (1, 2)}
    for v in range(3, n):
        u, w = rng.choice(sorted(edges))
        edges |= {(u, v), (w, v)}
    return Graph(n, frozenset(edges))


def glued_pair(rng, dense=False):
    """Two random connected pieces of 4-6 vertices, identified at 1-3
    vertices independent in both, with 11-16 edges.

    The pieces are random connected graphs of maximum degree 4.  With
    ``dense`` they are 2-trees identified at three vertices: the glued graph
    has no triangle-free edge, so it is searched as one region.
    """
    piece = two_tree if dense else (lambda n, rng: random_connected_graph(n, 4, rng))
    while True:
        a = piece(rng.randint(4, 6), rng)
        b = piece(rng.randint(4, 6), rng)
        if not 11 <= len(a.edges) + len(b.edges) <= 16:
            continue
        k = 3 if dense else rng.randint(1, 3)
        sa = [s for s in combinations(range(a.n), k)
              if not any(v in a.adj[u] for u, v in combinations(s, 2))]
        sb = [s for s in combinations(range(b.n), k)
              if not any(v in b.adj[u] for u, v in combinations(s, 2))]
        if not sa or not sb:
            continue
        glue = dict(zip(rng.choice(sb), rng.choice(sa)))
        rest = [v for v in range(b.n) if v not in glue]
        glue.update((v, a.n + i) for i, v in enumerate(rest))
        return Graph(a.n + len(rest), a.edges | {edge(glue[u], glue[v]) for u, v in b.edges})


def naive_orientations(g):
    """Definition-level oracle: filter all 3^m edge-state assignments by is_qt."""
    elist = sorted(g.edges)
    for states in product((0, 1, 2), repeat=len(elist)):
        kept, arcs = set(), set()
        for e, s in zip(elist, states):
            if s == 0:
                kept.add(e)
            elif s == 1:
                arcs.add(e)
            else:
                arcs.add((e[1], e[0]))
        m = MixedGraph(g.n, frozenset(kept), frozenset(arcs))
        if is_qt(m) is None:
            yield m


class TestIsQt:
    def test_bare_two_dipath_is_induced(self):
        m = MixedGraph(3, arcs=frozenset({(0, 1), (1, 2)}))
        assert is_qt(m) == InducedTwoDipath(0, 1, 2)

    def test_covered_two_dipath_ok(self):
        m = MixedGraph(3, edges=frozenset({(0, 2)}), arcs=frozenset({(0, 1), (1, 2)}))
        assert is_qt(m) is None

    def test_lonely_edge_uncovered(self):
        m = MixedGraph(2, edges=frozenset({(0, 1)}))
        assert is_qt(m) == UncoveredEdge(0, 1)

    def test_directed_triangle_ok(self):
        m = MixedGraph(3, arcs=frozenset({(0, 1), (1, 2), (2, 0)}))
        assert is_qt(m) is None

    def test_violation_report_lines(self):
        assert InducedTwoDipath(0, 1, 2).describe() == "violation induced-2-dipath 0 1 2"
        assert UncoveredEdge(3, 4).describe() == "violation uncovered-edge 3 4"


class TestVertexStatus:
    def test_alternating_c4(self):
        m = MixedGraph(4, arcs=frozenset({(0, 1), (2, 1), (2, 3), (0, 3)}))
        assert vertex_status(m, 0) is VertexStatus.SOURCE
        assert vertex_status(m, 1) is VertexStatus.SINK

    def test_dipath_centre_internal(self):
        m = MixedGraph(3, arcs=frozenset({(0, 1), (1, 2)}))
        assert vertex_status(m, 1) is VertexStatus.INTERNAL

    def test_kept_edge_endpoint_arc_free(self):
        m = MixedGraph(2, edges=frozenset({(0, 1)}))
        assert vertex_status(m, 0) is VertexStatus.ARC_FREE

    @pytest.mark.parametrize("v", [-1, 2])
    def test_out_of_range_rejected(self, v):
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            vertex_status(MixedGraph(2, edges=frozenset({(0, 1)})), v)


class TestSignature:
    def test_reversal_complements(self):
        m = MixedGraph(4, arcs=frozenset({(0, 1), (2, 1), (2, 3), (0, 3)}))
        rev = MixedGraph(4, arcs=frozenset((h, t) for t, h in m.arcs))
        sig = signature(m, (0, 1, 2))
        flipped = signature(rev, (0, 1, 2))
        assert flipped == tuple("+" if s == "-" else "-" for s in sig)

    def test_internal_vertex_rejected(self):
        m = MixedGraph(3, arcs=frozenset({(0, 1), (1, 2)}))
        with pytest.raises(ValueError):
            signature(m, (0, 1, 2))

    def test_arc_free_vertex_rejected(self):
        m = MixedGraph(3, arcs=frozenset({(0, 1)}))
        with pytest.raises(ValueError):
            signature(m, (0, 1, 2))


class TestPartialOrientation:
    def test_mismatch_rejected(self):
        c4 = cycle_graph(4)
        path = frozenset({(0, 1), (1, 2), (2, 3)})
        for m in (MixedGraph(4),
                  MixedGraph(4, c4.edges, frozenset({(0, 2)})),  # an extra arc
                  MixedGraph(5, c4.edges),  # a vertex-count mismatch
                  # as many pairs as C4, but the chord 0-2 replaces the edge
                  # 0-3, once as an edge and once as an arc
                  MixedGraph(4, path | {(0, 2)}),
                  MixedGraph(4, path, frozenset({(2, 0)}))):
            with pytest.raises(ValueError):
                PartialOrientation(c4, m)

    @pytest.mark.parametrize("edges,arcs", [
        (set(), {(0, 1), (1, 2), (0, 2)}),
        (set(), {(1, 0), (2, 1), (2, 0)}),
        ({(0, 1)}, {(2, 1), (2, 0)}),
    ], ids=["forward-chord", "backward-chord", "chord-beside-edge"])
    def test_arc_off_the_base_rejected(self, edges, arcs):
        # the chord 0-2 is no edge of the path 0-1-2-3; it stands in for the
        # edge 2-3, so the pair counts agree and only the pairs themselves differ
        path = Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
        with pytest.raises(ValueError) as info:
            PartialOrientation(path, MixedGraph(4, frozenset(edges), frozenset(arcs)))
        assert str(info.value) == "mixed graph is not a partial orientation of the base graph"

    @given(mixed_graphs())
    def test_wraps_own_underlying(self, m):
        assert PartialOrientation(underlying(m), m).mixed is m


class TestEnumerateQt:
    def test_single_edge_two_orientations(self):
        results = list(enumerate_qt(complete_graph(2)))
        assert len(results) == 2
        assert all(not po.mixed.edges for po in results)

    def test_triangle_fourteen(self):
        results = list(enumerate_qt(complete_graph(3)))
        assert len(results) == 14
        full = [po for po in results if not po.mixed.edges]
        partial = [po for po in results if po.mixed.edges]
        assert len(full) == 8 and len(partial) == 6
        assert all(len(po.mixed.edges) == 1 for po in partial)

    def test_odd_cycle_none(self):
        assert list(enumerate_qt(cycle_graph(5))) == []

    def test_deterministic_order(self):
        a = [po.mixed for po in enumerate_qt(complete_graph(3))]
        b = [po.mixed for po in enumerate_qt(complete_graph(3))]
        assert a == b

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            next(enumerate_qt(complete_graph(7)))  # 21 edges

    @settings(max_examples=40)
    @given(graphs(max_n=6, max_edges=7))
    def test_matches_definition_oracle(self, g):
        fast = [po.mixed for po in enumerate_qt(g)]
        slow = list(naive_orientations(g))
        assert len(fast) == len(slow)
        assert set(fast) == set(slow)

    @given(graphs(max_n=7, max_edges=9))
    def test_yield_invariants(self, g):
        for po in enumerate_qt(g):
            assert po.base == g
            assert is_qt(po.mixed) is None


class TestVerifyWitness:
    def test_transitive_tournament_on_triangle(self):
        m = MixedGraph(3, arcs=frozenset({(0, 1), (1, 2), (0, 2)}))
        assert verify_witness(complete_graph(3), m).ok

    def test_directed_triangle(self):
        m = MixedGraph(3, arcs=frozenset({(0, 1), (1, 2), (2, 0)}))
        assert verify_witness(complete_graph(3), m).ok

    def test_all_kept_c4_uncovered(self):
        g = cycle_graph(4)
        check = verify_witness(g, MixedGraph(4, edges=g.edges))
        assert not check.ok
        assert check.violation == UncoveredEdge(0, 1)
        assert check.problems == ("violation uncovered-edge 0 1",)

    def test_mismatch_reports(self):
        g = cycle_graph(4)
        missing = verify_witness(g, MixedGraph(4, edges=g.edges - {(0, 1)}))
        assert "mismatch missing-edge 0 1" in missing.problems
        extra = verify_witness(g, MixedGraph(4, edges=g.edges | {(0, 2)}))
        assert "mismatch extra-adjacency 0 2" in extra.problems
        wrong_n = verify_witness(g, MixedGraph(5))
        assert not wrong_n.ok


class TestDecideQt:
    def test_net_unorientable(self):
        assert decide_qt(net_graph()) is None

    def test_k5_orientable(self):
        w = decide_qt(complete_graph(5))
        assert w is not None
        assert verify_witness(complete_graph(5), w.mixed).ok

    def test_one_clause_reduction_orientable(self):
        from mixedqt.reduction import CnfInstance, build_reduction

        g, _ = build_reduction(CnfInstance(3, ((1, 2, 3),)))
        w = decide_qt(g)
        assert w is not None and verify_witness(g, w.mixed).ok

    def test_deterministic_witness(self):
        g = complete_graph(5)
        assert decide_qt(g).mixed == decide_qt(g).mixed

    def test_decomposition_agrees_with_enumeration(self, rng, monkeypatch):
        # glued pairs have 11-16 edges, more than FLAT_CUTOFF, so the
        # regions they leave between vertices on triangle-free edges are
        # split further at their cut vertices; the dense pairs have no
        # vertex on a triangle-free edge
        fired = Counter()
        articulation_points = solver_module._articulation_points

        def spy(k, edges):
            points = articulation_points(k, edges)
            fired[bool(points)] += 1
            return points

        monkeypatch.setattr(solver_module, "_articulation_points", spy)
        for g in [glued_pair(rng) for _ in range(200)] + [
                glued_pair(rng, dense=True) for _ in range(50)]:
            first = next(iter(enumerate_qt(g)), None)
            w = decide_qt(g)
            assert (w is not None) == (first is not None)
            if w is not None:
                assert verify_witness(g, w.mixed).ok
                # what the split rests on: a cut's vertices are sources or sinks
                for cut, _v1, _v2 in independent_vertex_cuts(g, 3):
                    for v in cut:
                        assert vertex_status(first.mixed, v) in (
                            VertexStatus.SOURCE, VertexStatus.SINK)
        assert fired[True] > 0

    def test_piece_of_a_split_region_splits_again(self, monkeypatch):
        # one region of 27 edges whose only cut vertex is the hub z; each
        # strip it leaves (12 edges, with p1, p2 and z) has its own cut
        # vertex, x or y, which was not a cut vertex of the region
        g = parse_graph((FIXTURES / "resplit.graph").read_text())
        cuts = []
        articulation_points = solver_module._articulation_points

        def spy(k, edges):
            points = articulation_points(k, edges)
            cuts.append((len(edges), len(points)))
            return points

        monkeypatch.setattr(solver_module, "_articulation_points", spy)
        w = decide_qt(g)
        assert cuts == [(27, 1), (12, 1), (12, 1)]
        assert w is not None and verify_witness(g, w.mixed).ok
        assert hashlib.sha256(serialize_mixed(w.mixed).encode()).hexdigest() == (
            "b1dcafdbcc683049b5cfbcf9e239689f7d60602534f5f07c838d74e9aad868b8")
        # above 29 edges the whole region is one CNF, with no split
        monkeypatch.setattr(solver_module, "FLAT_CUTOFF", 30)
        cuts.clear()
        assert decide_qt(g) is not None and cuts == []

    def test_agrees_with_enumeration(self, deg3_corpus):
        for g in deg3_corpus:
            expected = next(iter(enumerate_qt(g)), None) is not None
            w = decide_qt(g)
            assert (w is not None) == expected
            if w is not None:
                assert verify_witness(g, w.mixed).ok

    def test_nae_reductions_agree_with_brute_nae(self, rng):
        # every clause gadget is a region between fixed literal vertices, so
        # these exercise the search over the class bits; unsatisfiable
        # instances are rare at these sizes and are drawn apart, with 16
        # clauses
        instances = [random_nae_instance(rng.randint(4, 8), rng.randint(4, 16), rng)
                     for _ in range(120)]
        while len(instances) < 150:
            y = random_nae_instance(rng.randint(5, 8), 16, rng)
            if brute_nae(y) is None:
                instances.append(y)
        answers = Counter()
        for y in instances:
            expected = brute_nae(y) is not None
            answers[expected] += 1
            for drop in (False, True):
                g, rm = build_reduction(y, drop_pendants=drop)
                w = decide_qt(g)
                assert (w is not None) == expected
                if w is not None:
                    assert verify_witness(g, w.mixed).ok
                    assert is_nae_satisfying(y, witness_to_assignment(rm, w.mixed))
        assert answers[True] > 100 and answers[False] >= 30

    def test_random_squares_get_verified_witnesses(self):
        # squares of random oriented graphs are YES by construction
        for n, d, s in product(range(10, 31, 2), (1.5, 2.0, 2.5), range(10)):
            g = undirected_square(random_oriented(n, d, random.Random(f"fuzz/{n}/{d}/{s}")))
            w = decide_qt(g, SolveOptions(node_limit=20000))
            assert w is not None and verify_witness(g, w.mixed).ok, (n, d, s)

    def test_large_random_squares_get_verified_witnesses(self):
        # each region that fails under the class bits forbids only the bits
        # of its final conflict, which keeps these under the limit
        for s in range(2):
            rng = random.Random(f"probe/500/2.0/{s}")
            g = undirected_square(random_oriented(500, 2.0, rng))
            w = decide_qt(g, SolveOptions(node_limit=20000))
            assert w is not None and verify_witness(g, w.mixed).ok, s

    def test_budget_raises(self):
        with pytest.raises(BudgetExceeded):
            decide_qt(complete_graph(6), SolveOptions(node_limit=1))

    @pytest.mark.parametrize("g", [
        disjoint_union(complete_graph(6), cycle_graph(5)),
        disjoint_union(cycle_graph(5), complete_graph(6)),
    ], ids=["k6-c5", "c5-k6"])
    def test_no_before_budget(self, g):
        # the triangle-free C5 settles the whole graph before K6 is searched
        assert decide_qt(g, SolveOptions(node_limit=1)) is None

    def test_triangle_far_from_the_first_root_keeps_its_witness(self):
        # the 2-colouring from vertex 0 walks the whole path before it meets
        # the triangle at its far end, the graph's only odd cycle; the
        # witness is the region search's, and the failed colouring tried
        # first must leave no trace in it
        g = Graph(2000, frozenset((i, i + 1) for i in range(1999)) | {(1997, 1999)})
        w = decide_qt(g)
        assert w is not None and verify_witness(g, w.mixed).ok
        assert hashlib.sha256(serialize_mixed(w.mixed).encode()).hexdigest() == (
            "65bed0cc50609e60b597e64f032519f74671000c3d8f8f9c238e2f9d79af49d0")

    @pytest.mark.parametrize("make, answer, nodes, witness", [
        pytest.param(make, answer, nodes, witness,
                     id=name if witness else f"{name}-verdict-only")
        for make, answer, nodes, name in [
            (lambda: build_reduction(fixture_formula("fano.cnf"))[0], False, 71, "fano"),
            (lambda: build_reduction(COMPLETE_5)[0], False, 47, "complete-3-uniform-v5"),
            (lambda: dipath_square(256), True, 256, "dipath-square-256"),
            (lambda: dipath_square(300), True, 300, "dipath-square-300"),
            (lambda: dipath_square(402), True, 402, "dipath-square-402"),
            (lambda: triangle_chain(600), True, 10, "triangle-chain-600"),
            (lambda: ROOK_3X3, False, 18, "rook-3x3"),
            # an isolated vertex is no region: K3 alone takes the same 4 nodes
            (lambda: Graph(4, frozenset({(0, 1), (1, 2), (0, 2)})), True, 4,
             "triangle-and-isolated-vertex"),
        ]
        for witness in (True, False)])
    def test_node_count_pinned(self, make, answer, nodes, witness):
        # the two formulas are NAE-unsatisfiable, so the clauses their
        # gadgets' final conflicts add refute the class bits; the squares
        # and the chain, whose cut vertices form one class, hold under the
        # first bits.  The rook's graph fails with no pin, so its final
        # conflict is the empty clause.  Either way the node count is exactly
        # what the limit has to allow, with or without the witness
        g = make()
        got = decide_qt(g, SolveOptions(node_limit=nodes), witness=witness)
        assert (got is not None) == answer
        assert got is None or isinstance(got, PartialOrientation) == witness
        with pytest.raises(BudgetExceeded) as info:
            decide_qt(g, SolveOptions(node_limit=nodes - 1), witness=witness)
        assert info.value.nodes == nodes

    def test_verdict_only_agrees_with_witness(self, rng):
        # the verdict-only mode answers True exactly where the witness mode
        # finds an orientation: on bipartite graphs, graphs with an odd cycle
        # and no triangle, and graphs whose regions are searched
        corpus = [parse_graph(path.read_text()) for path in sorted(FIXTURES.glob("*.graph"))]
        corpus += [triangle_chain(k) for k in (1, 2, 7, 50)]
        corpus += [random_connected_graph(rng.randint(3, 30), 3, rng) for _ in range(150)]
        corpus += [build_reduction(random_nae_instance(rng.randint(4, 7), rng.randint(4, 16), rng),
                                   drop_pendants=bool(i % 2))[0] for i in range(8)]
        corpus.append(build_reduction(fixture_formula("fano.cnf"))[0])
        answers = Counter()
        for g in corpus:
            verdict = decide_qt(g, witness=False)
            assert verdict is True or verdict is None
            assert (verdict is True) == (decide_qt(g) is not None)
            answers[verdict] += 1
        assert answers[True] > 20 and answers[None] > 20

    def test_witnesses_pinned(self):
        # a NO search runs first, so state carried from one call to the
        # next would show up as a changed witness
        fano, _ = build_reduction(fixture_formula("fano.cnf"))
        assert decide_qt(fano) is None
        one_clause, _ = build_reduction(fixture_formula("one_clause.cnf"))
        chain = triangle_chain(40)
        expected = [
            (one_clause, "63aee4452e3b5e85594456be2ac88bbf8c460a18af1ce52f2a1beb0fdaf55ac2"),
            (dipath_square(64),
             "7e36c704eb7bff318148ee0061ec6f8e5c2c7a7e6d95c97aa7971f1dbb645d83"),
            (chain, "24f3178263aabbc46d7d573b830a557987d7af60a85029ae03d9b62d43de288a"),
            (dipath_square(256),
             "023230e68d146dcc77c78acd091a9b7bf83c59137ed4d1e2dd7a84c3ac69c8ef"),
            (dipath_square(402),
             "58a8954a67ce0cf3d069786aa2a73da45b2400629dac95ce17fde3497c913ae4"),
        ]
        for g, digest in expected:
            w = decide_qt(g)
            assert w is not None
            assert hashlib.sha256(serialize_mixed(w.mixed).encode()).hexdigest() == digest

    def test_witness_equals_checked_build(self, monkeypatch):
        # decide_qt builds its orientations without the constructors' checks:
        # each must equal the one the checked constructors build from its
        # parts, arc_pairs included, which equality does not compare.  Every
        # graph is a fresh copy, so the 2-colouring runs over neighbour lists
        monkeypatch.syspath_prepend(str(BENCH))
        import ladders

        corpus = [(r.graph, r.node_limit) for build in ladders.LADDERS.values() for r in build(1)]
        corpus += [(parse_graph(p.read_text()), None) for p in sorted(FIXTURES.glob("*.graph"))]
        corpus += [(g, None) for g in connected_graphs(6)]
        paths = Counter()
        for graph, limit in corpus:
            g = Graph(graph.n, graph.edges)
            try:
                w = decide_qt(g, SolveOptions(node_limit=limit))
            except BudgetExceeded:
                continue
            if w is None:
                continue
            bipartite = "adj" not in g.__dict__   # no neighbour set was needed
            assert bipartite == (find_odd_cycle(g) is None)
            m = w.mixed
            rebuilt = PartialOrientation(g, MixedGraph(g.n, m.edges, m.arcs))
            assert w == rebuilt
            assert m.arc_pairs == rebuilt.mixed.arc_pairs
            paths[bipartite] += 1
        assert paths[True] >= 80 and paths[False] >= 300, paths

    def test_region_engine_agrees_with_enumeration(self, rng):
        # the CNF of one region shape, solved under two patterns of pins in
        # turn, so clauses learnt under the first serve the second: an
        # answer must match the enumerated orientations that give each
        # source pin no in-arc and each sink pin no out-arc, and a model
        # must decode to such an orientation
        def arc_masks(m):
            return (sum(1 << v for v in range(m.n) if m.in_adj[v]),
                    sum(1 << v for v in range(m.n) if m.out_adj[v]))

        profiles = {}   # the arc masks of every orientation, per graph
        answers = Counter()
        graphs_seen = 0
        while graphs_seen < 1000:
            g = random_connected_graph(rng.randint(2, 7), 4, rng)
            if len(g.edges) > 12:
                continue
            graphs_seen += 1
            if g not in profiles:
                profiles[g] = {arc_masks(po.mixed) for po in enumerate_qt(g)}
            pinned = tuple(sorted(rng.sample(range(g.n), rng.randint(0, g.n))))
            elist, sat, pin_lits = solver_module._encode(g.n, g.edges, pinned)
            for _pattern in range(2):
                sources = {v for v in pinned if rng.random() < 0.5}
                source_mask = sum(1 << v for v in sources)
                sink_mask = sum(1 << v for v in pinned) ^ source_mask

                def respects(masks):
                    return not (masks[0] & source_mask or masks[1] & sink_mask)

                model = sat.solve([x if v in sources else x ^ 1
                                   for v, x in zip(pinned, pin_lits)], lambda: None)
                expected = any(map(respects, profiles[g]))
                assert (model is not None) == expected
                if model is not None:
                    kept, arcs = solver_module._decode(elist, model)
                    m = MixedGraph(g.n, kept, arcs)
                    assert verify_witness(g, m).ok and respects(arc_masks(m))
                answers[expected] += 1
        assert answers[True] > 300 and answers[False] > 300

    def test_encoder_matches_reference_clauses(self, rng):
        # the solver _encode builds must be the one the reference clauses
        # give, fed in order: every literal's implications in the same
        # order and every watch list holding the same clauses in the same
        # order, so that the search runs as it would on those clauses
        def reference(k, edges, pinned):
            clauses = list(reference_clauses(k, edges, pinned))
            first_wedge = 2 * len(edges) + len(pinned)
            # each wedge variable's two implications come as (not x, arc)
            num_wedges = sum(len(c) == 2 and c[0] >= 2 * first_wedge for c in clauses) // 2
            bins = [[] for _ in range(2 * (first_wedge + num_wedges))]
            watches = {}
            for c in clauses:
                if len(c) > 2:
                    watches.setdefault(c[0], []).append(list(c))
                    watches.setdefault(c[1], []).append(list(c))
                else:
                    bins[c[0] ^ 1].append(c[1])
                    bins[c[1] ^ 1].append(c[0])
            return bins, watches

        shapes = []
        for _ in range(400):
            k = rng.randint(1, 12)
            density = rng.random()
            edges = frozenset((a, b) for a, b in combinations(range(k), 2)
                              if rng.random() < density)
            shapes.append((k, edges, tuple(sorted(rng.sample(range(k), rng.randint(0, k))))))
        no_wedge = 0
        for g in (dipath_square(64), complete_graph(8), triangle_chain(12)):
            shapes.append((g.n, g.edges, tuple(range(0, g.n, 3))))
        for k, edges, pinned in shapes:
            elist, sat, pin_lits = solver_module._encode(k, edges, pinned)
            bins, watches = reference(k, edges, pinned)
            assert elist == sorted(edges)
            assert pin_lits == list(range(4 * len(elist), 4 * len(elist) + 2 * len(pinned), 2))
            assert [list(b) for b in sat.bins] == bins
            assert {lit: ws for lit, ws in sat.watches.items() if ws} == watches
            no_wedge += sum(1 for c in reference_clauses(k, edges, pinned)
                            if len(c) == 2 and not c[0] & 1 and not c[1] & 1)
            # one int object per literal, however many clauses hold it
            ids = {}
            clauses = [c for ws in sat.watches.values() for c in ws]
            for q in (q for c in sat.bins + clauses for q in c):
                assert ids.setdefault(q, id(q)) == id(q)
        assert no_wedge > 100

    def test_regions_of_one_shape_share_a_flat_search(self, monkeypatch):
        # the second chain, numbered after the first, repeats its shapes and
        # bit patterns, so it is encoded and solved no more often
        encodings, solves = [], []
        encode, solve = solver_module._encode, Solver.solve

        def encode_spy(*args):
            encodings.append(args)
            return encode(*args)

        def solve_spy(self, *args):
            solves.append(args)
            return solve(self, *args)

        monkeypatch.setattr(solver_module, "_encode", encode_spy)
        monkeypatch.setattr(Solver, "solve", solve_spy)
        chain = triangle_chain(20)
        assert decide_qt(chain) is not None
        alone = len(encodings), len(solves)
        encodings.clear()
        solves.clear()
        g = disjoint_union(chain, chain)
        w = decide_qt(g)
        assert w is not None and verify_witness(g, w.mixed).ok
        assert (len(encodings), len(solves)) == alone
        assert alone[0] > 0 and alone[1] > 0

    def test_complement_pattern_shares_one_solve(self, monkeypatch):
        # the clause gadget has three pins in three classes, so its eight
        # patterns of class bits take four SAT solves; each answer under a
        # complement is the reversed orientation, or the same core
        searches, solves = [], []
        search, solve = solver_module._ClassSearch.search, Solver.solve

        def search_spy(self):
            searches.append(self)
            return search(self)

        def solve_spy(self, *args):
            solves.append(args)
            return solve(self, *args)

        monkeypatch.setattr(solver_module._ClassSearch, "search", search_spy)
        decide_qt(build_reduction(fixture_formula("one_clause.cnf"))[0])
        (order, (edges, pinned), pins), = searches[0].regions
        assert sorted(c for c, _p in pins) == [0, 1, 2]
        monkeypatch.setattr(Solver, "solve", solve_spy)
        # a fresh search, whose class ids are the found one's variables
        classes = solver_module._ClassSearch(
            None, [(order, edges, [(i, c, p) for i, (c, p) in zip(pinned, pins)])])
        region, = classes.regions
        shape = Graph(len(order), edges)
        answers = {}
        for bits in product((0, 1), repeat=3):
            answer = answers[bits] = classes.solve(region, [bool(b) for b in bits])
            if answer[0] is not None:
                m = MixedGraph(shape.n, *answer[0])
                assert verify_witness(shape, m).ok
                for i, (c, p) in zip(pinned, pins):
                    assert vertex_status(m, i) is (
                        VertexStatus.SOURCE if p == bits[c] else VertexStatus.SINK)
        assert len(solves) == 4
        for bits, (oriented, core) in answers.items():
            flipped, flipped_core = answers[tuple(1 - b for b in bits)]
            assert core == flipped_core
            if oriented is not None:
                assert flipped == (oriented[0], frozenset((v, u) for u, v in oriented[1]))
        assert sum(core is None for _o, core in answers.values()) == 6

    def test_long_dipath_square_at_default_recursion_limit(self):
        # 2,001 edges, so the search runs deeper than Python's default
        # recursion limit would allow a recursive one
        g = dipath_square(1002)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            w = decide_qt(g)
        finally:
            sys.setrecursionlimit(limit)
        assert w is not None and verify_witness(g, w.mixed).ok

    @pytest.mark.parametrize("k", [600, 2400])
    def test_long_triangle_chain_at_default_recursion_limit(self, k):
        # k triangles glued at k - 1 cut vertices, which all join the fixed
        # vertices in one split
        g = triangle_chain(k)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            w = decide_qt(g)
        finally:
            sys.setrecursionlimit(limit)
        assert w is not None and verify_witness(g, w.mixed).ok

    def test_negative_node_limit_rejected(self):
        with pytest.raises(ValueError):
            SolveOptions(node_limit=-1)

    @given(graphs(max_n=6, max_edges=9))
    def test_random_inputs_agree_with_enumeration(self, g):
        expected = next(iter(enumerate_qt(g)), None) is not None
        w = decide_qt(g)
        assert (w is not None) == expected
        if w is not None:
            assert verify_witness(g, w.mixed).ok

    def test_degenerate_inputs(self):
        empty = decide_qt(Graph(0))
        assert empty is not None and empty.mixed == MixedGraph(0)
        lone = decide_qt(Graph(1))
        assert lone is not None and lone.mixed == MixedGraph(1)
        assert len(list(enumerate_qt(Graph(2)))) == 1


class TestQtStructuralFacts:
    """Properties every enumerated orientation must satisfy."""

    def test_fixed_point_of_squaring(self):
        for g in (complete_graph(3), complete_graph(4), cycle_graph(6)):
            for po in enumerate_qt(g):
                arcs_only = MixedGraph(po.mixed.n, arcs=po.mixed.arcs)
                assert mixed_square(arcs_only) == po.mixed

    def test_square_of_valid_orientation_is_itself(self):
        for po in enumerate_qt(complete_graph(4)):
            assert mixed_square(po.mixed) == po.mixed

    def test_reversing_every_arc_swaps_sources_and_sinks(self):
        # what a region's answer under the complement of a pin pattern rests
        # on; above 10 edges on six vertices the orientations run to millions
        swap = {VertexStatus.SOURCE: VertexStatus.SINK, VertexStatus.SINK: VertexStatus.SOURCE}
        seen = 0
        for g in connected_graphs(6):
            if len(g.edges) > 10:
                continue
            for po in enumerate_qt(g):
                m = po.mixed
                r = MixedGraph(m.n, m.edges, frozenset((v, u) for u, v in m.arcs))
                assert is_qt(r) is None
                for v in range(m.n):
                    status = vertex_status(m, v)
                    assert vertex_status(r, v) == swap.get(status, status)
                seen += 1
        assert seen > 25000
