import math
import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given

from mixedqt.graphs import (
    Graph,
    MixedGraph,
    _articulation_points,
    _components_of,
    delete_vertices,
    edge,
    find_odd_cycle,
    girth,
    mixed_square,
    triangle_free_edges,
    underlying,
    undirected_square,
)

from conftest import graphs, mixed_graphs
from helpers import (
    complete_graph,
    cycle_graph,
    independent_vertex_cuts,
    net_graph,
    path_graph,
    prism_graph,
    to_nx,
)


class TestTypes:
    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(1, 1)}))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset({(0, 2)}))

    def test_edges_normalised(self):
        g = Graph(3, frozenset({(2, 0)}))
        assert g.edges == frozenset({(0, 2)})

    def test_digon_rejected(self):
        with pytest.raises(ValueError):
            MixedGraph(2, arcs=frozenset({(0, 1), (1, 0)}))

    def test_edge_and_arc_on_same_pair_rejected(self):
        with pytest.raises(ValueError):
            MixedGraph(2, edges=frozenset({(0, 1)}), arcs=frozenset({(1, 0)}))

    def test_arc_loop_rejected(self):
        with pytest.raises(ValueError):
            MixedGraph(2, arcs=frozenset({(1, 1)}))

    def test_normalised_frozenset_kept_as_is(self):
        edges = frozenset({(0, 1), (1, 2)})
        assert Graph(3, edges).edges is edges
        assert MixedGraph(3, edges=edges).edges is edges

    @pytest.mark.parametrize("make, message", [
        (lambda: Graph(3, frozenset({(0, 3)})), "edge (0,3) out of range for n=3"),
        (lambda: Graph(3, frozenset({(-1, 1)})), "edge (-1,1) out of range for n=3"),
        (lambda: Graph(3, frozenset({(1, 1)})), "loop at vertex 1"),
        (lambda: Graph(3, [(2, 2)]), "loop at vertex 2"),
        (lambda: Graph(-1), "negative vertex count"),
        (lambda: Graph(3, frozenset({(0, 1, 2)})), "too many values to unpack (expected 2)"),
        (lambda: MixedGraph(2, edges=frozenset({(0, 2)})), "edge (0,2) out of range for n=2"),
        (lambda: MixedGraph(3, edges=frozenset({(1, 1)})), "loop at vertex 1"),
        (lambda: MixedGraph(-2), "negative vertex count"),
        (lambda: MixedGraph(3, arcs=frozenset({(2, 2)})), "loop arc at vertex 2"),
        (lambda: MixedGraph(3, arcs=frozenset({(1, 3)})), "arc (1,3) out of range for n=3"),
        (lambda: MixedGraph(3, arcs=frozenset({(-1, 0)})), "arc (-1,0) out of range for n=3"),
        (lambda: MixedGraph(3, arcs=frozenset({(0, 1), (1, 0)})), "digon between 0 and 1"),
        (lambda: MixedGraph(3, arcs=frozenset({(0, 1, 2)})),
         "too many values to unpack (expected 2)"),
        (lambda: MixedGraph(3, edges=frozenset({(0, 2)}), arcs=frozenset({(2, 0)})),
         "pair {2,0} carries both an edge and an arc"),
        (lambda: MixedGraph(5, arcs=frozenset({(0, 1), (1, 2), (3, 3), (4, 0)})),
         "loop arc at vertex 3"),
        (lambda: MixedGraph(5, arcs=frozenset({(0, 1), (2, 1), (4, 5), (3, 4)})),
         "arc (4,5) out of range for n=5"),
        (lambda: MixedGraph(5, edges=frozenset({(0, 1), (2, 4)}),
                            arcs=frozenset({(1, 2), (3, 0), (4, 2)})),
         "pair {4,2} carries both an edge and an arc"),
    ], ids=["above-n", "negative-end", "loop", "loop-in-list", "negative-n", "triple",
            "mixed-above-n", "mixed-loop", "mixed-negative-n", "loop-arc",
            "arc-above-n", "arc-negative-end", "digon", "arc-triple", "edge-and-arc",
            "loop-arc-among-arcs", "arc-above-n-among-arcs", "edge-and-arc-among-arcs"])
    def test_constructor_rejections(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    def test_digon_among_arcs_rejected(self):
        # either arc of the digon may be met first, so both namings are right
        with pytest.raises(ValueError) as info:
            MixedGraph(5, arcs=frozenset({(0, 1), (1, 2), (3, 2), (2, 3), (4, 0)}))
        assert str(info.value) in ("digon between 2 and 3", "digon between 3 and 2")

    def test_mistyped_endpoint_rejected(self):
        with pytest.raises(TypeError, match="'<' not supported"):
            Graph(3, frozenset({(None, 1)}))

    @pytest.mark.parametrize("edges", [
        {(2, 0), (1, 0)},
        [(2, 0), (1, 0), (0, 2)],
        frozenset({(2, 0), (0, 1)}),
        frozenset({frozenset({0, 2}), (0, 1)}),
    ], ids=["set", "list", "reversed-in-frozenset", "frozenset-pair"])
    def test_unnormalised_edges_rebuilt(self, edges):
        g = Graph(3, edges)
        assert g.edges == frozenset({(0, 1), (0, 2)})
        assert all(type(e) is tuple for e in g.edges)
        assert MixedGraph(3, edges=edges).edges == g.edges


class TestUnderlying:
    def test_arc_and_edge(self):
        m = MixedGraph(3, edges=frozenset({(1, 2)}), arcs=frozenset({(0, 1)}))
        assert underlying(m).edges == frozenset({(0, 1), (1, 2)})

    def test_directed_cycle(self):
        m = MixedGraph(5, arcs=frozenset((i, (i + 1) % 5) for i in range(5)))
        assert underlying(m) == cycle_graph(5)

    def test_empty(self):
        assert underlying(MixedGraph(3)) == Graph(3)


class TestMixedSquare:
    def test_two_dipath_closes_triangle(self):
        m = MixedGraph(3, arcs=frozenset({(0, 1), (1, 2)}))
        sq = mixed_square(m)
        assert sq.edges == frozenset({(0, 2)})
        assert underlying(sq) == complete_graph(3)

    def test_directed_five_cycle_squares_to_k5(self):
        m = MixedGraph(5, arcs=frozenset((i, (i + 1) % 5) for i in range(5)))
        assert undirected_square(m) == complete_graph(5)

    def test_oriented_star_squares_to_k4_minus_edge(self):
        # x=0 -> c=1, c -> y=2, c -> z=3; expected pairs derived by scanning
        # every 2-dipath by hand over the arc list
        m = MixedGraph(4, arcs=frozenset({(0, 1), (1, 2), (1, 3)}))
        added = {(u, v) for (t1, h1) in m.arcs for (t2, h2) in m.arcs
                 if h1 == t2 and t1 != h2
                 for (u, v) in [(min(t1, h2), max(t1, h2))]}
        assert added == {(0, 2), (0, 3)}
        sq = mixed_square(m)
        assert sq.edges == frozenset(added)
        under = underlying(sq)
        assert len(under.edges) == 5 and (2, 3) not in under.edges

    def test_three_arc_path_gives_same_square_shape(self):
        # a->b->c->d squares to K4 minus the pair {a, d}; together with the
        # oriented-star case this exhibits two non-isomorphic oriented roots
        # with the same undirected square
        m = MixedGraph(4, arcs=frozenset({(0, 1), (1, 2), (2, 3)}))
        sq = undirected_square(m)
        assert sq.edges == frozenset(combinations(range(4), 2)) - {(0, 3)}

    def test_existing_adjacency_not_duplicated(self):
        # pair at directed distance two that is already an arc stays an arc
        m = MixedGraph(3, arcs=frozenset({(0, 1), (1, 2), (0, 2)}))
        sq = mixed_square(m)
        assert sq.edges == frozenset() and sq.arcs == m.arcs

    def test_arc_free_graph_unchanged(self):
        m = MixedGraph(4, edges=cycle_graph(4).edges)
        assert undirected_square(m) == cycle_graph(4)

    @staticmethod
    def _check_squares(m):
        # the two squares are built separately; both must add exactly the
        # non-adjacent ends of the 2-dipaths, read here from the arc list
        adjacent = m.edges | m.arc_pairs
        added = {edge(u, v) for (u, w) in m.arcs for (x, v) in m.arcs
                 if w == x and u != v and edge(u, v) not in adjacent}
        sq = mixed_square(m)
        assert sq.edges == m.edges | added and sq.arcs == m.arcs
        assert undirected_square(m) == underlying(sq)

    @given(mixed_graphs())
    def test_undirected_square_is_underlying_mixed_square(self, m):
        self._check_squares(m)

    @pytest.mark.parametrize("n, d", [(40, 8.0), (60, 7.0), (80, 7.0)])
    def test_dense_random_squares(self, n, d):
        from mixedqt.generate import random_oriented

        rng = random.Random(f"square/{n}/{d}")
        root = random_oriented(n, d, rng)
        free = sorted(set(combinations(range(n), 2)) - root.arc_pairs)
        m = MixedGraph(n, frozenset(rng.sample(free, 10)), root.arcs)
        self._check_squares(m)

    @given(mixed_graphs())
    def test_square_grows_underlying(self, m):
        assert underlying(m).edges <= underlying(mixed_square(m)).edges

    @given(mixed_graphs())
    def test_square_idempotent(self, m):
        sq = mixed_square(m)
        assert mixed_square(sq) == sq

    @given(mixed_graphs())
    def test_added_edges_have_checkable_dipath_witnesses(self, m):
        # the added edges are exactly the non-adjacent ends of m's 2-dipaths
        ends = {(min(u, v), max(u, v)) for u, w in m.arcs for x, v in m.arcs
                if w == x and u != v}
        assert mixed_square(m).edges - m.edges == ends - underlying(m).edges


class TestTriangleFreeEdges:
    def test_cycle_all_edges(self):
        g = cycle_graph(5)
        assert triangle_free_edges(g) == g.edges

    def test_triangle_none(self):
        assert triangle_free_edges(complete_graph(3)) == frozenset()

    def test_net_pendants(self):
        g = net_graph()
        assert triangle_free_edges(g) == frozenset({(0, 3), (1, 4), (2, 5)})

    @given(graphs())
    def test_edge_subgraph_of_result_is_triangle_free(self, g):
        sub = Graph(g.n, triangle_free_edges(g))
        assert triangle_free_edges(sub) == sub.edges


class TestOddCycles:
    def test_c5_has_one(self):
        assert find_odd_cycle(cycle_graph(5)) is not None

    def test_c6_has_none(self):
        assert find_odd_cycle(cycle_graph(6)) is None

    def test_tree_has_none(self):
        assert find_odd_cycle(path_graph(6)) is None

    @given(graphs())
    def test_certificate_or_colouring(self, g):
        cyc = find_odd_cycle(g)
        if cyc is not None:
            assert len(cyc) % 2 == 1 and len(set(cyc)) == len(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                assert b in g.adj[a]

    @given(graphs())
    def test_matches_networkx_bipartiteness(self, g):
        assert (find_odd_cycle(g) is None) == nx.is_bipartite(to_nx(g))


class TestGirth:
    def test_known_values(self):
        assert girth(cycle_graph(5)) == 5
        assert girth(complete_graph(4)) == 3
        assert girth(path_graph(4)) == math.inf

    @given(graphs())
    def test_matches_networkx(self, g):
        expected = nx.girth(to_nx(g))
        assert girth(g) == expected


def cut_vertices(g: Graph) -> set[int]:
    return _articulation_points(g.n, g.edges)


class TestCutVertices:
    def test_path_centre(self):
        assert cut_vertices(path_graph(3)) == {1}

    def test_cycle_none(self):
        assert cut_vertices(cycle_graph(5)) == set()

    def test_net_triangle(self):
        assert cut_vertices(net_graph()) == {0, 1, 2}

    @given(graphs())
    def test_matches_networkx(self, g):
        assert cut_vertices(g) == set(nx.articulation_points(to_nx(g)))


class TestIndependentVertexCuts:
    def test_net_contains_pendant_cut(self):
        cuts = independent_vertex_cuts(net_graph())
        sides = {(i, frozenset({v1, v2})) for i, v1, v2 in cuts}
        assert (frozenset({0}), frozenset({frozenset({3}),
                                           frozenset({1, 2, 4, 5})})) in sides

    def test_complete_graph_has_none(self):
        assert independent_vertex_cuts(complete_graph(4)) == []

    def test_clause_gadget_literal_cut(self):
        from mixedqt.reduction import clause_gadget

        g, _, _ = clause_gadget()
        cuts = independent_vertex_cuts(g)
        wanted = (frozenset({1, 4, 7}), frozenset({0, 5, 8}), frozenset({2, 3, 6}))
        assert wanted in cuts

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            independent_vertex_cuts(Graph(2))

    @given(graphs(max_n=6))
    def test_returned_triples_satisfy_definition(self, g):
        if len(_components_of(range(g.n), g.adj)) > 1:
            return
        everything = frozenset(range(g.n))
        for i, v1, v2 in independent_vertex_cuts(g):
            assert i | v1 | v2 == everything
            assert not (i & v1 or i & v2 or v1 & v2)
            assert v1 and v2
            assert not any(b in g.adj[a] for a, b in combinations(sorted(i), 2))
            for v in i:
                assert g.adj[v] & v1 and g.adj[v] & v2
            assert not any(g.adj[a] & v2 for a in v1)


class TestDeleteVertices:
    def test_relabelling(self):
        g = prism_graph()
        h, kept = delete_vertices(g, {1})
        assert h.n == 5 and kept == (0, 2, 3, 4, 5)
        assert h.edges == frozenset({(0, 1), (0, 2), (1, 4), (2, 3), (3, 4), (2, 4)})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            delete_vertices(Graph(2), {2})
