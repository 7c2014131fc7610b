import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given

from mixedqt.formats import serialize_mixed
from mixedqt.graphs import Graph, MixedGraph, delete_vertices, edge, triangle_free_edges
from mixedqt.solver import (
    SolveOptions,
    VertexStatus,
    decide_qt,
    enumerate_qt,
    verify_witness,
    vertex_status,
)
from mixedqt.structure import (
    decide_deg3,
    decide_girth4,
    embed_universal,
    find_net,
    orient_deg3,
    reduce_removable,
    removable_vertices,
)
from mixedqt.generate import random_connected_graph

from conftest import graphs
from helpers import complete_graph, cycle_graph, net_graph, path_graph, prism_graph

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def house_graph():
    """Triangle 0,1,2 with pendant edges 1-3 and 2-4; vertex 0 is removable."""
    return Graph(5, frozenset({(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)}))


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, frozenset(outer + inner + spokes))


class TestRemovable:
    def test_house_apex_removable(self):
        assert removable_vertices(house_graph()) == (0,)

    def test_k4_minus_edge_degree_two_not_removable(self):
        g = Graph(4, frozenset({(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}))
        assert removable_vertices(g) == ()

    def test_degree_three_not_removable(self):
        assert removable_vertices(prism_graph()) == ()

    def test_degree_bound_enforced(self):
        with pytest.raises(ValueError):
            removable_vertices(complete_graph(5))

    def test_reduce_house(self):
        reduced, trace = reduce_removable(house_graph())
        # vertices 1..4 become 0..3
        assert reduced == Graph(4, frozenset({(0, 1), (0, 2), (1, 3)}))
        assert trace.steps == (0,)

    def test_reduce_c6_identity(self):
        reduced, trace = reduce_removable(cycle_graph(6))
        assert reduced == cycle_graph(6) and trace.steps == ()

    def test_order_independent(self, deg3_corpus):
        # deleting the removable set one vertex at a time, in any order,
        # matches the all-at-once reduction
        rng = random.Random(7)
        hit = 0
        for g in deg3_corpus:
            removable = removable_vertices(g)
            if not removable:
                continue
            hit += 1
            reduced, _ = reduce_removable(g)
            orders = set(itertools.permutations(removable)) if len(removable) < 4 \
                else {tuple(rng.sample(removable, len(removable))) for _ in range(6)}
            for order in orders:
                current, ids = g, list(range(g.n))
                for orig in order:
                    local = ids.index(orig)
                    assert local in removable_vertices(current)
                    current, kept = delete_vertices(current, {local})
                    ids = [ids[i] for i in kept]
                assert current == reduced
        assert hit > 0

    def test_no_new_removables_after_single_deletion(self, deg3_corpus):
        for g in deg3_corpus:
            removable = removable_vertices(g)
            for u in removable:
                h, kept = delete_vertices(g, {u})
                survivors = {orig: i for i, orig in enumerate(kept)}
                expected = frozenset(survivors[v] for v in removable if v != u)
                assert frozenset(removable_vertices(h)) == expected


class TestFindNet:
    def test_net_itself(self):
        hit = find_net(net_graph())
        assert hit is not None
        assert set(hit.triangle) == {0, 1, 2} and set(hit.pendants) == {3, 4, 5}

    def test_k4_none(self):
        assert find_net(complete_graph(4)) is None

    def test_prism_found(self):
        hit = find_net(prism_graph())
        assert hit is not None
        tri = set(hit.triangle)
        assert tri in ({0, 1, 2}, {3, 4, 5})
        assert set(hit.pendants) == {0, 1, 2, 3, 4, 5} - tri


def random_deg3_tree(n, rng, spine=1):
    """A random tree of maximum degree three, grown one leaf at a time from
    vertex 0; with ``spine`` above 1, a caterpillar: a path on ``spine``
    vertices with every other vertex hung on it as a leaf."""
    edges = {(i, i + 1) for i in range(spine - 1)}
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    slots = list(range(spine))
    for v in range(spine, n):
        k = rng.randrange(len(slots))
        u = slots[k]
        edges.add((u, v))
        degree[u] += 1
        degree[v] += 1
        if degree[u] == 3:
            slots[k] = slots[-1]
            slots.pop()
        if spine == 1:
            slots.append(v)
    return Graph(n, frozenset(edges))


class TestDecideDeg3:
    def test_known_answers(self):
        assert decide_deg3(complete_graph(4))
        assert decide_deg3(cycle_graph(6))
        assert not decide_deg3(cycle_graph(7))
        assert not decide_deg3(prism_graph())
        assert not decide_deg3(net_graph())

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            decide_deg3(complete_graph(5))

    def test_orient_deg3_agrees_and_verifies(self, deg3_corpus):
        for g in deg3_corpus:
            answer = decide_deg3(g)
            w = orient_deg3(g)
            assert (w is not None) == answer
            if w is not None:
                assert verify_witness(g, w.mixed).ok

    @pytest.mark.parametrize("n, spine", [(10_000, 6_000), (3_000, 1)],
                             ids=["caterpillar-10000", "tree-3000"])
    def test_orient_deg3_at_default_recursion_limit(self, n, spine, rng):
        # a tree has no triangle, so every vertex is a source or a sink and
        # the witness comes from the 2-colouring alone, without a search
        g = random_deg3_tree(n, rng, spine)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            w = orient_deg3(g)
        finally:
            sys.setrecursionlimit(limit)
        assert w is not None and verify_witness(g, w.mixed).ok

    def test_orient_deg3_with_removable_vertices(self, rng):
        # the witness must cover the removable vertices too, not only the
        # reduced graph that decide_deg3 tests
        cases = [house_graph()]
        while len(cases) < 31:
            g = random_connected_graph(rng.randint(5, 40), 3, rng)
            if removable_vertices(g):
                cases.append(g)
        yes = 0
        for g in cases:
            w = orient_deg3(g)
            assert (w is not None) == (decide_qt(g) is not None)
            if w is not None:
                assert verify_witness(g, w.mixed).ok
                yes += 1
        assert yes > 0

    def test_orient_deg3_reduces_once(self, monkeypatch):
        import mixedqt.structure as structure_module

        calls = []
        real = structure_module.reduce_removable

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(structure_module, "reduce_removable", counting)
        for g in (complete_graph(4), prism_graph(), net_graph(), path_graph(4)):
            calls.clear()
            orient_deg3(g)
            assert calls == [g]

    def test_decision_path_never_searches(self, deg3_corpus, monkeypatch, rng):
        # the boolean decider is reduction + subgraph detection + a
        # 2-colouring; no region may ever be encoded for search, whatever
        # the size
        import mixedqt.solver as solver_module

        def bomb(*args, **kwargs):
            raise AssertionError("decide_deg3 invoked the search")

        monkeypatch.setattr(solver_module, "_encode", bomb)
        for g in deg3_corpus:
            decide_deg3(g)
        for n in (20, 40, 80):
            decide_deg3(random_connected_graph(n, 3, rng))


class TestDecideGirth4:
    def test_c4_two_sources_two_sinks(self):
        w = decide_girth4(cycle_graph(4))
        assert w is not None and verify_witness(cycle_graph(4), w.mixed).ok
        statuses = [vertex_status(w.mixed, v) for v in range(4)]
        assert statuses.count(VertexStatus.SOURCE) == 2
        assert statuses.count(VertexStatus.SINK) == 2

    def test_c5_none(self):
        assert decide_girth4(cycle_graph(5)) is None

    def test_petersen_none(self):
        assert decide_girth4(petersen_graph()) is None

    def test_triangle_rejected(self):
        with pytest.raises(ValueError):
            decide_girth4(complete_graph(3))

    def test_triangle_check_comes_before_the_solver(self, monkeypatch):
        import mixedqt.structure as structure_module

        calls = []
        monkeypatch.setattr(structure_module, "decide_qt", lambda *a, **k: calls.append(a))
        for g in (complete_graph(3), complete_graph(5),
                  Graph(8, cycle_graph(5).edges | {(5, 6), (6, 7), (5, 7)})):
            with pytest.raises(ValueError, match="contains a triangle"):
                decide_girth4(g)
        assert calls == []
        decide_girth4(cycle_graph(4))
        assert len(calls) == 1   # the spy sees a triangle-free graph

    def test_agrees_with_enumeration(self, triangle_free_corpus):
        for g in triangle_free_corpus:
            w = decide_girth4(g)
            expected = next(iter(enumerate_qt(g)), None) is not None
            assert (w is not None) == expected
            if w is not None:
                assert verify_witness(g, w.mixed).ok

    def test_exact_solver_matches_without_search(self, rng, monkeypatch):
        # decide_qt answers a graph with no triangle by the same 2-colouring:
        # the same NO and the same witness byte for byte, with no node spent;
        # the corpus starts with the benchmark's seed-1 poly-classes graphs
        monkeypatch.syspath_prepend(str(BENCH))
        import ladders

        corpus = {r.graph for r in ladders.poly_classes(1)
                  if triangle_free_edges(r.graph) == r.graph.edges}
        assert len(corpus) == 36
        corpus |= {Graph(0), Graph(1), Graph(7), petersen_graph()}
        corpus |= {cycle_graph(k) for k in range(4, 12)}
        corpus |= {ladders.grid(r, c, wrap=True) for r, c in ((1, 5), (4, 7), (9, 9))}
        for _ in range(40):
            a, b = rng.randint(1, 30), rng.randint(1, 30)
            p = rng.choice((0.1, 0.3, 0.7))
            edges = {(u, a + v) for u in range(a) for v in range(b) if rng.random() < p}
            order = list(range(a + b))
            rng.shuffle(order)   # so the two sides are not two blocks of ids
            corpus.add(Graph(a + b, frozenset(edge(order[u], order[v]) for u, v in edges)))
        answers = set()
        for g in corpus:
            w, x = decide_girth4(g), decide_qt(g, SolveOptions(node_limit=0))
            assert (w is None) == (x is None), sorted(g.edges)
            if w is not None:
                assert serialize_mixed(x.mixed) == serialize_mixed(w.mixed), sorted(g.edges)
            answers.add(w is None)
        assert answers == {False, True}
        assert max(g.max_degree() for g in corpus) >= 20


class TestEmbedUniversal:
    def test_single_edge(self):
        square, root = embed_universal(path_graph(2))
        assert square == complete_graph(3)
        assert root.arcs == frozenset({(0, 2), (2, 1)})

    def test_edgeless(self):
        square, root = embed_universal(Graph(3))
        assert square == Graph(3) and root == MixedGraph(3)

    def test_c5_becomes_orientable(self):
        g = cycle_graph(5)
        square, root = embed_universal(g)
        assert square.n == 10
        assert decide_qt(g) is None
        from mixedqt.graphs import mixed_square

        assert verify_witness(square, mixed_square(root)).ok

    @given(graphs(max_n=8))
    def test_postconditions(self, g):
        from mixedqt.graphs import mixed_square

        square, root = embed_universal(g)
        induced = frozenset(e for e in square.edges if e[0] < g.n and e[1] < g.n)
        assert induced == g.edges
        assert verify_witness(square, mixed_square(root)).ok
