from itertools import combinations

import networkx as nx
import pytest

from mixedqt.generate import (
    canonical_key,
    connected_graphs,
    random_connected_graph,
    random_graph,
    random_nae_instance,
    random_oriented,
)
from mixedqt.graphs import Graph

from helpers import to_nx


def all_labelled_classes(n, max_degree=None, triangle_free=False):
    """Independent oracle: enumerate every labelled graph, filter, and count
    isomorphism classes with networkx."""
    reps = []
    pairs = list(combinations(range(n), 2))
    for mask in range(2 ** len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        g = Graph(n, edges)
        h = to_nx(g)
        if not nx.is_connected(h):
            continue
        if max_degree is not None and g.max_degree() > max_degree:
            continue
        if triangle_free and any(nx.triangles(h).values()):
            continue
        if not any(nx.is_isomorphic(h, r) for r in reps):
            reps.append(h)
    return len(reps)


class TestExhaustiveGeneration:
    def test_counts_match_known_values(self):
        counts = {}
        for g in connected_graphs(6):
            counts[g.n] = counts.get(g.n, 0) + 1
        assert [counts[n] for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]
        # up to max_n vertices: nothing below one vertex
        assert list(connected_graphs(0)) == list(connected_graphs(-1)) == []

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_degree_bounded_counts_match_labelled_oracle(self, n):
        got = sum(1 for g in connected_graphs(n, max_degree=3) if g.n == n)
        assert got == all_labelled_classes(n, max_degree=3)

    @pytest.mark.parametrize("n", [4, 5])
    def test_triangle_free_counts_match_labelled_oracle(self, n):
        got = sum(1 for g in connected_graphs(n, triangle_free=True) if g.n == n)
        assert got == all_labelled_classes(n, triangle_free=True)

    def test_members_satisfy_constraints(self, deg3_corpus, triangle_free_corpus):
        for g in deg3_corpus:
            assert nx.is_connected(to_nx(g)) and g.max_degree() <= 3
        for g in triangle_free_corpus:
            assert nx.is_connected(to_nx(g))
            assert not any(g.adj[u] & g.adj[v] for u, v in g.edges)

    def test_no_isomorphic_duplicates(self, deg3_corpus):
        keys = [canonical_key(g) for g in deg3_corpus]
        assert len(keys) == len(set(keys))

    def test_canonical_key_invariant_under_relabelling(self, rng):
        for _ in range(20):
            g = random_graph(rng.randint(2, 7), 0.5, rng)
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, frozenset(tuple(sorted((perm[u], perm[v])))
                                     for u, v in g.edges))
            assert canonical_key(g) == canonical_key(h)


class TestRandomGenerators:
    def test_connected_degree_bounded(self, rng):
        for _ in range(25):
            g = random_connected_graph(rng.randint(2, 10), 3, rng)
            assert nx.is_connected(to_nx(g)) and g.max_degree() <= 3

    @pytest.mark.parametrize("make", [
        lambda rng: random_connected_graph(3, 1, rng),
        lambda rng: random_connected_graph(2, 0, rng),
        lambda rng: random_oriented(4, 4.0, rng),
        lambda rng: random_connected_graph(0, 3, rng),
        lambda rng: random_nae_instance(2, 1, rng),
    ], ids=["path-needs-degree-2", "edge-needs-degree-1", "more-arcs-than-pairs",
            "no-vertices", "nae-needs-three-variables"])
    def test_impossible_parameters_rejected(self, make, rng):
        with pytest.raises(ValueError):
            make(rng)

    def test_random_nae_instances_valid(self, rng):
        for _ in range(25):
            y = random_nae_instance(rng.randint(3, 8), rng.randint(0, 4), rng)
            for clause in y.clauses:
                assert len(set(clause)) == 3

    def test_seeded_determinism(self):
        import random

        a = random_connected_graph(8, 3, random.Random(5))
        b = random_connected_graph(8, 3, random.Random(5))
        assert a == b

    def test_random_oriented_stream(self, rng):
        import random

        for _ in range(25):
            n, d = rng.randint(5, 30), rng.choice((1.0, 1.5, 2.0))
            m = random_oriented(n, d, rng)
            assert not m.edges and len(m.arcs) == round(n * d / 2)
            assert not any((v, u) in m.arcs for u, v in m.arcs)
        # the stream the benchmark's ladders draw, pinned
        assert sorted(random_oriented(6, 2.0, random.Random("pin")).arcs) == [
            (0, 4), (1, 3), (1, 4), (1, 5), (3, 4), (5, 0)]
