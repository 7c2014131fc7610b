"""Seeded instance ladders for the three benchmark workloads.

A ladder is a list of rungs, each one ``mixedqt decide`` call on a generated
graph file.  Every instance carries an oracle label that does not come from
the decider under test:

* planted squares are YES by construction (the square of an oriented graph);
* NAE3SAT reductions are labelled by ``brute_nae``;
* triangle-free inputs are labelled by ``networkx.is_bipartite``;
* small degree-3 graphs with triangles are labelled by ``decide_qt`` under a
  node cap.

Two kinds of rung keep the totals steady from seed to seed while the seed
still changes most instances:

* anchors are the same for every seed: the structured families (squares of
  directed paths, triangle chains, grids, Fano, the complete 3-uniform
  formula) and the heaviest random rungs, drawn from a fixed stream;
* seeded rungs are many light random instances drawn from streams derived
  from ``--seed``.

One seed always yields the same instance set, identified by
:func:`instance_hash`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import networkx

from mixedqt.formats import serialize_graph
from mixedqt.generate import random_connected_graph, random_graph, random_nae_instance
from mixedqt.graphs import Graph, MixedGraph, edge, undirected_square
from mixedqt.reduction import (
    CnfInstance,
    ReductionMap,
    brute_nae,
    build_reduction,
    serialize_dimacs,
)
from mixedqt.solver import SolveOptions, decide_qt
from mixedqt.structure import embed_universal

WORKLOADS = ("planted-squares", "nae-reductions", "poly-classes")

# Node caps passed as ``--node-limit``.  The structured planted rungs need at
# most ~1,400 nodes where they solve and Fano needs 5,571.  The seeded random
# families stay below ~5,200 nodes over 150 seeds, so a budget stop is left
# to the named hard anchors.
PLANTED_LIMIT = 5000
SEEDED_LIMIT = 20000
NAE_LIMIT = 6000
NAE_CAPPED_LIMIT = 300    # the two rungs that run into the cap at this commit
POLY_LIMIT = 20000
LABEL_LIMIT = 100_000


@dataclass(frozen=True)
class Rung:
    """One decide call: the graph, its label, and how to call the CLI."""

    id: str
    graph: Graph
    expect: bool | None          # oracle verdict; None when no oracle applies
    witness: bool                # pass --witness and check what comes back
    node_limit: int
    nae: tuple[CnfInstance, ReductionMap] | None = None


# ---------------------------------------------------------------------------
# Structured families

def dipath_square(n: int) -> Graph:
    """P_n squared: the undirected square of the directed path on n vertices."""
    arcs = frozenset((i, i + 1) for i in range(n - 1))
    return undirected_square(MixedGraph(n, frozenset(), arcs))


def triangle_chain(k: int) -> Graph:
    """k triangles glued in a row, consecutive ones sharing a cut vertex."""
    edges = set()
    for t in range(k):
        a, b, c = 2 * t, 2 * t + 1, 2 * t + 2
        edges |= {edge(a, b), edge(b, c), edge(a, c)}
    return Graph(2 * k + 1, frozenset(edges))


def grid(rows: int, cols: int, *, wrap: bool = False) -> Graph:
    """A rows x cols grid; ``wrap`` closes every row into a cycle."""
    edges = set()
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.add(edge(v, v + 1))
            elif wrap:
                edges.add(edge(v, i * cols))
            if i + 1 < rows:
                edges.add(edge(v, v + cols))
    return Graph(rows * cols, frozenset(edges))


FANO = CnfInstance(7, ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6),
                       (2, 5, 7), (3, 4, 7), (3, 5, 6)))
COMPLETE_5 = CnfInstance(5, tuple(combinations(range(1, 6), 3)))


# ---------------------------------------------------------------------------
# Random families

def relabel(g: Graph, rng: random.Random) -> Graph:
    """g with its vertices renamed by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, frozenset(edge(perm[u], perm[v]) for u, v in g.edges))


def random_oriented(n: int, mean_degree: float, rng: random.Random) -> MixedGraph:
    """A random oriented graph with round(n * mean_degree / 2) arcs."""
    m = round(n * mean_degree / 2)
    arcs: set[tuple[int, int]] = set()
    while len(arcs) < m:
        u, v = rng.sample(range(n), 2)
        if (u, v) not in arcs and (v, u) not in arcs:
            arcs.add((u, v))
    return MixedGraph(n, frozenset(), frozenset(arcs))


def _attach(edges: set, open_slots: list[int], degree: list[int], v: int,
            rng: random.Random) -> None:
    """Hang vertex v on a uniformly chosen vertex of ``open_slots`` (the
    vertices of degree below three), keeping that list current."""
    k = rng.randrange(len(open_slots))
    u = open_slots[k]
    edges.add(edge(u, v))
    degree[u] += 1
    degree[v] += 1
    if degree[u] == 3:
        open_slots[k] = open_slots[-1]
        open_slots.pop()


def random_tree(n: int, rng: random.Random) -> Graph:
    """A random tree of maximum degree three, grown one leaf at a time."""
    degree = [0] * n
    edges: set[tuple[int, int]] = set()
    open_slots = [0]
    for v in range(1, n):
        _attach(edges, open_slots, degree, v, rng)
        open_slots.append(v)
    return Graph(n, frozenset(edges))


def random_caterpillar(n: int, rng: random.Random) -> Graph:
    """A random tree of maximum degree three: a path on 60% of the vertices,
    the rest hung as leaves on random spine vertices with a free slot."""
    spine = max(2, n * 3 // 5)
    edges = {(i, i + 1) for i in range(spine - 1)}
    degree = [2] * spine + [0] * (n - spine)
    degree[0] = degree[spine - 1] = 1
    open_slots = list(range(spine))
    for v in range(spine, n):
        _attach(edges, open_slots, degree, v, rng)
    return Graph(n, frozenset(edges))


def nae_with_label(num_vars: int, num_clauses: int, want: bool,
                   rng: random.Random) -> CnfInstance:
    """The first random instance of the given size whose brute_nae label is ``want``."""
    while True:
        y = random_nae_instance(num_vars, num_clauses, rng)
        if (brute_nae(y) is not None) == want:
            return y


def _stream(seed: int | str, family: str) -> random.Random:
    """An independent generator per family, so families do not shift each other."""
    return random.Random(f"{seed}/{family}")


ANCHOR = "anchor"   # the stream key of rungs that do not change with the seed


# ---------------------------------------------------------------------------
# Oracles used in set-up

def is_bipartite(g: Graph) -> bool:
    nxg = networkx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    return networkx.is_bipartite(nxg)


def triangle_free(g: Graph) -> bool:
    adj = g.adj
    return not any(adj[u] & adj[v] for u, v in g.edges)


def poly_label(g: Graph) -> bool:
    """Triangle-free graphs are orientable exactly when bipartite; other
    small degree-3 graphs are labelled by the exact solver under a cap."""
    if triangle_free(g):
        return is_bipartite(g)
    return decide_qt(g, SolveOptions(node_limit=LABEL_LIMIT)) is not None


# ---------------------------------------------------------------------------
# Ladders

def planted_squares(seed: int) -> list[Rung]:
    rungs = []
    # Enough structured rungs above 150 ms that p90 falls among them, not
    # among the tails of the seeded families.
    for n in (4, 16, 64, 100, 120, 160, 180, 200, 220, 256, 300, 402, 1002):
        rungs.append(Rung(f"dipath-square/n{n}", dipath_square(n), True, True, PLANTED_LIMIT))
    for k in (1, 10, 40, 80, 100, 150, 175, 200, 250, 300, 600):
        rungs.append(Rung(f"triangle-chain/k{k}", triangle_chain(k), True, True, PLANTED_LIMIT))
    for n, d in RANDOM_SQUARE_ANCHORS:
        g = undirected_square(random_oriented(n, d, _stream(ANCHOR, f"random-square-{n}-{d}")))
        rungs.append(Rung(f"random-square/n{n}-d{d}", g, True, True, PLANTED_LIMIT))
    for n in (6, 7):
        square, _root = embed_universal(random_graph(n, 0.5, _stream(ANCHOR, f"embed-{n}")))
        rungs.append(Rung(f"embed-universal/n{n}", square, True, True, PLANTED_LIMIT))
    rng = _stream(seed, "relabelled-dipath-square")
    for n in (8, 10, 12):
        for i in range(SEEDED_COPIES):
            g = relabel(dipath_square(n), rng)
            rungs.append(Rung(f"relabelled-dipath-square/n{n}/{i}", g, True, True,
                              SEEDED_LIMIT))
    rng = _stream(seed, "random-square")
    for i in range(SEEDED_COPIES):
        g = undirected_square(random_oriented(20, 1.5, rng))
        rungs.append(Rung(f"random-square/n20-d1.5/{i}", g, True, True, SEEDED_LIMIT))
    rng = _stream(seed, "embed")
    for n in (3, 4, 5):
        for i in range(SEEDED_COPIES):
            square, _root = embed_universal(random_graph(n, 0.5, rng))
            rungs.append(Rung(f"embed-universal/n{n}/{i}", square, True, True, SEEDED_LIMIT))
    return rungs


# (n, mean degree) of the random oriented graphs squared as anchors; at this
# commit n60-d2.0 is the one that runs into the cap.
RANDOM_SQUARE_ANCHORS = ((20, 2.5), (40, 1.5), (40, 2.0), (60, 1.5), (60, 2.0),
                         (80, 1.5), (100, 1.5))
SEEDED_COPIES = 12


def _nae_rung(rid: str, y: CnfInstance, node_limit: int = NAE_LIMIT) -> Rung:
    graph, rm = build_reduction(y)
    return Rung(rid, graph, brute_nae(y) is not None, True, node_limit, (y, rm))


def nae_reductions(seed: int) -> list[Rung]:
    rungs = [_nae_rung("nae/trivial-v3-c0", CnfInstance(3, ())),
             _nae_rung("nae/one-clause", CnfInstance(3, ((1, 2, 3),)))]
    for key, sizes in ((seed, NAE_YES_SIZES), (ANCHOR, NAE_YES_ANCHORS)):
        for (v, c), copies in sizes:
            rng = _stream(key, f"nae-random-v{v}-c{c}")
            for i in range(copies):
                y = nae_with_label(v, c, True, rng)
                rungs.append(_nae_rung(f"nae/random-v{v}-c{c}/{i}", y))
    rungs.append(_nae_rung("nae/fano", FANO))
    rungs.append(_nae_rung("nae/complete-3-uniform-v5", COMPLETE_5))
    # satisfiable, but the exact solver does not finish it under any practical cap
    rungs.append(_nae_rung("nae/random-v12-c16", random_nae_instance(12, 16, random.Random(1)),
                           NAE_CAPPED_LIMIT))
    rng = _stream(ANCHOR, "nae-unsat")
    rungs.append(_nae_rung("nae/unsat-v8-c20", nae_with_label(8, 20, False, rng),
                           NAE_CAPPED_LIMIT))
    return rungs


NAE_YES_SIZES = (((4, 3), 30), ((5, 4), 40), ((5, 5), 20))
NAE_YES_ANCHORS = (((6, 6), 4), ((7, 7), 2), ((7, 8), 2), ((8, 10), 1), ((10, 12), 1))


def poly_classes(seed: int) -> list[Rung]:
    graphs: list[tuple[str, Graph]] = []
    for key, sizes in ((seed, (8, 32, 100)), (ANCHOR, (300, 1000))):
        rng = _stream(key, "tree")
        for n in sizes:
            for i in range(POLY_COPIES):
                graphs.append((f"tree/n{n}/{i}", random_tree(n, rng)))
    rng = _stream(ANCHOR, "caterpillar")
    for n in (100, 300, 1000):
        graphs.append((f"caterpillar/n{n}", random_caterpillar(n, rng)))
    rng = _stream(seed, "deg3")
    for n in (8, 16, 32, 64, 128):
        for i in range(POLY_COPIES):
            graphs.append((f"deg3/n{n}/{i}", random_connected_graph(n, 3, rng)))
    for k in (2, 4, 10, 20, 40):
        graphs.append((f"grid/{k}x{k}", grid(k, k)))
    for r, c in ((2, 5), (4, 5), (10, 11), (20, 21)):
        graphs.append((f"odd-wrapped-grid/{r}x{c}", grid(r, c, wrap=True)))
    rungs = []
    for gid, g in graphs:
        label = poly_label(g)
        rungs.append(Rung(f"{gid}/verdict", g, label, False, POLY_LIMIT))
        rungs.append(Rung(f"{gid}/witness", g, label, True, POLY_LIMIT))
    return rungs


POLY_COPIES = 4

LADDERS = {
    "planted-squares": planted_squares,
    "nae-reductions": nae_reductions,
    "poly-classes": poly_classes,
}


# ---------------------------------------------------------------------------
# Files and provenance

def graph_file(workdir: Path, index: int) -> Path:
    return workdir / f"{index:04d}.graph"


def graph_texts(rungs: list[Rung]) -> list[str]:
    """Each rung's graph in the format ``mixedqt decide`` reads."""
    return [serialize_graph(rung.graph) for rung in rungs]


def write_files(texts: list[str], workdir: Path) -> None:
    """Write the graph texts to ``workdir``: the only input the program gets."""
    workdir.mkdir(parents=True, exist_ok=True)
    for i, text in enumerate(texts):
        graph_file(workdir, i).write_text(text)


def instance_hash(rungs: list[Rung]) -> str:
    """SHA-256 over every rung's id, label, call mode and graph file."""
    h = hashlib.sha256()
    for rung in rungs:
        h.update(f"{rung.id} {rung.expect} {rung.witness} {rung.node_limit}\n".encode())
        h.update(serialize_graph(rung.graph).encode())
        if rung.nae is not None:
            h.update(serialize_dimacs(rung.nae[0]).encode())
    return h.hexdigest()
