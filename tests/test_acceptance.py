"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings as they complete.
"""

import random
import time
from collections import Counter
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import networkx as nx

from mixedqt.cli import run
from mixedqt.generate import (
    connected_graphs,
    random_connected_graph,
    random_graph,
    random_nae_instance,
)
from mixedqt.graphs import (
    Graph,
    MixedGraph,
    delete_vertices,
    find_odd_cycle,
    mixed_square,
    triangle_free_edges,
)
from mixedqt.reduction import (
    CnfInstance,
    assignment_to_witness,
    brute_nae,
    build_reduction,
    gadget_signature_report,
    witness_to_assignment,
)
from mixedqt.solver import (
    VertexStatus,
    decide_qt,
    enumerate_qt,
    is_qt,
    verify_witness,
    vertex_status,
)
from mixedqt.structure import (
    decide_deg3,
    decide_girth4,
    embed_universal,
    reduce_removable,
    removable_vertices,
)

from helpers import independent_vertex_cuts, to_nx

FIXTURES = Path(__file__).parent / "fixtures"

NON_CONSTANT = {
    ("+", "+", "-"), ("+", "-", "+"), ("+", "-", "-"),
    ("-", "+", "+"), ("-", "+", "-"), ("-", "-", "+"),
}


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_gadget_signature_census(capsys):
    t0 = time.time()
    rep = gadget_signature_report()
    elapsed = time.time() - t0
    ok = (rep.signatures == frozenset(NON_CONSTANT)
          and rep.constant_counts == (0, 0)
          and elapsed < 60.0)
    with capsys.disabled():
        report(1, ok, f"gadget census: {len(rep.signatures)} signatures, "
                      f"constant counts {rep.constant_counts}, {elapsed:.1f}s")
    assert rep.constant_counts == (0, 0)
    assert rep.signatures == frozenset(NON_CONSTANT)
    assert elapsed < 60.0
    # the command-line surface reports the same census
    assert run(["gadget", "--signatures"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "excluded: +++ ---; counts: 0 0"
    assert sorted(out[:-1]) == ["++-", "+-+", "+--", "-++", "-+-", "--+"]


def test_criterion_2_deg3_oracle_equivalence(deg3_corpus, capsys):
    t0 = time.time()
    mismatches = 0
    for g in deg3_corpus:
        poly = decide_deg3(g)
        enumerated = next(iter(enumerate_qt(g)), None) is not None
        exact = decide_qt(g) is not None
        if not poly == enumerated == exact:
            mismatches += 1
    rng = random.Random(0xD3)
    for _ in range(500):
        g = random_connected_graph(rng.randint(8, 10), 3, rng)
        if decide_deg3(g) != (decide_qt(g) is not None):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 600.0
    with capsys.disabled():
        report(2, ok, f"{len(deg3_corpus)} exhaustive + 500 random graphs, "
                      f"{mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 600.0


def test_criterion_3_girth4_oracle_equivalence(triangle_free_corpus, capsys):
    mismatches = 0
    for g in triangle_free_corpus:
        witness = decide_girth4(g)
        enumerated = next(iter(enumerate_qt(g)), None) is not None
        bipartite = find_odd_cycle(g) is None
        if not (witness is not None) == enumerated == bipartite:
            mismatches += 1
        if witness is not None and not verify_witness(g, witness.mixed).ok:
            mismatches += 1
    ok = mismatches == 0
    with capsys.disabled():
        report(3, ok, f"{len(triangle_free_corpus)} triangle-free graphs (n <= 8), "
                      f"{mismatches} mismatches")
    assert mismatches == 0


def _reduction_instances():
    triples = list(combinations(range(1, 7), 3))
    for pick in triples:
        yield (pick,)
    for pair in combinations_with_replacement(triples, 2):
        yield pair


def test_criterion_4_reduction_equivalence(capsys):
    t0 = time.time()
    mismatches = 0
    count = 0
    instances = [CnfInstance(max(x for c in cl for x in c), cl)
                 for cl in _reduction_instances()]
    rng = random.Random(0x4AE)
    instances += [random_nae_instance(rng.randint(3, 8), rng.randint(1, 4), rng)
                  for _ in range(100)]
    for y in instances:
        count += 1
        graph, rmap = build_reduction(y)
        f = brute_nae(y)
        w = decide_qt(graph)
        if (f is None) != (w is None):
            mismatches += 1
            continue
        if w is not None and not verify_witness(graph, w.mixed).ok:
            mismatches += 1
        if f is not None:
            built = assignment_to_witness(rmap, f)
            if not verify_witness(graph, built).ok:
                mismatches += 1
            elif witness_to_assignment(rmap, built) != f:
                mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 900.0
    with capsys.disabled():
        report(4, ok, f"{count} instances (230 exhaustive + 100 random), "
                      f"{mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 900.0


def _restriction(m: MixedGraph, keep: frozenset) -> MixedGraph:
    return MixedGraph(
        m.n,
        frozenset(e for e in m.edges if e[0] in keep and e[1] in keep),
        frozenset(a for a in m.arcs if a[0] in keep and a[1] in keep),
    )


def test_criterion_5_orientation_structure_suite(deg3_corpus, capsys):
    t0 = time.time()
    violations = 0
    orientations = 0
    for g in deg3_corpus:
        tf = triangle_free_edges(g)
        cuts = independent_vertex_cuts(g, 3)
        cut_vs = set(nx.articulation_points(to_nx(g)))
        seen_any = False
        for po in enumerate_qt(g):
            orientations += 1
            seen_any = True
            m = po.mixed
            # edges in no triangle are arcs with source/sink endpoints
            for u, v in tf:
                if (u, v) not in m.arcs and (v, u) not in m.arcs:
                    violations += 1
                for x in (u, v):
                    if vertex_status(m, x) not in (VertexStatus.SOURCE,
                                                   VertexStatus.SINK):
                        violations += 1
            # cut vertices and the vertices of independent cuts are sources
            # or sinks, which is what decide_qt splits at
            for v in cut_vs | {v for cut, _v1, _v2 in cuts for v in cut}:
                if vertex_status(m, v) not in (VertexStatus.SOURCE, VertexStatus.SINK):
                    violations += 1
            # independent-cut restrictions stay quasi-transitive with
            # consistent source/sink boundaries
            for cut, v1, v2 in cuts:
                r1 = _restriction(m, v1 | cut)
                r2 = _restriction(m, v2 | cut)
                if is_qt(r1) is not None or is_qt(r2) is not None:
                    violations += 1
                for v in cut:
                    for r in (r1, r2):
                        if vertex_status(r, v) is VertexStatus.INTERNAL:
                            violations += 1
            # a valid orientation is the square of its own arc set
            arcs_only = MixedGraph(m.n, arcs=m.arcs)
            squared = mixed_square(arcs_only)
            if squared != m:
                violations += 1
            if mixed_square(squared) != squared:
                violations += 1
        if seen_any:
            if find_odd_cycle(Graph(g.n, tf)) is not None:
                violations += 1
    elapsed = time.time() - t0
    ok = violations == 0
    with capsys.disabled():
        report(5, ok, f"{orientations} orientations across {len(deg3_corpus)} "
                      f"graphs, {violations} violations, {elapsed:.1f}s")
    assert violations == 0


def _polarities(g, cache):
    """The source (1) / sink (-1) / neither (0) vector of every
    quasi-transitive partial orientation of g."""
    if g not in cache:
        code = {VertexStatus.SOURCE: 1, VertexStatus.SINK: -1}
        cache[g] = {tuple(code.get(vertex_status(po.mixed, v), 0) for v in range(g.n))
                    for po in enumerate_qt(g)}
    return cache[g]


def _feasible(g, pol, cache) -> bool:
    return any(all(vec[v] == p for v, p in pol.items()) for vec in _polarities(g, cache))


def test_criterion_5_split_at_fixed_polarities(capsys):
    # Fix a source or sink polarity on every vertex of a random set S.  The
    # instance is feasible exactly when adjacent vertices of S have opposite
    # polarities and each component of G - S, together with its neighbours
    # in S, is feasible: the fact that lets the solver split at S.
    t0 = time.time()
    rng = random.Random(0x5917)
    cache: dict = {}
    outcomes: Counter = Counter()
    mismatches = 0
    for g in connected_graphs(6):
        if g.n < 3 or len(g.edges) > 12:
            continue
        for _ in range(8):
            pol = {v: rng.choice((1, -1)) for v in range(g.n) if rng.random() < 0.5}
            whole = _feasible(g, pol, cache)
            split = all(pol[u] != pol[v] for u, v in g.edges if u in pol and v in pol)
            rest, ids = delete_vertices(g, pol)
            for comp in nx.connected_components(to_nx(rest)):
                region = {ids[i] for i in comp}
                region |= {w for v in region for w in g.adj[v] if w in pol}
                sub, sub_ids = delete_vertices(g, set(range(g.n)) - region)
                sub_pol = {i: pol[v] for i, v in enumerate(sub_ids) if v in pol}
                split = split and _feasible(sub, sub_pol, cache)
            outcomes[whole] += 1
            mismatches += whole != split
    samples = sum(outcomes.values())
    elapsed = time.time() - t0
    ok = mismatches == 0 and outcomes[True] > 0 and outcomes[False] > 0
    with capsys.disabled():
        report(5, ok, f"{samples} fixed-polarity samples ({outcomes[True]} feasible), "
                      f"{mismatches} mismatches with the split, {elapsed:.1f}s")
    assert mismatches == 0
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_criterion_6_universal_embedding(capsys):
    rng = random.Random(0xE3BED)
    failures = 0
    for _ in range(100):
        g = random_graph(rng.randint(1, 12), rng.random(), rng)
        square, root = embed_universal(g)
        induced = frozenset(e for e in square.edges if e[0] < g.n and e[1] < g.n)
        if induced != g.edges:
            failures += 1
        if not verify_witness(square, mixed_square(root)).ok:
            failures += 1
    ok = failures == 0
    with capsys.disabled():
        report(6, ok, f"100 random graphs (n <= 12), {failures} failures")
    assert failures == 0


def test_criterion_7_removability(deg3_corpus, capsys):
    failures = 0
    with_removable = 0
    for g in deg3_corpus:
        removable = removable_vertices(g)
        if not removable:
            continue
        with_removable += 1
        answer = decide_qt(g) is not None
        for u in removable:
            smaller, _ = delete_vertices(g, {u})
            if (decide_qt(smaller) is not None) != answer:
                failures += 1
        # deleting the whole set in any order gives the all-at-once result
        reduced, _ = reduce_removable(g)
        for order in (sorted(removable), sorted(removable, reverse=True)):
            current, ids = g, list(range(g.n))
            for orig in order:
                local = ids.index(orig)
                current, kept = delete_vertices(current, {local})
                ids = [ids[i] for i in kept]
            if current != reduced:
                failures += 1
    ok = failures == 0
    with capsys.disabled():
        report(7, ok, f"{with_removable} corpus graphs with removable vertices, "
                      f"{failures} failures")
    assert failures == 0


def test_criterion_8_known_instances(capsys):
    expected = {
        "c5.graph": 1,
        "k5.graph": 0,
        "net.graph": 1,
        "prism.graph": 1,
        "k4.graph": 0,
        "c6.graph": 0,
    }
    wrong = []
    for name, code in expected.items():
        got = run(["decide", str(FIXTURES / name)])
        if got != code:
            wrong.append((name, got, code))
    capsys.readouterr()
    ok = not wrong
    with capsys.disabled():
        report(8, ok, f"fixture exit codes {'all as expected' if ok else wrong}")
    assert not wrong
