"""Small named graphs, a networkx bridge, a brute-force oracle, planted
NAE3SAT formulas whose answer is known at any size, mutants of canonical
graph and mixed-graph texts, and a reference CNF encoder that only the
tests use."""

import random
from itertools import combinations
from typing import Iterator

import networkx as nx

from mixedqt.generate import random_nae_instance
from mixedqt.graphs import Graph, _components_of
from mixedqt.reduction import CnfInstance


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def path_graph(k: int) -> Graph:
    return Graph(k, frozenset((i, i + 1) for i in range(k - 1)))


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(k, frozenset((i, (i + 1) % k) for i in range(k)))


def complete_graph(k: int) -> Graph:
    return Graph(k, frozenset(combinations(range(k), 2)))


def net_graph() -> Graph:
    """Triangle 0,1,2 with pendant edges 0-3, 1-4, 2-5."""
    return Graph(6, frozenset({(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)}))


def prism_graph() -> Graph:
    """The triangular prism: two triangles joined by a perfect matching."""
    return Graph(6, frozenset({(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                               (0, 3), (1, 4), (2, 5)}))


# The seven lines of the Fano plane on points 1..7.  No 2-colouring of the
# points leaves every line with both colours, so no formula that contains
# these clauses, on any seven distinct variables, is NAE-satisfiable.
FANO_LINES = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6))


def fano_planted(num_vars: int, num_clauses: int, rng: random.Random) -> CnfInstance:
    """A NO instance by construction: a random monotone formula with the
    Fano plane's seven clauses placed on seven of its variables."""
    y = random_nae_instance(num_vars, num_clauses, rng)
    point = [0, *rng.sample(range(1, num_vars + 1), 7)]   # point i is variable point[i]
    fano = tuple(tuple(point[i] for i in line) for line in FANO_LINES)
    return CnfInstance(num_vars, y.clauses + fano)


def nae_planted(num_vars: int, num_clauses: int, rng: random.Random
                ) -> tuple[CnfInstance, dict[int, bool]]:
    """A YES instance by construction, with its hidden assignment: each
    clause is drawn again until that assignment gives it both values."""
    hidden = {x: rng.random() < 0.5 for x in range(1, num_vars + 1)}
    hidden[1], hidden[2] = True, False   # both values occur, so every draw can end
    clauses = []
    while len(clauses) < num_clauses:
        clause = tuple(rng.sample(range(1, num_vars + 1), 3))
        if len({hidden[x] for x in clause}) == 2:
            clauses.append(clause)
    return CnfInstance(num_vars, tuple(clauses)), hidden


ARABIC_INDIC = "٠١٢٣٤٥٦٧٨٩"


def mutants(text: str, rng: random.Random) -> list[str]:
    """Texts one fault or one non-canonical detail away from ``text``, a
    canonical text with at least one record, each at a random record."""
    header, *body = text.splitlines()
    fields = header.split()
    i = rng.randrange(len(body))
    kind, u, v = body[i].split()
    other = "a" if kind == "e" else "e"
    n = int(fields[2])

    def line(*new: str) -> str:
        return "\n".join([header, *body[:i], *new, *body[i + 1:]]) + "\n"

    def head(*counts: str) -> str:
        return "\n".join([" ".join(fields[:2] + list(counts)), *body]) + "\n"

    return [
        line(f"{kind} {v} {u}"),                            # reversed pair
        line(body[i], body[i]),                             # duplicate
        line(body[i], f"{kind} {v} {u}"),                   # reversed duplicate, a digon for arcs
        line(body[i], f"{other} {u} {v}"),                  # the same pair as both kinds
        line(f"{kind} {u} {u}"),                            # loop
        line(f"{kind} {u} {n}"),                            # out of range
        line(f"{kind} -1 {v}"),                             # negative endpoint
        line(f"{kind} {u} {'9' * 5000}"),                   # too long for int()
        line(f"{kind} {u} {v} {v}"),                        # four fields
        line(f"{kind} 0{u} 00{v}"),                         # leading zeros
        line(f"{kind} +{u} {v}"),                           # a sign
        line(f"{kind} {u} {''.join(ARABIC_INDIC[int(d)] for d in v)}"),  # non-ASCII digits
        line(f"{kind}  {u} {v} "),                          # extra spaces
        line(),                                             # a record short of the header
        "\n".join([header, body[-1], *body[:-1]]) + "\n",   # the last record first
        text.replace("\n", "\r\n"),                         # CRLF endings
        text[:-1],                                          # no final newline
        head("²", *fields[3:]),                             # non-ASCII digit in the header
        head("".join(ARABIC_INDIC[int(d)] for d in fields[2]), *fields[3:]),
        head("9" * 5000, *fields[3:]),
        head(*fields[2:-1], str(int(fields[-1]) + 1)),     # a count one too high
    ]


VertexCut = tuple[frozenset[int], frozenset[int], frozenset[int]]


def independent_vertex_cuts(g: Graph, max_size: int = 3) -> list[VertexCut]:
    """All triples (I, V1, V2) where the independent set I separates V1 from V2.

    The triple partitions the vertex set; every vertex of I has a neighbour
    on both sides, no V1-V2 edge exists, and each side is a nonempty union of
    components of g-I.  Bipartitions are produced once, with the component
    containing the smallest remaining vertex always on the V1 side.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    adj = g.adj
    if len(_components_of(range(g.n), adj)) > 1:
        raise ValueError("graph must be connected")
    cuts: list[VertexCut] = []
    for size in range(1, max_size + 1):
        for cand in combinations(range(g.n), size):
            if any(b in adj[a] for a, b in combinations(cand, 2)):
                continue
            rest = set(range(g.n)) - set(cand)
            comps = _components_of(rest, adj)
            if len(comps) < 2:
                continue
            touch = [frozenset(i for i, c in enumerate(comps) if adj[v] & c)
                     for v in cand]
            for mask in range(2 ** (len(comps) - 1)):
                side2_idx = {i + 1 for i in range(len(comps) - 1) if mask >> i & 1}
                if not side2_idx:
                    continue
                side1_idx = set(range(len(comps))) - side2_idx
                if not all(t & side1_idx and t & side2_idx for t in touch):
                    continue
                v1 = frozenset().union(*(comps[i] for i in sorted(side1_idx)))
                v2 = frozenset().union(*(comps[i] for i in sorted(side2_idx)))
                cuts.append((frozenset(cand), v1, v2))
    return cuts


def reference_clauses(k: int, edges: frozenset[tuple[int, int]],
                      pinned: tuple[int, ...]) -> Iterator[tuple[int, ...] | list[int]]:
    """The clauses of ``solver._encode``'s CNF, one at a time and in the
    order its solver must meet them, stated clause by clause: per edge the
    clause against both arcs, then per wedge (sorted) and direction the two
    implications of its variable, then the edge's cover clause; per vertex
    w and pair of its neighbours (in set order) the clause against an
    induced 2-dipath through w; per pinned vertex and neighbour the clauses
    making it a source or a sink."""
    elist = sorted(edges)
    adj: list[set[int]] = [set() for _ in range(k)]
    for u, v in elist:
        adj[u].add(v)
        adj[v].add(u)
    wedges = [sorted(adj[u] & adj[v]) for u, v in elist]
    first_pin = 2 * len(elist)
    first_wedge = first_pin + len(pinned)
    index = {e: 4 * i for i, e in enumerate(elist)}

    def arc(a: int, b: int) -> int:
        return index[a, b] if a < b else index[b, a] + 2

    x = 2 * first_wedge   # the next wedge variable's literal
    for (u, v), ws in zip(elist, wedges):
        yield arc(u, v) ^ 1, arc(v, u) ^ 1
        cover = [arc(u, v), arc(v, u)]
        for w in ws:
            for a, b in ((u, v), (v, u)):
                yield x + 1, arc(a, w)
                yield x + 1, arc(w, b)
                cover.append(x)
                x += 2
        yield cover
    for w in range(k):
        for u in adj[w]:
            for v in adj[w]:
                if u != v and v not in adj[u]:
                    yield arc(u, w) ^ 1, arc(w, v) ^ 1
    for v, p in zip(pinned, range(2 * first_pin, 2 * first_wedge, 2)):
        for y in adj[v]:
            yield p + 1, arc(y, v) ^ 1
            yield p, arc(v, y) ^ 1
