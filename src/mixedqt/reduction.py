"""Compiling Monotone NAE3SAT instances into graph-orientability instances.

Each clause becomes a fixed 9-vertex gadget whose three literal vertices are
forced to be sources or sinks in every quasi-transitive partial orientation;
the achievable source/sink patterns are exactly the non-constant triples, so
a clause gadget encodes "not all equal".  Each variable becomes a path long
enough to thread through every clause, oriented alternately so that all even
positions share the truth value of the path root.  Identifying literal
vertices with even path positions ties the two together.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .formats import GraphFormatError, _built, _read_header
from .graphs import Edge, Graph, MixedGraph, edge
from .solver import (
    Signature,
    VertexStatus,
    WitnessError,
    enumerate_qt,
    signature,
    verify_witness,
    vertex_status,
)

# The clause gadget: a 6-path 0-1-2-3-4-5 with a hub 6 joined to 1,2,3,4, a
# second hub 7 joined to 2,3,6, and pendant edges 0-1, 7-8, 4-5.  The
# literal vertices are (0, 7, 5): the two path tips and the hub 7, each
# carrying a pendant edge towards its mate in (1, 8, 4).  The map
# (0 5)(1 4)(2 3) is an automorphism exchanging the first and third
# literals and fixing the second.  Over this triple the achievable
# source/sink signatures are exactly the six non-constant ones; reading
# signatures anywhere else (for example at the mates 1 and 4) admits
# constant patterns and breaks the clause encoding.
GADGET_EDGES: frozenset[Edge] = frozenset({
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
    (1, 6), (2, 6), (3, 6), (4, 6),
    (6, 7), (2, 7), (3, 7), (7, 8),
})
GADGET_LITERALS = (0, 7, 5)
GADGET_PENDANT_MATES = (1, 8, 4)
# After the literal tips 0 and 5 are identified into variable paths, their
# pendant edges become the gadget's attachment and cannot be dropped; the
# pendant at the middle literal (edge 7-8) stays a true pendant and is the
# one removed by the drop-pendants variant, capping the degree of an
# identified middle literal at five.
_DROPPABLE_PENDANT: Edge = (7, 8)

CONSTANT_SIGNATURES: tuple[Signature, Signature] = (("+", "+", "+"), ("-", "-", "-"))


def clause_gadget() -> tuple[Graph, tuple[int, int, int], tuple[int, int, int]]:
    """The clause gadget with its literal triple and their pendant mates."""
    return Graph(9, GADGET_EDGES), GADGET_LITERALS, GADGET_PENDANT_MATES


@functools.cache
def _gadget_orientations(drop_pendants: bool) -> tuple[tuple[Signature | None, MixedGraph], ...]:
    """Every orientation of the gadget in :func:`enumerate_qt` order, each
    with its signature over the literal triple, or None when some literal is
    neither a source nor a sink (possible only without pendants)."""
    edges = GADGET_EDGES - {_DROPPABLE_PENDANT} if drop_pendants else GADGET_EDGES
    out = []
    for po in enumerate_qt(Graph(9, edges)):
        try:
            sig = signature(po.mixed, GADGET_LITERALS)
        except ValueError:
            sig = None
        out.append((sig, po.mixed))
    return tuple(out)


@dataclass(frozen=True)
class GadgetSignatureReport:
    """Census of achievable literal signatures over all gadget orientations."""

    signatures: frozenset[Signature]
    constant_counts: tuple[int, int]  # orientations with (+,+,+) resp. (-,-,-)
    orientation_count: int
    signature_counts: tuple[tuple[Signature, int], ...] = ()
    unsigned_count: int = 0  # orientations with a non-source/sink literal


def gadget_signature_report(*, drop_pendants: bool = False) -> GadgetSignatureReport:
    """Enumerate every orientation of the gadget and collect signatures.

    Covers the full 3^m state space of the 13-edge gadget (the enumeration
    prunes with rules that discard no valid orientation).
    """
    orientations = _gadget_orientations(drop_pendants)
    counts: dict[Signature, int] = {}
    for sig, _mixed in orientations:
        if sig is not None:
            counts[sig] = counts.get(sig, 0) + 1
    return GadgetSignatureReport(
        signatures=frozenset(counts),
        constant_counts=(counts.get(CONSTANT_SIGNATURES[0], 0),
                         counts.get(CONSTANT_SIGNATURES[1], 0)),
        orientation_count=len(orientations),
        signature_counts=tuple(sorted(counts.items())),
        unsigned_count=len(orientations) - sum(counts.values()),
    )


def gadget_templates(drop_pendants: bool = False) -> dict[Signature, MixedGraph]:
    """One gadget orientation per achievable signature (first in enumeration
    order), used to orient clause gadgets from truth values."""
    templates: dict[Signature, MixedGraph] = {}
    for sig, mixed in _gadget_orientations(drop_pendants):
        if sig is not None:
            templates.setdefault(sig, mixed)
    return templates


# ---------------------------------------------------------------------------
# Instances and the brute-force oracle

@dataclass(frozen=True)
class CnfInstance:
    """A monotone 3-CNF formula: clauses are triples of distinct variables.

    Variables are numbered 1..num_vars; there are no negated literals.
    """

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("negative variable count")
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        for c in self.clauses:
            if len(c) != 3:
                raise ValueError(f"clause {c} does not have exactly three literals")
            if len(set(c)) != 3:
                raise ValueError(f"clause {c} repeats a variable")
            for x in c:
                if x < 1:
                    raise ValueError(f"literal {x} is not a positive variable; "
                                     "instances must be monotone")
                if x > self.num_vars:
                    raise ValueError(f"variable {x} exceeds declared count {self.num_vars}")


Assignment = dict[int, bool]


def is_nae_satisfying(y: CnfInstance, f: Assignment) -> bool:
    """True when f is total and every clause sees both truth values."""
    if set(f) != set(range(1, y.num_vars + 1)):
        return False
    return all(len({f[a], f[b], f[c]}) == 2 for a, b, c in y.clauses)


BRUTE_VAR_CAP = 24


def brute_nae(y: CnfInstance) -> Assignment | None:
    """Scan all 2^n assignments for a not-all-equal satisfying one.

    Deterministic: the assignment with the smallest bit pattern (variable x
    on bit x-1) is returned.  The empty formula yields the all-false
    assignment.
    """
    if y.num_vars > BRUTE_VAR_CAP:
        raise ValueError(f"brute-force oracle capped at {BRUTE_VAR_CAP} variables")
    masks = [(1 << (a - 1)) | (1 << (b - 1)) | (1 << (c - 1)) for a, b, c in y.clauses]
    for bits in range(1 << y.num_vars):
        if all(0 < bits & cm < cm for cm in masks):
            return {x: bool(bits >> (x - 1) & 1) for x in range(1, y.num_vars + 1)}
    return None


# ---------------------------------------------------------------------------
# DIMACS input

def parse_dimacs(text: str) -> CnfInstance:
    """Parse monotone 3-CNF in DIMACS format (positive literals only); the
    header and comments follow graph files, read by ``formats._read_header``."""
    lines = enumerate(text.splitlines(), start=1)
    counts = _read_header(lines, "cnf", "missing 'p cnf' header")
    if len(counts) != 2:
        raise GraphFormatError("cnf header needs exactly <vars> <clauses>")
    num_vars, num_clauses = counts
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    last_line = 0  # the line of the last literal read
    for lineno, raw in lines:
        fields = raw.split()
        if not fields or fields[0][0] == "c":
            continue
        for tok in fields:
            try:
                lit = int(tok)
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer literal {tok!r}") from None
            if lit < 0:
                raise GraphFormatError(
                    f"line {lineno}: negated literal {lit}; instances must be monotone")
            if lit:
                current.append(lit)
                last_line = lineno
                continue
            if len(current) != 3:
                raise GraphFormatError(
                    f"line {lineno}: clause {tuple(current)} does not have three literals")
            clauses.append((current[0], current[1], current[2]))
            current = []
    if current:
        raise GraphFormatError(f"line {last_line}: last clause is not terminated by 0")
    if len(clauses) != num_clauses:
        raise GraphFormatError(
            f"header declares {num_clauses} clauses, body has {len(clauses)}")
    return _built(CnfInstance, num_vars, tuple(clauses))


def serialize_dimacs(y: CnfInstance) -> str:
    lines = [f"p cnf {y.num_vars} {len(y.clauses)}"]
    lines += [f"{a} {b} {c} 0" for a, b, c in y.clauses]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The reduction graph

@dataclass(frozen=True)
class ReductionMap:
    """Bookkeeping tying an instance to the vertex ids of its reduction graph."""

    instance: CnfInstance
    drop_pendants: bool
    num_vertices: int
    var_paths: tuple[tuple[int, ...], ...]  # variable x at index x-1
    clause_literal_ids: tuple[tuple[int, int, int], ...]
    clause_gadget_ids: tuple[tuple[int | None, ...], ...]  # gadget vertex 0..8


def _layout(y: CnfInstance, drop_pendants: bool) -> ReductionMap:
    """The vertex ids of y's reduction graph: the variable paths, then the
    fresh vertices of each clause gadget in turn."""
    path_len = 2 * len(y.clauses) + 2
    var_paths = tuple(
        tuple(range((x - 1) * path_len, x * path_len)) for x in range(1, y.num_vars + 1)
    )
    next_id = y.num_vars * path_len
    fresh_gadget_vertices = [gv for gv in range(9)
                             if gv not in GADGET_LITERALS
                             and not (drop_pendants and gv == _DROPPABLE_PENDANT[1])]
    gadget_ids = []
    for k, clause in enumerate(y.clauses, start=1):
        # clause k's literal vertices are position 2k of their variables' paths
        mapping = {lv: var_paths[x - 1][2 * k] for lv, x in zip(GADGET_LITERALS, clause)}
        for gv in fresh_gadget_vertices:
            mapping[gv] = next_id
            next_id += 1
        gadget_ids.append(tuple(mapping.get(gv) for gv in range(9)))
    return ReductionMap(
        instance=y,
        drop_pendants=drop_pendants,
        num_vertices=next_id,
        var_paths=var_paths,
        clause_literal_ids=tuple(tuple(ids[lv] for lv in GADGET_LITERALS)  # type: ignore[arg-type]
                                 for ids in gadget_ids),
        clause_gadget_ids=tuple(gadget_ids),
    )


def build_reduction(y: CnfInstance, *, drop_pendants: bool = False) -> tuple[Graph, ReductionMap]:
    """Assemble the reduction graph for a monotone NAE3SAT instance.

    One gadget per clause and one path of 2|C|+2 vertices per variable are
    laid down disjointly, then for clause k the literal vertices are
    identified with position 2k of the corresponding variable paths.  With
    ``drop_pendants`` the gadget pendant edges at literal vertices are
    omitted, which caps the maximum degree at five.
    """
    rm = _layout(y, drop_pendants)
    edges: set[Edge] = set()
    for ids in rm.var_paths:   # increasing ids, so each pair is an edge as it stands
        edges.update(zip(ids, ids[1:]))
    gadget_edges = sorted(GADGET_EDGES - {_DROPPABLE_PENDANT} if drop_pendants
                          else GADGET_EDGES)
    for ids in rm.clause_gadget_ids:
        for gu, gv in gadget_edges:
            edges.add(edge(ids[gu], ids[gv]))  # type: ignore[arg-type]
    return Graph(rm.num_vertices, frozenset(edges)), rm


def assignment_to_witness(rm: ReductionMap, f: Assignment) -> MixedGraph:
    """Orient the reduction graph according to a not-all-equal assignment.

    Paths alternate with the root a source exactly for true variables;
    each gadget takes the stored template matching its clause's truth
    pattern.  Raises ValueError when some clause's literals are constant
    (no gadget template exists for a constant signature).
    """
    y = rm.instance
    if set(f) != set(range(1, y.num_vars + 1)):
        raise ValueError("assignment is not total over the variables")
    arcs: set[tuple[int, int]] = set()
    edges: set[Edge] = set()
    for x, ids in enumerate(rm.var_paths, start=1):
        for i in range(len(ids) - 1):
            even_end, odd_end = (ids[i], ids[i + 1]) if i % 2 == 0 else (ids[i + 1], ids[i])
            arcs.add((even_end, odd_end) if f[x] else (odd_end, even_end))
    templates = gadget_templates(rm.drop_pendants)
    for k, clause in enumerate(y.clauses):
        truths = tuple(f[x] for x in clause)
        if len(set(truths)) == 1:
            raise ValueError(
                f"assignment is not NAE-satisfying: clause {clause} is constant")
        sig = tuple("+" if t else "-" for t in truths)
        template = templates[sig]  # type: ignore[index]
        mapping = rm.clause_gadget_ids[k]
        for gu, gv in template.edges:
            edges.add(edge(mapping[gu], mapping[gv]))
        for gt, gh in template.arcs:
            arcs.add((mapping[gt], mapping[gh]))
    return MixedGraph(rm.num_vertices, frozenset(edges), frozenset(arcs))


def witness_to_assignment(rm: ReductionMap, m: MixedGraph) -> Assignment:
    """Read an assignment off a witness: variable x is true exactly when its
    path root is a source.  The witness is verified first."""
    graph, _ = build_reduction(rm.instance, drop_pendants=rm.drop_pendants)
    check = verify_witness(graph, m)
    if not check.ok:
        raise WitnessError("; ".join(check.problems))
    f: Assignment = {}
    for x in range(1, rm.instance.num_vars + 1):
        root = rm.var_paths[x - 1][0]
        st = vertex_status(m, root)
        if st is VertexStatus.SOURCE:
            f[x] = True
        elif st is VertexStatus.SINK:
            f[x] = False
        else:
            raise WitnessError(f"path root {root} is {st.value}, not a source or sink")
    if not is_nae_satisfying(rm.instance, f):
        raise RuntimeError("internal error: extracted assignment is not NAE-satisfying")
    return f


# ---------------------------------------------------------------------------
# Reduction-map and assignment files

def serialize_reduction_map(rm: ReductionMap) -> str:
    lines = [f"c drop-pendants {int(rm.drop_pendants)}"]
    for k, (u, v, w) in enumerate(rm.clause_literal_ids, start=1):
        lines.append(f"clause {k} {u} {v} {w}")
    for x, ids in enumerate(rm.var_paths, start=1):
        lines.append(f"var {x} " + " ".join(str(i) for i in ids))
    return "\n".join(lines) + "\n"


def parse_reduction_map(text: str) -> ReductionMap:
    """Rebuild a reduction map from its serialised form.

    The instance is reconstructed from the identifications and its layout
    rebuilt, with no graph; any inconsistency with the file is an error.  The
    ``c drop-pendants`` line must occur exactly once, with the flag 0 or 1:
    no id in the file depends on it, so a rebuild cannot catch a wrong one.
    Any other line whose first field starts with ``c``, except a ``clause``
    record, is a comment, as in graph files.
    """
    drop_pendants: bool | None = None
    clause_lines: dict[int, tuple[int, ...]] = {}
    var_lines: dict[int, tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0][0] == "c" and fields[0] != "clause":
            if fields[0] == "c" and len(fields) > 1 and fields[1] == "drop-pendants":
                if drop_pendants is not None:
                    raise GraphFormatError(f"line {lineno}: duplicate drop-pendants line")
                if len(fields) != 3 or fields[2] not in ("0", "1"):
                    raise GraphFormatError(
                        f"line {lineno}: expected 'c drop-pendants <0|1>', got {line!r}")
                drop_pendants = fields[2] == "1"
            continue
        if not ((fields[0] == "clause" and len(fields) == 5)
                or (fields[0] == "var" and len(fields) >= 3)):
            raise GraphFormatError(f"line {lineno}: unrecognised map line {line!r}")
        try:
            key, *ids = (int(t) for t in fields[1:])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer field") from None
        table = clause_lines if fields[0] == "clause" else var_lines
        if key in table:
            raise GraphFormatError(f"line {lineno}: duplicate {fields[0]} {key}")
        table[key] = tuple(ids)
    if drop_pendants is None:
        raise GraphFormatError("missing 'c drop-pendants <0|1>' line")
    num_vars = len(var_lines)
    if sorted(var_lines) != list(range(1, num_vars + 1)):
        raise GraphFormatError("variable lines must cover 1..n exactly once")
    n_clauses = len(clause_lines)
    if sorted(clause_lines) != list(range(1, n_clauses + 1)):
        raise GraphFormatError("clause lines must cover 1..k exactly once")
    path_len = 2 * n_clauses + 2
    position: dict[int, tuple[int, int]] = {}
    for x in range(1, num_vars + 1):
        ids = var_lines[x]
        if len(ids) != path_len:
            raise GraphFormatError(f"variable {x} path has {len(ids)} vertices, "
                                   f"expected {path_len}")
        for pos, vid in enumerate(ids):
            position[vid] = (x, pos)
    clauses = []
    for k in range(1, n_clauses + 1):
        roles = []
        for vid in clause_lines[k]:
            if vid not in position or position[vid][1] != 2 * k:
                raise GraphFormatError(
                    f"clause {k} literal id {vid} is not a path vertex at position {2 * k}")
            roles.append(position[vid][0])
        clauses.append((roles[0], roles[1], roles[2]))
    instance = _built(CnfInstance, num_vars, tuple(clauses))
    rm = _layout(instance, drop_pendants)
    if (rm.var_paths != tuple(var_lines[x] for x in range(1, num_vars + 1))
            or rm.clause_literal_ids != tuple(clause_lines[k] for k in range(1, n_clauses + 1))):
        raise GraphFormatError("map file ids are inconsistent with the reconstruction")
    return rm


def serialize_assignment(f: Assignment) -> str:
    return "".join(f"v {x} {int(f[x])}\n" for x in sorted(f))

