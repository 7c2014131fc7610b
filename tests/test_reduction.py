import hashlib
import random

import pytest

import mixedqt.reduction as reduction_module
from mixedqt.formats import GraphFormatError, serialize_mixed
from mixedqt.generate import random_nae_instance
from mixedqt.graphs import triangle_free_edges
from mixedqt.reduction import (
    CnfInstance,
    GADGET_LITERALS,
    assignment_to_witness,
    brute_nae,
    build_reduction,
    clause_gadget,
    gadget_signature_report,
    gadget_templates,
    is_nae_satisfying,
    parse_dimacs,
    parse_reduction_map,
    serialize_assignment,
    serialize_dimacs,
    serialize_reduction_map,
    witness_to_assignment,
)
from mixedqt.solver import (
    VertexStatus,
    WitnessError,
    decide_qt,
    signature,
    verify_witness,
    vertex_status,
)

FANO = CnfInstance(7, ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6),
                       (2, 5, 7), (3, 4, 7), (3, 5, 6)))

NON_CONSTANT = {
    ("+", "+", "-"), ("+", "-", "+"), ("+", "-", "-"),
    ("-", "+", "+"), ("-", "+", "-"), ("-", "-", "+"),
}


class TestClauseGadget:
    def test_degree_sequence(self):
        g, _, _ = clause_gadget()
        degrees = {v: g.degree(v) for v in range(9)}
        assert degrees == {0: 1, 1: 3, 2: 4, 3: 4, 4: 3, 5: 1, 6: 5, 7: 4, 8: 1}

    def test_automorphism_swapping_outer_literals(self):
        g, literals, mates = clause_gadget()
        perm = {0: 5, 5: 0, 1: 4, 4: 1, 2: 3, 3: 2, 6: 6, 7: 7, 8: 8}
        mapped = frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges)
        assert mapped == g.edges
        assert perm[literals[0]] == literals[2] and perm[literals[1]] == literals[1]

    def test_pendant_edges_are_triangle_free_at_degree_one(self):
        g, literals, mates = clause_gadget()
        pendant_edges = {tuple(sorted(p)) for p in zip(literals, mates)}
        deg1 = {e for e in triangle_free_edges(g)
                if g.degree(e[0]) == 1 or g.degree(e[1]) == 1}
        assert deg1 == pendant_edges == {(0, 1), (7, 8), (4, 5)}

    def test_size(self):
        g, literals, mates = clause_gadget()
        assert g.n == 9 and len(g.edges) == 13
        assert literals == (0, 7, 5) and mates == (1, 8, 4)


class TestSignatureCensus:
    def test_exactly_the_six_non_constant_signatures(self):
        report = gadget_signature_report()
        assert report.signatures == frozenset(NON_CONSTANT)
        assert report.constant_counts == (0, 0)
        # ground truth from an exhaustive scan of all 3^13 assignments
        assert report.orientation_count == 48

    def test_drop_pendants_variant_matches(self):
        report = gadget_signature_report(drop_pendants=True)
        assert report.signatures == frozenset(NON_CONSTANT)
        assert report.constant_counts == (0, 0)
        assert report.orientation_count == 76
        assert report.unsigned_count == 28

    def test_complement_closure(self):
        sigs = gadget_signature_report().signatures
        for s in sigs:
            assert tuple("+" if c == "-" else "-" for c in s) in sigs

    @pytest.mark.parametrize("drop", [False, True])
    def test_templates_cover_all_signatures_and_verify(self, drop):
        templates = gadget_templates(drop)
        assert set(templates) == NON_CONSTANT
        for sig, mixed in templates.items():
            assert signature(mixed, GADGET_LITERALS) == sig


class TestCnfInstance:
    def test_repeated_variable_rejected(self):
        with pytest.raises(ValueError):
            CnfInstance(3, ((1, 1, 2),))

    def test_negative_variable_count_rejected(self):
        with pytest.raises(ValueError, match="negative variable count"):
            CnfInstance(-1)

    def test_non_positive_literal_rejected(self):
        with pytest.raises(ValueError):
            CnfInstance(3, ((-1, 2, 3),))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CnfInstance(3, ((1, 2, 4),))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            CnfInstance(3, ((1, 2),))


class TestBruteNae:
    def test_single_clause(self):
        f = brute_nae(CnfInstance(3, ((1, 2, 3),)))
        assert f is not None and len(set(f.values())) == 2

    def test_fano_unsatisfiable(self):
        assert brute_nae(FANO) is None

    def test_empty_formula_all_false(self):
        assert brute_nae(CnfInstance(2)) == {1: False, 2: False}

    def test_cap(self):
        with pytest.raises(ValueError):
            brute_nae(CnfInstance(25))

    def test_is_nae_satisfying(self):
        y = CnfInstance(3, ((1, 2, 3),))
        assert is_nae_satisfying(y, {1: True, 2: False, 3: False})
        assert not is_nae_satisfying(y, {1: True, 2: True, 3: True})
        assert not is_nae_satisfying(y, {1: True, 2: False})


class TestDimacs:
    def test_round_trip(self):
        y = CnfInstance(4, ((1, 2, 3), (2, 3, 4)))
        assert parse_dimacs(serialize_dimacs(y)) == y

    def test_parse(self):
        y = parse_dimacs("c comment\np cnf 3 1\n1 2 3 0\n")
        assert y == CnfInstance(3, ((1, 2, 3),))
        # the graph files' line rules: blank lines and comments (a first
        # field starting with c) anywhere; and a clause may span lines
        y = parse_dimacs("\nc\n  p cnf 3 2\ncat\n1 2\n\n 3 0\n2 3 1 0\n")
        assert y == CnfInstance(3, ((1, 2, 3), (2, 3, 1)))

    def test_negative_literal_rejected_as_non_monotone(self):
        with pytest.raises(GraphFormatError, match="monotone"):
            parse_dimacs("p cnf 3 1\n1 -2 3 0\n")

    def test_clause_count_checked(self):
        with pytest.raises(GraphFormatError):
            parse_dimacs("p cnf 3 2\n1 2 3 0\n")

    def test_unterminated_clause_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_dimacs("p cnf 3 1\n1 2 3\n")

    def test_wrong_width_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")

    @pytest.mark.parametrize("text, message", [
        ("p cnf 3\n1 2 3 0\n", "cnf header needs exactly <vars> <clauses>"),
        ("p dnf 3 1\n1 2 3 0\n", "line 1: expected 'p cnf' header"),
        ("p cnf 3 x\n1 2 3 0\n", "line 1: non-integer header field"),
        ("p cnf 3 1\np cnf 3 1\n1 2 3 0\n", "line 2: non-integer literal 'p'"),
        ("c no header\n", "missing 'p cnf' header"),
        ("1 2 3 0\np cnf 3 1\n", "line 1: expected 'p cnf' header"),
        ("p cnf 3 1\n1 2 a 0\n", "line 2: non-integer literal 'a'"),
        ("p cnf 3 1\n1 1 2 0\n", "clause (1, 1, 2) repeats a variable"),
        ("p cnf 3 1\n1 2 4 0\n", "variable 4 exceeds declared count 3"),
        ("p cnf -1 0\n", "negative variable count"),
        ("p cnf 3 2\n1 2 0\n1 -2 3 0\n", "line 2: clause (1, 2) does not have three literals"),
        # a short clause names the line of its 0, an unterminated one the
        # line of its last literal
        ("p cnf 3 2\n1 2 3 0\n1 2\n\n0\n", "line 5: clause (1, 2) does not have three literals"),
        ("p cnf 3 1\n1 2\n3\n\nc end\n", "line 3: last clause is not terminated by 0"),
    ], ids=["header-arity", "header-kind", "header-field", "second-header",
            "missing-header", "clause-before-header", "non-integer-literal",
            "repeated-variable", "undeclared-variable", "negative-variable-count",
            "first-fault-in-file-order", "short-clause", "unterminated-clause"])
    def test_malformed_rejected(self, text, message):
        with pytest.raises(GraphFormatError) as info:
            parse_dimacs(text)
        assert str(info.value) == message


class TestBuildReduction:
    def test_one_clause_sizes(self):
        g, rm = build_reduction(CnfInstance(3, ((1, 2, 3),)))
        assert g.n == 18 and len(g.edges) == 22
        # the middle literal vertex absorbs gadget degree 4 plus two path
        # edges, so the retained construction peaks at degree six
        assert g.max_degree() == 6
        assert rm.var_paths == ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11))
        assert rm.clause_literal_ids == ((2, 6, 10),)

    def test_one_clause_sizes_without_pendants(self):
        g, rm = build_reduction(CnfInstance(3, ((1, 2, 3),)), drop_pendants=True)
        assert g.n == 17 and len(g.edges) == 21
        assert g.max_degree() == 5
        assert rm.clause_gadget_ids[0][8] is None

    def test_max_degree_is_constant_for_nonempty_instances(self, rng):
        from mixedqt.generate import random_nae_instance

        for _ in range(10):
            y = random_nae_instance(rng.randint(3, 7), rng.randint(1, 4), rng)
            g, _ = build_reduction(y)
            assert g.max_degree() == 6
            g2, _ = build_reduction(y, drop_pendants=True)
            assert g2.max_degree() == 5

    def test_no_clause_single_variable(self):
        g, rm = build_reduction(CnfInstance(1))
        assert g.n == 2 and g.edges == frozenset({(0, 1)})

    def test_identified_vertices_sit_at_even_positions(self):
        y = CnfInstance(4, ((1, 2, 3), (2, 3, 4)))
        g, rm = build_reduction(y)
        for k, clause in enumerate(y.clauses, start=1):
            for role, x in enumerate(clause):
                assert rm.clause_literal_ids[k - 1][role] == rm.var_paths[x - 1][2 * k]


class TestWitnessTranslation:
    def test_assignment_to_witness_verifies(self):
        y = CnfInstance(3, ((1, 2, 3),))
        g, rm = build_reduction(y)
        w = assignment_to_witness(rm, {1: True, 2: False, 3: False})
        assert verify_witness(g, w).ok

    def test_constant_clause_rejected(self):
        y = CnfInstance(3, ((1, 2, 3),))
        _, rm = build_reduction(y)
        with pytest.raises(ValueError, match="NAE"):
            assignment_to_witness(rm, {1: True, 2: True, 3: True})

    def test_partial_assignment_rejected(self):
        _, rm = build_reduction(CnfInstance(3, ((1, 2, 3),)))
        with pytest.raises(ValueError, match="^assignment is not total over the variables$"):
            assignment_to_witness(rm, {1: True, 2: False})

    def test_empty_instance(self):
        y = CnfInstance(0)
        g, rm = build_reduction(y)
        w = assignment_to_witness(rm, {})
        assert w.n == 0 and not w.edges and not w.arcs

    def test_round_trip(self):
        y = CnfInstance(4, ((1, 2, 3), (2, 3, 4)))
        g, rm = build_reduction(y)
        f = {1: True, 2: True, 3: False, 4: True}
        w = assignment_to_witness(rm, f)
        assert witness_to_assignment(rm, w) == f

    @pytest.mark.parametrize("drop", [False, True])
    def test_witness_bytes_pinned(self, drop):
        # the orientations the instance-and-map signature gave, unchanged
        y = random_nae_instance(12, 20, random.Random(3))
        cases = [(CnfInstance(4, ((1, 2, 3), (2, 3, 4))), {1: True, 2: True, 3: False, 4: True}),
                 (y, brute_nae(y))]
        digests = [hashlib.sha256(serialize_mixed(assignment_to_witness(
            build_reduction(y, drop_pendants=drop)[1], f)).encode()).hexdigest()[:16]
            for y, f in cases]
        assert digests == ({False: ["e123e5b4c17d3070", "a59772a8a27259dd"],
                            True: ["cfc5844ecd879bf1", "c1c4f801456df1b6"]}[drop])

    def test_solver_witness_extracts_to_satisfying_assignment(self):
        y = CnfInstance(3, ((1, 2, 3),))
        g, rm = build_reduction(y)
        w = decide_qt(g)
        f = witness_to_assignment(rm, w.mixed)
        assert is_nae_satisfying(y, f)

    def test_all_kept_rejected(self):
        y = CnfInstance(3, ((1, 2, 3),))
        g, rm = build_reduction(y)
        from mixedqt.graphs import MixedGraph

        with pytest.raises(WitnessError):
            witness_to_assignment(rm, MixedGraph(g.n, edges=g.edges))

    def test_alternating_paths_in_witness(self, rng):
        # every variable path alternates and its even positions share the
        # root's source/sink status, in solver witnesses as well as in
        # assignment-built ones
        from mixedqt.generate import random_nae_instance

        cases = [CnfInstance(4, ((1, 2, 3), (2, 3, 4)))]
        cases += [random_nae_instance(rng.randint(3, 6), rng.randint(1, 3), rng)
                  for _ in range(5)]
        for y in cases:
            g, rm = build_reduction(y)
            witnesses = []
            w = decide_qt(g)
            if w is not None:
                witnesses.append(w.mixed)
            f = brute_nae(y)
            if f is not None:
                witnesses.append(assignment_to_witness(rm, f))
            assert witnesses
            for m in witnesses:
                for ids in rm.var_paths:
                    statuses = [vertex_status(m, v) for v in ids]
                    assert all(s in (VertexStatus.SOURCE, VertexStatus.SINK)
                               for s in statuses)
                    for a, b in zip(statuses, statuses[1:]):
                        assert a != b
                    for i in range(0, len(ids), 2):
                        assert statuses[i] == statuses[0]


class TestMapAndAssignmentFiles:
    def test_map_round_trip(self):
        y = CnfInstance(4, ((1, 2, 3), (2, 3, 4)))
        _, rm = build_reduction(y)
        assert parse_reduction_map(serialize_reduction_map(rm)) == rm

    def test_map_round_trip_dropped(self):
        y = CnfInstance(3, ((1, 2, 3),))
        _, rm = build_reduction(y, drop_pendants=True)
        assert parse_reduction_map(serialize_reduction_map(rm)) == rm

    def test_other_comments_ignored(self):
        _, rm = build_reduction(CnfInstance(3, ((1, 2, 3),)), drop_pendants=True)
        text = ("c written by hand\ncomment drop-pendants 0\ncx\n\n"
                + serialize_reduction_map(rm) + "  c trailing note\n")
        assert parse_reduction_map(text) == rm

    @pytest.mark.parametrize("drop", [False, True])
    def test_parse_builds_no_graph(self, drop, monkeypatch):
        # the map's ids are checked against the layout alone
        y = CnfInstance(5, ((1, 2, 3), (2, 4, 5), (1, 3, 5)))
        _, rm = build_reduction(y, drop_pendants=drop)
        text = serialize_reduction_map(rm)

        def bomb(*args, **kwargs):
            raise AssertionError("parse_reduction_map built the reduction graph")

        monkeypatch.setattr(reduction_module, "build_reduction", bomb)
        assert parse_reduction_map(text) == rm

    def test_tampered_map_rejected(self):
        y = CnfInstance(3, ((1, 2, 3),))
        _, rm = build_reduction(y)
        text = serialize_reduction_map(rm).replace("clause 1 2", "clause 1 3")
        with pytest.raises(GraphFormatError):
            parse_reduction_map(text)

    @pytest.mark.parametrize("old,new,reason", [
        ("clause 1 2 6 10", "clause 1 2 6 10\nclause 1 2 6 10", "duplicate clause 1"),
        ("var 2 4 5 6 7", "var 2 4 5 6 7\nvar 2 4 5 6 7", "duplicate var 2"),
        ("clause 1 2 6 10", "clause 1 2 6 x", "non-integer"),
        ("var 3 8 9 10 11", "var 3 8 9 ten 11", "non-integer"),
        ("var 3 8 9 10 11", "vertex 3 8 9 10 11", "unrecognised"),
        ("clause 1 2 6 10", "clause 2 2 6 10", "clause lines must cover"),
        ("var 3 8 9 10 11", "var 4 8 9 10 11", "variable lines must cover"),
        ("var 1 0 1 2 3", "var 1 0 1 2", "has 3 vertices"),
        ("var 1 0 1 2 3", "var 1 0 1 2 13", "inconsistent with the reconstruction"),
        ("c drop-pendants 0\n", "", "^missing 'c drop-pendants <0\\|1>' line$"),
        ("c drop-pendants 0", "c drop-pendants yes",
         "^line 1: expected 'c drop-pendants <0\\|1>', got 'c drop-pendants yes'$"),
        ("c drop-pendants 0", "c drop-pendants 2", "expected 'c drop-pendants"),
        ("c drop-pendants 0", "c drop-pendants", "expected 'c drop-pendants"),
        ("c drop-pendants 0", "c drop-pendants 0 1", "expected 'c drop-pendants"),
        ("c drop-pendants 0", "c drop-pendants 0\nc drop-pendants 0",
         "^line 2: duplicate drop-pendants line$"),
        ("clause 1 2 6 10", "clause 1 2 2 10", "^clause \\(1, 1, 3\\) repeats a variable$"),
    ], ids=["duplicate-clause", "duplicate-variable", "non-integer-clause",
            "non-integer-path", "unrecognised-line", "clause-gap", "variable-gap",
            "path-length", "ids-disagree-with-rebuild", "missing-flag-line",
            "flag-yes", "flag-2", "flag-absent", "flag-extra-field", "duplicate-flag-line",
            "repeated-variable"])
    def test_malformed_map_rejected(self, old, new, reason):
        _, rm = build_reduction(CnfInstance(3, ((1, 2, 3),)))
        text = serialize_reduction_map(rm)
        assert old in text
        with pytest.raises(GraphFormatError, match=reason):
            parse_reduction_map(text.replace(old, new))

    def test_assignment_round_trip(self):
        f = {1: True, 2: False, 3: True}
        assert serialize_assignment(f) == "v 1 1\nv 2 0\nv 3 1\n"
