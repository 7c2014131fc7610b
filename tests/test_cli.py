import gc
import json
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import mixedqt
import mixedqt.cli as cli_module
import mixedqt.solver as solver_module
from mixedqt.cli import _build_parser, run
from mixedqt.formats import parse_graph, parse_mixed, serialize_graph, serialize_mixed
from mixedqt.generate import random_connected_graph
from mixedqt.graphs import (
    Graph,
    MixedGraph,
    edge,
    triangle_free_edges,
    undirected_square,
)
from mixedqt.reduction import GadgetSignatureReport, parse_reduction_map
from mixedqt.solver import verify_witness

from helpers import complete_graph, cycle_graph, net_graph, prism_graph

FIXTURES = Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def _grid(rows: int, cols: int, *, wrap: bool = False) -> Graph:
    """A rows x cols grid; ``wrap`` closes every row into a cycle."""
    edges = set()
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.add((v, v + 1))
            elif wrap:
                edges.add((i * cols, v))
            if i + 1 < rows:
                edges.add((v, v + cols))
    return Graph(rows * cols, frozenset(edges))


class TestDecide:
    @pytest.mark.parametrize("name,code", [
        ("c5.graph", 1), ("k5.graph", 0), ("net.graph", 1),
        ("prism.graph", 1), ("k4.graph", 0), ("c6.graph", 0),
    ])
    def test_fixture_exit_codes(self, capsys, name, code):
        assert run(["decide", fx(name)]) == code
        out = capsys.readouterr().out.strip()
        assert out == ("YES" if code == 0 else "NO")

    @pytest.mark.parametrize("method", ["exact", "deg3"])
    def test_methods_agree_on_c6(self, method):
        assert run(["decide", fx("c6.graph"), "--method", method]) == 0

    def test_auto_is_not_a_method(self, capsys):
        # the exact solver has one name, which is also the default
        assert run(["decide", fx("c6.graph"), "--method", "auto"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            "mixedqt decide: error: argument --method: invalid choice: 'auto' "
            "(choose from 'exact', 'deg3', 'girth4')")

    def test_girth4_method(self):
        assert run(["decide", fx("c6.graph"), "--method", "girth4"]) == 0
        assert run(["decide", fx("c5.graph"), "--method", "girth4"]) == 1

    def test_girth4_rejects_triangles(self):
        assert run(["decide", fx("k4.graph"), "--method", "girth4"]) == 2

    def test_girth4_verdict_only_builds_no_witness(self, monkeypatch):
        # a bipartite YES without --witness or --dot never orients its edges
        calls = []
        arcs_by_colour = solver_module._arcs_by_colour

        def spy(*args):
            calls.append(args)
            return arcs_by_colour(*args)

        monkeypatch.setattr(solver_module, "_arcs_by_colour", spy)
        codes = [run(["decide", fx(name), "--method", "girth4"])
                 for name in ("c5.graph", "c6.graph", "k4.graph")]
        assert codes == [1, 0, 2] and calls == []

    def test_deg3_rejects_high_degree(self):
        assert run(["decide", fx("k5.graph"), "--method", "deg3"]) == 2

    def test_witness_file_verifies(self, tmp_path):
        wfile = tmp_path / "w.mixed"
        assert run(["decide", fx("k5.graph"), "--witness", str(wfile)]) == 0
        m = parse_mixed(wfile.read_text())
        assert verify_witness(complete_graph(5), m).ok

    def test_witness_via_deg3_method(self, tmp_path):
        wfile = tmp_path / "w.mixed"
        assert run(["decide", fx("c6.graph"), "--method", "deg3",
                    "--witness", str(wfile)]) == 0
        g = parse_graph(Path(fx("c6.graph")).read_text())
        assert verify_witness(g, parse_mixed(wfile.read_text())).ok

    def test_long_dipath_square_witness_verifies(self, tmp_path):
        # P_1002 squared: 2,001 edges, so the search runs deeper than
        # Python's default recursion limit would allow a recursive one
        arcs = frozenset((i, i + 1) for i in range(1001))
        gfile, wfile = tmp_path / "g.graph", tmp_path / "w.mixed"
        gfile.write_text(serialize_graph(undirected_square(MixedGraph(1002, arcs=arcs))))
        assert run(["decide", str(gfile), "--witness", str(wfile)]) == 0
        assert run(["verify", str(gfile), str(wfile)]) == 0

    def test_budget_exit_code(self):
        assert run(["decide", fx("k5.graph"), "--node-limit", "1"]) == 3

    def test_no_answer_needs_no_budget(self, tmp_path, capsys):
        # K6 plus C5: the triangle-free odd cycle answers NO before any search
        c5 = {edge(6 + i, 6 + (i + 1) % 5) for i in range(5)}
        k6_c5 = Graph(11, complete_graph(6).edges | c5)
        gfile = tmp_path / "g.graph"
        gfile.write_text(serialize_graph(k6_c5))
        assert run(["decide", str(gfile), "--method", "exact", "--node-limit", "1"]) == 1
        assert capsys.readouterr().out.strip() == "NO"

    def test_one_parser_serves_every_run(self, capsys):
        # the parser is built once, so nothing of one run may reach the next
        assert run(["decide", fx("k5.graph"), "--json", "--node-limit", "1"]) == 3
        capsys.readouterr()
        assert run(["decide", fx("k5.graph")]) == 0
        assert capsys.readouterr().out.strip() == "YES"
        assert _build_parser() is _build_parser()

    def test_help_says_what_the_options_do(self, capsys):
        assert run(["decide", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "exact (the default) runs the exact solver" in text
        assert "deg3 and girth4 run the paper's two characterisations" in text
        assert "exit code 3" in text

    @pytest.mark.parametrize("name", ["c5.graph", "k5.graph"])
    def test_negative_node_limit_is_usage_error(self, name):
        assert run(["decide", fx(name), "--node-limit", "-1"]) == 2

    @pytest.mark.parametrize("extra", [["--threads", "1"], ["--seed", "1"], ["extra"]],
                             ids=["--threads", "--seed", "extra-positional"])
    def test_removed_flags_are_usage_errors(self, capsys, extra):
        # what the command's parser leaves over is reported as the
        # top-level parser reports it
        assert run(["decide", fx("c5.graph"), *extra]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "usage: mixedqt [-h] {decide,verify,square,embed,reduce,extract,gadget} ...",
            f"mixedqt: error: unrecognized arguments: {' '.join(extra)}",
        ]

    @pytest.mark.parametrize("text,answer", [
        ("p graph 5 5\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 0\n", "NO"),
        (serialize_graph(complete_graph(5)), "YES"),
        ("p graph 5 4\ne 0 1\ne 0 2\ne 0 3\ne 0 4\n", "YES"),
        ("p graph 7 7\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 0\ne 0 5\ne 0 6\n", "NO"),
        ("p graph 7 6\ne 0 1\ne 0 2\ne 0 3\ne 1 4\ne 1 5\ne 2 6\n", "YES"),
        (serialize_graph(net_graph()), "NO"),
        (serialize_graph(prism_graph()), "NO"),
    ], ids=["c5", "k5", "star4", "c5-pendants", "tree-deg3", "net", "prism"])
    def test_json_output(self, tmp_path, capsys, text, answer):
        # the default method is the exact solver, whatever the graph
        path = tmp_path / "g.graph"
        path.write_text(text)
        assert run(["decide", str(path), "--json"]) == (0 if answer == "YES" else 1)
        payload = json.loads(capsys.readouterr().out)
        assert (payload["answer"], payload["method"]) == (answer, "exact")

    @pytest.mark.parametrize("name", ["k4.graph", "house.graph"])
    def test_node_limit_bounds_default_at_degree_three(self, capsys, name):
        # a degree-3 graph with a triangle is searched under the default,
        # so its node limit applies; the degree-3 decider spends no nodes
        assert run(["decide", fx(name), "--node-limit", "0"]) == 3
        assert capsys.readouterr().out == "BUDGET-EXCEEDED\n"
        assert run(["decide", fx(name), "--node-limit", "0", "--method", "deg3"]) == 0
        assert capsys.readouterr().out == "YES\n"

    def test_triangle_free_deg3_witnesses_match(self, tmp_path):
        # the default answers every triangle-free graph by its 2-colouring;
        # at maximum degree three the degree-3 decider answers too, and the
        # two must write the same witness byte for byte
        rng = random.Random(12)
        corpus = [cycle_graph(k) for k in range(4, 10)]
        for _ in range(12):
            n = rng.randint(1, 40)
            degree = [0] * n
            tree = set()
            for v in range(1, n):
                u = rng.choice([u for u in range(v) if degree[u] < 3])
                tree.add((u, v))
                degree[u] += 1
                degree[v] += 1
            corpus.append(Graph(n, frozenset(tree)))
        while len(corpus) < 36:
            g = random_connected_graph(rng.randint(4, 24), 3, rng)
            if triangle_free_edges(g) == g.edges:
                corpus.append(g)
        gfile = tmp_path / "g.graph"
        answers = set()
        for g in corpus:
            gfile.write_text(serialize_graph(g))
            texts = []
            for method in ("exact", "deg3"):
                wfile = tmp_path / f"{method}.mixed"
                wfile.unlink(missing_ok=True)
                code = run(["decide", str(gfile), "--method", method,
                            "--witness", str(wfile)])
                assert code == (0 if wfile.exists() else 1)
                texts.append((code, wfile.read_text() if code == 0 else None))
                if code == 0:
                    assert run(["verify", str(gfile), str(wfile)]) == 0
            assert texts[0] == texts[1], sorted(g.edges)
            answers.add(texts[0][0])
        assert answers == {0, 1}

    def test_girth4_verdict_matches_witness_run(self, tmp_path, capsys):
        # a decide without --witness answers as the run that writes one does
        rng = random.Random(16)
        files = [fx("c5.graph"), fx("c6.graph"), fx("k4.graph")]
        corpus = []
        for n in (1, 2, 9, 40):
            tree = {(rng.randrange(v), v) for v in range(1, n)}
            corpus.append(Graph(n, frozenset(tree)))
        for rows, cols in ((1, 4), (3, 3), (4, 6)):
            corpus.append(_grid(rows, cols))
        for rows, cols in ((1, 5), (2, 5), (3, 7), (4, 6)):
            corpus.append(_grid(rows, cols, wrap=True))
        for i, g in enumerate(corpus):
            path = tmp_path / f"{i}.graph"
            path.write_text(serialize_graph(g))
            files.append(str(path))
        codes = set()
        wfile = tmp_path / "w.mixed"
        for gfile in files:
            g = parse_graph(Path(gfile).read_text())
            for method in ("exact", "girth4"):
                wfile.unlink(missing_ok=True)
                verdict = run(["decide", gfile, "--method", method])
                assert run(["decide", gfile, "--method", method,
                            "--witness", str(wfile)]) == verdict, gfile
                assert wfile.exists() == (verdict == 0)
                if verdict == 0:
                    assert verify_witness(g, parse_mixed(wfile.read_text())).ok
                codes.add((method, verdict))
            capsys.readouterr()
            run(["decide", gfile, "--json"])
            assert json.loads(capsys.readouterr().out)["method"] == "exact", gfile
        # YES and NO under both methods, and the triangle guard of girth4
        assert codes == {("exact", 0), ("exact", 1), ("girth4", 0), ("girth4", 1),
                         ("girth4", 2)}

    def test_verdict_only_runs_match_witness_runs(self, tmp_path, capsys):
        # graphs with triangles, whose regions are searched: a run without
        # --witness builds no orientation, yet answers as the run that writes
        # one does, at the default limit and at one that stops the search
        chain = tmp_path / "chain50.graph"
        chain.write_text(serialize_graph(Graph(101, frozenset(
            e for t in range(50) for e in ((2 * t, 2 * t + 1), (2 * t + 1, 2 * t + 2),
                                           (2 * t, 2 * t + 2))))))
        fano = tmp_path / "fano.graph"
        assert run(["reduce", fx("fano.cnf"), "-o", str(fano)]) == 0
        wfile = tmp_path / "w.mixed"
        codes = set()
        for gfile in (fx("k5.graph"), fx("resplit.graph"), str(chain), str(fano)):
            for limit in ([], ["--node-limit", "5"]):
                runs = []
                for witness in ([], ["--witness", str(wfile)]):
                    runs.append((run(["decide", gfile, *limit, *witness]),
                                 capsys.readouterr().out))
                assert runs[0] == runs[1], (gfile, limit)
                codes.add(runs[0][0])
        assert codes == {0, 1, 3}

    def test_missing_file(self, capsys):
        # the OSError itself, as for a file that cannot be written
        assert run(["decide", fx("nope.graph")]) == 2
        assert capsys.readouterr() == (
            "", f"error: [Errno 2] No such file or directory: {fx('nope.graph')!r}\n")

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("p graph x y\n")
        assert run(["decide", str(bad)]) == 2


class TestVerify:
    def test_ok(self, tmp_path, capsys):
        wfile = tmp_path / "w.mixed"
        run(["decide", fx("k4.graph"), "--witness", str(wfile)])
        capsys.readouterr()
        assert run(["verify", fx("k4.graph"), str(wfile)]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_all_kept_fails_with_violation_line(self, tmp_path, capsys):
        g = parse_graph(Path(fx("c6.graph")).read_text())
        from mixedqt.graphs import MixedGraph

        wfile = tmp_path / "w.mixed"
        wfile.write_text(serialize_mixed(MixedGraph(g.n, edges=g.edges)))
        assert run(["verify", fx("c6.graph"), str(wfile)]) == 1
        assert capsys.readouterr().out.startswith("violation uncovered-edge")

    def test_wrong_graph_reports_mismatch(self, tmp_path, capsys):
        wfile = tmp_path / "w.mixed"
        run(["decide", fx("k4.graph"), "--witness", str(wfile)])
        capsys.readouterr()
        assert run(["verify", fx("c6.graph"), str(wfile)]) == 1
        assert "mismatch" in capsys.readouterr().out


class TestSquare:
    def test_directed_c5_squares_to_k5(self, tmp_path, capsys):
        mfile = tmp_path / "c5dir.mixed"
        arcs = "\n".join(f"a {i} {(i + 1) % 5}" for i in range(5))
        mfile.write_text(f"p mixed 5 0 5\n{arcs}\n")
        assert run(["square", str(mfile)]) == 0
        assert parse_graph(capsys.readouterr().out) == complete_graph(5)

    def test_mixed_output_keeps_arcs(self, tmp_path, capsys):
        mfile = tmp_path / "p.mixed"
        mfile.write_text("p mixed 3 0 2\na 0 1\na 1 2\n")
        assert run(["square", str(mfile), "--mixed-output"]) == 0
        sq = parse_mixed(capsys.readouterr().out)
        assert sq.arcs == frozenset({(0, 1), (1, 2)})
        assert sq.edges == frozenset({(0, 2)})

    def test_output_file_and_dot(self, tmp_path):
        mfile = tmp_path / "p.mixed"
        mfile.write_text("p mixed 3 0 2\na 0 1\na 1 2\n")
        out = tmp_path / "sq.graph"
        dot = tmp_path / "sq.dot"
        assert run(["square", str(mfile), "-o", str(out), "--dot", str(dot)]) == 0
        assert parse_graph(out.read_text()) == complete_graph(3)
        assert dot.read_text().startswith("graph")


class TestEmbed:
    def test_embed_c5(self, tmp_path):
        out = tmp_path / "sq.graph"
        root = tmp_path / "root.mixed"
        assert run(["embed", fx("c5.graph"), "-o", str(out), "--root", str(root)]) == 0
        square = parse_graph(out.read_text())
        rootm = parse_mixed(root.read_text())
        assert square.n == 10
        assert undirected_square(rootm) == square
        assert run(["decide", str(out)]) == 0


class TestReducePipeline:
    def test_reduce_decide_extract(self, tmp_path, capsys):
        gfile = tmp_path / "g.graph"
        mapfile = tmp_path / "m.txt"
        wfile = tmp_path / "w.mixed"
        assert run(["reduce", fx("one_clause.cnf"), "-o", str(gfile),
                    "--map", str(mapfile)]) == 0
        assert run(["decide", str(gfile), "--witness", str(wfile)]) == 0
        capsys.readouterr()
        assert run(["extract", str(mapfile), str(wfile)]) == 0
        f = {int(x): v == "1" for _, x, v in map(str.split, capsys.readouterr().out.splitlines())}
        assert set(f) == {1, 2, 3}
        assert len(set(f.values())) == 2  # not-all-equal on the single clause

    def test_reduce_fano_is_no_instance(self, tmp_path):
        gfile = tmp_path / "fano.graph"
        assert run(["reduce", fx("fano.cnf"), "-o", str(gfile)]) == 0
        assert run(["decide", str(gfile)]) == 1

    def test_drop_pendants_flag(self, tmp_path, capsys):
        gfile = tmp_path / "g.graph"
        assert run(["reduce", fx("one_clause.cnf"), "-o", str(gfile),
                    "--drop-pendants", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vertices"] == 17 and payload["edges"] == 21
        g = parse_graph(gfile.read_text())
        assert g.max_degree() == 5

    def test_non_monotone_rejected(self, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 3 1\n1 -2 3 0\n")
        assert run(["reduce", str(bad)]) == 2

    def test_invalid_clause_is_format_error(self, tmp_path, capsys):
        # the instance's own check, reported as a format error of the file
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 3 1\n1 1 2 0\n")
        assert run(["reduce", str(bad)]) == 2
        assert capsys.readouterr() == ("", "error: clause (1, 1, 2) repeats a variable\n")

    def test_extract_rejects_invalid_witness(self, tmp_path):
        gfile = tmp_path / "g.graph"
        mapfile = tmp_path / "m.txt"
        run(["reduce", fx("one_clause.cnf"), "-o", str(gfile), "--map", str(mapfile)])
        g = parse_graph(gfile.read_text())
        from mixedqt.graphs import MixedGraph

        wfile = tmp_path / "w.mixed"
        wfile.write_text(serialize_mixed(MixedGraph(g.n, edges=g.edges)))
        assert run(["extract", str(mapfile), str(wfile)]) == 2

    @pytest.mark.parametrize("flag_line,message", [
        ("c drop-pendants yes\n", "expected 'c drop-pendants <0|1>'"),
        ("", "missing 'c drop-pendants <0|1>' line"),
    ], ids=["flag-yes", "flag-missing"])
    def test_extract_rejects_bad_flag_line(self, tmp_path, capsys, flag_line, message):
        # the dropped-pendant map read as the with-pendants one would fail
        # only later, on the witness; a bad flag line is a format error
        gfile, mapfile, wfile = (tmp_path / name for name in ("g.graph", "m.txt", "w.mixed"))
        assert run(["reduce", fx("one_clause.cnf"), "-o", str(gfile), "--map", str(mapfile),
                    "--drop-pendants"]) == 0
        assert run(["decide", str(gfile), "--witness", str(wfile)]) == 0
        assert run(["extract", str(mapfile), str(wfile)]) == 0
        text = mapfile.read_text()
        assert text.startswith("c drop-pendants 1\n")
        mapfile.write_text(text.replace("c drop-pendants 1\n", flag_line))
        capsys.readouterr()
        assert run(["extract", str(mapfile), str(wfile)]) == 2
        assert message in capsys.readouterr().err

    def test_emitted_files_reparse_canonically(self, tmp_path):
        gfile = tmp_path / "g.graph"
        run(["reduce", fx("one_clause.cnf"), "-o", str(gfile)])
        text = gfile.read_text()
        assert serialize_graph(parse_graph(text)) == text


class TestGadget:
    def test_signature_listing(self, capsys):
        assert run(["gadget", "--signatures"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "excluded: +++ ---; counts: 0 0"
        assert sorted(lines[:-1]) == ["++-", "+-+", "+--", "-++", "-+-", "--+"]

    def test_signature_json(self, capsys):
        assert run(["gadget", "--signatures", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["excluded"] == ["+++", "---"]
        assert payload["excluded_counts"] == [0, 0]
        assert len(payload["achievable"]) == 6

    def test_excluded_signatures_come_from_the_census(self, capsys, monkeypatch):
        # a constant signature the census finds is achievable, not excluded
        import mixedqt.cli as cli_module

        real = cli_module.gadget_signature_report()
        fake = GadgetSignatureReport(real.signatures | {("+", "+", "+")}, (3, 0),
                                     real.orientation_count + 3)
        monkeypatch.setattr(cli_module, "gadget_signature_report", lambda: fake)
        assert run(["gadget", "--signatures", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["excluded"] == ["---"]
        assert "+++" in payload["achievable"]
        assert run(["gadget", "--signatures"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "excluded: ---; counts: 3 0"
        assert len(lines) == 8

    def test_gadget_graph_output(self, tmp_path, capsys):
        out = tmp_path / "gadget.graph"
        assert run(["gadget", "-o", str(out)]) == 0
        g = parse_graph(out.read_text())
        assert g.n == 9 and len(g.edges) == 13


def _check_output(kind: str, text: str) -> None:
    """DOT, a graph file, a mixed-graph file, a reduction map or an assignment."""
    if kind == "dot":
        assert text.startswith(("graph", "digraph"))
    elif kind == "graph":
        parse_graph(text)
    elif kind == "mixed":
        parse_mixed(text)
    elif kind == "map":
        parse_reduction_map(text)
    else:
        assert text and all(re.fullmatch(r"v \d+ [01]", line) for line in text.splitlines())


EMBED_C5 = ("p graph 10 18\ne 0 1\ne 0 4\ne 0 5\ne 0 6\ne 1 2\ne 1 5\ne 1 7\ne 2 3\ne 2 7\n"
            "e 2 8\ne 3 4\ne 3 8\ne 3 9\ne 4 6\ne 4 9\ne 5 7\ne 7 8\ne 8 9\n")
REDUCE_ONE_CLAUSE = (
    "p graph 18 22\ne 0 1\ne 1 2\ne 2 3\ne 2 12\ne 4 5\ne 5 6\ne 6 7\ne 6 13\ne 6 14\n"
    "e 6 16\ne 6 17\ne 8 9\ne 9 10\ne 10 11\ne 10 15\ne 12 13\ne 12 16\ne 13 14\n"
    "e 13 16\ne 14 15\ne 14 16\ne 15 16\n")


def _write_inputs(tmp_path: Path) -> None:
    """k4.mixed, a K4 witness, and oc.graph, oc.map and oc.mixed, the
    one-clause reduction with its map and a witness."""
    assert run(["decide", fx("k4.graph"), "--witness", str(tmp_path / "k4.mixed")]) == 0
    assert run(["reduce", fx("one_clause.cnf"), "-o", str(tmp_path / "oc.graph"),
                "--map", str(tmp_path / "oc.map")]) == 0
    assert run(["decide", str(tmp_path / "oc.graph"),
                "--witness", str(tmp_path / "oc.mixed")]) == 0


@pytest.mark.parametrize("argv,code,files,stdout", [
    ("decide {fx}/k4.graph --dot {tmp}/w.dot", 0, {"w.dot": "dot"}, "YES\n"),
    ("decide {fx}/c5.graph --json", 1, {},
     '{"answer": "NO", "method": "exact", "witness": null}\n'),
    ("decide {fx}/k5.graph --node-limit 1 --witness {tmp}/b.mixed --json", 3, {},
     '{"answer": "BUDGET-EXCEEDED", "method": "exact", "witness": null}\n'),
    ("verify {fx}/k4.graph {tmp}/k4.mixed --json", 0, {}, '{"ok": true, "problems": []}\n'),
    ("square {tmp}/k4.mixed --json", 0, {}, '{"vertices": 4, "edges": 6, "output": null}\n'),
    ("square {tmp}/k4.mixed -o {tmp}/sq.graph", 0, {"sq.graph": "graph"}, ""),
    ("square {tmp}/k4.mixed --mixed-output -o {tmp}/sq.mixed --dot {tmp}/sq.dot --json", 0,
     {"sq.mixed": "mixed", "sq.dot": "dot"},
     '{"vertices": 4, "edges": 2, "arcs": 4, "output": "{tmp}/sq.mixed"}\n'),
    ("embed {fx}/c5.graph --dot {tmp}/e.dot --json", 0, {"e.dot": "dot"},
     '{"vertices": 10, "edges": 18, "root_vertices": 10, "output": null, "root": null}\n'),
    ("embed {fx}/c5.graph", 0, {}, EMBED_C5),
    ("embed {fx}/c5.graph -o {tmp}/e.graph --root {tmp}/e.mixed", 0,
     {"e.graph": "graph", "e.mixed": "mixed"}, ""),
    ("reduce {fx}/one_clause.cnf --dot {tmp}/r.dot", 0, {"r.dot": "dot"}, REDUCE_ONE_CLAUSE),
    ("reduce {fx}/one_clause.cnf -o {tmp}/r.graph --map {tmp}/r.map --json", 0,
     {"r.graph": "graph", "r.map": "map"},
     '{"variables": 3, "clauses": 1, "vertices": 18, "edges": 22, '
     '"output": "{tmp}/r.graph", "map": "{tmp}/r.map"}\n'),
    ("reduce {fx}/one_clause.cnf -o {tmp}/r.graph --map {tmp}/r.map --dot {tmp}/r.dot", 0,
     {"r.graph": "graph", "r.map": "map", "r.dot": "dot"}, ""),
    ("extract {tmp}/oc.map {tmp}/oc.mixed -o {tmp}/a.txt", 0, {"a.txt": "assignment"}, ""),
    ("extract {tmp}/oc.map {tmp}/oc.mixed", 0, {}, "v 1 1\nv 2 1\nv 3 0\n"),
    ("extract {tmp}/oc.map {tmp}/oc.mixed --json", 0, {}, '{"1": 1, "2": 1, "3": 0}\n'),
    ("gadget --dot {tmp}/g.dot --json", 0, {"g.dot": "dot"},
     '{"vertices": 9, "edges": 13, "literals": [0, 7, 5], "pendants": [1, 8, 4]}\n'),
], ids=["decide-dot", "decide-no-json", "decide-budget-json", "verify-json", "square-json",
        "square-file", "square-mixed-files", "embed-dot-json", "embed-stdout", "embed-files",
        "reduce-dot-stdout", "reduce-json", "reduce-files", "extract-file", "extract-stdout",
        "extract-json", "gadget-dot-json"])
def test_command_outputs(tmp_path, capsys, argv, code, files, stdout):
    # exact stdout, JSON key order included, and exactly the files asked for
    _write_inputs(tmp_path)
    before = {p.name for p in tmp_path.iterdir()}
    capsys.readouterr()
    argv = [a.format(fx=FIXTURES, tmp=tmp_path) for a in argv.split()]
    assert run(argv) == code
    out = capsys.readouterr().out
    assert out == stdout.replace("{tmp}", str(tmp_path))
    if "-o" in argv and "--json" not in argv:
        assert out == ""
    assert {p.name for p in tmp_path.iterdir()} - before == set(files)
    for name, kind in files.items():
        _check_output(kind, (tmp_path / name).read_text())


@pytest.mark.parametrize("argv", [
    "decide {fx}/k4.graph --witness {tmp}/nodir/w.mixed",
    "square {tmp}/k4.mixed -o {tmp}/nodir/sq.graph --json",
    "embed {fx}/c5.graph -o {tmp}/nodir/e.graph",
    "reduce {fx}/one_clause.cnf -o {tmp}/nodir/r.graph",
    "extract {tmp}/oc.map {tmp}/oc.mixed -o {tmp}/nodir/a.txt --json",
], ids=["decide", "square", "embed", "reduce", "extract"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv):
    # a file that cannot be written is an OSError: exit 2, one error line
    _write_inputs(tmp_path)
    capsys.readouterr()
    assert run([a.format(fx=FIXTURES, tmp=tmp_path) for a in argv.split()]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: [Errno 2] No such file or directory: ") and "nodir" in err


@pytest.mark.parametrize("args, text, expected", [
    ("decide", "p graph 100000000 0\n", (2, "", "error: out of memory\n")),
    ("reduce", "p cnf 50000000 0\n", (2, "", "error: out of memory\n")),
    # a million lone vertices fit: the 2-colouring answers YES over one
    # neighbour list per vertex, with no neighbour set built
    ("decide", "p graph 1000000 0\n", (0, "YES\n", "")),
    ("decide --witness {tmp}/w.mixed", "p graph 1000000 0\n", (0, "YES\n", "")),
], ids=["decide-1e8-vertices", "reduce-5e7-variables", "decide-1e6-vertices",
        "decide-1e6-vertices-witness"])
def test_out_of_memory_is_usage_error(tmp_path, args, text, expected):
    # a tiny file can ask for more memory than there is: each run gets a
    # 256 MB address-space cap, so it fails fast and never strains the
    # machine, and a run that fits under it answers as usual
    path = tmp_path / "big"
    path.write_text(text)

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    command, *options = args.format(tmp=tmp_path).split()
    src = str(Path(mixedqt.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "mixedqt.cli", command, str(path), *options],
        capture_output=True, text=True, preexec_fn=cap, env={"PYTHONPATH": src}, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == expected
    if options:
        assert (tmp_path / "w.mixed").read_text() == "p mixed 1000000 0 0\n"


def test_extract_rejects_malformed_map(tmp_path, capsys):
    assert run(["reduce", fx("one_clause.cnf"), "-o", str(tmp_path / "oc.graph"),
                "--map", str(tmp_path / "oc.map")]) == 0
    assert run(["decide", str(tmp_path / "oc.graph"),
                "--witness", str(tmp_path / "oc.mixed")]) == 0
    text = (tmp_path / "oc.map").read_text()
    (tmp_path / "oc.map").write_text(text + text.splitlines()[1] + "\n")  # clause 1 again
    capsys.readouterr()
    assert run(["extract", str(tmp_path / "oc.map"), str(tmp_path / "oc.mixed")]) == 2
    assert "duplicate clause" in capsys.readouterr().err


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv,code", [
    ("decide {fx}/k4.graph", 0),
    ("decide {fx}/c5.graph", 1),
    ("decide {tmp}/missing.graph", 2),
    ("decide {fx}/one_clause.cnf", 2),
    ("decide {fx}/k5.graph --node-limit 1", 3),
], ids=["yes", "no", "unreadable", "malformed", "budget"])
def test_collector_state_is_restored(tmp_path, capsys, collecting, argv, code):
    # the command runs with the collector paused, and the caller's setting,
    # on or off, is back on every exit
    (gc.enable if collecting else gc.disable)()
    try:
        assert run([a.format(fx=FIXTURES, tmp=tmp_path) for a in argv.split()]) == code
        assert gc.isenabled() is collecting
    finally:
        gc.enable()


def test_collector_state_is_restored_when_a_command_raises(monkeypatch):
    def crash(args):
        assert not gc.isenabled()
        raise RuntimeError("boom")

    monkeypatch.setitem(cli_module._COMMANDS, "decide", crash)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="boom"):
        run(["decide", fx("k4.graph")])
    assert gc.isenabled()


@pytest.mark.parametrize("argv", [
    "decide {fx}/k4.graph",
    "decide {fx}/c5.graph",
    "decide {fx}/k5.graph --node-limit 1",
    "decide {fx}/one_clause.cnf",
    "decide {fx}/resplit.graph --witness {tmp}/w.mixed",
    "decide {fx}/c6.graph --method girth4 --witness {tmp}/w.mixed",
    "decide {fx}/house.graph --method deg3 --witness {tmp}/w.mixed --dot {tmp}/w.dot",
    "verify {fx}/k4.graph {tmp}/k4.mixed",
    "square {tmp}/k4.mixed --mixed-output",
    "embed {fx}/c5.graph --root {tmp}/root.mixed",
    "reduce {fx}/one_clause.cnf --map {tmp}/r.map",
    "extract {tmp}/oc.map {tmp}/oc.mixed",
], ids=["decide-yes", "decide-no", "decide-budget", "decide-malformed", "decide-witness", "decide-girth4-witness",
        "decide-deg3-witness", "verify", "square", "embed", "reduce", "extract"])
def test_commands_leave_no_cyclic_garbage(tmp_path, capsys, argv):
    # reference counting frees all a command builds, so pausing the
    # collector skips its passes and leaves nothing for a later collection
    _write_inputs(tmp_path)
    argv = [a.format(fx=FIXTURES, tmp=tmp_path) for a in argv.split()]
    run(argv)  # warm-up: the cached parser, first-call imports
    gc.disable()
    try:
        gc.collect()
        run(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestUsage:
    def test_no_command(self):
        assert run([]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2
