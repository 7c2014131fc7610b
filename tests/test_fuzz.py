"""Seeded mutation fuzz of every command that reads a file.

Graph, mixed-graph, CNF and reduction-map texts, from the fixtures and from
seeded generators, are each mutated a few ways and fed through
:func:`mixedqt.cli.run` to every command that reads that kind of file.
Whatever the mutant, the command must return one of the documented exit
codes, 0 to 3, with nothing escaping; a format error is exit 2 with one
``error:`` line.  Oversized headers are left to the address-space-capped
child processes of ``test_out_of_memory_is_usage_error``.
"""

import random
from collections import defaultdict
from pathlib import Path

from mixedqt.cli import run
from mixedqt.formats import parse_graph, serialize_graph, serialize_mixed
from mixedqt.generate import random_connected_graph, random_nae_instance
from mixedqt.reduction import (
    build_reduction,
    parse_dimacs,
    serialize_dimacs,
    serialize_reduction_map,
)
from mixedqt.solver import decide_qt

from helpers import mutants

FIXTURES = Path(__file__).parent / "fixtures"
NODE_LIMIT = 500   # bounds a mutant that happens to need a long search


def _line_mutants(text: str, rng: random.Random) -> list[str]:
    """Texts one line-level fault away from ``text``, at a random line and
    field, for any line-oriented format."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    fields = lines[i].split()
    j = rng.randrange(len(fields))

    def line(*new: str) -> str:
        return "\n".join([*lines[:i], *new, *lines[i + 1:]]) + "\n"

    def field(new: str) -> str:
        return line(" ".join([*fields[:j], new, *fields[j + 1:]]))

    return [
        line(),                                   # a line dropped
        line(lines[i], lines[i]),                 # a line doubled
        line(lines[i] + " 7"),                    # a field too many
        line(" ".join(fields[:-1])),              # a field too few
        field("-1"), field("0"), field("x"), field("²"), field("+1"),
        field(fields[j] + "0"),                   # ten times the number, or a new word
        "\n".join(reversed(lines)) + "\n",        # every line in reverse order
        text[:rng.randrange(len(text))],          # cut short
        text.replace("\n", "\r\n"),
    ]


def _sources(rng: random.Random) -> dict[str, list[tuple[str, ...]]]:
    """Per kind of file, the source texts, each with the files it is read
    against: a graph with a witness of it, a witness with its graph and,
    for a reduction's witness, its map; a CNF alone; a map with a witness."""
    graphs = [parse_graph(p.read_text()) for p in sorted(FIXTURES.glob("*.graph"))]
    graphs += [random_connected_graph(rng.randint(4, 10), rng.randint(3, 5), rng)
               for _ in range(6)]
    cnfs = [p.read_text() for p in sorted(FIXTURES.glob("*.cnf"))]
    cnfs += [serialize_dimacs(random_nae_instance(rng.randint(4, 6), rng.randint(2, 5), rng))
             for _ in range(4)]
    sources: dict[str, list[tuple[str, ...]]] = defaultdict(list)
    for g in graphs:
        w = decide_qt(g)
        witness = serialize_mixed(w.mixed) if w is not None else "p mixed 0 0 0\n"
        sources["graph"].append((serialize_graph(g), witness))
        if w is not None and w.mixed.edges | w.mixed.arcs:
            sources["mixed"].append((witness, serialize_graph(g), None))
    for i, cnf in enumerate(cnfs):
        sources["cnf"].append((cnf,))
        g, rm = build_reduction(parse_dimacs(cnf), drop_pendants=bool(i % 2))
        w = decide_qt(g)
        if w is not None:
            witness, map_text = serialize_mixed(w.mixed), serialize_reduction_map(rm)
            sources["mixed"].append((witness, serialize_graph(g), map_text))
            sources["map"].append((map_text, witness))
    return sources


def _commands(kind: str, mutant: str, others: list, out: str, k: int) -> list[list[str]]:
    """The command lines that read ``mutant`` as a file of this kind, with
    the source's other files (paths, or None where a source has no such
    file) beside it; ``out`` takes what they write and ``k`` picks options."""
    if kind == "graph":
        method = ("exact", "deg3", "girth4")[k % 3]
        return [["decide", mutant, "--method", method, "--node-limit", str(NODE_LIMIT),
                 "--witness", out],
                ["verify", mutant, others[0]],
                ["embed", mutant, "--root", out]]
    if kind == "mixed":
        graph, map_file = others
        lines = [["verify", graph, mutant],
                 ["square", mutant, *(["--mixed-output"] if k % 2 else [])]]
        return lines + ([["extract", map_file, mutant]] if map_file else [])
    if kind == "cnf":
        return [["reduce", mutant, "--map", out, *(["--drop-pendants"] if k % 2 else [])]]
    return [["extract", mutant, others[0]]]


def test_mutants_exit_with_documented_codes(tmp_path, capsys):
    rng = random.Random(20261022)
    mutant, out = str(tmp_path / "mutant"), str(tmp_path / "out")
    codes: dict[str, set[int]] = defaultdict(set)
    runs = tried = 0
    for kind, sources in _sources(rng).items():
        for text, *companions in sources:
            others = []
            for i, content in enumerate(companions):
                others.append(None if content is None else str(tmp_path / f"other{i}"))
                if content is not None:
                    Path(others[-1]).write_text(content)
            texts = _line_mutants(text, rng)
            if kind in ("graph", "mixed"):
                texts += mutants(text, rng)
            for k, mutated in enumerate(texts):
                Path(mutant).write_text(mutated)
                tried += 1
                for argv in _commands(kind, mutant, others, out, k):
                    code = run(argv)
                    runs += 1
                    assert code in (0, 1, 2, 3), (argv, mutated)
                    err = capsys.readouterr().err
                    if code == 2:
                        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
                    codes[argv[0]].add(code)
    # every command both rejected some mutant and read some other one
    assert set(codes) == {"decide", "verify", "embed", "square", "extract", "reduce"}
    for command, seen in codes.items():
        assert 2 in seen and seen - {2}, (command, seen)
    assert tried >= 300 and runs >= 600, (tried, runs)
