"""Command-line interface.

Subcommands::

    decide <graph>            decide orientability, optionally emit a witness
    verify <graph> <witness>  check a claimed witness
    square <mixed>            undirected (or mixed) square of a mixed graph
    embed <graph>             embed into an orientable square
    reduce <cnf>              compile a monotone NAE3SAT instance to a graph
    extract <map> <witness>   read an assignment off a reduction witness
    gadget                    inspect the clause gadget

``decide --method exact`` (the default) runs the exact solver; ``deg3`` and
``girth4`` run the paper's two polynomial characterisations.

Exit codes: 0 yes/success, 1 no/failed verification, 2 usage or format
error, 3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from typing import Callable

from .formats import (
    graph_to_dot,
    mixed_to_dot,
    parse_graph,
    parse_mixed,
    serialize_graph,
    serialize_mixed,
)
from .graphs import mixed_square, undirected_square
from .reduction import (
    CONSTANT_SIGNATURES,
    clause_gadget,
    gadget_signature_report,
    build_reduction,
    parse_dimacs,
    parse_reduction_map,
    serialize_assignment,
    serialize_reduction_map,
    witness_to_assignment,
)
from .solver import (
    BudgetExceeded,
    PartialOrientation,
    SolveOptions,
    decide_qt,
    verify_witness,
)
from .structure import decide_deg3, decide_girth4, embed_universal, orient_deg3

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
_VERDICT_EXIT = {"YES": EXIT_YES, "NO": EXIT_NO, "BUDGET-EXCEEDED": EXIT_BUDGET}


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level argument parser and each command's own parser, built
    once: parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(
        prog="mixedqt",
        description="Decide whether a graph is the undirected square of an oriented graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide orientability of a graph")
    p.add_argument("graph")
    p.add_argument("--method", choices=["exact", "deg3", "girth4"], default="exact",
                   help="exact (the default) runs the exact solver; deg3 and girth4 run "
                        "the paper's two characterisations, for graphs of maximum "
                        "degree three and for triangle-free graphs")
    p.add_argument("--witness", metavar="FILE", help="write a witness when the answer is yes")
    p.add_argument("--dot", metavar="FILE", help="write the witness in DOT format")
    p.add_argument("--node-limit", type=int, default=None, metavar="N",
                   help="stop the search after N nodes with the verdict "
                        "BUDGET-EXCEEDED and exit code 3 (default: no limit)")

    p = sub.add_parser("verify", help="verify a witness against a graph")
    p.add_argument("graph")
    p.add_argument("witness")

    p = sub.add_parser("square", help="square a mixed graph")
    p.add_argument("mixed")
    p.add_argument("-o", "--output", metavar="FILE")
    p.add_argument("--mixed-output", action="store_true",
                   help="emit the mixed square instead of its underlying graph")
    p.add_argument("--dot", metavar="FILE")

    p = sub.add_parser("embed", help="embed a graph into an orientable square")
    p.add_argument("graph")
    p.add_argument("-o", "--output", metavar="FILE")
    p.add_argument("--root", metavar="FILE", help="write the oriented root")
    p.add_argument("--dot", metavar="FILE")

    p = sub.add_parser("reduce", help="compile a monotone NAE3SAT instance to a graph")
    p.add_argument("cnf")
    p.add_argument("-o", "--output", metavar="FILE")
    p.add_argument("--map", dest="map_file", metavar="FILE")
    p.add_argument("--drop-pendants", action="store_true",
                   help="omit gadget pendant edges at literal vertices (max degree 5)")
    p.add_argument("--dot", metavar="FILE")

    p = sub.add_parser("extract", help="extract an assignment from a reduction witness")
    p.add_argument("map")
    p.add_argument("witness")
    p.add_argument("-o", "--output", metavar="FILE")

    p = sub.add_parser("gadget", help="inspect the clause gadget")
    p.add_argument("--signatures", action="store_true",
                   help="enumerate all orientations and report achievable signatures")
    p.add_argument("-o", "--output", metavar="FILE", help="write the gadget graph")
    p.add_argument("--dot", metavar="FILE")

    for name, p in sub.choices.items():   # every command's last option
        p.add_argument("--json", action="store_true")
        p.set_defaults(command=name)  # what the top-level parser would record
    return parser, sub.choices


def _cmd_decide(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph))
    opts = SolveOptions(node_limit=args.node_limit)
    write = bool(args.witness or args.dot)
    answer: PartialOrientation | bool | None = None
    try:
        if args.method == "deg3":
            answer = orient_deg3(g, opts) if write else decide_deg3(g) or None
        elif args.method == "girth4":
            answer = decide_girth4(g, witness=write)
        else:
            answer = decide_qt(g, opts, witness=write)
        verdict = "NO" if answer is None else "YES"
    except BudgetExceeded:
        verdict = "BUDGET-EXCEEDED"
    if isinstance(answer, PartialOrientation):
        if args.witness:
            _write(args.witness, serialize_mixed(answer.mixed))
        if args.dot:
            _write(args.dot, mixed_to_dot(answer.mixed))
    if args.json:
        print(json.dumps({"answer": verdict, "method": args.method,
                          "witness": args.witness if verdict == "YES" else None}))
    else:
        print(verdict)
    return _VERDICT_EXIT[verdict]


def _cmd_verify(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph))
    m = parse_mixed(_read(args.witness))
    check = verify_witness(g, m)
    if args.json:
        print(json.dumps({"ok": check.ok, "problems": list(check.problems)}))
    elif check.ok:
        print("OK")
    else:
        for line in check.problems:
            print(line)
    return EXIT_YES if check.ok else EXIT_NO


def _emit(args: argparse.Namespace, product: Callable[[], str], report: dict,
          *files: tuple[str | None, Callable[[], str]]) -> int:
    """The output rule of the commands that build something: write the
    product to ``-o`` and then each ``(path, content)`` file whose path is
    given, then print the JSON report under ``--json`` or, when ``-o`` took
    no copy, the product itself.  Contents are built only when written."""
    for path, content in ((args.output, product), *files):
        if path:
            _write(path, content())
    if args.json:
        print(json.dumps(report))
    elif not args.output:
        sys.stdout.write(product())
    return EXIT_YES


def _cmd_square(args: argparse.Namespace) -> int:
    m = parse_mixed(_read(args.mixed))
    if args.mixed_output:
        sq = mixed_square(m)
        return _emit(args, lambda: serialize_mixed(sq),
                     {"vertices": sq.n, "edges": len(sq.edges), "arcs": len(sq.arcs),
                      "output": args.output},
                     (args.dot, lambda: mixed_to_dot(sq)))
    sq = undirected_square(m)
    return _emit(args, lambda: serialize_graph(sq),
                 {"vertices": sq.n, "edges": len(sq.edges), "output": args.output},
                 (args.dot, lambda: graph_to_dot(sq)))


def _cmd_embed(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph))
    square, root = embed_universal(g)
    return _emit(args, lambda: serialize_graph(square), {
        "vertices": square.n,
        "edges": len(square.edges),
        "root_vertices": root.n,
        "output": args.output,
        "root": args.root,
    }, (args.root, lambda: serialize_mixed(root)),
        (args.dot, lambda: graph_to_dot(square)))


def _cmd_reduce(args: argparse.Namespace) -> int:
    instance = parse_dimacs(_read(args.cnf))
    graph, rm = build_reduction(instance, drop_pendants=args.drop_pendants)
    return _emit(args, lambda: serialize_graph(graph), {
        "variables": instance.num_vars,
        "clauses": len(instance.clauses),
        "vertices": graph.n,
        "edges": len(graph.edges),
        "output": args.output,
        "map": args.map_file,
    }, (args.map_file, lambda: serialize_reduction_map(rm)),
        (args.dot, lambda: graph_to_dot(graph)))


def _cmd_extract(args: argparse.Namespace) -> int:
    rm = parse_reduction_map(_read(args.map))
    f = witness_to_assignment(rm, parse_mixed(_read(args.witness)))
    return _emit(args, lambda: serialize_assignment(f),
                 {str(x): int(val) for x, val in sorted(f.items())})


def _cmd_gadget(args: argparse.Namespace) -> int:
    g, literals, pendants = clause_gadget()
    if args.output:
        _write(args.output, serialize_graph(g))
    if args.dot:
        _write(args.dot, graph_to_dot(g))
    if args.signatures:
        report = gadget_signature_report()
        achievable = sorted("".join(sig) for sig in report.signatures)
        excluded = ["".join(sig) for sig in CONSTANT_SIGNATURES if sig not in report.signatures]
        if args.json:
            print(json.dumps({
                "achievable": achievable,
                "excluded": excluded,
                "excluded_counts": list(report.constant_counts),
                "orientations": report.orientation_count,
            }))
        else:
            for sig in achievable:
                print(sig)
            print(f"excluded: {' '.join(excluded)}; counts: {report.constant_counts[0]} "
                  f"{report.constant_counts[1]}")
        return EXIT_YES
    if args.json:
        print(json.dumps({
            "vertices": g.n,
            "edges": len(g.edges),
            "literals": list(literals),
            "pendants": list(pendants),
        }))
    else:
        print(f"clause gadget: {g.n} vertices, {len(g.edges)} edges; "
              f"literals {literals}, pendants {pendants}")
    return EXIT_YES


_COMMANDS = {
    "decide": _cmd_decide,
    "verify": _cmd_verify,
    "square": _cmd_square,
    "embed": _cmd_embed,
    "reduce": _cmd_reduce,
    "extract": _cmd_extract,
    "gadget": _cmd_gadget,
}


def run(argv: list[str]) -> int:
    """Parse ``argv``, run its command and return the exit code.

    The command runs with the cyclic garbage collector paused: reference
    counting alone frees everything the commands build, so the collector's
    passes during a call would walk live objects and free nothing.  On the
    way out the collector is enabled again only if it was enabled on entry.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    try:
        if command is None:  # help, or a missing or unknown command
            args = parser.parse_args(argv)
        else:  # the command's own parser, as the top-level one would call it
            args, extra = command.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # GraphFormatError is a ValueError
        message = str(exc)
    except MemoryError:  # printed below, once the failed call's frames are freed
        message = "out of memory"
    finally:
        if collecting:
            gc.enable()
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
