#!/usr/bin/env python3
"""Census of orientability over exhaustive small-graph corpora.

Sweeps every connected graph up to a vertex bound (one representative per
isomorphism class), under a degree-3 bound, a triangle-free restriction or
none (``--family all``), and tabulates how many admit a quasi-transitive
partial orientation.  Every graph is decided by the exact solver, with and
without building a witness, by the family's polynomial deciders where they
apply (in both families, the degree-3 decider at maximum degree three and
the bipartiteness decider when there is no triangle), and by exhaustive
enumeration where the edge cap allows; disagreements are reported, and the
exit status is 1 when there is any.
"""

import argparse
import math
import sys
import time
from collections import Counter

from mixedqt.generate import connected_graphs
from mixedqt.graphs import girth, triangle_free_edges
from mixedqt.solver import ENUMERATION_EDGE_CAP, decide_qt, enumerate_qt
from mixedqt.structure import decide_deg3, decide_girth4, removable_vertices


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument("--family", choices=["deg3", "triangle-free", "all"], default="deg3")
    args = parser.parse_args()

    if args.family == "deg3":
        corpus = connected_graphs(args.max_n, max_degree=3)
    elif args.family == "triangle-free":
        corpus = connected_graphs(args.max_n, triangle_free=True)
    else:
        corpus = connected_graphs(args.max_n)

    per_n: Counter = Counter()
    yes_per_n: Counter = Counter()
    reducible = 0
    enumerated = 0
    disagreements = 0
    girths = set()
    t0 = time.time()
    for g in corpus:
        per_n[g.n] += 1
        exact = decide_qt(g) is not None
        # the verdict-only mode, which builds no witness, must agree
        answers = {exact, decide_qt(g, witness=False) is not None}
        if args.family != "all":
            # the paper's two characterisations check the exact solver, and
            # each other, wherever they apply
            if g.max_degree() <= 3:
                answers.add(decide_deg3(g))
            if len(triangle_free_edges(g)) == len(g.edges):
                answers.add(decide_girth4(g) is not None)
        if len(g.edges) <= ENUMERATION_EDGE_CAP:
            enumerated += 1
            answers.add(next(iter(enumerate_qt(g)), None) is not None)
        if len(answers) != 1:
            disagreements += 1
            print(f"DISAGREEMENT on {sorted(g.edges)}")
        if exact:
            yes_per_n[g.n] += 1
        if args.family == "deg3" and removable_vertices(g):
            reducible += 1
        if args.family == "triangle-free":
            girths.add(girth(g))
    elapsed = time.time() - t0

    print(f"family: connected, {args.family}, n <= {args.max_n}")
    print("\n  n  graphs  orientable")
    for n in sorted(per_n):
        print(f"{n:>3}  {per_n[n]:>6}  {yes_per_n[n]:>10}")
    total = sum(per_n.values())
    print(f"\ntotal {total} graphs, {sum(yes_per_n.values())} orientable, "
          f"{enumerated} enumerated, {disagreements} decision disagreements, {elapsed:.1f}s")
    if args.family == "deg3":
        print(f"graphs with at least one removable vertex: {reducible}")
    elif args.family == "triangle-free":
        girths.discard(math.inf)
        span = f"{min(girths)}..{max(girths)}" if girths else "none"
        print(f"girth range among non-forests: {span}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
