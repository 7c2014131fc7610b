#!/usr/bin/env python3
"""Probe of the exact solver on squares of random oriented graphs.

Decides ``undirected_square(random_oriented(n, d, rng))`` for eight seeds in
each of ten (n, d) cells, 80 squares with n from 40 to 500, each under a
cap of 20,000 search nodes.  Every square is YES by construction, so the
exit status is 1 when any of them is answered NO, stops at the cap, or gets
a witness that ``verify_witness`` rejects.
"""

import argparse
import random
import sys
import time

from mixedqt.generate import random_oriented
from mixedqt.graphs import undirected_square
from mixedqt.solver import BudgetExceeded, SolveOptions, decide_qt, verify_witness

CELLS = ((40, 2.0), (60, 2.0), (80, 1.5), (80, 2.0), (100, 1.5), (100, 2.0),
         (150, 1.5), (200, 1.5), (300, 2.0), (500, 2.0))
SEEDS = 8
NODE_LIMIT = 20000


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    failures = 0
    t0 = time.time()
    for n, d in CELLS:
        outcomes = []
        for s in range(SEEDS):
            g = undirected_square(random_oriented(n, d, random.Random(f"probe/{n}/{d}/{s}")))
            try:
                w = decide_qt(g, SolveOptions(node_limit=NODE_LIMIT))
            except BudgetExceeded:
                outcomes.append("B")
                continue
            if w is None:
                outcomes.append("N")
            elif not verify_witness(g, w.mixed):
                outcomes.append("X")
            else:
                outcomes.append("Y")
        failures += sum(o != "Y" for o in outcomes)
        print(f"n={n:3d} d={d}: {''.join(outcomes)}")
    print(f"decided {len(CELLS) * SEEDS - failures} of {len(CELLS) * SEEDS} "
          f"in {time.time() - t0:.1f}s (Y yes, N no, B node cap, X rejected witness)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
