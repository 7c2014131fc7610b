#!/usr/bin/env python3
"""Exhaustive census of clause-gadget orientations.

Enumerates every quasi-transitive partial orientation of the clause gadget,
tabulates the source/sink signature of the literal triple, and confirms the
constant signatures never occur.  The drop-pendants variant omits the pendant
edge at the middle literal.  Exits 1 when a constant signature occurs or the
achievable set is not exactly the six non-constant triples.
"""

import argparse
import sys
import time

from mixedqt.reduction import clause_gadget, gadget_signature_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--drop-pendants", action="store_true",
                        help="census the variant without the middle pendant edge")
    args = parser.parse_args()

    g, literals, mates = clause_gadget()
    n_edges = len(g.edges) - (1 if args.drop_pendants else 0)
    print(f"gadget: {g.n} vertices, {n_edges} edges, "
          f"literal triple {literals} (pendant mates {mates})")
    print(f"state space: 3^{n_edges} = {3 ** n_edges:,} assignments")

    t0 = time.time()
    report = gadget_signature_report(drop_pendants=args.drop_pendants)
    elapsed = time.time() - t0

    print(f"\nvalid orientations: {report.orientation_count} ({elapsed:.2f}s)")
    if report.unsigned_count:
        print(f"orientations with a non-source/sink literal: {report.unsigned_count}")
    print("\nsignature  count")
    for sig, count in report.signature_counts:
        print(f"{''.join(sig):>9}  {count}")
    ttt, fff = report.constant_counts
    print(f"\nconstant signatures: +++ x {ttt}, --- x {fff} (expected 0, 0)")
    achievable = sorted("".join(s) for s in report.signatures)
    exact = achievable == ['++-', '+-+', '+--', '-++', '-+-', '--+']
    print(f"achievable set is exactly the six non-constant triples: {exact}")
    # a constant signature would be in the achievable set too
    return 0 if exact else 1


if __name__ == "__main__":
    sys.exit(main())
