#!/usr/bin/env python3
"""Cohomology ring tables for small racks over Q.

For each rack: the dimensions of H^p, the product table in the chosen
representative bases, and a check line confirming graded commutativity of
every listed product.  Exits 1 if any product breaks graded commutativity.

Usage: python scripts/ring_tables.py [--max-degree P] [--racks spec,spec,...]
"""

import argparse
import sys

from rackhom.cup import ring_structure
from rackhom.racks import builtin
from rackhom.rings import QQ

DEFAULT_RACKS = "trivial:1,trivial:2,dihedral:3,dihedral:4"


def show(spec, max_degree):
    rack = builtin(spec)
    rs = ring_structure(rack, QQ, max_degree)
    dims = ", ".join(f"H^{p}={rs.dims[p]}" for p in sorted(rs.dims))
    print(f"\n{spec}: {dims}")
    for (p, i, q, j), coords in sorted(rs.products.items()):
        if p == 0 or q == 0:
            continue
        pretty = ", ".join(str(c) for c in coords)
        print(f"  [{p}:{i}] . [{q}:{j}] = ({pretty}) in H^{p+q}")
    violations = 0
    for (p, i, q, j), coords in rs.products.items():
        sign = -1 if (p * q) % 2 else 1
        mirror = rs.products[(q, j, p, i)]
        if coords != tuple(sign * c for c in mirror):
            violations += 1
    print(f"  graded commutativity violations: {violations}")
    return violations


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-degree", type=int, default=3)
    ap.add_argument("--racks", default=DEFAULT_RACKS)
    args = ap.parse_args()
    violations = [show(spec.strip(), args.max_degree) for spec in args.racks.split(",")]
    return 1 if any(violations) else 0


if __name__ == "__main__":
    sys.exit(main())
