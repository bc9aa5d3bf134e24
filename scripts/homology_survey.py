#!/usr/bin/env python3
"""Survey integral homology of every builtin rack through degree 4.

Prints one table per rack: rack homology, and quandle homology when the
rack is a quandle.  Everything is exact; expect a few seconds total.

Usage: python scripts/homology_survey.py [--max-degree N]
"""

import argparse
import sys
import time

from rackhom.complexes import RackComplex
from rackhom.racks import builtin, orbits
from rackhom.rings import ZZ
from rackhom.verify import BUILTIN_SPECS


def survey(spec, max_degree):
    rack = builtin(spec)
    kind = "quandle" if rack.is_quandle() else "rack"
    print(f"\n{spec}: size {rack.size}, {kind}, {len(orbits(rack))} orbit(s)")
    variants = [False, True] if rack.is_quandle() else [False]
    for quandle in variants:
        tag = "quandle complex" if quandle else "rack complex"
        complex_ = RackComplex(rack, ZZ, max_degree + 1, quandle=quandle)
        cells = [f"H_{n} = {complex_.homology(n).describe()}"
                 for n in range(1, max_degree + 1)]
        print(f"  {tag}: " + ",  ".join(cells))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-degree", type=int, default=4)
    args = ap.parse_args()
    t0 = time.time()
    for spec in BUILTIN_SPECS:
        survey(spec, args.max_degree)
    print(f"\ndone in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
