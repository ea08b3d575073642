#!/usr/bin/env python3
"""Reproduce the headline superconvergence tables on all three mesh families.

For each family and polynomial degree this prints per-level L2 and energy
errors of the projected-solution differences together with dyadic rates.
The energy rate is expected at k+1 and the L2 rate at k+2 (one order above
optimal for the approximation spaces); exactly uniform square grids exceed
the k=0 energy rate by one more order through symmetry cancellation.

Default level ranges match the acceptance studies.  --full extends toward
the finest tabulated levels.  On a 2-core Xeon with one BLAS thread the
default plan took 2.2 s and --full 17 s in all; its slowest study, hex P2
at levels 4..7, took 3.9 s, and the square and quad level-8 P0 studies
0.4 s and 0.7 s.

Requested (family, degree) pairs with no planned study are named on stderr
and skipped; a level whose solve stopped above the default tol of
``run_convergence`` is noted there too.  Exit codes: 0 every study
complete, 2 usage error (including a request that selects no planned
study), 4 some study stopped at a failed level (its table is printed with
an INCOMPLETE line), as for ``wg-sfem convergence``.
"""

import argparse
import sys
import time

from wg_sfem.analysis import above_tol, get_case, run_convergence
from wg_sfem.polymesh import GENERATORS

DEFAULT_PLAN = {
    "square": {0: (4, 6), 1: (4, 6), 2: (4, 6), 3: (3, 5), 4: (2, 4)},
    "quad": {0: (4, 6), 1: (4, 6), 2: (4, 6), 3: (3, 5)},
    "hex": {0: (3, 5), 1: (3, 5), 2: (3, 5), 3: (2, 4)},
}

FULL_PLAN = {
    "square": {0: (6, 8), 1: (6, 8), 2: (6, 8), 3: (5, 7), 4: (3, 5)},
    "quad": {0: (6, 8), 1: (6, 8), 2: (5, 7), 3: (2, 5)},
    "hex": {0: (4, 7), 1: (4, 7), 2: (4, 7), 3: (3, 6)},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run the extended (slow) level ranges")
    parser.add_argument("--families", nargs="+", default=sorted(GENERATORS),
                        choices=sorted(GENERATORS))
    parser.add_argument("--degrees", nargs="+", type=int, default=None)
    args = parser.parse_args(argv)

    plan = FULL_PLAN if args.full else DEFAULT_PLAN
    studies, skipped = [], []
    for family in args.families:
        degrees = args.degrees if args.degrees is not None else sorted(plan[family])
        for k in degrees:
            (studies if k in plan[family] else skipped).append((family, k))
    if not studies:
        planned = "; ".join(f"{family} {sorted(plan[family])}" for family in args.families)
        parser.error(f"no planned study for the requested degrees; planned degrees: {planned}")
    for family, k in skipped:
        print(f"skipped: no planned study for the {family} family at P{k}", file=sys.stderr)

    case = get_case("sin2d")
    partial = False
    for family, k in studies:
        lo, hi = plan[family][k]
        t0 = time.time()
        table = run_convergence(family, k, range(lo, hi + 1), case)
        elapsed = time.time() - t0
        print(f"\n== {family} family, P{k} elements, levels {lo}..{hi} "
              f"({elapsed:.1f}s)")
        print(table.to_markdown(), end="")
        for row in table.rows:
            if note := above_tol(row.residual, level=row.level):
                print(f"{family} P{k} {note}", file=sys.stderr)
        if table.partial:
            print(f"   INCOMPLETE: {table.failure}")
            partial = True
    return 4 if partial else 0


if __name__ == "__main__":
    sys.exit(main())
