#!/usr/bin/env python3
"""Probe the symmetric groups for the PNC property.

S4 is the known failure; S3, S5 and S6 come out PNC.  --extended adds S7
(order 5040, at the raised order cap), which is not PNC either: a subgroup
of order 12 has normal closure A7 and a normalizer of order 72 inside A7.
S7 took 3.1-3.2 s and 118 MB peak RSS in two runs on a 2-core VM.  Each line
shows the elapsed time and the peak RSS of the process so far.
"""

import argparse
import resource
import sys
import time

from fgt.catalog import GroupSpec, build_group
from fgt.config import MAX_ORDER_CAP, Budget
from fgt.predicates import pnc_witness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--extended", action="store_true", help="include S7 (order 5040)")
    args = parser.parse_args()

    ns = (3, 4, 5, 6, 7) if args.extended else (3, 4, 5, 6)
    budget = Budget(order_cap=MAX_ORDER_CAP if args.extended else 1200)
    for n in ns:
        start = time.time()
        g = build_group(GroupSpec("Sym", (n,)), budget)
        witness = pnc_witness(g, budget)
        elapsed = time.time() - start
        # the process's peak so far, in MB (ru_maxrss is in KiB on Linux)
        cost = f"[{elapsed:.1f}s, peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB]"
        if witness is None:
            print(f"S{n} (order {g.order}): PNC  {cost}")
        else:
            print(
                f"S{n} (order {g.order}): not PNC, witness subgroup of order {witness.order}: "
                f"{witness.members.tolist()}  {cost}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
