#!/usr/bin/env python3
"""Probe the symmetric groups for the PNC property.

S4 is the known failure; S3, S5 and S6 come out PNC.  --extended adds S7
(order 5040, at the raised order cap), which is not PNC either: a subgroup
of order 12 has normal closure A7 and a normalizer of order 72 inside A7.
S7 took 18 s and 305 MB peak RSS in one run on a 2-core VM.
"""

import argparse
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
        if witness is None:
            print(f"S{n} (order {g.order}): PNC  [{elapsed:.1f}s]")
        else:
            print(
                f"S{n} (order {g.order}): not PNC, witness subgroup of order {witness.order}: "
                f"{witness.members.tolist()}  [{elapsed:.1f}s]"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
