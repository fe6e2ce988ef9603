#!/usr/bin/env python3
"""Run the full claim registry and write the JSON report.

Exit status mirrors the CLI: 0 when every asserted claim passes, 1 when at
least one mustHold/iff claim fails.
"""

import argparse
import sys
import time

from fgt.claims import emit_report, run_all_claims
from fgt.config import Budget


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", default="claims_report.json")
    parser.add_argument("--order-cap", type=int, default=None)
    parser.add_argument("--parallelism", type=int, default=1, help="worker processes")
    args = parser.parse_args()

    budget = Budget() if args.order_cap is None else Budget(order_cap=args.order_cap)
    start = time.time()
    results = run_all_claims(budget, parallelism=args.parallelism)
    elapsed = time.time() - start

    with open(args.report, "w") as fh:
        fh.write(emit_report(results, "json"))
    sys.stdout.write(emit_report(results, "markdown"))
    sys.stdout.write(f"\n{len(results)} claims in {elapsed:.1f}s; report written to {args.report}\n")

    # only mustHold and iff claims can end with verdict "fail"
    failed = [r.claim_id for r in results if r.verdict == "fail"]
    if failed:
        sys.stdout.write(f"failed claims: {', '.join(failed)}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
