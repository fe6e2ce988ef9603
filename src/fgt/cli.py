"""Command-line front end: build groups, inspect predicates, export lattices, run claims.

Exit codes: 0 success (and all checked claims pass), 1 at least one asserted
claim failed, 2 usage error or unknown spec, 3 budget exceeded with no
partial result.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .catalog import build_group, parse_spec, parse_universe, standard_catalog
from .claims import counterexample_search, emit_report, run_all_claims, run_claim
from .config import MAX_ORDER_CAP, Budget
from .errors import BudgetExceededError, FgtError, UnknownClaimError, UnknownConstructorError
from .groups import order_fingerprint
from .lattice import (
    all_subgroups,
    is_normal,
    is_subnormal,
    lattice_to_dot,
    lattice_to_json,
    subgroup_from_generators,
)
from .predicates import (
    GROUP_CLASSES,
    classify_group,
    is_h_subgroup,
    is_nc_subgroup,
    is_ne_subgroup,
    is_normally_embedded,
    is_pronormal,
)

GROUP_PREDICATES = {f"is_{name}": test for name, test in GROUP_CLASSES.items()}

SUBGROUP_PREDICATES = {
    "is_nc": lambda g, h, budget: is_nc_subgroup(g, h),
    "is_ne": lambda g, h, budget: is_ne_subgroup(g, h),
    "is_h": lambda g, h, budget: is_h_subgroup(g, h),
    "is_pronormal": lambda g, h, budget: is_pronormal(g, h),
    "is_normally_embedded": is_normally_embedded,
    "is_subnormal": lambda g, h, budget: is_subnormal(g, h),
    "is_normal": lambda g, h, budget: is_normal(g, h),
}


@functools.cache  # one parser per process: main runs once per command
def _build_parser() -> argparse.ArgumentParser:
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--order-cap", type=int, default=None,
                        help=f"maximum group order (hard limit {MAX_ORDER_CAP}; env FGT_ORDER_CAP)")
    budget.add_argument("--max-subgroups", type=int, default=None, help="lattice subgroup budget")

    parser = argparse.ArgumentParser(prog="fgt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name, handler, help):
        """A leaf command: it takes the budget options and runs ``handler(args, budget)``."""
        leaf = group.add_parser(name, help=help, parents=[budget])
        leaf.set_defaults(handler=handler)
        return leaf

    cat = sub.add_parser("catalog", help="catalog operations").add_subparsers(dest="catalog_command", required=True)
    command(cat, "list", _cmd_catalog_list, "list all catalog GroupSpecs with orders")

    info = sub.add_parser("group", help="group operations").add_subparsers(dest="group_command", required=True)
    command(info, "info", _cmd_group_info, "order profile and predicate profile").add_argument("spec")

    lat = command(sub, "lattice", _cmd_lattice, "export the subgroup lattice (JSON unless --dot)")
    lat.add_argument("spec")
    lat.add_argument("--dot", action="store_true")

    pred = command(sub, "predicate", _cmd_predicate, "evaluate one predicate")
    pred.add_argument("name")
    pred.add_argument("spec")
    pred.add_argument("--subgroup", help="comma-separated generator indices of the subgroup")

    check = command(sub, "check", _cmd_check, "run claims")
    check.add_argument("claim", nargs="?", help="claim id (omit with --all)")
    check.add_argument("--all", action="store_true", help="run every registered claim")
    check.add_argument("--report", help="also write the JSON report to this path")
    check.add_argument("--json", action="store_true", help="print JSON instead of the table")
    check.add_argument("--parallelism", type=int, default=1, help="worker processes for --all")

    search = command(sub, "search", _cmd_search, "search for groups satisfying a predicate expression")
    search.add_argument("expr", help="boolean expression over profile flags, e.g. 'pnc and not dedekind'")
    search.add_argument("--universe", default="catalog",
                        help=f"comma-separated specs, ranges like Dihedral(3..20) up to {MAX_ORDER_CAP}, or 'catalog'")
    return parser


def _budget_from_args(args) -> Budget:
    defaults = Budget()
    return Budget(
        order_cap=args.order_cap if args.order_cap is not None else defaults.order_cap,
        max_subgroups=args.max_subgroups if args.max_subgroups is not None else defaults.max_subgroups,
    )


def _cmd_catalog_list(args, budget: Budget) -> int:
    for spec in standard_catalog():
        g = build_group(spec, budget)
        sys.stdout.write(f"{spec.to_string()}\t{g.order}\t{g.label}\n")
    return 0


def _cmd_group_info(args, budget: Budget) -> int:
    g = build_group(parse_spec(args.spec), budget)
    profile = classify_group(g, budget)
    doc = {
        "spec": args.spec,
        "label": g.label,
        "orderProfile": order_fingerprint(g).to_json(),
        "predicates": profile.to_json(),
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_lattice(args, budget: Budget) -> int:
    g = build_group(parse_spec(args.spec), budget)
    lattice = all_subgroups(g, budget)
    if args.dot:
        sys.stdout.write(lattice_to_dot(lattice))
    else:
        sys.stdout.write(lattice_to_json(lattice) + "\n")
    return 0


def _cmd_predicate(args, budget: Budget) -> int:
    g = build_group(parse_spec(args.spec), budget)
    if args.name in GROUP_PREDICATES:
        if args.subgroup:
            raise UnknownClaimError(f"{args.name} is a group predicate; --subgroup not allowed")
        value = GROUP_PREDICATES[args.name](g, budget)
    elif args.name in SUBGROUP_PREDICATES:
        if not args.subgroup:
            raise UnknownClaimError(f"{args.name} needs --subgroup with generator indices")
        gens = [int(x) for x in args.subgroup.split(",")]
        if any(not 0 <= x < g.order for x in gens):
            raise UnknownConstructorError(f"subgroup generator index out of range for order {g.order}")
        h = subgroup_from_generators(g, gens)
        value = SUBGROUP_PREDICATES[args.name](g, h, budget)
    else:
        known = ", ".join(sorted(GROUP_PREDICATES) + sorted(SUBGROUP_PREDICATES))
        raise UnknownClaimError(f"unknown predicate {args.name!r}; known: {known}")
    sys.stdout.write(("true" if value else "false") + "\n")
    return 0


def _cmd_check(args, budget: Budget) -> int:
    if args.parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if args.all:
        results = run_all_claims(budget, parallelism=args.parallelism)
    elif args.claim:
        results = [run_claim(args.claim, budget)]
    else:
        raise UnknownClaimError("check needs a claim id or --all")
    report = emit_report(results, "json")
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report)
    sys.stdout.write(report if args.json else emit_report(results, "markdown"))
    # only mustHold and iff claims can end with verdict "fail"
    return 1 if any(r.verdict == "fail" for r in results) else 0


def _cmd_search(args, budget: Budget) -> int:
    universe = parse_universe(args.universe)
    matches, skipped = counterexample_search(args.expr, universe, budget)
    doc = {
        "expression": args.expr,
        "matches": [m.to_string() for m in matches],
        "skipped": skipped,
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.handler(args, _budget_from_args(args))
    except BudgetExceededError as e:
        sys.stderr.write(f"budget exceeded: {e}\n")
        return 3
    except (FgtError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
