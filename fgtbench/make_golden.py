"""Record the golden digests in golden.json from the current fgt source.

Run it only on a commit whose outputs are the reference (the commit that
introduced this benchmark); afterwards every change must reproduce them:

    python3 fgtbench/make_golden.py            # writes fgtbench/golden.json

It records, for every input any seed can draw:
  * claims: sha256 of each claim's ``to_json(timing=False)`` (keys sorted)
    and of the whole ``emit_report(..., timing=False)``;
  * lattice: sha256 of the stdout of ``fgt lattice SPEC``;
  * construct: sha256 of each built ``mul`` table, plus the input pools
    (catalog specs and the power-action specs of the theorem-3 sweep).
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fgt  # noqa: E402
import fgt.claims  # noqa: E402
import fgt.cli  # noqa: E402
from fgt.catalog import GroupSpec, parse_spec, standard_catalog  # noqa: E402
from fgt.claims import _power_action_universe  # noqa: E402

import workloads as wl  # noqa: E402

POWER_ACTION_ORDER_LIMIT = 400  # the theorem-3 sweep's limit under the default budget


def spec_text(spec: GroupSpec) -> str:
    text = spec.to_string()
    if parse_spec(text) != spec:
        raise SystemExit(f"spec {text!r} does not round-trip through parse_spec")
    return text


def main() -> int:
    golden: dict = {}

    ids = [c.id for c in fgt.claims.claim_registry()]
    results = [fgt.claims.run_claim(i, wl.claim_budget(fgt, i)) for i in ids]
    golden["claims"] = {r.claim_id: wl.claim_digest(r) for r in results}
    golden["claims_report"] = wl.sha256(fgt.claims.emit_report(results, "json", timing=False))

    golden["lattice"] = {spec: wl.lattice_digest(fgt, spec) for pool in wl.LATTICE_POOLS for spec in pool}

    catalog = [spec_text(s) for s in standard_catalog()]
    universe, _ = _power_action_universe(POWER_ACTION_ORDER_LIMIT)
    by_order = defaultdict(list)
    for pa in universe:
        by_order[pa.order].append(spec_text(GroupSpec("PowerAction", (pa.p, pa.alpha, *pa.factors))))
    golden["construct_catalog"] = catalog
    golden["construct_power_action"] = {str(o): by_order[o] for o in sorted(by_order)}
    specs = catalog + list(wl.NAMED_GROUPS) + [s for o in sorted(by_order) for s in by_order[o]]
    golden["construct"] = {spec: wl.construct_digest(fgt, spec) for spec in dict.fromkeys(specs)}

    with open(HERE / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"claims {len(golden['claims'])}, lattice {len(golden['lattice'])}, "
          f"construct {len(golden['construct'])} digests written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
