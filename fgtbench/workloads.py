"""The workloads: their inputs, the seed draw and one measured round.

A round is a fixed list of operations run in a fresh worker process.  Every
operation's output is hashed and compared with the golden digests recorded
when the benchmark was added (``golden.json``); a mismatch or an exception
counts as a failed operation.

Inputs for ``lattice`` and ``construct`` come from pools.  Seed 0 takes the
first member of every pool in pool order.  Any other seed draws one member
from each pool and shuffles the order.  Members of one pool cost about the
same (isomorphic groups under another spec, or power-action groups of one
order), so a different seed re-checks a gain on inputs not used while
writing it without changing the size of the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# The claim registry costs 86 s serially with the default budget, which no
# run of this benchmark can hold.  theorem3-valuations (341 power-action
# groups up to order 400) and sn-probe (the S6 lattice) account for 65 s of
# it; those two claims run with this order cap, every other claim with the
# default Budget().  At this cap theorem3-valuations sweeps the power-action
# groups up to order 150 and sn-probe covers S3..S5.
HEAVY_CLAIMS = ("theorem3-valuations", "sn-probe")
HEAVY_CLAIM_ORDER_CAP = 150

WORKLOADS = ("claims", "lattice", "construct")

# Lattice pools: members of a pool are isomorphic, so their lattices have
# the same shape and cost.  Two shapes: large order with few conjugacy
# classes of subgroups, and small order with very many (normal) subgroups.
LATTICE_POOLS = (
    ("Alt(6)", "PSL2(9)"),
    ("Direct(Cyclic(2),Sym(5))", "Direct(Sym(5),Cyclic(2))"),
    ("Direct(Cyclic(3),ElementaryAbelian(2,5))", "Direct(Cyclic(6),ElementaryAbelian(2,4))",
     "Direct(ElementaryAbelian(2,5),Cyclic(3))"),
    ("ElementaryAbelian(2,5)", "Direct(Cyclic(2),ElementaryAbelian(2,4))",
     "Direct(ElementaryAbelian(2,2),ElementaryAbelian(2,3))",
     "Direct(ElementaryAbelian(2,3),ElementaryAbelian(2,2))",
     "Direct(ElementaryAbelian(2,4),Cyclic(2))"),
    ("ElementaryAbelian(3,4)", "Direct(Cyclic(3),ElementaryAbelian(3,3))"),
)

# Large named groups built after the catalog: permutation, matrix and
# Moebius builders at orders where table fill and validation dominate.
NAMED_GROUPS = ("SL2(7)", "GU2_3", "Sym(6)", "Alt(6)", "PSL2(11)")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    first_failure: str | None = None

    def record(self, label: str, ok: bool, error: Exception | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = label if error is None else f"{label}: {error!r}"


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def draw(pools, seed: int) -> list[str]:
    """One member of every pool; seed 0 is the canonical first-member list."""
    if seed == 0:
        return [pool[0] for pool in pools]
    rng = random.Random(seed)
    items = [rng.choice(list(pool)) for pool in pools]
    rng.shuffle(items)
    return items


def construct_pools(golden: dict) -> list[tuple[str, ...]]:
    """Catalog specs and named groups are singleton pools; power-action
    specs are pooled by group order."""
    pools = [(spec,) for spec in golden["construct_catalog"]]
    pools += [(spec,) for spec in NAMED_GROUPS]
    pools += [tuple(specs) for _, specs in sorted(golden["construct_power_action"].items(), key=lambda kv: int(kv[0]))]
    return pools


def inputs(workload: str, seed: int, golden: dict) -> list[str]:
    if workload == "claims":
        return list(golden["claims"])
    if workload == "lattice":
        return draw(LATTICE_POOLS, seed)
    if workload == "construct":
        return draw(construct_pools(golden), seed)
    raise ValueError(f"unknown workload {workload!r}")


# --- operations ---------------------------------------------------------------------
# Each takes the fgt namespace ``fgt`` (modules resolved at call time, so a
# tracer's patched bindings are the ones called) and returns the digest of
# the operation's output.


def claim_budget(fgt, claim_id: str):
    if claim_id in HEAVY_CLAIMS:
        return fgt.config.Budget(order_cap=HEAVY_CLAIM_ORDER_CAP)
    return fgt.config.Budget()


def claim_digest(result) -> str:
    return sha256(json.dumps(result.to_json(timing=False), sort_keys=True))


def lattice_digest(fgt, spec: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = fgt.cli.main(["lattice", spec])
    if rc != 0:
        raise RuntimeError(f"fgt lattice {spec} exited {rc}")
    return sha256(buf.getvalue())


def construct_digest(fgt, spec: str) -> str:
    g = fgt.catalog.build_group(fgt.catalog.parse_spec(spec), fgt.config.Budget())
    return sha256(g.mul.tobytes())


def run_round(fgt, workload: str, items: list[str], golden: dict, span=None) -> Outcome:
    """Run one round of ``workload`` over ``items``, checking every output.

    ``span(name, detail)`` returns a context manager around each operation
    (a tracer's root span); by default operations are not wrapped.
    """
    span = span or (lambda name, detail: contextlib.nullcontext())
    out = Outcome()
    if workload == "claims":
        expected = golden["claims"]

        def one(claim_id):
            with span("op.claim", claim_id):
                try:
                    return fgt.claims.run_claim(claim_id, claim_budget(fgt, claim_id))
                except Exception as e:  # a raising claim is a failed operation
                    return e

        results = [one(c) for c in items]
        for claim_id, result in zip(items, results):
            if isinstance(result, Exception):
                out.record(claim_id, False, result)
            else:
                out.record(claim_id, claim_digest(result) == expected[claim_id])
        # The whole timing-free report is one more checked operation.
        report_ok = not any(isinstance(r, Exception) for r in results) and sha256(
            fgt.claims.emit_report(results, "json", timing=False)) == golden["claims_report"]
        out.record("claims-report", report_ok)
        return out
    if workload == "lattice":
        op, expected, name = lattice_digest, golden["lattice"], "op.lattice"
    elif workload == "construct":
        op, expected, name = construct_digest, golden["construct"], "op.build"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for spec in items:
        error = None
        with span(name, spec):
            try:
                ok = op(fgt, spec) == expected[spec]
            except Exception as e:  # a raising operation is a failed operation
                ok, error = False, e
        out.record(spec, ok, error)
    return out
