"""Per-layer metrics of a traced round.

BENCHMARK.json lists the same metrics; README.md names the end-to-end
metric and workload each should move.  A layer a workload does not touch
reads 0 on that workload.
"""

from __future__ import annotations

from pathlib import Path

from tracer import CLOSURE, GROUP_INIT, LATTICE_INIT, Stat

# (name, unit); README.md maps each to the end-to-end metric it should move.
FIXED_METRICS = (
    ("groups.Group.init.calls", "count"),
    ("groups.Group.init.s", "s"),
    ("catalog.build_group.calls", "count"),
    ("catalog.build_group.misses", "count"),
    ("catalog.build_group.hit_ratio", "ratio"),
    ("catalog.build_group.self_s", "s"),
    ("groups.direct_product.s", "s"),
    ("groups.quotient_group.calls", "count"),
    ("groups.quotient_group.s", "s"),
    ("fields.mat_mul.calls", "count"),
    ("fields.perm_compose.calls", "count"),
    ("lattice.all_subgroups.calls", "count"),
    ("lattice.all_subgroups.built", "count"),
    ("lattice.all_subgroups.self_s", "s"),
    ("lattice.close_under_product.calls", "count"),
    ("lattice.close_under_product.s", "s"),
    ("lattice.subgroups", "count"),
    ("lattice.join_yield", "subgroups/call"),
    ("lattice.SubgroupLattice.init.s", "s"),
    ("lattice.hasse_edges.s", "s"),
    ("lattice.lattice_to_json.self_s", "s"),
    ("lattice.normalizer_members.calls", "count"),
    ("lattice.normalizer_members.s", "s"),
    ("lattice.normal_closure_members.calls", "count"),
    ("lattice.normal_closure_members.s", "s"),
    ("predicates.self_s", "s"),
    ("predicates.pnc_witness.calls", "count"),
    ("predicates.pnc_witness.self_s", "s"),
    ("predicates.classify_group.calls", "count"),
    ("predicates.classify_group.self_s", "s"),
    ("predicates.is_supersolvable.calls", "count"),
    ("predicates.is_supersolvable.self_s", "s"),
    ("predicates.is_nc_subgroup.calls", "count"),
    ("groups.self_s", "s"),
    ("catalog.self_s", "s"),
    ("lattice.self_s", "s"),
    ("claims.self_s", "s"),
    ("claims.critical_path_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("code.src_fgt_lines", "count"),
)


def claim_metric(claim_id: str) -> str:
    return f"claims.{claim_id}.s"


def metric_specs(claim_ids) -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), claims per id included."""
    return list(FIXED_METRICS) + [(claim_metric(c), "s") for c in claim_ids]


def unit_of(name: str) -> str:
    for metric, unit in FIXED_METRICS:
        if metric == name:
            return unit
    if name.startswith("claims.") and name.endswith(".s"):
        return "s"
    raise KeyError(name)


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src" / "fgt").rglob("*.py")))


def layer_metrics(stats: dict[str, Stat], spans: list[tuple], claim_ids) -> dict[str, float]:
    """Per-layer values of one traced round (trace/code bookkeeping excluded)."""
    zero = Stat()

    def st(name):
        return stats.get(name, zero)

    def layer_self(layer):
        return sum(s.self_s for n, s in stats.items() if n.split(".", 1)[0] == layer)

    # span tuple: (id, parent, name, detail, thread, start, end, d_inits, d_lattices, d_closures)
    by_name: dict[str, list[tuple]] = {}
    for sp in spans:
        by_name.setdefault(sp[2], []).append(sp)
    builds = by_name.get("catalog.build_group", [])
    misses = sum(1 for sp in builds if sp[7] > 0)
    enums = by_name.get("lattice.all_subgroups", [])
    subgroups = sum(sp[3] for sp in by_name.get(LATTICE_INIT, []))
    enum_closures = sum(sp[9] for sp in enums)
    claim_s = {c: 0.0 for c in claim_ids}
    for sp in by_name.get("claims.run_claim", []):
        if sp[3] in claim_s:
            claim_s[sp[3]] += sp[6] - sp[5]

    calls = st("catalog.build_group").calls
    m = {
        "groups.Group.init.calls": st(GROUP_INIT).calls,
        "groups.Group.init.s": st(GROUP_INIT).total_s,
        "catalog.build_group.calls": calls,
        "catalog.build_group.misses": misses,
        "catalog.build_group.hit_ratio": (1.0 - misses / calls) if calls else 0.0,
        "catalog.build_group.self_s": st("catalog.build_group").self_s,
        "groups.direct_product.s": st("groups.direct_product").total_s,
        "groups.quotient_group.calls": st("groups.quotient_group").calls,
        "groups.quotient_group.s": st("groups.quotient_group").total_s,
        "fields.mat_mul.calls": st("fields.mat_mul").calls,
        "fields.perm_compose.calls": st("fields.perm_compose").calls,
        "lattice.all_subgroups.calls": st("lattice.all_subgroups").calls,
        "lattice.all_subgroups.built": sum(1 for sp in enums if sp[8] > 0),
        "lattice.all_subgroups.self_s": st("lattice.all_subgroups").self_s,
        "lattice.close_under_product.calls": st(CLOSURE).calls,
        "lattice.close_under_product.s": st(CLOSURE).total_s,
        "lattice.subgroups": subgroups,
        "lattice.join_yield": subgroups / enum_closures if enum_closures else 0.0,
        "lattice.SubgroupLattice.init.s": st(LATTICE_INIT).total_s,
        "lattice.hasse_edges.s": st("lattice.hasse_edges").total_s,
        "lattice.lattice_to_json.self_s": st("lattice.lattice_to_json").self_s,
        "lattice.normalizer_members.calls": st("lattice.normalizer_members").calls,
        "lattice.normalizer_members.s": st("lattice.normalizer_members").total_s,
        "lattice.normal_closure_members.calls": st("lattice.normal_closure_members").calls,
        "lattice.normal_closure_members.s": st("lattice.normal_closure_members").total_s,
        "predicates.self_s": layer_self("predicates"),
        "predicates.pnc_witness.calls": st("predicates.pnc_witness").calls,
        "predicates.pnc_witness.self_s": st("predicates.pnc_witness").self_s,
        "predicates.classify_group.calls": st("predicates.classify_group").calls,
        "predicates.classify_group.self_s": st("predicates.classify_group").self_s,
        "predicates.is_supersolvable.calls": st("predicates.is_supersolvable").calls,
        "predicates.is_supersolvable.self_s": st("predicates.is_supersolvable").self_s,
        "predicates.is_nc_subgroup.calls": st("predicates.is_nc_subgroup").calls,
        "groups.self_s": layer_self("groups"),
        "catalog.self_s": layer_self("catalog"),
        "lattice.self_s": layer_self("lattice"),
        "claims.self_s": layer_self("claims"),
        "claims.critical_path_s": max(claim_s.values(), default=0.0),
        "cli.main.self_s": st("cli.main").self_s,
    }
    for c, s in claim_s.items():
        m[claim_metric(c)] = s
    return m
