import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_joins_subgroups,
    bfs_class_ids,
    brute_closure,
    brute_normal_closure,
    brute_normalizer,
    exhaustive_subgroups,
    proper_containment,
    subset_scan_subgroups,
)

from fgt.catalog import build_group, parse_spec, standard_catalog
from fgt.claims import _pa_spec, _power_action_universe
from fgt.config import Budget
from fgt.errors import BudgetExceededError, ConsistencyError, InvalidElementError
import fgt.lattice
from fgt.groups import Group, close_under_product, order_fingerprint
from fgt.lattice import (
    Subgroup,
    all_subgroups,
    centralizer_members,
    hasse_edges,
    is_subnormal,
    lattice_to_dot,
    lattice_to_json,
    normal_closure_members,
    normality_sizes,
    normalizer_members,
    second_maximal_subgroups,
    subgroup_as_group,
    subgroup_from_generators,
    subgroup_product,
    sylow_subgroups,
)

BUDGET = Budget()
SMALL_CATALOG = [s.to_string() for s in standard_catalog() if build_group(s, BUDGET).order <= 24]
# the catalog, then every fifth power-action spec of the theorem-3 sweep (orders up to 400): 132 groups
SWEEP_SPECS = list(standard_catalog()) + [_pa_spec(pa) for pa in _power_action_universe(400)[0][::5]]
# the first member of each benchmark lattice pool: large groups with few classes, small ones with many normal subgroups
LATTICE_SPECS = [
    "Alt(6)",
    "Direct(Cyclic(2),Sym(5))",
    "Direct(Cyclic(3),ElementaryAbelian(2,5))",
    "ElementaryAbelian(2,5)",
    "ElementaryAbelian(3,4)",
]


def build(text):
    return build_group(parse_spec(text), BUDGET)


def lattice_sets(g):
    return {frozenset(int(x) for x in s.members) for s in all_subgroups(g, BUDGET).subgroups}


def test_s3_has_six_subgroups():
    lat = all_subgroups(build("Sym(3)"), BUDGET)
    assert len(lat.subgroups) == 6
    assert sorted(s.order for s in lat.subgroups) == [1, 2, 2, 2, 3, 6]


@pytest.mark.parametrize(
    "spec,count",
    [("Dihedral(4)", 10), ("Dicyclic(2)", 6), ("Alt(4)", 10), ("Dihedral(6)", 16)],
)
def test_subgroup_counts_match_exhaustive_oracle(spec, count):
    g = build(spec)
    oracle = exhaustive_subgroups(g.mul)
    assert len(oracle) == count
    assert lattice_sets(g) == oracle


def test_reduced_joins_match_joining_every_cyclic_subgroup():
    for spec in SWEEP_SPECS:
        g = build_group(spec, BUDGET)
        assert lattice_sets(g) == all_joins_subgroups(g.mul, g.generators), spec.to_string()


def test_class_ids_and_normality_match_conjugation_bfs():
    """The classes recorded by the enumeration's orbit walk, against a second conjugation BFS."""
    for spec in SWEEP_SPECS:
        g = build_group(spec, BUDGET)
        lat = all_subgroups(g, BUDGET)
        class_id, normal = bfs_class_ids(g, lat.subgroups)
        assert np.array_equal(lat.class_id, class_id), spec.to_string()
        assert np.array_equal(lat.normal, normal), spec.to_string()


def test_class_sizes_match_iterated_normal_closure():
    """Class records read from the lattice, against normalizer and normal closure from the members alone."""
    for spec in SWEEP_SPECS:
        g = build_group(spec, BUDGET)
        lat = all_subgroups(g, BUDGET)
        for i in lat.rep_indices:
            assert lat.class_sizes(i) == normality_sizes(g, lat.subgroups[i].members), (spec.to_string(), i)


# the restricted-lattice sweep covers the SWEEP_SPECS groups up to this order: 2 556 subgroups of 105 groups
RESTRICTION_MAX_ORDER = 200


def test_restricted_lattices_match_fresh_enumeration(monkeypatch):
    """Lattices of subgroup_as_group children, read off the parent lattice, against enumerating each child.

    The fresh child is a new Group on the child's table and carries no
    embedding, so it is enumerated.  Each parent is a fresh copy of the
    catalog group, so no child lattice is cached from an earlier test.
    """
    calls = {"restricted": 0, "closures": 0}
    restrict, close = fgt.lattice._restricted_lattice, fgt.lattice.close_under_product

    def counted_restrict(*args):
        calls["restricted"] += 1
        return restrict(*args)

    def counted_close(*args, **kwargs):
        calls["closures"] += 1
        return close(*args, **kwargs)

    monkeypatch.setattr(fgt.lattice, "_restricted_lattice", counted_restrict)
    monkeypatch.setattr(fgt.lattice, "close_under_product", counted_close)
    children = restricted_closures = 0
    for spec in SWEEP_SPECS:
        built = build_group(spec, BUDGET)
        if built.order > RESTRICTION_MAX_ORDER:
            continue
        g = Group(built.mul, built.label, built.generators)
        for s in all_subgroups(g, BUDGET).subgroups:
            child = subgroup_as_group(g, s)
            before = calls["closures"]
            lat = all_subgroups(child, BUDGET)
            restricted_closures += calls["closures"] - before
            children += 1
            fresh = all_subgroups(Group(child.mul, child.label, child.generators), BUDGET)
            where = (spec.to_string(), s.order)
            assert lattice_to_json(lat) == lattice_to_json(fresh), where
            for i in range(len(lat.subgroups)):
                assert lat.class_sizes(i) == fresh.class_sizes(i), where
                assert lat.conjugacy_class_size(i) == fresh.conjugacy_class_size(i), where
    assert children == calls["restricted"] == 2556
    assert restricted_closures == 0 < calls["closures"]


# the first member of each lattice pool of the benchmark
LATTICE_BENCH_SPECS = [
    "Alt(6)",
    "Direct(Cyclic(2),Sym(5))",
    "Direct(Cyclic(3),ElementaryAbelian(2,5))",
    "ElementaryAbelian(2,5)",
    "ElementaryAbelian(3,4)",
]


def assert_readers_match_containment_oracle(lat, where):
    """Every reader of the packed containment against the oracle matrix and its transitive reduction."""
    count = len(lat.subgroups)
    inside = proper_containment(lat.subgroups)
    through = inside.astype(np.float32) @ inside.astype(np.float32) > 0  # i < k < j for some k
    covers = inside & ~through
    assert np.array_equal(lat.inside, np.packbits(inside, axis=1)), where  # padding bits included
    assert np.array_equal(lat.maximal, covers[:, -1]), where
    for j in range(count):
        assert np.array_equal(lat.below(j), np.flatnonzero(inside[:, j])), (where, j)
        assert np.array_equal(lat.maximal_inside(j), np.flatnonzero(covers[:, j])), (where, j)
        above = inside[j] & lat.normal
        above[j] = lat.normal[j]
        assert np.array_equal(lat.normal_above(j), np.flatnonzero(above)), (where, j)
    assert hasse_edges(lat) == [(int(i), int(j)) for i, j in zip(*np.nonzero(covers))], where
    second = np.flatnonzero(covers[:, lat.maximal].any(axis=1))
    assert [lat.subgroup_index(s) for s in second_maximal_subgroups(lat.group, BUDGET)] == second.tolist(), where


# subgroup counts at the edges of the packed rows: one subgroup, two, and one whole byte
EDGE_SPECS = {"Cyclic(1)": 1, "Cyclic(5)": 2, "Cyclic(24)": 8}


@pytest.mark.parametrize("spec", SMALL_CATALOG + LATTICE_BENCH_SPECS + sorted(set(EDGE_SPECS) - set(SMALL_CATALOG)))
def test_packed_containment_matches_the_order_blocked_oracle(spec):
    lat = all_subgroups(build(spec), BUDGET)
    assert len(lat.subgroups) == EDGE_SPECS.get(spec, len(lat.subgroups))
    assert_readers_match_containment_oracle(lat, spec)


@pytest.mark.parametrize("spec", LATTICE_BENCH_SPECS + ["Sym(4)", "Cyclic(24)"])
def test_lattice_in_64_byte_blocks_matches_the_oracle(monkeypatch, spec):
    """Every block loop of enumeration, containment, covers and Hasse edges runs many times."""
    built = build(spec)
    expected = lattice_to_json(all_subgroups(built, BUDGET))
    monkeypatch.setattr(fgt.lattice, "_BLOCK_BYTES", 64)
    lat = all_subgroups(Group(built.mul, built.label, built.generators), BUDGET)
    assert_readers_match_containment_oracle(lat, spec)
    assert lattice_to_json(lat) == expected


def test_restricted_containment_matches_the_order_blocked_oracle(monkeypatch):
    """The children of every class representative of the sweep groups up to RESTRICTION_MAX_ORDER."""
    calls = {"restricted": 0}
    restrict = fgt.lattice._restricted_lattice

    def counted_restrict(*args):
        calls["restricted"] += 1
        return restrict(*args)

    monkeypatch.setattr(fgt.lattice, "_restricted_lattice", counted_restrict)
    children = 0
    for spec in SWEEP_SPECS:
        built = build_group(spec, BUDGET)
        if built.order > RESTRICTION_MAX_ORDER:
            continue
        g = Group(built.mul, built.label, built.generators)
        for s in all_subgroups(g, BUDGET).class_representatives():
            child = subgroup_as_group(g, s)
            assert_readers_match_containment_oracle(all_subgroups(child, BUDGET), (spec.to_string(), s.order))
            children += 1
    assert children == calls["restricted"] > 0


def test_subgroup_as_group_relabels_a4_in_s4():
    s4 = build("Sym(4)")
    a4 = all_subgroups(s4, BUDGET).subgroups_of_order(12)[0]
    child = subgroup_as_group(s4, a4)
    assert child.order == 12
    assert child.generators
    assert close_under_product(child.mul, child.generators, cutoff_to_full=False).size == 12
    assert order_fingerprint(child).order_counts == ((1, 1), (2, 3), (3, 8))
    # element i of the child is a4.members[i] of S4
    assert np.array_equal(a4.members[child.mul], s4.mul[np.ix_(a4.members, a4.members)])


def test_subgroup_as_group_rejects_a_set_not_closed():
    s4 = build("Sym(4)")
    x = int(np.flatnonzero(s4.element_orders() == 3)[0])
    with pytest.raises(InvalidElementError):
        subgroup_as_group(s4, Subgroup(s4, [0, x]))


def test_restricted_lattice_over_budget_raises_like_enumeration():
    """Under a subgroup budget below the child's count, restriction fails as enumeration does."""
    built = build("Sym(4)")
    g = Group(built.mul, built.label, built.generators)
    a4 = all_subgroups(g, BUDGET).subgroups_of_order(12)[0]
    child = subgroup_as_group(g, a4)
    fresh = Group(child.mul, child.label, child.generators)
    tight = Budget(max_subgroups=9)  # A4 has 10 subgroups
    with pytest.raises(BudgetExceededError) as restricted:
        all_subgroups(child, tight)
    with pytest.raises(BudgetExceededError) as enumerated:
        all_subgroups(fresh, tight)
    assert restricted.value.partial == enumerated.value.partial == 9
    assert len(all_subgroups(child, Budget(max_subgroups=10)).subgroups) == 10


def test_non_generating_conjugators_raise_typed_error():
    """Orbits walked under one element of Sym(4) are cut short; the orbit-stabilizer check catches it."""
    g = build("Sym(4)")
    fresh = Group(g.mul, g.label, g.generators)
    fresh.generators = (g.generators[0],)
    with pytest.raises(ConsistencyError):
        all_subgroups(fresh, BUDGET)


@pytest.mark.parametrize("spec", ["Sym(4)", "GU2_3", "Direct(Cyclic(3),ElementaryAbelian(2,5))"])
def test_product_set_is_the_join_when_c_normalizes_h(spec):
    g = build(spec)
    subgroups = all_subgroups(g, BUDGET).subgroups
    rng = np.random.default_rng(0)
    for i in rng.choice(len(subgroups), size=40):
        h = subgroups[i].members
        x = rng.choice(normalizer_members(g, h))
        c = brute_closure(g.mul, [x])
        product_set = np.unique(g.mul[np.ix_(h, c)])
        assert np.array_equal(product_set, brute_closure(g.mul, np.concatenate([h, c]))), (i, x)


def test_the_element_search_finds_the_sets_of_the_subset_scan():
    # every catalog group of order at most 20, the scan's reach in a few seconds
    for spec in standard_catalog():
        g = build_group(spec, BUDGET)
        if g.order <= 20:
            assert exhaustive_subgroups(g.mul) == subset_scan_subgroups(g.mul), spec.to_string()


def test_exhaustive_oracle_agreement_order_20_24():
    for spec in ("PowerAction(2,2,(5,1,3))", "SL2(3)"):
        g = build(spec)
        assert lattice_sets(g) == exhaustive_subgroups(g.mul)


def test_normalizer_against_brute_force():
    for spec in ("Sym(4)", "Dihedral(6)", "SL2(3)"):
        g = build(spec)
        lat = all_subgroups(g, BUDGET)
        for s in lat.subgroups:
            got = set(normalizer_members(g, s.members).tolist())
            want = brute_normalizer(g.mul, g.inv, set(s.members.tolist()))
            assert got == want


def test_normalizers_from_recorded_generators_against_brute_force():
    """N_G(H) from the generating set the lattice records for H, on every class representative."""
    reps = 0
    for spec in SWEEP_SPECS:
        g = build_group(spec, BUDGET)
        if g.order > RESTRICTION_MAX_ORDER:
            continue
        lat = all_subgroups(g, BUDGET)
        for i in lat.rep_indices:
            s = lat.subgroups[i]
            gens = lat.gen_flat[lat.gen_start[i] : lat.gen_start[i + 1]]
            got = set(normalizer_members(g, s.members, gens).tolist())
            assert got == brute_normalizer(g.mul, g.inv, set(s.members.tolist())), (spec.to_string(), i)
            reps += 1
    assert reps > 0


def test_normal_closure_against_brute_force():
    for spec in ("Sym(4)", "Dicyclic(3)"):
        g = build(spec)
        lat = all_subgroups(g, BUDGET)
        for s in lat.subgroups:
            got = set(normal_closure_members(g, s.members).tolist())
            want = brute_normal_closure(g.mul, g.inv, set(s.members.tolist()))
            assert got == want


def test_normalizer_basic_examples():
    s3 = build("Sym(3)")
    whole = Subgroup(s3, np.arange(6))
    assert normalizer_members(s3, whole.members).size == 6
    transposition = subgroup_from_generators(s3, [1])
    assert np.array_equal(normalizer_members(s3, transposition.members), transposition.members)
    assert normal_closure_members(s3, transposition.members).size == 6


def test_center_examples():
    for spec, order in (("Cyclic(12)", 12), ("Dihedral(4)", 2), ("Dicyclic(2)", 2)):
        g = build(spec)
        assert centralizer_members(g, np.arange(g.order)).size == order


def test_centralizer_is_subgroup_of_normalizer():
    g = build("Sym(4)")
    lat = all_subgroups(g, BUDGET)
    for s in lat.subgroups:
        c = centralizer_members(g, s.members)
        n = normalizer_members(g, s.members)
        assert np.isin(c, n).all()


def test_subnormal_examples():
    c12 = build("Cyclic(12)")
    for s in all_subgroups(c12, BUDGET).subgroups:
        assert is_subnormal(c12, s)
    s3 = build("Sym(3)")
    assert not is_subnormal(s3, subgroup_from_generators(s3, [1]))


def test_sylow_examples():
    s3 = build("Sym(3)")
    assert [s.order for s in sylow_subgroups(s3, 3, BUDGET)] == [3]
    assert [s.order for s in sylow_subgroups(s3, 2, BUDGET)] == [2, 2, 2]
    assert [s.order for s in sylow_subgroups(s3, 5, BUDGET)] == [1]


def test_sylow_counts_congruent_one_mod_p():
    for spec in ("Sym(4)", "Alt(5)", "SL2(3)", "Dihedral(6)"):
        g = build(spec)
        from fgt.predicates import primes_of

        for p in primes_of(g.order):
            count = len(sylow_subgroups(g, p, BUDGET))
            assert count % p == 1


def test_sylow_subgroups_are_conjugate():
    g = build("Sym(4)")
    syl = sylow_subgroups(g, 2, BUDGET)
    first = syl[0]
    orbits = {Subgroup(g, g.conjugates(x, first.members)).key for x in range(g.order)}
    assert {s.key for s in syl} == orbits


def test_maximal_subgroups_of_c6():
    got = sorted(s.order for s in all_subgroups(build("Cyclic(6)"), BUDGET).maximal_subgroups())
    assert got == [2, 3]


def test_maximal_subgroups_of_dihedral_6():
    # the index-p dihedral subgroups for both primes p | 6, plus the rotations:
    # three Klein-four D2-type, two S3-shaped D3-type, and C6
    g = build("Dihedral(6)")
    maxes = all_subgroups(g, BUDGET).maximal_subgroups()
    profiles = sorted((m.order, order_fingerprint(g, m.members).abelian) for m in maxes)
    assert profiles == [(4, True), (4, True), (4, True), (6, False), (6, False), (6, True)]


def test_maximal_subgroups_of_a5_profiles():
    g = build("Alt(5)")
    refs = {
        order_fingerprint(build("Alt(4)")).key(),
        order_fingerprint(build("Dihedral(5)")).key(),
        order_fingerprint(build("Sym(3)")).key(),
    }
    got = {order_fingerprint(g, m.members).key() for m in all_subgroups(g, BUDGET).maximal_subgroups()}
    assert got == refs


def test_second_maximal_subgroups_of_c12():
    got = sorted(s.order for s in second_maximal_subgroups(build("Cyclic(12)"), BUDGET))
    assert got == [2, 3]


def test_subgroup_product_examples():
    g = build("Sym(3)")
    whole = Subgroup(g, np.arange(6))
    triv = Subgroup(g, [0])
    assert subgroup_product(g, whole, triv) == (6, True)
    assert subgroup_product(g, triv, triv) == (1, False)


@pytest.mark.parametrize("spec", ["Dihedral(6)", "Sym(4)", "SL2(3)", "D4SemiS3"])
def test_subgroup_product_formula_matches_enumeration(spec):
    """|AB| = |A||B|/|A n B| for every pair, whether or not a factor is normal."""
    g = build(spec)
    subs = all_subgroups(g, BUDGET).subgroups
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = subs[rng.integers(len(subs))]
        b = subs[rng.integers(len(subs))]
        literal = int(np.unique(g.mul[np.ix_(a.members, b.members)]).size)
        assert subgroup_product(g, a, b) == (literal, literal == g.order), (a.members, b.members)


def test_join_meet_examples():
    g = build("Sym(3)")
    t1 = subgroup_from_generators(g, [1])
    assert subgroup_from_generators(g, [1, 1]).key == t1.key
    assert subgroup_from_generators(g, [1, 2]).order == 6
    c6 = build("Cyclic(6)")
    c2 = subgroup_from_generators(c6, [3])
    c3 = subgroup_from_generators(c6, [2])
    assert np.intersect1d(c2.members, c3.members).tolist() == [0]


def test_normal_subgroups_examples():
    assert sorted(s.order for s in all_subgroups(build("Sym(3)"), BUDGET).normal_subgroups()) == [1, 3, 6]
    assert sorted(s.order for s in all_subgroups(build("PSL2(5)"), BUDGET).normal_subgroups()) == [1, 60]
    assert len(all_subgroups(build("Dicyclic(2)"), BUDGET).normal_subgroups()) == 6


def test_lattice_closed_under_conjugation():
    g = build("Sym(4)")
    lat = all_subgroups(g, BUDGET)
    keys = set(lat.index_by_key)
    for s in lat.subgroups:
        for x in range(g.order):
            assert Subgroup(g, g.conjugates(x, s.members)).key in keys


def test_orbit_stabilizer_on_s4():
    g = build("Sym(4)")
    lat = all_subgroups(g, BUDGET)
    for i, s in enumerate(lat.subgroups):
        assert normalizer_members(g, s.members).size * lat.conjugacy_class_size(i) == g.order


def test_normal_closure_is_meet_of_normal_overgroups_up_to_120():
    from fgt.catalog import standard_catalog

    for spec in standard_catalog():
        g = build_group(spec, BUDGET)
        if g.order > 120:
            continue
        lat = all_subgroups(g, BUDGET)
        normals = lat.normal_subgroups()
        for s in lat.subgroups:
            clo = normal_closure_members(g, s.members)
            containing = [n for n in normals if n.mask()[s.members].all()]
            meet = containing[0].members
            for n in containing[1:]:
                meet = np.intersect1d(meet, n.members)
            assert np.array_equal(clo, meet), spec.to_string()


def test_budget_exhaustion_raises_with_partial_count():
    with pytest.raises(BudgetExceededError) as err:
        all_subgroups(build("Sym(4)"), Budget(max_subgroups=3))
    assert err.value.partial is not None


def _budget_outcome(g, m):
    """What ``all_subgroups(g, Budget(max_subgroups=m))`` gives: the error's text and partial, or the lattice's JSON."""
    try:
        return lattice_to_json(all_subgroups(g, Budget(max_subgroups=m)))
    except BudgetExceededError as err:
        return str(err), err.partial


def _lattices_held(g):
    return [v for v in g._cache.values() if isinstance(v, fgt.lattice.SubgroupLattice)]


@pytest.mark.parametrize("spec", ["Sym(4)", "Dihedral(12)", "ElementaryAbelian(2,4)", "SL2(3)"])
def test_a_held_lattice_raises_what_a_fresh_enumeration_raises(monkeypatch, spec):
    """The one lattice a group keeps answers every ``max_subgroups`` as enumerating afresh under it would.

    The reference is a fresh group on the same table, enumerated under each
    budget m.  It is checked against a group that already holds its lattice
    from the default budget, and against a child, its largest proper
    subgroup, whose lattice was read off the parent's.  After calls under
    several budgets each group holds exactly one lattice.
    """
    restricted = []
    restrict = fgt.lattice._restricted_lattice
    monkeypatch.setattr(fgt.lattice, "_restricted_lattice", lambda *a: restricted.append(1) or restrict(*a))
    built = build(spec)
    parent = Group(built.mul, built.label, built.generators)
    child = subgroup_as_group(parent, all_subgroups(parent, BUDGET).subgroups[-2])
    all_subgroups(child, BUDGET)
    assert restricted == [1]
    for g in (parent, child):
        total = len(all_subgroups(g, BUDGET).subgroups)
        for m in sorted({0, 1, total // 3, total // 2, total - 1, total, total + 1}):
            expected = _budget_outcome(Group(g.mul, g.label, g.generators), m)
            assert _budget_outcome(g, m) == expected, (spec, g.label, m)
            if m < total:
                assert expected == (f"subgroup budget {m} exceeded", m), (spec, g.label, m)
        assert len(_lattices_held(g)) == 1, (spec, g.label)


@pytest.mark.parametrize(
    "spec",
    ["Direct(Cyclic(6),Cyclic(6))", "Direct(Cyclic(3),ElementaryAbelian(2,5))", "Direct(Cyclic(2),Sym(5))"],
)
def test_zuppo_joins_match_joining_every_cyclic_subgroup(spec):
    """Groups with many cyclic subgroups of composite order, which joins with zuppos alone must still reach."""
    g = build(spec)
    lat = all_subgroups(g, BUDGET)
    assert lattice_sets(g) == all_joins_subgroups(g.mul, g.generators)
    class_id, normal = bfs_class_ids(g, lat.subgroups)
    assert np.array_equal(lat.class_id, class_id)
    assert np.array_equal(lat.normal, normal)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 23), st.integers(0, 23), st.integers(0, 23))
def test_closure_from_a_marked_subgroup_matches_closure_from_the_identity(x, y, z):
    """Closing <x, y> under its generators and z, from <x, y>'s members, against closing every member."""
    from fgt.groups import close_under_product

    g = build("Sym(4)")
    base = close_under_product(g.mul, [x, y])
    assert np.array_equal(
        close_under_product(g.mul, [x, y, z], start=base), close_under_product(g.mul, np.append(base, z))
    )


def test_lattice_json_is_deterministic_and_well_formed():
    import json

    g = build("Dihedral(4)")
    lat = all_subgroups(g, BUDGET)
    doc1 = lattice_to_json(lat)
    doc2 = lattice_to_json(all_subgroups(g, BUDGET))
    assert doc1 == doc2
    parsed = json.loads(doc1)
    assert len(parsed["subgroups"]) == 10
    assert all(set(e.keys()) == {"order", "members", "normal", "maximal", "classId"} for e in parsed["subgroups"])
    assert parsed["hasse"]


@pytest.mark.parametrize("spec", SMALL_CATALOG)
def test_hasse_edges_are_covers(spec):
    g = build(spec)
    lat = all_subgroups(g, BUDGET)
    oracle = exhaustive_subgroups(g.mul)
    index = {frozenset(int(x) for x in s.members): i for i, s in enumerate(lat.subgroups)}
    assert set(index) == oracle
    covers = [(a, b) for a in oracle for b in oracle if a < b and not any(a < c < b for c in oracle)]
    assert hasse_edges(lat) == sorted((index[a], index[b]) for a, b in covers)
    maximal = {a for a, b in covers if len(b) == g.order}
    assert {a for a, i in index.items() if lat.maximal[i]} == maximal
    second = sorted({index[a] for a, b in covers if b in maximal})
    assert second == [index[frozenset(int(x) for x in s.members)] for s in second_maximal_subgroups(g, BUDGET)]


def test_dot_export_marks_normal_subgroups():
    dot = lattice_to_dot(all_subgroups(build("Sym(3)"), BUDGET))
    assert dot.count("doublecircle") == 3
    assert dot.startswith("digraph")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 23), st.integers(0, 23))
def test_join_meet_laws_on_s4(x, y):
    g = build("Sym(4)")
    a = subgroup_from_generators(g, [x])
    b = subgroup_from_generators(g, [y])
    join = subgroup_from_generators(g, [x, y])
    meet = Subgroup(g, np.intersect1d(a.members, b.members))
    assert join.mask()[a.members].all() and join.mask()[b.members].all()
    assert a.mask()[meet.members].all() and b.mask()[meet.members].all()
    assert g.order % join.order == 0 and g.order % meet.order == 0


def test_subgroup_index_of_a_non_subgroup_raises_typed_error():
    g = build("Cyclic(6)")
    lat = all_subgroups(g, BUDGET)
    assert lat.subgroup_index(Subgroup(g, [0, 3])) >= 0
    with pytest.raises(ConsistencyError):
        lat.subgroup_index(Subgroup(g, [0, 1]))


@pytest.mark.parametrize("spec,solvable", [("SL2(5)", False), ("Direct(Sym(4),Dihedral(5))", True)])
def test_closures_only_in_the_residual_match_joining_every_cyclic_subgroup(monkeypatch, spec, solvable):
    """Joins closed only inside the solvable residual, against closing every join with every cyclic subgroup.

    SL(2,5) is perfect, so its residual is the whole group; S4 x D5 (order 240)
    is solvable, so its enumeration closes nothing.  C2 x S5 is checked by
    ``test_zuppo_joins_match_joining_every_cyclic_subgroup``.
    """
    built = build(spec)
    g = Group(built.mul, spec, built.generators)  # no cached lattice; the residual is computed before counting
    assert (fgt.lattice.derived_series(g).terms[-1].size == 1) == solvable
    calls = []
    closure = fgt.lattice.close_under_product
    monkeypatch.setattr(fgt.lattice, "close_under_product", lambda *a, **k: calls.append(1) or closure(*a, **k))
    lat = all_subgroups(g, BUDGET)
    assert (not calls) == solvable
    assert {frozenset(s.members.tolist()) for s in lat.subgroups} == all_joins_subgroups(g.mul, g.generators)


@pytest.mark.parametrize("spec", [s.to_string() for s in standard_catalog()] + LATTICE_SPECS)
def test_recorded_generators_close_to_their_subgroups(spec):
    """Each subgroup's slice of ``gen_flat``, from product sets, closures and orbit walks, generates it."""
    g = build(spec)
    lat = all_subgroups(g, BUDGET)
    for i, s in enumerate(lat.subgroups):
        gens = lat.gen_flat[lat.gen_start[i] : lat.gen_start[i + 1]]
        assert np.array_equal(brute_closure(g.mul, gens, cutoff_to_full=False), s.members), (spec, i)


def test_tight_budgets_raise_with_a_partial_count_on_batched_and_closed_joins():
    """C2 x S5 has normal representatives (batched joins) and closed joins in its residual A5.

    Each tight budget stops a fresh enumeration, on a group that holds no lattice yet.
    """
    g = build("Direct(Cyclic(2),Sym(5))")
    total = len(all_subgroups(g, BUDGET).subgroups)
    for budget in (Budget(max_subgroups=40), Budget(max_subgroups=total - 1)):
        with pytest.raises(BudgetExceededError) as err:
            all_subgroups(Group(g.mul, g.label, g.generators), budget)
        assert 0 < err.value.partial <= total, budget
    assert len(all_subgroups(g, Budget(max_subgroups=total)).subgroups) == total


# builds the lattice of C2 x S5 and runs the member-level helpers that once called a value-only np.unique
NUMPY_MA_SCRIPT = """
import sys
from fgt.catalog import build_group, parse_spec
from fgt.groups import commutators
from fgt.lattice import Subgroup, all_subgroups, derived_series, normal_closure_members
g = build_group(parse_spec("Direct(Cyclic(2),Sym(5))"))
lat = all_subgroups(g)
s = lat.subgroups[len(lat.subgroups) // 2]
Subgroup(g, s.members[::-1])
normal_closure_members(g, s.members)
commutators(g, s.members, s.members)
derived_series(g)
print("numpy.ma" in sys.modules)
"""


def test_the_lattice_path_leaves_numpy_ma_unimported():
    """A value-only ``np.unique`` imports ``numpy.ma`` (11-12 ms) on first use; the lattice path marks masks instead."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NUMPY_MA_SCRIPT], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False"]
