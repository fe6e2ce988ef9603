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
)

from fgt.catalog import build_group, parse_spec, standard_catalog
from fgt.claims import _pa_spec, _power_action_universe
from fgt.config import Budget
from fgt.errors import BudgetExceededError, ConsistencyError
import fgt.lattice
from fgt.groups import Group, extract_subgroup_as_group, order_fingerprint
from fgt.lattice import (
    Subgroup,
    all_subgroups,
    center,
    centralizer,
    conjugate_subgroup,
    hasse_edges,
    is_normal,
    is_subnormal,
    lattice_to_dot,
    lattice_to_json,
    maximal_subgroups,
    normal_closure,
    normal_subgroups,
    normality_sizes,
    normalizer,
    normalizer_members,
    product_set,
    second_maximal_subgroups,
    subgroup_from_generators,
    subgroup_join,
    subgroup_meet,
    subgroup_product,
    sylow_subgroups,
    trivial_subgroup,
)
from fgt.predicates import subgroup_as_group

BUDGET = Budget()
SMALL_CATALOG = [s.to_string() for s in standard_catalog() if build_group(s, BUDGET).order <= 24]
# the catalog, then every fifth power-action spec of the theorem-3 sweep (orders up to 400): 132 groups
SWEEP_SPECS = list(standard_catalog()) + [_pa_spec(pa) for pa in _power_action_universe(400)[0][::5]]


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

    The fresh child comes from extract_subgroup_as_group and carries no
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
            fresh = all_subgroups(extract_subgroup_as_group(g, s.members, child.label)[0], BUDGET)
            where = (spec.to_string(), s.order)
            assert lattice_to_json(lat) == lattice_to_json(fresh), where
            for i in range(len(lat.subgroups)):
                assert lat.class_sizes(i) == fresh.class_sizes(i), where
                assert lat.conjugacy_class_size(i) == fresh.conjugacy_class_size(i), where
    assert children == calls["restricted"] == 2556
    assert restricted_closures == 0 < calls["closures"]


def test_restricted_lattice_over_budget_raises_like_enumeration():
    """Under a subgroup budget below the child's count, restriction fails as enumeration does."""
    built = build("Sym(4)")
    g = Group(built.mul, built.label, built.generators)
    a4 = all_subgroups(g, BUDGET).subgroups_of_order(12)[0]
    child = subgroup_as_group(g, a4)
    fresh, _ = extract_subgroup_as_group(g, a4.members)
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
        assert np.array_equal(product_set(g.mul, h, c), brute_closure(g.mul, np.concatenate([h, c]))), (i, x)


def test_exhaustive_oracle_agreement_order_20_24():
    for spec in ("PowerAction(2,2,(5,1,3))", "SL2(3)"):
        g = build(spec)
        assert lattice_sets(g) == exhaustive_subgroups(g.mul)


def test_normalizer_against_brute_force():
    for spec in ("Sym(4)", "Dihedral(6)", "SL2(3)"):
        g = build(spec)
        lat = all_subgroups(g, BUDGET)
        for s in lat.subgroups:
            got = set(normalizer(g, s).members.tolist())
            want = brute_normalizer(g.mul, g.inv, set(s.members.tolist()))
            assert got == want


def test_normal_closure_against_brute_force():
    for spec in ("Sym(4)", "Dicyclic(3)"):
        g = build(spec)
        lat = all_subgroups(g, BUDGET)
        for s in lat.subgroups:
            got = set(normal_closure(g, s).members.tolist())
            want = brute_normal_closure(g.mul, g.inv, set(s.members.tolist()))
            assert got == want


def test_normalizer_basic_examples():
    s3 = build("Sym(3)")
    whole = Subgroup(s3, np.arange(6))
    assert normalizer(s3, whole).order == 6
    transposition = subgroup_from_generators(s3, [1])
    assert normalizer(s3, transposition).key == transposition.key
    assert normal_closure(s3, transposition).order == 6


def test_center_examples():
    assert center(build("Cyclic(12)")).order == 12
    assert center(build("Dihedral(4)")).order == 2
    assert center(build("Dicyclic(2)")).order == 2


def test_centralizer_is_subgroup_of_normalizer():
    g = build("Sym(4)")
    lat = all_subgroups(g, BUDGET)
    for s in lat.subgroups:
        c = centralizer(g, s)
        n = normalizer(g, s)
        assert n.mask()[c.members].all()


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
    orbits = {conjugate_subgroup(g, first, x).key for x in range(g.order)}
    assert {s.key for s in syl} == orbits


def test_maximal_subgroups_of_c6():
    got = sorted(s.order for s in maximal_subgroups(build("Cyclic(6)"), BUDGET))
    assert got == [2, 3]


def test_maximal_subgroups_of_dihedral_6():
    # the index-p dihedral subgroups for both primes p | 6, plus the rotations:
    # three Klein-four D2-type, two S3-shaped D3-type, and C6
    g = build("Dihedral(6)")
    maxes = maximal_subgroups(g, BUDGET)
    profiles = sorted((m.order, order_fingerprint(g, m.members).abelian) for m in maxes)
    assert profiles == [(4, True), (4, True), (4, True), (6, False), (6, False), (6, True)]


def test_maximal_subgroups_of_a5_profiles():
    g = build("Alt(5)")
    refs = {
        order_fingerprint(build("Alt(4)")).key(),
        order_fingerprint(build("Dihedral(5)")).key(),
        order_fingerprint(build("Sym(3)")).key(),
    }
    got = {order_fingerprint(g, m.members).key() for m in maximal_subgroups(g, BUDGET)}
    assert got == refs


def test_second_maximal_subgroups_of_c12():
    got = sorted(s.order for s in second_maximal_subgroups(build("Cyclic(12)"), BUDGET))
    assert got == [2, 3]


def test_subgroup_product_examples():
    g = build("Sym(3)")
    whole = Subgroup(g, np.arange(6))
    triv = trivial_subgroup(g)
    assert subgroup_product(g, whole, triv) == (6, True)
    assert subgroup_product(g, triv, triv) == (1, False)


def test_subgroup_product_formula_matches_enumeration():
    g = build("Dihedral(6)")
    lat = all_subgroups(g, BUDGET)
    rng = np.random.default_rng(7)
    subs = lat.subgroups
    for _ in range(100):
        a = subs[rng.integers(len(subs))]
        b = subs[rng.integers(len(subs))]
        literal = int(np.unique(g.mul[np.ix_(a.members, b.members)]).size)
        if is_normal(g, a) or is_normal(g, b):
            size, _ = subgroup_product(g, a, b)
            assert size == literal


def test_join_meet_examples():
    g = build("Sym(3)")
    t1 = subgroup_from_generators(g, [1])
    t2 = subgroup_from_generators(g, [2])
    assert subgroup_join(g, t1, t1).key == t1.key
    assert subgroup_join(g, t1, t2).order == 6
    c6 = build("Cyclic(6)")
    c2 = subgroup_from_generators(c6, [3])
    c3 = subgroup_from_generators(c6, [2])
    assert subgroup_meet(c6, c2, c3).order == 1


def test_normal_subgroups_examples():
    assert sorted(s.order for s in normal_subgroups(build("Sym(3)"), BUDGET)) == [1, 3, 6]
    assert sorted(s.order for s in normal_subgroups(build("PSL2(5)"), BUDGET)) == [1, 60]
    assert len(normal_subgroups(build("Dicyclic(2)"), BUDGET)) == 6


def test_lattice_closed_under_conjugation():
    g = build("Sym(4)")
    lat = all_subgroups(g, BUDGET)
    keys = set(lat.index_by_key)
    for s in lat.subgroups:
        for x in range(g.order):
            assert conjugate_subgroup(g, s, x).key in keys


def test_orbit_stabilizer_on_s4():
    g = build("Sym(4)")
    lat = all_subgroups(g, BUDGET)
    for i, s in enumerate(lat.subgroups):
        assert normalizer(g, s).order * lat.conjugacy_class_size(i) == g.order


def test_normal_closure_is_meet_of_normal_overgroups_up_to_120():
    from fgt.catalog import standard_catalog

    for spec in standard_catalog():
        g = build_group(spec, BUDGET)
        if g.order > 120:
            continue
        lat = all_subgroups(g, BUDGET)
        normals = lat.normal_subgroups()
        for s in lat.subgroups:
            clo = normal_closure(g, s)
            containing = [n for n in normals if n.mask()[s.members].all()]
            meet = containing[0]
            for n in containing[1:]:
                meet = subgroup_meet(g, meet, n)
            assert clo.key == meet.key, spec.to_string()


def test_budget_exhaustion_raises_with_partial_count():
    with pytest.raises(BudgetExceededError) as err:
        all_subgroups(build("Sym(4)"), Budget(max_subgroups=3))
    assert err.value.partial is not None
    with pytest.raises(BudgetExceededError) as err:
        all_subgroups(build("Sym(4)"), Budget(max_join_attempts=2))
    assert err.value.partial is not None


def test_join_budget_is_checked_before_each_batch():
    """A join budget stops the enumeration before a representative's joins, so ``partial`` counts whole batches.

    The trivial subgroup is the first representative with joins, so a budget
    of 0 stops with exactly the cyclic subgroups found.  A larger budget stops
    at a later batch and never past the whole lattice.
    """
    g = build("Sym(4)")
    cyclic = {frozenset(brute_closure(g.mul, [x]).tolist()) for x in range(g.order)}
    total = len(all_subgroups(g, BUDGET).subgroups)
    partials = []
    while True:
        try:
            lat = all_subgroups(g, Budget(max_join_attempts=len(partials)))
        except BudgetExceededError as err:
            partials.append(err.partial)
        else:
            assert lattice_sets(g) == {frozenset(int(x) for x in s.members) for s in lat.subgroups}
            break
    assert partials[0] == len(cyclic) == 17
    assert partials == sorted(partials) and partials[-1] <= total


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
    join = subgroup_join(g, a, b)
    meet = subgroup_meet(g, a, b)
    assert join.mask()[a.members].all() and join.mask()[b.members].all()
    assert a.mask()[meet.members].all() and b.mask()[meet.members].all()
    assert g.order % join.order == 0 and g.order % meet.order == 0


def test_subgroup_index_of_a_non_subgroup_raises_typed_error():
    g = build("Cyclic(6)")
    lat = all_subgroups(g, BUDGET)
    assert lat.subgroup_index(Subgroup(g, [0, 3])) >= 0
    with pytest.raises(ConsistencyError):
        lat.subgroup_index(Subgroup(g, [0, 1]))
