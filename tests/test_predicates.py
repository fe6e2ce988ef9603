import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_subgroups_generalized_fitting,
    loop_derived_series,
    loop_lower_central_series,
    brute_is_subnormal,
    brute_normal_closure,
    brute_normalizer,
    quotient_walk_fitting_height,
    quotient_walk_p_length,
    quotient_walk_upper_p_series,
    recursive_is_supersolvable,
    sylow_intersection_core,
)

from fgt.catalog import build_group, parse_spec, standard_catalog
from fgt.claims import _pa_spec, _power_action_universe
from fgt import groups, lattice, predicates
from fgt.config import Budget
from fgt.errors import BudgetExceededError, NotApplicableError, NotSolvableError
from fgt.groups import order_fingerprint
from fgt.lattice import (
    Subgroup,
    all_subgroups,
    is_subnormal,
    subgroup_as_group,
    subgroup_from_generators,
    sylow_subgroups,
)
from fgt.predicates import (
    GROUP_CLASSES,
    classify_group,
    fitting_chain,
    commutator_subgroup,
    fitting_height,
    fitting_subgroup,
    frattini_subgroup,
    generalized_fitting,
    is_dedekind,
    is_h_subgroup,
    is_metabelian,
    is_nc_subgroup,
    is_ne_subgroup,
    is_nilpotent,
    is_normally_embedded,
    is_nsn_group,
    is_on_group,
    is_p_nilpotent,
    is_pe_group,
    is_pnc_group,
    is_pronormal,
    is_solvable,
    is_supersolvable,
    is_t_group,
    p_core_members,
    p_length,
    pnc_witness,
    primes_of,
    satisfies_cp,
    upper_p_series,
    vp_valuation,
)

BUDGET = Budget()


def build(text):
    return build_group(parse_spec(text), BUDGET)


def whole(g):
    return Subgroup(g, np.arange(g.order))


def test_nc_trivial_cases():
    g = build("Sym(3)")
    assert is_nc_subgroup(g, whole(g))
    assert is_nc_subgroup(g, Subgroup(g, [0]))


def test_nc_fails_for_c4_complement_in_c2sq_semi_c4():
    g = build("C2sqSemiC4")
    complement = Subgroup(g, np.arange(4))  # pairs (0, y)
    assert not is_nc_subgroup(g, complement)


def test_ne_normal_subgroups_are_ne():
    g = build("Dihedral(6)")
    lat = all_subgroups(g, BUDGET)
    for i, s in enumerate(lat.subgroups):
        if lat.normal[i]:
            assert is_ne_subgroup(g, s)


def test_ne_fails_for_modular_and_heisenberg_minimal_generator():
    g = build("Modular(3,2)")
    x = subgroup_from_generators(g, [g.generators[1]])
    assert x.order == 3
    assert not is_ne_subgroup(g, x)
    h = build("HeisenbergLike(3,1)")
    x = subgroup_from_generators(h, [h.generators[2]])
    assert x.order == 3
    assert not is_ne_subgroup(h, x)


def test_h_subgroup_examples():
    s3 = build("Sym(3)")
    for s in all_subgroups(s3, BUDGET).subgroups:
        assert is_h_subgroup(s3, s)
    d4 = build("Dihedral(4)")
    reflection = subgroup_from_generators(d4, [4])
    assert not is_h_subgroup(d4, reflection)
    assert not is_pronormal(d4, reflection)
    assert not is_normally_embedded(d4, reflection, BUDGET)


def test_pronormal_examples():
    g = build("Sym(4)")
    lat = all_subgroups(g, BUDGET)
    for i, s in enumerate(lat.subgroups):
        if lat.normal[i]:
            assert is_pronormal(g, s)

    for spec in ("Sym(4)", "SL2(3)", "Dihedral(6)", "PowerAction(2,2,(5,1,3))"):
        gg = build(spec)
        for p in primes_of(gg.order):
            for syl in sylow_subgroups(gg, p, BUDGET):
                assert is_pronormal(gg, syl)


def test_normally_embedded_in_dedekind_groups():
    g = build("Dicyclic(2)")
    for s in all_subgroups(g, BUDGET).subgroups:
        assert is_normally_embedded(g, s, BUDGET)


def test_normally_embedded_sylow_choice_is_immaterial_small():
    # all Sylow p-subgroups of H give the same answer (they are conjugate in H)
    for spec in ("Sym(4)", "Dihedral(6)"):
        g = build(spec)
        lat = all_subgroups(g, BUDGET)
        normals = lat.normal_subgroups()
        for h in lat.subgroups:
            for p in primes_of(h.order):
                target = 1
                while h.order % (target * p) == 0:
                    target *= p
                h_mask = h.mask()
                sylows_of_h = [
                    s for s in lat.subgroups if s.order == target and h_mask[s.members].all()
                ]
                answers = {
                    any(
                        n.order % target == 0
                        and (n.order // target) % p != 0
                        and n.mask()[s.members].all()
                        for n in normals
                    )
                    for s in sylows_of_h
                }
                assert len(answers) == 1


def test_classify_known_examples():
    assert not classify_group(build("Dihedral(4)"), BUDGET).pnc
    assert classify_group(build("Dihedral(6)"), BUDGET).pnc
    profile = classify_group(build("Sym(3)"), BUDGET)
    assert profile.on and profile.pnc and profile.nsn


def test_classify_group_honours_the_budget_after_a_profile_was_made():
    """A tight ``max_subgroups`` raises in ``classify_group`` as in the predicates it reads, whatever ran before."""
    g = build("Sym(4)")
    classify_group(g, BUDGET)
    for predicate in (classify_group, is_pnc_group, all_subgroups):
        with pytest.raises(BudgetExceededError, match=r"^subgroup budget 3 exceeded$"):
            predicate(g, Budget(max_subgroups=3))


def _catalog_and_power_action_groups():
    """The catalog, then every fifth power-action spec of the theorem-3 sweep (orders up to 400)."""
    specs = list(standard_catalog()) + [_pa_spec(pa) for pa in _power_action_universe(400)[0][::5]]
    return [(spec.to_string(), build_group(spec, BUDGET)) for spec in specs]


def test_supersolvable_examples_and_quotient_recursion_oracle():
    assert is_supersolvable(build("Dicyclic(2)"), BUDGET)
    assert is_supersolvable(build("C2sqSemiC4"), BUDGET)
    assert not is_supersolvable(build("Alt(4)"), BUDGET)
    # independent route: the definition, one prime-order normal subgroup at a time
    verdicts = set()
    for spec, g in _catalog_and_power_action_groups():
        expected = recursive_is_supersolvable(g, BUDGET)
        verdicts.add(expected)
        assert is_supersolvable(g, BUDGET) == expected, spec
    assert verdicts == {True, False}


def test_nilpotent_solvable_metabelian_examples():
    nil, klass = is_nilpotent(build("Dicyclic(2)"))
    assert nil and klass == 2
    s3 = build("Sym(3)")
    assert is_solvable(s3) and is_metabelian(s3) and not is_nilpotent(s3)[0]
    assert not is_solvable(build("Alt(5)"))


def test_nilpotent_exactly_when_every_sylow_subgroup_is_normal():
    """The lower central series against the Sylow criterion, over the catalog."""
    for spec in standard_catalog():
        g = build_group(spec, BUDGET)
        sylows_normal = all(len(sylow_subgroups(g, p, BUDGET)) == 1 for p in primes_of(g.order))
        assert is_nilpotent(g)[0] == sylows_normal, spec


def test_profile_flags_are_the_group_classes():
    profile = classify_group(build("Sym(3)"), BUDGET)
    assert list(profile.flags()) == list(GROUP_CLASSES)
    assert profile.flags() == {name: test(build("Sym(3)"), BUDGET) for name, test in GROUP_CLASSES.items()}


def test_p_nilpotent_examples():
    assert is_p_nilpotent(build("Sym(3)"), 2, BUDGET)
    c5s3 = build("Direct(Cyclic(5),Sym(3))")
    assert not is_p_nilpotent(c5s3, 3, BUDGET)
    assert is_p_nilpotent(c5s3, 2, BUDGET)


def test_satisfies_cp_examples():
    for p in (2, 3, 5):
        assert satisfies_cp(build("Cyclic(12)"), p, BUDGET)
    assert satisfies_cp(build("Sym(3)"), 2, BUDGET)
    assert satisfies_cp(build("Sym(3)"), 3, BUDGET)
    assert not satisfies_cp(build("Dihedral(4)"), 2, BUDGET)


def test_fitting_examples():
    s3 = build("Sym(3)")
    assert fitting_subgroup(s3, BUDGET).order == 3
    assert fitting_height(s3, BUDGET) == 2
    q8 = build("Dicyclic(2)")
    assert fitting_subgroup(q8, BUDGET).order == 8
    assert fitting_height(q8, BUDGET) == 1
    assert fitting_subgroup(build("SL2(3)"), BUDGET).order == 8
    with pytest.raises(NotApplicableError):
        fitting_height(build("Alt(5)"), BUDGET)


def test_fitting_subgroup_matches_largest_nilpotent_normal_scan():
    for spec in ("Sym(4)", "SL2(3)", "Dihedral(6)", "C2sqSemiC4", "Direct(Cyclic(5),Sym(3))"):
        g = build(spec)
        lat = all_subgroups(g, BUDGET)
        best = 0
        for i in np.flatnonzero(lat.normal):
            if is_nilpotent(subgroup_as_group(lat, i))[0]:
                best = max(best, lat.subgroups[i].order)
        assert fitting_subgroup(g, BUDGET).order == best, spec


def test_frattini_examples():
    assert frattini_subgroup(build("Sym(3)"), BUDGET).order == 1
    d4 = build("Dihedral(4)")
    frat = frattini_subgroup(d4, BUDGET)
    from fgt.lattice import centralizer_members

    assert np.array_equal(frat.members, centralizer_members(d4, np.arange(d4.order)))
    assert frattini_subgroup(build("Cyclic(4)"), BUDGET).order == 2


def test_p_length_examples():
    assert p_length(build("Sym(3)"), 5, BUDGET) == 0
    assert p_length(build("Sym(3)"), 3, BUDGET) == 1
    assert p_length(build("Sym(4)"), 2, BUDGET) == 2
    with pytest.raises(NotSolvableError):
        p_length(build("Alt(5)"), 2, BUDGET)


def test_p_length_matches_upper_p_series_jumps():
    from fgt.predicates import upper_p_series

    for spec in ("Sym(4)", "Sym(3)", "Dihedral(6)", "SL2(3)", "C2sqSemiC4",
                 "Direct(Cyclic(5),Sym(3))", "Dicyclic(6)"):
        g = build(spec)
        for p in primes_of(g.order):
            series = upper_p_series(g, p, BUDGET)
            assert series.terminated
            sizes = [t.size for t in series.terms]
            jumps = sum(
                1 for i in range(2, len(sizes), 2) if sizes[i] > sizes[i - 1]
            )
            assert jumps == p_length(g, p, BUDGET), (spec, p)
            for earlier, later in zip(sizes, sizes[1:]):
                assert later % earlier == 0 and later >= earlier


def test_fitting_chain_matches_fitting_height():
    from fgt.predicates import fitting_chain

    for spec in ("Sym(4)", "Sym(3)", "Dicyclic(2)", "C2sqSemiC4", "C5xC3SemiD4"):
        g = build(spec)
        chain = fitting_chain(g, BUDGET)
        assert chain.terminated
        assert len(chain.terms) - 1 == fitting_height(g, BUDGET), spec
    a5_chain = fitting_chain(build("Alt(5)"), BUDGET)
    assert not a5_chain.terminated  # F(A5) = 1, the chain stalls immediately


def test_fitting_height_matches_quotient_walk():
    checked = 0
    for spec, g in _catalog_and_power_action_groups():
        if is_solvable(g):
            checked += 1
            assert fitting_height(g, BUDGET) == quotient_walk_fitting_height(g, BUDGET), spec
    assert checked >= 100


def test_p_length_matches_quotient_walk():
    checked = 0
    for spec, g in _catalog_and_power_action_groups():
        if is_solvable(g):
            for p in primes_of(g.order):
                checked += 1
                assert p_length(g, p, BUDGET) == quotient_walk_p_length(g, p, BUDGET), (spec, p)
    assert checked >= 200


def test_generalized_fitting_examples():
    comps, layer, fstar, klass = generalized_fitting(build("Sym(4)"), BUDGET)
    assert comps == [] and fstar.order == 4 and klass == 1
    comps, layer, fstar, klass = generalized_fitting(build("Alt(5)"), BUDGET)
    assert len(comps) == 1 and comps[0].order == 60 and fstar.order == 60 and klass is None
    comps, layer, fstar, klass = generalized_fitting(build("Direct(Cyclic(7),Alt(5))"), BUDGET)
    assert [c.order for c in comps] == [60] and fstar.order == 420 and klass is None


def test_commutator_examples():
    c12 = build("Cyclic(12)")
    assert commutator_subgroup(c12, whole(c12), whole(c12)).order == 1
    s3 = build("Sym(3)")
    assert commutator_subgroup(s3, whole(s3), whole(s3)).order == 3


def test_nc_iff_commutator_form_on_d6():
    g = build("Dihedral(6)")
    lat = all_subgroups(g, BUDGET)
    from fgt.lattice import normalizer_members, subgroup_product

    for s in lat.subgroups:
        comm = commutator_subgroup(g, s, whole(g))
        _, equals_g = subgroup_product(g, comm, Subgroup(g, normalizer_members(g, s.members)))
        assert equals_g == is_nc_subgroup(g, s)


def test_vp_valuation_examples():
    assert vp_valuation(48, 2) == 4
    assert vp_valuation(48, 5) == 0
    assert vp_valuation(27, 3) == 3
    with pytest.raises(ValueError):
        vp_valuation(0, 2)


def test_normal_subgroups_satisfy_all_embedding_predicates():
    for spec in ("Sym(4)", "Dihedral(6)", "SL2(3)"):
        g = build(spec)
        lat = all_subgroups(g, BUDGET)
        for i, s in enumerate(lat.subgroups):
            if not lat.normal[i]:
                continue
            assert is_nc_subgroup(g, s)
            assert is_ne_subgroup(g, s)
            assert is_h_subgroup(g, s)
            assert is_pronormal(g, s)
            assert is_normally_embedded(g, s, BUDGET)


def test_profile_internal_consistency_over_small_catalog():
    for spec in ("Cyclic(8)", "Dicyclic(2)", "Sym(3)", "Dihedral(4)", "Alt(4)", "SL2(3)"):
        classify_group(build(spec), BUDGET)  # raises ConsistencyError on a broken implication


def test_pe_and_on_examples():
    assert is_pe_group(build("Dicyclic(4)"), BUDGET)  # generalized quaternion Q16
    assert not is_pe_group(build("SL2(3)"), BUDGET)
    assert is_on_group(build("Dicyclic(3)"), BUDGET)
    assert not is_on_group(build("PowerAction(2,2,(5,1,3))"), BUDGET)
    assert not is_on_group(build("Alt(5)"), BUDGET)  # conjunctive reading


def test_t_group_examples():
    assert is_t_group(build("Sym(3)"), BUDGET)
    assert is_t_group(build("Dicyclic(2)"), BUDGET)
    assert not is_t_group(build("Dihedral(4)"), BUDGET)


def test_t_group_matches_subnormal_chain_walk():
    """H normal in H^G for no non-normal class, against walking each class's normal-closure chain."""
    verdicts = set()
    for spec in standard_catalog():
        g = build_group(spec, BUDGET)
        lat = all_subgroups(g, BUDGET)
        expected = not any(
            not lat.normal[i] and is_subnormal(g, lat.subgroups[i]) for i in lat.rep_indices
        )
        verdicts.add(expected)
        assert is_t_group(g, BUDGET) == expected, spec.to_string()
    assert verdicts == {True, False}


def test_classify_group_over_the_catalog_is_byte_identical_to_recorded_digest():
    # recorded from the code that tested supersolvability by quotient recursion
    # and T-groups by subnormal chain walks
    doc = json.dumps([[spec.to_string(), classify_group(build_group(spec)).to_json()] for spec in standard_catalog()])
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "d0345d964f1c3480537f1e8ee9ce9b2f74283569b07e245aeb551457486134ea"
    )


def test_pnc_witness_in_s4_is_recorded():
    w = pnc_witness(build("Sym(4)"), BUDGET)
    assert w is not None and w.order == 2
    # the witness is a double transposition: its closure is the Klein four group
    from fgt.lattice import normal_closure_members

    assert normal_closure_members(build("Sym(4)"), w.members).size == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 23), st.integers(0, 23))
def test_nc_is_conjugation_invariant_on_s4(gen, conjugator):
    g = build("Sym(4)")
    h = subgroup_from_generators(g, [gen])
    moved = Subgroup(g, g.conjugates(conjugator, h.members))
    assert is_nc_subgroup(g, h) == is_nc_subgroup(g, moved)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 47))
def test_ne_is_conjugation_invariant_on_d4_semi_s3(gen):
    g = build("D4SemiS3")
    h = subgroup_from_generators(g, [gen])
    for conjugator in (1, 7, 13):
        moved = Subgroup(g, g.conjugates(conjugator, h.members))
        assert is_ne_subgroup(g, h) == is_ne_subgroup(g, moved)


def test_class_sizes_and_group_classes_match_brute_oracles():
    """Per-class sizes and the five class predicates, recomputed from brute sets."""
    checked = 0
    for spec in standard_catalog():
        g = build_group(spec, BUDGET)
        if g.order > 24:
            continue
        checked += 1
        lat = all_subgroups(g, BUDGET)
        everything = set(range(g.order))
        nc, ne_minimal, on, nsn, t = [], [], [], [], []
        for i in lat.rep_indices:
            rep = lat.subgroups[i]
            h = set(rep.members.tolist())
            norm = brute_normalizer(g.mul, g.inv, h)
            closure = brute_normal_closure(g.mul, g.inv, h)
            assert lat.class_sizes(i) == (len(norm), len(closure), len(norm & closure)), (spec, i)
            product = {int(g.mul[x, y]) for x in closure for y in norm}
            nc.append(product == everything)
            assert is_nc_subgroup(g, rep) == nc[-1]
            assert is_ne_subgroup(g, rep) == (norm & closure == h)
            if primes_of(rep.order) == [rep.order]:
                ne_minimal.append(norm & closure == h)
            on.append(norm == everything or (norm == h and closure == everything))
            nsn.append(norm in (h, everything))
            t.append(norm == everything or not brute_is_subnormal(g.mul, g.inv, h))
        assert is_pnc_group(g, BUDGET) == all(nc), spec
        assert is_pe_group(g, BUDGET) == all(ne_minimal), spec
        assert is_on_group(g, BUDGET) == all(on), spec
        assert is_nsn_group(g, BUDGET) == all(nsn), spec
        assert is_t_group(g, BUDGET) == all(t), spec
        witness = pnc_witness(g, BUDGET)
        first_bad = next((lat.subgroups[i] for i, ok in zip(lat.rep_indices, nc) if not ok), None)
        assert witness == first_bad, spec
    assert checked >= 20


def test_series_and_cores_never_build_quotient_groups(monkeypatch):
    """Every term is read off the group's own lattice, by correspondence."""
    solvable = [(spec.to_string(), g) for spec in standard_catalog() if is_solvable(g := build_group(spec, BUDGET))]

    def no_quotients(*args, **kwargs):
        raise AssertionError("quotient_group called")

    for module in (groups, predicates):
        monkeypatch.setattr(module, "quotient_group", no_quotients, raising=False)
    for spec, g in solvable:
        fitting_height(g, BUDGET)
        fitting_chain(g, BUDGET)
        generalized_fitting(g, BUDGET)
        for p in primes_of(g.order):
            p_length(g, p, BUDGET)
            upper_p_series(g, p, BUDGET)
    assert len(solvable) >= 40


def _catalog_and_power_action_groups_to_150():
    specs = list(standard_catalog()) + [_pa_spec(pa) for pa in _power_action_universe(150)[0]]
    return [(spec.to_string(), build_group(spec, BUDGET)) for spec in specs]


def test_p_cores_and_upper_p_series_match_the_quotient_walk():
    series = 0
    for spec, g in _catalog_and_power_action_groups_to_150():
        solvable = is_solvable(g)
        for p in primes_of(g.order):
            assert np.array_equal(p_core_members(g, p, BUDGET), sylow_intersection_core(g, p, BUDGET)), (spec, p)
            if solvable:
                series += 1
                terms = upper_p_series(g, p, BUDGET).terms
                expected = quotient_walk_upper_p_series(g, p, BUDGET)
                assert len(terms) == len(expected), (spec, p)
                assert all(np.array_equal(a, b) for a, b in zip(terms, expected)), (spec, p)
    assert series >= 300


def test_generalized_fitting_matches_the_all_subgroups_scan():
    """Components looked for inside the solvable residual only, against the scan over every subgroup."""
    nonsolvable = 0
    for spec, g in _catalog_and_power_action_groups_to_150():
        nonsolvable += not is_solvable(g)
        assert generalized_fitting(g, BUDGET) == all_subgroups_generalized_fitting(g, BUDGET), spec
    assert nonsolvable >= 5


def test_memoized_derived_series_matches_the_recomputed_loop():
    """The derived series kept in each group's cache, against the loop that recomputes it, over the lattice sweep."""
    for text, g in _catalog_and_power_action_groups():
        report = predicates.derived_series(g)
        terms, terminated = loop_derived_series(g)
        assert report.terminated == terminated, text
        assert len(report.terms) == len(terms) and all(map(np.array_equal, report.terms, terms)), text
        assert predicates.derived_series(g) is report, text
        assert not any(t.flags.writeable for t in report.terms), text


def test_series_from_generators_match_the_all_pairs_loops():
    """Derived and lower central series from the commutators of each term's generators, against the all-pairs loops."""
    cases = _catalog_and_power_action_groups() + [(text, build(text)) for text in ("SL2(7)", "GU2_3", "Sym(6)")]
    for text, g in cases:
        for report, (terms, terminated) in (
            (predicates.derived_series(g), loop_derived_series(g)),
            (lattice.commutator_series(g, central=True), loop_lower_central_series(g)),
        ):
            assert report.terminated == terminated, text
            assert len(report.terms) == len(terms) and all(map(np.array_equal, report.terms, terms)), text
            assert not any(t.flags.writeable for t in report.terms), text


def test_solvable_residual_of_sym7_is_alt7():
    budget = Budget(order_cap=5040)
    g = build_group(parse_spec("Sym(7)"), budget)
    report = predicates.derived_series(g)
    assert [t.size for t in report.terms] == [5040, 2520] and not report.terminated
    assert not is_solvable(g)
