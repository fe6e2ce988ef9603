import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_closure, brute_is_associative

from fgt.catalog import build_cyclic, build_dihedral, build_group, parse_spec, standard_catalog
from fgt.config import Budget
from fgt.errors import (
    ActionInconsistentError,
    BudgetExceededError,
    InvalidElementError,
    NotAutomorphismError,
    NotNormalError,
)
from fgt.fields import perm_from_cycles
from fgt.groups import (
    Group,
    GroupHom,
    automorphism_from_generator_images,
    close_under_product,
    direct_product,
    element_order,
    extract_subgroup_as_group,
    generate_permutation_group,
    group_to_json,
    order_fingerprint,
    quotient_group,
    semidirect_product,
)

BUDGET = Budget()


def build(text):
    return build_group(parse_spec(text), BUDGET)


def test_table_validation_catches_broken_tables():
    mul = np.array([[0, 1], [1, 1]])  # second row not a permutation
    with pytest.raises(InvalidElementError):
        Group(mul, "broken", [1])
    mul = np.array([[1, 0], [0, 1]])  # identity not at index 0
    with pytest.raises(InvalidElementError):
        Group(mul, "broken", [1])


def _intercalate_swap(mul: np.ndarray, k: int) -> np.ndarray:
    """The table with its k-th intercalate (a 2x2 Latin subsquare) off row and column 0 swapped."""
    n = mul.shape[0]
    found = 0
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            for c1 in range(1, n):
                for c2 in range(c1 + 1, n):
                    a, b = mul[r1, c1], mul[r1, c2]
                    if mul[r2, c2] == a and mul[r2, c1] == b:
                        if found == k:
                            loop = np.array(mul, dtype=np.int64)
                            loop[r1, c1] = loop[r2, c2] = b
                            loop[r1, c2] = loop[r2, c1] = a
                            return loop
                        found += 1
    raise LookupError(f"fewer than {k + 1} intercalates")


# every loop of order 4 is a group, so the order-4 swaps must be accepted
LOOP_CASES = [("Cyclic(4)", 0)] + [
    (spec, k)
    for spec in ("ElementaryAbelian(2,2)", "Dihedral(3)", "Cyclic(6)", "Dihedral(4)", "Dicyclic(2)",
                 "ElementaryAbelian(2,3)", "Sym(4)")
    for k in (0, 2)
]


@pytest.mark.parametrize(
    "spec, swap",
    [(s.to_string(), None) for s in standard_catalog()] + LOOP_CASES,
    ids=lambda v: "group" if v is None else str(v),
)
def test_validation_rejects_exactly_the_non_associative_tables(spec, swap):
    mul = build(spec).mul
    if swap is not None:
        mul = _intercalate_swap(mul, swap)
    if brute_is_associative(mul):
        assert Group(mul, spec, []).order == mul.shape[0]
    else:
        with pytest.raises(InvalidElementError, match="associativity"):
            Group(mul, spec, [])


def test_validation_rejects_a_non_associative_loop_above_the_old_sampling_order():
    # C2^11 as xor, with the intercalate rows {1, 2} x columns {4, 7} swapped:
    # a loop of order 2048 whose failing triples are too rare for random sampling to find
    n = 2**11
    i = np.arange(n)
    mul = i[:, None] ^ i[None, :]
    mul[1, 4], mul[1, 7], mul[2, 4], mul[2, 7] = 6, 5, 5, 6
    assert not brute_is_associative(mul)
    with pytest.raises(InvalidElementError, match="associativity"):
        Group(mul, "loop", [2**d for d in range(11)])


def test_supplied_generators_must_generate():
    with pytest.raises(InvalidElementError, match="do not generate"):
        Group(build("Cyclic(6)").mul, "C6", [2])
    assert Group(build("Cyclic(6)").mul, "C6", [2, 3]).generators == (2, 3)


def test_closure_generate_s4_from_transposition_and_cycle():
    gens = [perm_from_cycles(4, (0, 1)), perm_from_cycles(4, (0, 1, 2, 3))]
    g = generate_permutation_group(gens, "S4", BUDGET)
    assert g.order == 24
    assert g.generators == (1, 2)


def test_closure_generate_identity_only():
    g = generate_permutation_group([perm_from_cycles(3)], "triv", BUDGET)
    assert g.order == 1


def test_closure_generate_respects_order_cap():
    gens = [perm_from_cycles(5, (0, 1)), perm_from_cycles(5, (0, 1, 2, 3, 4))]
    with pytest.raises(BudgetExceededError):
        generate_permutation_group(gens, "S5", Budget(order_cap=60))


def test_bfs_numbering_is_deterministic():
    gens = [perm_from_cycles(4, (0, 1)), perm_from_cycles(4, (0, 1, 2, 3))]
    a = generate_permutation_group(gens, "S4", BUDGET)
    b = generate_permutation_group(gens, "S4", BUDGET)
    assert a.mul.tobytes() == b.mul.tobytes()


def test_direct_product_orders_and_element_of_order_six():
    g = direct_product(build("Cyclic(2)"), build("Cyclic(3)"), BUDGET)
    assert g.order == 6
    assert 6 in g.element_orders()
    assert build("Direct(Cyclic(7),Alt(5))").order == 420
    assert build("Direct(Cyclic(5),Sym(3))").order == 30


def test_semidirect_with_trivial_action_equals_direct_product():
    a = build("Cyclic(5)")
    b = build("Sym(3)")
    ident = np.arange(a.order, dtype=np.int64)
    action = {gen: ident for gen in b.generators}
    semi = semidirect_product(a, b, action, BUDGET)
    direct = direct_product(a, b, BUDGET)
    assert np.array_equal(semi.mul, direct.mul)


def test_semidirect_rejects_non_automorphism():
    a = build("Cyclic(4)")
    b = build("Cyclic(2)")
    bad = np.array([0, 0, 1, 2], dtype=np.int64)
    with pytest.raises(NotAutomorphismError):
        semidirect_product(a, b, {1: bad}, BUDGET)


def test_semidirect_rejects_action_that_is_not_a_homomorphism():
    a = build("Cyclic(5)")
    b = build("Cyclic(2)")
    doubling = np.array([0, 2, 4, 1, 3], dtype=np.int64)  # x -> 2x has order 4, not dividing 2
    with pytest.raises(ActionInconsistentError):
        semidirect_product(a, b, {1: doubling}, BUDGET)


def test_d4_semi_s3_satisfies_its_presentation():
    g = build("D4SemiS3")
    assert g.order == 48
    a, b, d, c = g.generators  # acting factor contributes (transposition, 3-cycle)
    m = g.mul

    def mul(*xs):
        acc = 0
        for x in xs:
            acc = int(m[acc, x])
        return acc

    assert element_order(g, a) == 4 and element_order(g, b) == 2
    assert element_order(g, c) == 3 and element_order(g, d) == 2
    assert mul(b, a, b) == int(g.inv[a])  # bab = a^-1
    assert mul(d, a, d) == int(g.inv[a])  # dad = a^-1
    assert mul(a, c) == mul(c, a) and mul(b, c) == mul(c, b)
    assert mul(d, b, d) == mul(a, b)  # dbd = ab
    assert mul(d, c, d) == int(g.inv[c])  # dcd = c^-1


def test_c5xc3_semi_d4_satisfies_its_presentation():
    g = build("C5xC3SemiD4")
    assert g.order == 120
    a, b, c, d = g.generators
    m = g.mul

    def mul(*xs):
        acc = 0
        for x in xs:
            acc = int(m[acc, x])
        return acc

    assert [element_order(g, x) for x in (a, b, c, d)] == [5, 3, 4, 2]
    assert mul(a, b) == mul(b, a) and mul(a, c) == mul(c, a) and mul(a, d) == mul(d, a)
    assert mul(c, b, int(g.inv[c])) == int(g.inv[b])
    assert mul(d, b, d) == int(g.inv[b])
    assert mul(d, c, d) == int(g.inv[c])


def test_quotient_by_whole_group_and_by_trivial():
    g = build("Sym(3)")
    q, hom = quotient_group(g, np.arange(6))
    assert q.order == 1 and hom.image_size() == 1
    q, hom = quotient_group(g, np.array([0]))
    assert np.array_equal(q.mul, g.mul)
    assert hom.kernel_size() == 1


def test_quotient_d4_by_center_is_klein_four():
    d4 = build("Dihedral(4)")
    center = [0, 2]  # rotation squared
    q, hom = quotient_group(d4, np.array(center))
    prof = order_fingerprint(q)
    assert prof.order == 4 and prof.abelian
    assert prof.order_counts == ((1, 1), (2, 3))
    assert hom.kernel_size() * q.order == d4.order


def test_quotient_requires_normality():
    s3 = build("Sym(3)")
    with pytest.raises(NotNormalError):
        quotient_group(s3, np.array([0, 1]))  # a transposition's subgroup


def test_quotient_projection_is_verified_hom():
    g = build("Dihedral(6)")
    center = close_under_product(g.mul, np.array([0, 3]), cutoff_to_full=False)
    q, hom = quotient_group(g, center)
    assert isinstance(hom, GroupHom)
    assert hom.kernel_size() * hom.image_size() == g.order


def test_element_order_examples():
    d6 = build("Dihedral(6)")
    assert element_order(d6, 0) == 1
    assert element_order(d6, d6.generators[0]) == 6
    for reflection in range(6, 12):
        assert element_order(d6, reflection) == 2


def test_order_fingerprint_known_profiles():
    assert order_fingerprint(build("Direct(Cyclic(2),Cyclic(4))")).order_counts == ((1, 1), (2, 3), (4, 4))
    q8 = order_fingerprint(build("Dicyclic(2)"))
    assert q8.order_counts == ((1, 1), (2, 1), (4, 6)) and not q8.abelian and q8.center_order == 2
    d4 = order_fingerprint(build("Dihedral(4)"))
    assert d4.order_counts == ((1, 1), (2, 5), (4, 2)) and not d4.abelian


def test_order_fingerprint_of_subgroup_members():
    s4 = build("Sym(4)")
    orders = s4.element_orders()
    v4 = [0] + [int(x) for x in np.flatnonzero(orders == 2) if _is_double_transposition(s4, int(x))]
    prof = order_fingerprint(s4, np.array(v4[:4]))
    assert prof.order == 4 and prof.abelian


def _is_double_transposition(s4, x):
    # in S4 the double transpositions are the order-2 elements with 3 conjugates
    conj = s4.conj_table()
    return len({int(conj[g, x]) for g in range(24)}) == 3


def test_automorphism_extension_validates():
    d4 = build_dihedral(4, BUDGET)
    a, b = d4.generators
    phi = automorphism_from_generator_images(d4, {a: int(d4.inv[a]), b: int(d4.mul[a, b])})
    assert sorted(phi.tolist()) == list(range(8))
    with pytest.raises(NotAutomorphismError):
        automorphism_from_generator_images(d4, {a: b, b: a})  # order mismatch


def test_extract_subgroup_as_group():
    s4 = build("Sym(4)")
    from fgt.lattice import all_subgroups

    lat = all_subgroups(s4, BUDGET)
    a4 = next(s for s in lat.subgroups if s.order == 12)
    child, members = extract_subgroup_as_group(s4, a4.members)
    assert child.order == 12
    assert child.generators
    assert close_under_product(child.mul, child.generators, cutoff_to_full=False).size == 12
    assert order_fingerprint(child).order_counts == ((1, 1), (2, 3), (3, 8))


def test_group_json_export_is_stable():
    g = build("Sym(3)")
    doc1 = group_to_json(g)
    doc2 = group_to_json(g)
    assert doc1 == doc2
    import json

    parsed = json.loads(doc1)
    assert list(parsed.keys()) == ["label", "order", "mul", "generators"]
    assert len(parsed["mul"]) == 36


def test_close_under_product_finds_whole_group_via_cutoff():
    s3 = build("Sym(3)")
    members = close_under_product(s3.mul, np.array([1, 2]))  # two transpositions
    assert members.size == 6


def test_close_under_product_matches_brute_closure():
    rng = np.random.default_rng(2024)
    for spec in ("Sym(4)", "GU2_3", "PSL2(8)", "Direct(Cyclic(2),Sym(5))"):
        g = build(spec)
        seeds = [[], [0], [0, 0]]
        for k in range(200):
            seed = rng.integers(0, g.order, size=int(rng.integers(1, 5))).tolist()
            if k % 3 == 0:
                seed.append(0)
            if k % 4 == 0:
                seed += seed[:2]
            seeds.append(seed)
        # subgroup-sized seeds, as the lattice joins pass them
        for k in range(20):
            base = brute_closure(g.mul, rng.integers(0, g.order, size=1), cutoff_to_full=False)
            seeds.append(np.concatenate([base, rng.integers(0, g.order, size=1)]).tolist())
        for cutoff in (True, False):
            for seed in seeds:
                got = close_under_product(g.mul, np.array(seed, dtype=np.intp), cutoff_to_full=cutoff)
                want = brute_closure(g.mul, seed, cutoff_to_full=cutoff)
                assert got.dtype == want.dtype and np.array_equal(got, want), (spec, seed, cutoff)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 11), st.integers(0, 11))
def test_cyclic_group_is_commutative_and_orders_divide(n, i, j):
    g = build_cyclic(n, BUDGET)
    i, j = i % n, j % n
    assert g.mul[i, j] == g.mul[j, i]
    assert n % element_order(g, i) == 0


@settings(max_examples=20, deadline=None)
@given(st.permutations(list(range(4))), st.permutations(list(range(4))))
def test_generated_permutation_groups_validate(p1, p2):
    g = generate_permutation_group([tuple(p1), tuple(p2)], "gen", BUDGET)
    assert g.order <= 24
    assert 24 % g.order == 0
