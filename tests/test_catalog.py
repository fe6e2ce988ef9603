import hashlib
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    cyclic_extension_product,
    frobenius_product,
    generate_matrix_group,
    heisenberg_product,
    int64_cyclic_extension,
    unitary_matrices_gf9,
)

from fgt import catalog
from fgt.catalog import (
    GroupSpec,
    PowerActionSpec,
    build_group,
    build_power_action,
    parse_spec,
    parse_universe,
    standard_catalog,
    _build_uncached,
    _companion_of_order,
)
from fgt.claims import _pa_spec, _power_action_universe
from fgt.config import Budget
from fgt.errors import (
    ActionInconsistentError,
    BudgetExceededError,
    InvalidElementError,
    UnknownConstructorError,
    UnsupportedExtensionError,
)
from fgt.groups import commutators, order_fingerprint
from fgt.lattice import all_subgroups
from fgt.predicates import primes_of

BUDGET = Budget()


def build(text):
    return build_group(parse_spec(text), BUDGET)


def test_spec_string_roundtrip_over_catalog():
    for spec in standard_catalog():
        assert parse_spec(spec.to_string()) == spec


def test_universe_items_are_specs_ranges_and_the_catalog():
    assert parse_universe(" Dihedral( 3 .. 5 ) , catalog,Direct(Cyclic(2), Sym(3)),PowerAction(2,2,(5,1,3)) ") == [
        GroupSpec("Dihedral", (3,)), GroupSpec("Dihedral", (4,)), GroupSpec("Dihedral", (5,)),
        *standard_catalog(),
        GroupSpec("Direct", (GroupSpec("Cyclic", (2,)), GroupSpec("Sym", (3,)))),
        GroupSpec("PowerAction", (2, 2, (5, 1, 3))),
    ]
    assert parse_universe("Cyclic(5..3)") == parse_universe("") == []
    assert parse_universe("Sym(3),") == [GroupSpec("Sym", (3,))]
    assert parse_universe("Cyclic(5040..5040)") == [GroupSpec("Cyclic", (5040,))]


@pytest.mark.parametrize("text", [
    "Direct(Cyclic(2),Cyclic(3..4))",  # a range is a whole item, not a parameter
    "ElementaryAbelian(2..3)",  # two-integer constructor
    "NoSuchThing(1..3)",
    "Dihedral(3..6..8)",
    "Sym(3),,Sym(4)",
    "Sym(3) Sym(4)",
    "Cyclic(0..3)",
    "Cyclic(1..5041)",
])
def test_universe_lists_that_are_refused(text):
    with pytest.raises(UnknownConstructorError):
        parse_universe(text)


def test_a_range_past_the_hard_limit_is_refused_before_it_is_listed():
    start = time.perf_counter()
    with pytest.raises(UnknownConstructorError, match="5040"):
        parse_universe("Cyclic(1..3000000)")
    with pytest.raises(UnknownConstructorError):
        parse_universe("Cyclic(-1000000000000..5)")
    assert time.perf_counter() - start < 1


def test_spec_parse_nested_and_tuples():
    spec = parse_spec("Direct(Cyclic(5),Sym(3))")
    assert spec.constructor == "Direct" and spec.params[0] == GroupSpec("Cyclic", (5,))
    pa = parse_spec("PowerAction(2,2,(5,1,3))")
    assert pa.params == (2, 2, (5, 1, 3))
    for text in ("Cyclic(3) trailing", "Cyclic(-)", "Cyclic(--3)", "PowerAction(2,1,(5,-,1))"):
        with pytest.raises(UnknownConstructorError):
            parse_spec(text)
    with pytest.raises(UnknownConstructorError):
        build_group(parse_spec("NoSuchThing(3)"), BUDGET)


def test_catalog_orders_within_default_cap():
    for spec in standard_catalog():
        g = build_group(spec, BUDGET)
        assert 1 <= g.order <= BUDGET.order_cap


def test_rebuilding_gives_byte_identical_tables():
    for text in ("Dihedral(6)", "Sym(4)", "GU2_3", "PowerAction(2,2,(5,1,3))", "Modular(3,2)"):
        spec = parse_spec(text)
        a = _build_uncached(spec, BUDGET)
        b = _build_uncached(spec, BUDGET)
        assert a.mul.tobytes() == b.mul.tobytes(), text


# `mul` table digests: the benchmark's recorded construct set at the default
# budget, plus the two degree-7 groups, recorded with the earlier builders.
LARGE = Budget(order_cap=5040)
CONSTRUCT_DIGESTS = {
    **{(spec, BUDGET): digest for spec, digest in json.loads(
        (Path(__file__).resolve().parents[1] / "fgtbench" / "golden.json").read_text())["construct"].items()},
    ("Sym(7)", LARGE): "485060e436d79dcb436738e8f9aba50f52efedcaf3f9c93caa97c6c712926e36",
    ("Alt(7)", LARGE): "4eb4b465f033febf8aa61f862444668e9de675ee31ae01b825a678660f97b13a",
    # Every field-built group beyond the benchmark's set, recorded with the
    # scalar field arithmetic; SL2(4), SL2(8), SL2(9) and PSL2(9) read an
    # extension field's multiplicative generator.
    ("SL2(2)", LARGE): "74b1f33be2e233c41777c7206c2bf649a3df02b56a9011c1d43944cfa05c1d95",
    ("SL2(4)", LARGE): "9648b7c1f1eb9c99f42c6ba7334e506d2f49c0080f8a4ff56690e386be4acd71",
    ("SL2(8)", LARGE): "a0fbc907575a341ce0e269f0439d412ea9a8be953d9f8844cd26416103d88e73",
    ("SL2(9)", LARGE): "8dc69868a52a59424066e2f1044e640e9d1edff666d76d6db51cffa963307f37",
    ("SL2(11)", LARGE): "f8b02119cc5c5ac4edca993a9768f6d24ab8fb8293783f13f560d4f92a2201c6",
    ("SL2(13)", LARGE): "b06d20a88cc61794505a5f1018a48c8ab919acc2a7562bddc4a6f0f4e9b621d9",
    ("SL2(17)", LARGE): "5475c07234e1721eea1854e752dc9bd2c25558e485c3984182c1c1d88b890e52",
    ("PSL2(2)", LARGE): "74b1f33be2e233c41777c7206c2bf649a3df02b56a9011c1d43944cfa05c1d95",
    ("PSL2(3)", LARGE): "9fc15b07f7f25854dbb7b6d0c9b5a1f915e2bc35f43a8c659c614d202d7e6130",
    ("PSL2(9)", LARGE): "3810f2f39f83f524f542a063bcb102848a977873debad11c683d3155dbb6970b",
    ("PSL2(13)", LARGE): "9ba261d830e9ca39d8ec5629054bb98f18ff8e95fb5fe3273fda8ca71043b85b",
    ("PSL2(17)", LARGE): "ea2844e4f13c98c2d8186fd2850e269ff73bb9e4317a78fc64b120cc7c2b4784",
    ("PSL2(19)", LARGE): "4dd2de88c58aa3f3d71986c02af6911ccc5c64020ff374f992b5f17f40cae891",
}


@pytest.mark.parametrize("spec, budget", CONSTRUCT_DIGESTS, ids=lambda v: v if isinstance(v, str) else f"cap{v.order_cap}")
def test_built_table_is_byte_identical_to_recorded_digest(spec, budget):
    g = _build_uncached(parse_spec(spec), budget)
    assert hashlib.sha256(g.mul.tobytes()).hexdigest() == CONSTRUCT_DIGESTS[spec, budget]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.lists(st.tuples(st.integers(1, 12), st.integers(-30, 30), st.integers(-12, 12)), max_size=3))
def test_cyclic_extension_matches_the_int64_formula(q, factors):
    """The uint16 mixed-radix sum equals the whole-table int64 formula for any (q, [(m, r, c)]), group or not."""
    assume(q * math.prod(m for m, _, _ in factors) <= 600)
    table = catalog._cyclic_extension(q, factors)
    assert table.dtype == np.uint16 and np.array_equal(table, int64_cyclic_extension(q, factors))


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _presented_tables(family):
    """(spec, table from the presentation) for each member of ``family``."""
    if family in ("Cyclic", "Dihedral", "Dicyclic"):
        for n in range(1, 41):
            q, factors = {"Cyclic": (n, []), "Dihedral": (2, [(n, -1, 0)]), "Dicyclic": (2, [(2 * n, -1, n)])}[family]
            yield f"{family}({n})", cyclic_extension_product(q, factors)
    elif family == "Quaternion":
        for order in (8, 16):
            yield f"Quaternion({order})", cyclic_extension_product(2, [(order // 2, -1, order // 4)])
    elif family == "ElementaryAbelian":
        for p, k in itertools.product(SMALL_PRIMES, range(1, 9)):
            if p**k <= 256:
                yield f"ElementaryAbelian({p},{k})", cyclic_extension_product(p, [(p, 1, 0)] * (k - 1))
    elif family == "Modular":
        for p, n in itertools.product(SMALL_PRIMES, range(2, 8)):
            if p ** (n + 1) <= 243:
                yield f"Modular({p},{n})", cyclic_extension_product(p, [(p**n, 1 + p ** (n - 1), 0)])
    elif family == "HeisenbergLike":
        for p, n in itertools.product(SMALL_PRIMES, range(1, 7)):
            if p ** (n + 2) <= 243:
                yield f"HeisenbergLike({p},{n})", heisenberg_product(p, n)
    elif family == "IrreducibleFrobenius":
        for q, k, p in itertools.product(SMALL_PRIMES, (2, 3), SMALL_PRIMES):
            mat = _companion_of_order(q, k, p) if q != p and q**k * p <= 200 else None
            if mat is not None:
                yield f"IrreducibleFrobenius({q},{k},{p})", frobenius_product(q, p, mat.tolist())
    elif family == "PowerAction":
        for pa in _power_action_universe(400)[0][::5]:
            factors = [(p_i**a_i, -t_i, 0) for p_i, a_i, t_i in pa.factors]
            yield _pa_spec(pa).to_string(), cyclic_extension_product(pa.p**pa.alpha, factors)


@pytest.mark.parametrize(
    "family",
    ["Cyclic", "Dihedral", "Dicyclic", "Quaternion", "ElementaryAbelian", "Modular", "HeisenbergLike",
     "IrreducibleFrobenius", "PowerAction"],
)
def test_formula_tables_match_their_presentations(family):
    """Every table the catalog computes by formula, against one product at a time from the presentation."""
    checked = 0
    for text, expected in _presented_tables(family):
        assert np.array_equal(_build_uncached(parse_spec(text), BUDGET).mul, expected), text
        checked += 1
    assert checked >= 2, family


def test_dihedral_4_has_two_elements_of_order_4():
    g = build("Dihedral(4)")
    assert g.order == 8
    assert int((g.element_orders() == 4).sum()) == 2


def test_dicyclic_presentation_relations():
    for n in (2, 3, 5, 6):
        g = build(f"Dicyclic({n})")
        a, b = g.generators
        assert g.order == 4 * n
        assert g.element_orders()[a] == 4
        assert g.element_orders()[b] == 2 * n
        a_sq = int(g.mul[a, a])
        b_n = 0
        for _ in range(n):
            b_n = int(g.mul[b_n, b])
        assert a_sq == b_n  # a^2 = b^n
        conj = int(g.mul[g.mul[g.inv[a], b], a])
        assert conj == int(g.inv[b])  # a^-1 b a = b^-1


def test_quaternion_is_dicyclic():
    q8 = build("Quaternion(8)")
    dic2 = build("Dicyclic(2)")
    assert np.array_equal(q8.mul, dic2.mul)
    with pytest.raises(InvalidElementError):
        build("Quaternion(12)")


def test_modular_group_order_and_exponent():
    g = build("Modular(3,2)")
    assert g.order == 27
    assert int(g.element_orders().max()) == 9
    a, x = g.generators
    lhs = int(g.mul[g.mul[g.inv[x], a], x])  # x^-1 a x
    rhs = 0
    for _ in range(1 + 3):  # a^(1+p^(n-1)) = a^4
        rhs = int(g.mul[rhs, a])
    assert lhs == rhs


def test_heisenberg_relations():
    g = build("HeisenbergLike(3,1)")
    assert g.order == 27
    assert int(g.element_orders().max()) == 3  # exponent p for odd p
    a, b, x = g.generators
    assert commutators(g, [x], [a]).tolist() == [b]
    assert commutators(g, [a], [b]).tolist() == [0] and commutators(g, [b], [x]).tolist() == [0]


def test_heisenberg_2_1_is_d4():
    g = build_group(GroupSpec("HeisenbergLike", (2, 1)), BUDGET)
    assert order_fingerprint(g).key() == order_fingerprint(build("Dihedral(4)")).key()


def test_sl2_psl2_order_cross_check():
    for q in (3, 4, 5, 7, 8):
        sl = build(f"SL2({q})")
        psl = build(f"PSL2({q})")
        assert sl.order == q * (q * q - 1)
        assert psl.order == sl.order // math.gcd(2, q - 1)


@pytest.mark.parametrize("spec, error", [
    ("SL2(6)", InvalidElementError),  # not a prime power
    ("SL2(16)", UnsupportedExtensionError),  # GF(2^4) is beyond degree 3
    ("PSL2(16)", UnsupportedExtensionError),
    ("SL2(19)", BudgetExceededError),  # order 6 840
])
def test_sl2_psl2_unsupported_q_error_types(spec, error):
    with pytest.raises(error):
        _build_uncached(parse_spec(spec), LARGE)


def test_sl2_psl2_check_the_cap_before_building_the_field():
    # GF(81) and GF(65537) are beyond the field builder, but the groups are far
    # beyond the cap, so the budget error comes first and no table is built.
    for spec in ("SL2(81)", "PSL2(81)", "SL2(65537)"):
        with pytest.raises(BudgetExceededError):
            _build_uncached(parse_spec(spec), LARGE)


def test_psl2_5_is_simple_of_order_60():
    g = build("PSL2(5)")
    assert g.order == 60
    lat = all_subgroups(g, BUDGET)
    assert len(lat.normal_subgroups()) == 2


def test_gu23_filter_count_is_independent_oracle():
    """The vectorized GF(9) builder against a closure over the scalar unitary filter, one mat_mul at a time."""
    elems = unitary_matrices_gf9()
    assert len(elems) == 96
    g = build("GU2_3")
    assert g.order == 96
    # 2-part is 32, 3-part is 3
    assert sorted(primes_of(g.order)) == [2, 3]
    oracle = generate_matrix_group(elems, "GU(2,3)")
    assert g.mul.tobytes() == oracle.mul.tobytes()
    assert g.generators == oracle.generators
    assert g.label == oracle.label


def test_power_action_consistency_validation():
    with pytest.raises(ActionInconsistentError):
        PowerActionSpec(3, 1, ((5, 1, 1),))  # -1 has order 2, which does not divide 3
    with pytest.raises(ActionInconsistentError):
        PowerActionSpec(3, 1, ((3, 1, 1),))  # repeated prime
    with pytest.raises(ActionInconsistentError):
        PowerActionSpec(2, 1, ((5, 1, 5),))  # twist not coprime
    spec = PowerActionSpec(2, 2, ((5, 1, 3),))
    assert spec.order == 20


def test_power_action_rejects_a_large_modulus_without_a_loop_over_it():
    # The order of -5 mod the prime 10000019 does not divide 2; the check must
    # reject it without walking the powers of -5 to find that order.
    start = time.perf_counter()
    with pytest.raises(ActionInconsistentError):
        PowerActionSpec(2, 1, ((10000019, 1, 5),))
    assert time.perf_counter() - start < 0.1


def test_power_action_builds_frobenius_20():
    g = build("PowerAction(2,2,(5,1,3))")
    assert g.order == 20
    orders = g.element_orders()
    assert int((orders == 4).sum()) == 10  # F20 has ten elements of order 4


def test_power_action_conjugation_formula_sampled():
    spec = PowerActionSpec(2, 2, ((5, 1, 3), (3, 1, 1)))
    g = build_power_action(spec, BUDGET)
    q, moduli = 4, [5, 3]

    def encode(s, exps):
        idx = s % q
        for e, m in zip(exps, moduli):
            idx = idx * m + e % m
        return idx

    count = 0
    for s in range(1, q):
        for k1 in range(5):
            for k2 in range(3):
                if count >= 100:
                    break
                w = encode(0, (k1, k2))
                a_s = encode(s, (0, 0))
                lhs = int(g.mul[g.mul[g.inv[w], a_s], w])
                rhs = encode(s, (k1 * (1 - pow(-3 % 5, s, 5)), k2 * (1 - pow(-1 % 3, s, 3))))
                assert lhs == rhs
                count += 1


def test_irreducible_frobenius_has_no_small_normal_subgroup():
    g = build("IrreducibleFrobenius(5,2,3)")
    assert g.order == 75
    lat = all_subgroups(g, BUDGET)
    proper_normal_orders = sorted(s.order for s in lat.normal_subgroups())
    assert proper_normal_orders == [1, 25, 75]  # kernel is minimal normal


def test_irreducible_frobenius_rejects_impossible_parameters():
    with pytest.raises(ActionInconsistentError):
        build_group(GroupSpec("IrreducibleFrobenius", (5, 2, 7)), BUDGET)


def test_irreducible_frobenius_2_2_3_is_a4():
    g = build("IrreducibleFrobenius(2,2,3)")
    assert order_fingerprint(g).key() == order_fingerprint(build("Alt(4)")).key()


def test_c2sq_semi_c4_reproduces_normalizer_data():
    # the data this group must reproduce: N(C4-complement) has C2 x C4 profile, closure inside it
    g = build("C2sqSemiC4")
    assert g.order == 16
    from fgt.lattice import normal_closure_members, normalizer_members

    complement = np.arange(4)
    norm = normalizer_members(g, complement)
    prof = order_fingerprint(g, norm)
    assert prof.order == 8 and prof.order_counts == ((1, 1), (2, 3), (4, 4))
    closure = normal_closure_members(g, complement)
    assert set(closure.tolist()) <= set(norm.tolist())


def test_budget_exceeded_is_typed():
    with pytest.raises(BudgetExceededError):
        build_group(GroupSpec("Sym", (7,)), Budget(order_cap=1200))


@pytest.mark.parametrize("text", [
    "ElementaryAbelian(2,100000)",
    "Modular(2,100000)",
    "HeisenbergLike(2,100000)",
    "PowerAction(2,100000,(3,1,1))",
    "PowerAction(2,1,(3,100000,1))",
    "PowerAction(2,1,(3,3000000,1))",  # its order alone has 4.75M bits
    "ElementaryAbelian(3,10000000)",
    "Modular(2,10000000)",
    "PSL2(1000000000039)",
    "SL2(2305843009213693951)",  # the prime 2^61 - 1
])
def test_huge_orders_raise_a_budget_error_in_bounded_time(text):
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"^group order .* exceeds cap 1200$"):
        build_group(parse_spec(text), Budget(order_cap=1200))
    assert time.perf_counter() - start < 1.0


MERSENNE_11213 = 2**11213 - 1  # a prime of 3 376 digits: Miller-Rabin on it takes seconds


@pytest.mark.parametrize("spec", [
    GroupSpec("ElementaryAbelian", (MERSENNE_11213, 1)),
    GroupSpec("SL2", (MERSENNE_11213,)),
], ids=["ElementaryAbelian", "SL2"])
def test_a_prime_parameter_above_the_cap_is_refused_before_its_primality_test(spec):
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"^group order .* exceeds cap 1200$"):
        build_group(parse_spec(spec.to_string()), Budget(order_cap=1200))
    assert time.perf_counter() - start < 1.0


def test_budget_message_prints_every_printable_order():
    with pytest.raises(BudgetExceededError) as printable:
        build_group(parse_spec("ElementaryAbelian(2,20)"), Budget(order_cap=1200))
    assert str(printable.value) == "group order 1048576 exceeds cap 1200"
    with pytest.raises(BudgetExceededError) as huge:
        build_group(parse_spec("ElementaryAbelian(2,100000)"), Budget(order_cap=1200))
    assert str(huge.value) == "group order of 100001 bits exceeds cap 1200"


def test_an_order_past_the_work_bound_is_refused_uncomputed():
    with pytest.raises(BudgetExceededError) as refused:
        build_group(parse_spec("ElementaryAbelian(3,10000000)"), Budget(order_cap=1200))
    assert str(refused.value) == f"group order of more than {catalog._ORDER_BITS} bits exceeds cap 1200"


def test_spec_nesting_is_bounded():
    def nested(depth):
        return "Direct(" * (depth - 1) + "Cyclic(2)" + ",Cyclic(1))" * (depth - 1)

    assert parse_spec(nested(catalog._MAX_SPEC_DEPTH)).constructor == "Direct"
    with pytest.raises(UnknownConstructorError, match="nested more than"):
        parse_spec(nested(catalog._MAX_SPEC_DEPTH + 1))


@pytest.mark.parametrize("text", ["PowerAction(Cyclic(2),1,(3,1,1))", "PowerAction(2,Cyclic(2),(3,1,1))"])
def test_power_action_needs_integer_prime_and_exponent(text):
    with pytest.raises(UnknownConstructorError):
        build_group(parse_spec(text))


def test_one_group_per_spec_under_every_cap_that_fits(monkeypatch):
    monkeypatch.setattr(catalog, "_BUILD_CACHE", {})
    for spec in standard_catalog():
        g = build_group(spec, Budget())
        n = g.order
        if n == 1:
            continue
        assert build_group(spec, Budget(order_cap=n)) is g
        with pytest.raises(BudgetExceededError) as cached:
            build_group(spec, Budget(order_cap=n - 1))
        monkeypatch.setattr(catalog, "_BUILD_CACHE", {})
        with pytest.raises(BudgetExceededError) as fresh:
            build_group(spec, Budget(order_cap=n - 1))
        assert str(cached.value) == str(fresh.value)


def test_sym7_builds_with_raised_cap():
    g = build_group(GroupSpec("Sym", (7,)), Budget(order_cap=5040))
    assert g.order == 5040


def test_catalog_list_is_duplicate_free():
    specs = standard_catalog()
    assert len(specs) == len(set(specs))
