import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    cyclic_extension_product,
    frobenius_product,
    generate_matrix_group,
    heisenberg_product,
    unitary_matrices_gf9,
)

from fgt import catalog
from fgt.catalog import (
    GroupSpec,
    PowerActionSpec,
    build_group,
    build_power_action,
    parse_spec,
    spec_from_json,
    standard_catalog,
    _build_uncached,
    _companion_of_order,
)
from fgt.claims import _pa_spec, _power_action_universe
from fgt.config import Budget
from fgt.errors import ActionInconsistentError, BudgetExceededError, InvalidElementError, UnknownConstructorError
from fgt.groups import element_order, order_fingerprint
from fgt.lattice import all_subgroups
from fgt.predicates import primes_of

BUDGET = Budget()


def build(text):
    return build_group(parse_spec(text), BUDGET)


def test_spec_string_roundtrip_over_catalog():
    for spec in standard_catalog():
        assert parse_spec(spec.to_string()) == spec


def test_spec_json_roundtrip_over_catalog():
    for spec in standard_catalog():
        doc = json.loads(json.dumps(spec.to_json()))
        assert spec_from_json(doc) == spec


def test_spec_parse_nested_and_tuples():
    spec = parse_spec("Direct(Cyclic(5),Sym(3))")
    assert spec.constructor == "Direct" and spec.params[0] == GroupSpec("Cyclic", (5,))
    pa = parse_spec("PowerAction(2,2,(5,1,3))")
    assert pa.params == (2, 2, (5, 1, 3))
    with pytest.raises(UnknownConstructorError):
        parse_spec("Cyclic(3) trailing")
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
}


@pytest.mark.parametrize("spec, budget", CONSTRUCT_DIGESTS, ids=lambda v: v if isinstance(v, str) else f"cap{v.order_cap}")
def test_built_table_is_byte_identical_to_recorded_digest(spec, budget):
    g = _build_uncached(parse_spec(spec), budget)
    assert hashlib.sha256(g.mul.tobytes()).hexdigest() == CONSTRUCT_DIGESTS[spec, budget]


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
        assert element_order(g, a) == 4
        assert element_order(g, b) == 2 * n
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
    comm = g.commutator(x, a)
    assert comm == b
    assert g.commutator(a, b) == 0 and g.commutator(b, x) == 0


def test_heisenberg_2_1_is_d4():
    g = build_group(GroupSpec("HeisenbergLike", (2, 1)), BUDGET)
    assert order_fingerprint(g).key() == order_fingerprint(build("Dihedral(4)")).key()


def test_sl2_psl2_order_cross_check():
    for q in (3, 4, 5, 7, 8):
        sl = build(f"SL2({q})")
        psl = build(f"PSL2({q})")
        assert sl.order == q * (q * q - 1)
        assert psl.order == sl.order // math.gcd(2, q - 1)


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
