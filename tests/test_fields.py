import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gf9_add, gf9_bar, gf9_mul

from fgt.errors import (
    DegreeMismatchError,
    DivisionByZeroError,
    NotPrimeError,
    UnsupportedExtensionError,
)
from fgt.fields import (
    FIXED_MODULI,
    Matrix2,
    element_multiplicative_order,
    field_add,
    field_inv,
    field_make,
    field_mul,
    field_pow,
    frobenius,
    mat_identity,
    mat_mul,
    multiplicative_generator,
    perm_compose,
    perm_from_cycles,
)

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]


def poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def test_fixed_moduli_are_irreducible_by_root_search():
    # Independent check: degree <= 3, so a factor would force a root.
    for (p, k), coeffs in FIXED_MODULI.items():
        assert len(coeffs) == k + 1 and coeffs[-1] == 1
        assert all(poly_eval(coeffs, x, p) != 0 for x in range(p))


def test_field_make_examples():
    assert field_make(3, 1).modulus == (0, 1)
    assert field_make(3, 2).modulus == (1, 0, 1)
    assert field_make(2, 3).modulus == (1, 1, 0, 1)


def test_field_make_rejects_bad_input():
    with pytest.raises(NotPrimeError):
        field_make(6, 1)
    with pytest.raises(UnsupportedExtensionError):
        field_make(2, 4)
    with pytest.raises(UnsupportedExtensionError):
        field_make(257, 3)


def test_field_mul_known_values():
    gf9 = field_make(3, 2)
    x = 3  # the residue x
    assert field_mul(gf9, x, x) == 2  # x^2 = -1
    gf3 = field_make(3, 1)
    assert field_mul(gf3, 2, 2) == 1
    gf8 = field_make(2, 3)
    assert field_mul(gf8, 4, 2) == 3  # x^2 * x = x + 1


def test_field_inv_known_values():
    gf3 = field_make(3, 1)
    assert field_inv(gf3, 2) == 2
    gf9 = field_make(3, 2)
    assert field_inv(gf9, 3) == 6  # inv(x) = 2x
    gf8 = field_make(2, 3)
    assert field_inv(gf8, 2) == 5  # inv(x) = x^2 + 1
    with pytest.raises(DivisionByZeroError):
        field_inv(gf9, 0)


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, k):
    f = field_make(p, k)
    size = f.size
    assert size <= 512
    elems = range(size)
    for a in elems:
        assert field_mul(f, a, 1) == a
        assert field_add(f, a, 0) == a
        if a:
            assert field_mul(f, a, field_inv(f, a)) == 1
    for a, b in itertools.product(elems, repeat=2):
        assert field_mul(f, a, b) == field_mul(f, b, a)
        assert field_add(f, a, b) == field_add(f, b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert field_mul(f, field_mul(f, a, b), c) == field_mul(f, a, field_mul(f, b, c))
        assert field_mul(f, a, field_add(f, b, c)) == field_add(
            f, field_mul(f, a, b), field_mul(f, a, c)
        )


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_multiplicative_group_cyclic(p, k):
    f = field_make(p, k)
    orders = [element_multiplicative_order(f, a) for a in range(1, f.size)]
    assert max(orders) == f.size - 1
    assert all((f.size - 1) % o == 0 for o in orders)
    g = multiplicative_generator(f)
    assert element_multiplicative_order(f, g) == f.size - 1


def test_frobenius_is_additive_automorphism_on_gf9():
    f = field_make(3, 2)
    for a in range(9):
        for b in range(9):
            assert frobenius(f, field_add(f, a, b)) == field_add(f, frobenius(f, a), frobenius(f, b))
            assert frobenius(f, field_mul(f, a, b)) == field_mul(f, frobenius(f, a), frobenius(f, b))
    assert all(frobenius(f, frobenius(f, a)) == a for a in range(9))
    assert any(frobenius(f, a) != a for a in range(9))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 343 - 1), st.integers(0, 342), st.integers(0, 342))
def test_field_pow_matches_repeated_mul_gf343(a, e1, e2):
    f = field_make(7, 3)
    assert field_mul(f, field_pow(f, a, e1), field_pow(f, a, e2)) == field_pow(f, a, e1 + e2) or a == 0


def test_large_field_axioms_sampled_ten_thousand_triples():
    import random

    f = field_make(13, 3)  # 2197 elements, beyond the exhaustive range
    rng = random.Random(1729)
    for _ in range(10_000):
        a, b, c = (rng.randrange(f.size) for _ in range(3))
        assert field_mul(f, a, b) == field_mul(f, b, a)
        assert field_mul(f, field_mul(f, a, b), c) == field_mul(f, a, field_mul(f, b, c))
        assert field_mul(f, a, field_add(f, b, c)) == field_add(
            f, field_mul(f, a, b), field_mul(f, a, c)
        )
    for _ in range(200):
        a = rng.randrange(1, f.size)
        assert field_mul(f, a, field_inv(f, a)) == 1


def test_perm_compose_examples():
    swap = perm_from_cycles(3, (0, 1))
    cyc = perm_from_cycles(3, (0, 1, 2))
    assert perm_compose(swap, swap) == (0, 1, 2)
    assert perm_compose(cyc, cyc) == perm_from_cycles(3, (0, 2, 1))
    assert perm_compose(cyc, (0, 1, 2)) == cyc
    with pytest.raises(DegreeMismatchError):
        perm_compose((0, 1, 2), (0, 1, 2, 3))


def test_perm_compose_applies_right_factor_first():
    a = perm_from_cycles(4, (0, 1))
    b = perm_from_cycles(4, (1, 2, 3))
    composed = perm_compose(a, b)
    for point in range(4):
        assert composed[point] == a[b[point]]


def test_perm_associativity_degree_up_to_4_exhaustive():
    for degree in (2, 3, 4):
        perms = [tuple(p) for p in itertools.permutations(range(degree))]
        for a, b, c in itertools.product(perms, repeat=3):
            assert perm_compose(perm_compose(a, b), c) == perm_compose(a, perm_compose(b, c))


def test_mat_mul_known_values():
    gf3 = field_make(3, 1)
    ident = mat_identity(gf3)
    assert mat_mul(ident, ident) == ident
    u = Matrix2(gf3, (1, 1, 0, 1))
    assert mat_mul(u, u).entries == (1, 2, 0, 1)


def test_gf9_oracle_arithmetic_uses_the_fixed_modulus_encoding():
    """The GU(2,3) oracle's own GF(9) arithmetic agrees with GF(3)[x]/(x^2 + 1), a + b x at index a + 3b."""
    f = field_make(3, 2)
    assert f.modulus == FIXED_MODULI[(3, 2)] == (1, 0, 1)
    for x, y in itertools.product(range(9), repeat=2):
        assert gf9_add(x, y) == field_add(f, x, y)
        assert gf9_mul(x, y) == field_mul(f, x, y)
    assert [gf9_bar(x) for x in range(9)] == [frobenius(f, x) for x in range(9)]
