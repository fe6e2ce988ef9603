import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gf9_add, gf9_bar, gf9_mul

from fgt.errors import DegreeMismatchError, NotPrimeError, UnsupportedExtensionError
from fgt.fields import (
    FIXED_MODULI,
    MAX_FIELD_SIZE,
    field_make,
    is_prime,
    mat_mul,
    perm_compose,
    perm_from_cycles,
)

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]


def poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def to_digits(a, p, k):
    return [a // p**i % p for i in range(k)]


def from_digits(coeffs, p):
    return sum(c % p * p**i for i, c in enumerate(coeffs))


def scalar_add(f, a, b):
    return from_digits([x + y for x, y in zip(to_digits(a, f.p, f.k), to_digits(b, f.p, f.k))], f.p)


def scalar_mul(f, a, b):
    """Schoolbook product of the digit lists, then long division by the monic modulus."""
    p, k = f.p, f.k
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(to_digits(a, p, k)):
        for j, y in enumerate(to_digits(b, p, k)):
            prod[i + j] += x * y
    for m in range(2 * k - 2, k - 1, -1):
        c = prod[m] % p
        for i, coeff in enumerate(f.modulus):
            prod[m - k + i] -= c * coeff
    return from_digits(prod[:k], p)


def scalar_pow(f, a, e):
    out = 1
    for _ in range(e):
        out = scalar_mul(f, out, a)
    return out


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


def test_field_make_rejects_fields_above_the_table_limit():
    assert MAX_FIELD_SIZE == 1024
    with pytest.raises(UnsupportedExtensionError):
        field_make(13, 3)  # 2 197 elements


@pytest.mark.parametrize("p,k", SMALL_FIELDS + [(7, 3)])
def test_tables_match_scalar_polynomial_arithmetic(p, k):
    f = field_make(p, k)
    pairs = list(itertools.product(range(f.size), repeat=2))
    assert f.add.shape == f.mul.shape == (f.size, f.size)
    assert not f.add.flags.writeable and not f.mul.flags.writeable
    assert f.add.ravel().tolist() == [scalar_add(f, a, b) for a, b in pairs]
    assert f.mul.ravel().tolist() == [scalar_mul(f, a, b) for a, b in pairs]


def test_field_mul_known_values():
    gf9 = field_make(3, 2)
    x = 3  # the residue x
    assert gf9.mul[x, x] == 2  # x^2 = -1
    gf3 = field_make(3, 1)
    assert gf3.mul[2, 2] == 1
    gf8 = field_make(2, 3)
    assert gf8.mul[4, 2] == 3  # x^2 * x = x + 1


def test_field_inv_known_values():
    gf3 = field_make(3, 1)
    assert gf3.inv[2] == 2
    gf9 = field_make(3, 2)
    assert gf9.inv[3] == 6  # inv(x) = 2x
    gf8 = field_make(2, 3)
    assert gf8.inv[2] == 5  # inv(x) = x^2 + 1
    assert gf9.inv[0] == 0


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, k):
    f = field_make(p, k)
    add, mul = f.add, f.mul
    assert f.size <= 512
    e = np.arange(f.size)
    a, b, c = e[:, None, None], e[None, :, None], e[None, None, :]
    assert (mul[e, 1] == e).all() and (add[e, 0] == e).all()
    assert (add[e, f.neg] == 0).all()
    assert (mul[e[1:], f.inv[1:]] == 1).all()
    assert (mul == mul.T).all() and (add == add.T).all()
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()


@pytest.mark.parametrize("p,k", SMALL_FIELDS + [(7, 3)])
def test_neg_inv_frobenius_generator_match_definitions(p, k):
    f = field_make(p, k)
    q = f.size
    for a in range(q):
        assert scalar_add(f, a, int(f.neg[a])) == 0
        assert a == 0 or scalar_mul(f, a, int(f.inv[a])) == 1
        assert f.frobenius[a] == scalar_pow(f, a, p)
    # generator: the least element whose powers reach 1 first at exponent q - 1
    orders = []
    for a in range(1, q):
        cur, n = a, 1
        while cur != 1:
            cur, n = scalar_mul(f, cur, a), n + 1
        orders.append(n)
    assert f.generator == 1 + orders.index(q - 1)


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_multiplicative_group_cyclic(p, k):
    f = field_make(p, k)
    powers = [1]
    for _ in range(f.size - 2):
        powers.append(int(f.mul[powers[-1], f.generator]))
    assert sorted(powers) == list(range(1, f.size))


def test_frobenius_is_additive_automorphism_on_gf9():
    f = field_make(3, 2)
    fr = f.frobenius
    assert (fr[f.add] == f.add[fr[:, None], fr]).all()
    assert (fr[f.mul] == f.mul[fr[:, None], fr]).all()
    assert (fr[fr] == np.arange(9)).all()
    assert (fr != np.arange(9)).any()


def table_pow(f, a, e):
    result, base = 1, a
    while e:
        if e & 1:
            result = int(f.mul[result, base])
        base = int(f.mul[base, base])
        e >>= 1
    return result


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 343 - 1), st.integers(0, 342), st.integers(0, 342))
def test_field_pow_matches_repeated_mul_gf343(a, e1, e2):
    f = field_make(7, 3)
    assert f.mul[table_pow(f, a, e1), table_pow(f, a, e2)] == table_pow(f, a, e1 + e2)
    assert table_pow(f, a, e1) == scalar_pow(f, a, e1)
    assert a == 0 or table_pow(f, a, 342) == 1


def test_perm_compose_examples():
    swap = perm_from_cycles(3, (0, 1))
    cyc = perm_from_cycles(3, (0, 1, 2))
    assert np.array_equal(perm_compose(swap, swap), (0, 1, 2))
    assert np.array_equal(perm_compose(cyc, cyc), perm_from_cycles(3, (0, 2, 1)))
    assert np.array_equal(perm_compose(cyc, (0, 1, 2)), cyc)
    with pytest.raises(DegreeMismatchError):
        perm_compose((0, 1, 2), (0, 1, 2, 3))
    with pytest.raises(DegreeMismatchError):
        perm_from_cycles(3, (0, 1), (1, 2))  # overlapping cycles send both 0 and 2 to 1


def test_perm_compose_applies_right_factor_first():
    a = perm_from_cycles(4, (0, 1))
    b = perm_from_cycles(4, (1, 2, 3))
    composed = perm_compose(a, b)
    for point in range(4):
        assert composed[point] == a[b[point]]


def test_perm_compose_composes_each_row_with_the_right_factor():
    perms = [tuple(p) for p in itertools.permutations(range(4))]
    b = perm_from_cycles(4, (1, 2, 3))
    batch = perm_compose(np.array(perms), b)
    assert batch.shape == (24, 4)
    assert all(np.array_equal(row, perm_compose(a, b)) for row, a in zip(batch, perms))


def test_perm_associativity_degree_up_to_4_exhaustive():
    for degree in (2, 3, 4):
        perms = [tuple(p) for p in itertools.permutations(range(degree))]
        for a, b, c in itertools.product(perms, repeat=3):
            assert np.array_equal(perm_compose(perm_compose(a, b), c), perm_compose(a, perm_compose(b, c)))


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division_below_20000():
    assert [n for n in range(-3, 20000) if is_prime(n)] == [n for n in range(-3, 20000) if _trial_division_is_prime(n)]


@pytest.mark.parametrize("n, prime", [
    (561, False),  # Carmichael
    (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5 and 7
    (318665857834031151167461, False),  # strong pseudoprime to the first 12 prime bases
    (10**12 + 39, True),
    (2**61 - 1, True),
    (2**64 - 59, True),  # the largest prime below 2^64
    ((2**31 - 1) * (2**61 - 1), False),
])
def test_is_prime_is_exact_on_large_inputs_in_bounded_time(n, prime):
    start = time.perf_counter()
    assert is_prime(n) == prime
    assert time.perf_counter() - start < 0.1


def test_mat_mul_known_values():
    gf3 = field_make(3, 1)
    ident = (1, 0, 0, 1)
    assert mat_mul(gf3, ident, ident) == ident
    u = (1, 1, 0, 1)
    assert mat_mul(gf3, u, u) == (1, 2, 0, 1)
    assert mat_mul(gf3, (1, 2, 0, 1), (2, 0, 1, 2)) == (1, 1, 1, 2)


def test_mat_mul_array_form_matches_scalar_form_on_gf9():
    f = field_make(3, 2)
    mats = list(itertools.product(range(9), repeat=4))[::7]
    x = [np.array([m[i] for m in mats])[:, None] for i in range(4)]
    y = [np.array([m[i] for m in mats])[None, :] for i in range(4)]
    table = np.stack(mat_mul(f, x, y), axis=-1)
    assert table.shape == (len(mats), len(mats), 4)
    for i, j in itertools.product(range(0, len(mats), 37), range(len(mats))):
        assert tuple(table[i, j]) == mat_mul(f, mats[i], mats[j])


def test_gf9_oracle_arithmetic_uses_the_fixed_modulus_encoding():
    """The GU(2,3) oracle's own GF(9) arithmetic agrees with GF(3)[x]/(x^2 + 1), a + b x at index a + 3b."""
    f = field_make(3, 2)
    assert f.modulus == FIXED_MODULI[(3, 2)] == (1, 0, 1)
    for x, y in itertools.product(range(9), repeat=2):
        assert gf9_add(x, y) == f.add[x, y]
        assert gf9_mul(x, y) == f.mul[x, y]
    assert [gf9_bar(x) for x in range(9)] == f.frobenius.tolist()
