"""Exact arithmetic substrates: small Galois fields, permutations, 2x2 matrices.

These are the element domains the group constructors generate from.  Field
elements are canonical integer indices in [0, p^k) (base-p digit encoding of
the polynomial residue), permutations are tuples of images, matrices are
four field indices in row-major order.  Everything is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    ConsistencyError,
    DegreeMismatchError,
    DivisionByZeroError,
    FieldMismatchError,
    NotPrimeError,
    UnsupportedExtensionError,
)

MAX_FIELD_SIZE = 1 << 16
MAX_EXTENSION_DEGREE = 3

# Fixed monic moduli (coefficients low-degree first, including the leading 1)
# so element numbering is reproducible across runs.
FIXED_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),  # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),  # x^3 + x + 1
    (3, 2): (1, 0, 1),  # x^2 + 1
    (3, 3): (1, 2, 0, 1),  # x^3 + 2x + 1
    (5, 2): (2, 0, 1),  # x^2 + 2
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^k) with a fixed monic irreducible modulus of degree k."""

    p: int
    k: int
    modulus: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.p**self.k

    def digits(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def undigits(self, coeffs) -> int:
        val = 0
        for c in reversed(list(coeffs)):
            val = val * self.p + (c % self.p)
        return val


def _poly_has_root(coeffs: tuple[int, ...], p: int) -> bool:
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return True
    return False


def is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    # Degree <= 3 only: irreducible iff there is no root in GF(p).
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    if deg > MAX_EXTENSION_DEGREE:
        raise UnsupportedExtensionError(f"degree {deg} modulus not supported")
    return not _poly_has_root(coeffs, p)


def _first_irreducible(p: int, k: int) -> tuple[int, ...]:
    # Lexicographically first monic irreducible of degree k over GF(p).
    for code in range(p**k):
        coeffs = []
        c = code
        for _ in range(k):
            coeffs.append(c % p)
            c //= p
        coeffs.append(1)
        if is_irreducible(tuple(coeffs), p):
            return tuple(coeffs)
    raise UnsupportedExtensionError(f"no irreducible modulus found for GF({p}^{k})")


@lru_cache(maxsize=None)
def field_make(p: int, k: int) -> FieldSpec:
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if not 1 <= k <= MAX_EXTENSION_DEGREE:
        raise UnsupportedExtensionError(f"extension degree {k} outside [1, {MAX_EXTENSION_DEGREE}]")
    if p**k > MAX_FIELD_SIZE:
        raise UnsupportedExtensionError(f"field size {p**k} exceeds {MAX_FIELD_SIZE}")
    if k == 1:
        modulus: tuple[int, ...] = (0, 1)
    elif (p, k) in FIXED_MODULI:
        modulus = FIXED_MODULI[(p, k)]
        if not is_irreducible(modulus, p):  # pragma: no cover - fixed table is checked in tests
            raise UnsupportedExtensionError(f"fixed modulus for GF({p}^{k}) is reducible")
    else:
        modulus = _first_irreducible(p, k)
    return FieldSpec(p, k, modulus)


def field_add(f: FieldSpec, a: int, b: int) -> int:
    da, db = f.digits(a), f.digits(b)
    return f.undigits((x + y) % f.p for x, y in zip(da, db))


def field_neg(f: FieldSpec, a: int) -> int:
    return f.undigits((-x) % f.p for x in f.digits(a))


def _reduction_rows(f: FieldSpec) -> list[tuple[int, ...]]:
    # Digit vectors of x^m mod modulus for m in [k, 2k-2].
    p, k = f.p, f.k
    rows = []
    cur = [(-c) % p for c in f.modulus[:k]]  # x^k
    rows.append(tuple(cur))
    for _ in range(k - 2):
        shifted = [0] + cur[:-1]
        top = cur[-1]
        cur = [(shifted[i] + top * rows[0][i]) % p for i in range(k)]
        rows.append(tuple(cur))
    return rows


@lru_cache(maxsize=None)
def _small_tables(f: FieldSpec):
    """Full multiplication and inverse tables for small fields."""
    size = f.size
    mul = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(a, size):
            v = _mul_raw(f, a, b)
            mul[a][b] = v
            mul[b][a] = v
    inv = [0] * size
    for a in range(1, size):
        row = mul[a]
        for b in range(1, size):
            if row[b] == 1:
                inv[a] = b
                break
    return mul, inv


def _mul_raw(f: FieldSpec, a: int, b: int) -> int:
    p, k = f.p, f.k
    da, db = f.digits(a), f.digits(b)
    conv = [0] * (2 * k - 1)
    for i, x in enumerate(da):
        if x:
            for j, y in enumerate(db):
                conv[i + j] += x * y
    if k == 1:
        return conv[0] % p
    rows = _reduction_rows(f)
    out = [conv[i] % p for i in range(k)]
    for m in range(k, 2 * k - 1):
        c = conv[m] % p
        if c:
            row = rows[m - k]
            out = [(out[i] + c * row[i]) % p for i in range(k)]
    return f.undigits(out)


def field_mul(f: FieldSpec, a: int, b: int) -> int:
    if f.size <= 1024:
        return _small_tables(f)[0][a][b]
    return _mul_raw(f, a, b)


def field_pow(f: FieldSpec, a: int, e: int) -> int:
    if a == 0:
        return 1 if e == 0 else 0
    result, base = 1, a
    e %= f.size - 1
    while e:
        if e & 1:
            result = field_mul(f, result, base)
        base = field_mul(f, base, base)
        e >>= 1
    return result


def field_inv(f: FieldSpec, a: int) -> int:
    if a == 0:
        raise DivisionByZeroError("inverse of 0")
    if f.size <= 1024:
        return _small_tables(f)[1][a]
    return field_pow(f, a, f.size - 2)


def frobenius(f: FieldSpec, a: int) -> int:
    """a -> a^p, the field automorphism fixing the prime subfield."""
    return field_pow(f, a, f.p)


def element_multiplicative_order(f: FieldSpec, a: int) -> int:
    if a == 0:
        raise DivisionByZeroError("0 has no multiplicative order")
    n, cur = 1, a
    while cur != 1:
        cur = field_mul(f, cur, a)
        n += 1
    return n


def multiplicative_generator(f: FieldSpec) -> int:
    """Smallest element generating the (cyclic) multiplicative group."""
    target = f.size - 1
    for a in range(1, f.size):
        if element_multiplicative_order(f, a) == target:
            return a
    raise ConsistencyError("multiplicative group not cyclic; field construction is broken")


# --- permutations -----------------------------------------------------------

Perm = tuple[int, ...]


def perm_check(images) -> Perm:
    images = tuple(images)
    if sorted(images) != list(range(len(images))):
        raise DegreeMismatchError(f"not a bijection on [0, {len(images)}): {images}")
    return images


def perm_compose(a: Perm, b: Perm) -> Perm:
    """Apply b first, then a."""
    if len(a) != len(b):
        raise DegreeMismatchError(f"degrees {len(a)} != {len(b)}")
    return tuple(a[x] for x in b)


def perm_from_cycles(degree: int, *cycles) -> Perm:
    images = list(range(degree))
    for cycle in cycles:
        for i, point in enumerate(cycle):
            images[point] = cycle[(i + 1) % len(cycle)]
    return perm_check(images)


# --- 2x2 matrices ------------------------------------------------------------


@dataclass(frozen=True)
class Matrix2:
    """2x2 matrix over a FieldSpec; entries row-major field indices."""

    field: FieldSpec
    entries: tuple[int, int, int, int]

    def __post_init__(self):
        size = self.field.size
        if any(not 0 <= e < size for e in self.entries):
            raise FieldMismatchError(f"entries {self.entries} out of range for field of size {size}")


def mat_identity(f: FieldSpec) -> Matrix2:
    return Matrix2(f, (1, 0, 0, 1))


def mat_mul(a: Matrix2, b: Matrix2) -> Matrix2:
    if a.field != b.field:
        raise FieldMismatchError("matrices over different fields")
    f = a.field
    a0, a1, a2, a3 = a.entries
    b0, b1, b2, b3 = b.entries
    return Matrix2(
        f,
        (
            field_add(f, field_mul(f, a0, b0), field_mul(f, a1, b2)),
            field_add(f, field_mul(f, a0, b1), field_mul(f, a1, b3)),
            field_add(f, field_mul(f, a2, b0), field_mul(f, a3, b2)),
            field_add(f, field_mul(f, a2, b1), field_mul(f, a3, b3)),
        ),
    )
