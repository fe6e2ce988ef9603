"""Exact arithmetic substrates: small Galois fields, permutations, 2x2 matrices.

These are the element domains the group constructors generate from.  Field
elements are canonical integer indices in [0, p^k) (base-p digit encoding of
the polynomial residue, constant term least significant), and a field is its
addition and multiplication tables; every other field operation is read off
them.  Permutations are tuples of images, matrices are their four entries in
row-major order.  Everything is immutable and pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegreeMismatchError, NotPrimeError, UnsupportedExtensionError

MAX_FIELD_SIZE = 1 << 10
MAX_EXTENSION_DEGREE = 3


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases, exact below 3 317 044 064 679 887 385 961 981, the least strong
    pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017); a strong probable-prime test above."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:  # trial division decides every n below 41^2
        if p * p > n:
            return n > 1
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        squares = itertools.accumulate(range(s - 1), lambda y, _: y * y % n, initial=x)  # a^d, ..., a^(d 2^(s-1))
        if x != 1 and n - 1 not in squares:
            return False
    return True


def is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    # Degree <= 3 only: irreducible iff there is no root in GF(p).
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    if deg > MAX_EXTENSION_DEGREE:
        raise UnsupportedExtensionError(f"degree {deg} modulus not supported")
    return all(sum(c * x**i for i, c in enumerate(coeffs)) % p for x in range(p))


def _first_irreducible(p: int, k: int) -> tuple[int, ...]:
    # The modulus of GF(p^k), coefficients low-degree first with the leading 1: the monic irreducible of degree k
    # over GF(p) with the least c_0 + c_1 p + ... + c_(k-1) p^(k-1); x for k = 1.
    for code in range(p**k):
        coeffs = tuple(code // p**i % p for i in range(k)) + (1,)
        if is_irreducible(coeffs, p):
            return coeffs
    raise UnsupportedExtensionError(f"no irreducible modulus found for GF({p}^{k})")


@dataclass(frozen=True, eq=False)
class Field:
    """GF(p^k) with a fixed monic irreducible modulus of degree k, as read-only tables."""

    p: int
    k: int
    modulus: tuple[int, ...]
    add: np.ndarray
    mul: np.ndarray

    @property
    def size(self) -> int:
        return self.p**self.k

    @cached_property
    def neg(self) -> np.ndarray:
        return _read_only(np.argmax(self.add == 0, axis=1))

    @cached_property
    def inv(self) -> np.ndarray:
        """inv[a] * a = 1 for a != 0; inv[0] is 0."""
        return _read_only(np.argmax(self.mul == 1, axis=1))

    @cached_property
    def frobenius(self) -> np.ndarray:
        """a -> a^p, the field automorphism fixing the prime subfield."""
        elems = np.arange(self.size)
        power = np.ones_like(elems)
        for _ in range(self.p):
            power = self.mul[power, elems]
        return _read_only(power)

    @cached_property
    def generator(self) -> int:
        """The least element of multiplicative order size - 1."""
        elems = np.arange(self.size)
        # power[a] = a^e; short[a]: a = 0 or a^e' = 1 for some 0 < e' < e
        power, short = elems, elems == 0
        for _ in range(self.size - 2):
            short |= power == 1
            power = self.mul[power, elems]
        return int(np.argmin(short))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def field_make(p: int, k: int) -> Field:
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if not 1 <= k <= MAX_EXTENSION_DEGREE:
        raise UnsupportedExtensionError(f"extension degree {k} outside [1, {MAX_EXTENSION_DEGREE}]")
    if p**k > MAX_FIELD_SIZE:
        raise UnsupportedExtensionError(f"field size {p**k} exceeds {MAX_FIELD_SIZE}")
    modulus = _first_irreducible(p, k)
    weights = p ** np.arange(k)
    digits = np.arange(p**k)[:, None] // weights % p
    # Schoolbook product of every pair, then each coefficient above x^(k-1),
    # highest first, cancelled by a multiple of the monic modulus.
    conv = np.zeros((p**k, p**k, 2 * k - 1), dtype=np.int64)
    for i in range(k):
        conv[:, :, i : i + k] += digits[:, None, i, None] * digits[None, :, :]
    for m in range(2 * k - 2, k - 1, -1):
        conv[:, :, m - k : m + 1] -= conv[:, :, m, None] % p * np.array(modulus)
    add = (digits[:, None, :] + digits[None, :, :]) % p @ weights
    mul = conv[:, :, :k] % p @ weights
    return Field(p, k, modulus, _read_only(add), _read_only(mul))


def mat_mul(f: Field, x, y) -> tuple:
    """The row-major entries of the 2x2 product xy over f; entries are ints or index arrays."""
    add, mul = f.add, f.mul
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        add[mul[x0, y0], mul[x1, y2]],
        add[mul[x0, y1], mul[x1, y3]],
        add[mul[x2, y0], mul[x3, y2]],
        add[mul[x2, y1], mul[x3, y3]],
    )


# --- permutations -----------------------------------------------------------

Perm = tuple[int, ...]


def perm_compose(a, b) -> np.ndarray:
    """Apply b first, then a; ``a`` may hold one permutation per row, each composed with b."""
    a = np.asarray(a)
    if a.shape[-1] != len(b):
        raise DegreeMismatchError(f"degrees {a.shape[-1]} != {len(b)}")
    return np.take(a, b, axis=-1)


def perm_from_cycles(degree: int, *cycles) -> Perm:
    images = list(range(degree))
    for cycle in cycles:
        for i, point in enumerate(cycle):
            images[point] = cycle[(i + 1) % len(cycle)]
    if sorted(images) != list(range(degree)):
        raise DegreeMismatchError(f"not a bijection on [0, {degree}): {tuple(images)}")
    return tuple(images)
