"""Named group constructors and the serializable GroupSpec catalog.

Every group the verification harness touches is rebuilt deterministically
from a GroupSpec (constructor name + parameters).  Specs have one text
form, ``Name(arg,...)`` (nesting allowed, e.g. ``Direct(Cyclic(5),Sym(3))``),
and a universe list is a comma-separated list of specs, ranges and
``catalog`` in the same grammar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_BUDGET, MAX_ORDER_CAP, Budget
from .errors import (
    ActionInconsistentError,
    BudgetExceededError,
    InvalidElementError,
    UnknownConstructorError,
)
from .fields import field_make, is_irreducible, is_prime, mat_mul, perm_from_cycles
from .groups import (
    Group,
    automorphism_from_generator_images,
    direct_product,
    generate_group,
    generate_permutation_group,
    semidirect_product,
)


@dataclass(frozen=True)
class GroupSpec:
    constructor: str
    params: tuple = ()

    def to_string(self) -> str:
        if not self.params:
            return self.constructor
        return f"{self.constructor}({','.join(_render_param(p) for p in self.params)})"


def _render_param(p) -> str:
    if isinstance(p, GroupSpec):
        return p.to_string()
    if isinstance(p, tuple):
        return "(" + ",".join(str(x) for x in p) + ")"
    return str(p)


@dataclass(frozen=True)
class PowerActionSpec:
    """Cyclic p-power group acting by power maps on a product of cyclic groups.

    The acting generator a of order p^alpha conjugates the generator a_i of
    the i-th factor (of order p_i^alpha_i) to its -t_i power.  Consistency
    requires the multiplicative order of -t_i mod p_i^alpha_i to divide
    p^alpha, otherwise the presentation does not define a group of the
    intended order.
    """

    p: int
    alpha: int
    factors: tuple[tuple[int, int, int], ...]  # (p_i, alpha_i, t_i)

    def __post_init__(self):
        if not is_prime(self.p) or self.alpha < 1:
            raise ActionInconsistentError("acting prime power invalid")
        primes = [self.p]
        for p_i, a_i, t_i in self.factors:
            if not is_prime(p_i) or a_i < 1:
                raise ActionInconsistentError(f"invalid factor prime power {p_i}^{a_i}")
            m = p_i**a_i
            if not 1 <= t_i <= m - 1 or math.gcd(t_i, p_i) != 1:
                raise ActionInconsistentError(f"twist {t_i} invalid for modulus {m}")
            primes.append(p_i)
            if pow(-t_i % m, self.p**self.alpha, m) != 1:  # its order divides p^alpha
                raise ActionInconsistentError(
                    f"order of -{t_i} mod {m} does not divide {self.p}^{self.alpha}"
                )
        if len(set(primes)) != len(primes):
            raise ActionInconsistentError("primes must be pairwise distinct")

    @property
    def order(self) -> int:
        n = self.p**self.alpha
        for p_i, a_i, _ in self.factors:
            n *= p_i**a_i
        return n


# --- formula-built tables -------------------------------------------------------


def _cyclic_extension(q: int, factors) -> np.ndarray:
    """Cayley table of a cyclic extension <a> over a product of cyclic groups <b_i>.

    Each factor (m, r, c) is a cyclic group <b> with b^m = 1, a^-1 b a = b^r,
    and a^q is the product of the b_i^c_i (Hoelder's theorem; D. J. S.
    Robinson, A Course in the Theory of Groups, 1996).  Element
    a^s b_1^e_1 ... b_k^e_k has the mixed-radix index of (s, e_1, ..., e_k),
    s most significant, and
    (s, e)(s', e') = (s + s' mod q, e_i r_i^s' + e'_i + c_i floor((s + s')/q) mod m_i).

    The uint16 table, viewed in the shape (q, m_1..m_k, q, m_1..m_k), sums one
    broadcast term for s + s' mod q and one per factor, on its (q, m, q, m) axes.
    """
    radix = [m for m, _, _ in factors]
    weight = math.prod(radix)
    s = np.arange(q, dtype=np.uint16)
    total = np.add.outer(s, s)  # s + s' < 2q
    carry = (total >= q).astype(np.uint16)
    total -= carry * q
    total *= weight
    mul = np.empty((q, *radix) * 2, dtype=np.uint16)
    mul[...] = total.reshape((q, *[1] * len(radix)) * 2)
    for i, (m, r, c) in enumerate(factors):
        weight //= m
        rpow = np.array([pow(r % m, t, m) for t in range(q)])
        e = np.arange(m)
        term = (e[:, None] * rpow % m).astype(np.uint16)[None, :, :, None] + e.astype(np.uint16)  # < 2m
        if c:
            term = term + (carry * (c % m))[:, None, :, None]  # < 3m
        term %= m
        term *= weight
        axes = [1] * len(radix)  # term's (m, m) axes sit at factor i
        axes[i] = m
        mul += term.reshape(len(term), *axes, q, *axes)
    return mul.reshape(q * math.prod(radix), -1)


def build_cyclic(n: int, budget: Budget) -> Group:
    if n < 1:
        raise InvalidElementError("cyclic order must be >= 1")
    _cap_check(n, budget)
    return Group(_cyclic_extension(n, []), f"C{n}", [1] if n > 1 else [])


def build_elementary_abelian(p: int, k: int, budget: Budget) -> Group:
    if k < 1 or p <= budget.order_cap and not is_prime(p):  # a larger p is refused by the cap, untested
        raise InvalidElementError("need a prime p and k >= 1")
    _cap_check_powers([(p, k)], budget)
    gens = [p**d for d in range(k)]
    return Group(_cyclic_extension(p, [(p, 1, 0)] * (k - 1)), f"C{p}^{k}", gens)


def build_dihedral(n: int, budget: Budget) -> Group:
    """Order 2n:  <a, b | a^n = b^2 = 1, b a b = a^-1>."""
    if n < 1:
        raise InvalidElementError("dihedral parameter must be >= 1")
    _cap_check(2 * n, budget)
    gens = [1, n] if n > 1 else [n]
    return Group(_cyclic_extension(2, [(n, -1, 0)]), f"D{n}", gens)


def build_dicyclic(n: int, budget: Budget) -> Group:
    """Order 4n:  <a, b | a^2 = b^n, o(a) = 4, o(b) = 2n, a^-1 b a = b^-1>."""
    if n < 1:
        raise InvalidElementError("dicyclic parameter must be >= 1")
    _cap_check(4 * n, budget)
    return Group(_cyclic_extension(2, [(2 * n, -1, n)]), f"Dic{n}", [2 * n, 1])


def build_symmetric(n: int, budget: Budget) -> Group:
    if n < 1 or n > 7:
        raise InvalidElementError("Sym(n) supported for 1 <= n <= 7")
    if n == 1:
        return build_cyclic(1, budget)
    _cap_check(math.factorial(n), budget)
    gens = [perm_from_cycles(n, (0, 1))]
    if n > 2:
        gens.append(perm_from_cycles(n, tuple(range(n))))
    return generate_permutation_group(gens, f"S{n}", budget)


def build_alternating(n: int, budget: Budget) -> Group:
    if n < 3 or n > 7:
        raise InvalidElementError("Alt(n) supported for 3 <= n <= 7")
    _cap_check(math.factorial(n) // 2, budget)
    gens = [perm_from_cycles(n, (0, 1, 2))]
    if n > 3:
        cycle = tuple(range(n)) if n % 2 == 1 else tuple(range(1, n))
        gens.append(perm_from_cycles(n, cycle))
    g = generate_permutation_group(gens, f"A{n}", budget)
    if g.order != math.factorial(n) // 2:
        raise ActionInconsistentError(f"Alt({n}) closure has wrong order {g.order}")
    return g


def build_modular(p: int, n: int, budget: Budget) -> Group:
    """Order p^(n+1):  <a, x | a^(p^n) = x^p = 1, x^-1 a x = a^(1+p^(n-1))>."""
    if n < 2 or p <= budget.order_cap and not is_prime(p):  # a larger p is refused by the cap, untested
        raise InvalidElementError("Modular(p,n) needs prime p and n >= 2")
    _cap_check_powers([(p, n + 1)], budget)
    pn = p**n
    return Group(_cyclic_extension(p, [(pn, 1 + p ** (n - 1), 0)]), f"Mod({p},{n})", [1, pn])


def build_heisenberg_like(p: int, n: int, budget: Budget) -> Group:
    """Order p^(n+2):  <a, b, x | a^(p^n) = b^p = x^p = 1, [x,a] = b central>.

    The split extension (C_{p^n} x C_p) : C_p where x maps (a, b) to (a, a + b).
    """
    if n < 1 or p <= budget.order_cap and not is_prime(p):  # a larger p is refused by the cap, untested
        raise InvalidElementError("HeisenbergLike(p,n) needs prime p and n >= 1")
    _cap_check_powers([(p, n + 2)], budget)
    base = direct_product(build_cyclic(p**n, budget), build_cyclic(p, budget), budget)
    a, b = np.divmod(np.arange(base.order), p)
    shear = a * p + (a + b) % p
    return semidirect_product(base, build_cyclic(p, budget), {1: shear}, budget, label=f"Heis({p},{n})")


def build_sl2(q: int, budget: Budget) -> Group:
    expected = q * (q * q - 1)
    if q > budget.order_cap:  # so is the order: refused before q is factored
        _cap_check(expected, budget)
    p, k = _prime_power(q)
    _cap_check(expected, budget)
    f = field_make(p, k)
    gens = [(1, 1, 0, 1), (1, 0, 1, 1)]
    if k > 1:
        c = f.generator
        gens += [(1, c, 0, 1), (1, 0, c, 1)]
    g = generate_group((1, 0, 0, 1), gens, lambda xs, s: np.column_stack(mat_mul(f, xs.T, s)), f"SL(2,{q})", budget)
    if g.order != expected:
        raise ActionInconsistentError(f"SL(2,{q}) closure has order {g.order}, expected {expected}")
    return g


def build_psl2(q: int, budget: Budget) -> Group:
    """Projectivities of the projective line over GF(q) with square determinant.

    Realized as permutations of the q+1 points (field indices plus infinity
    at index q), generated by x -> x+1, x -> s*x and x -> -1/x where s is a
    generator of the squares (the full multiplicative group for even q).
    """
    expected = q * (q * q - 1) // math.gcd(2, q - 1)
    if q > budget.order_cap:  # so is the order: refused before q is factored
        _cap_check(expected, budget)
    p, k = _prime_power(q)
    _cap_check(expected, budget)
    f = field_make(p, k)
    infinity = q
    c = f.generator
    s = c if q % 2 == 0 else f.mul[c, c]
    gens = [f.add[1].tolist() + [infinity], [infinity] + f.neg[f.inv[1:]].tolist() + [0]]
    if s != 1:
        gens.insert(1, f.mul[s].tolist() + [infinity])
    g = generate_permutation_group(gens, f"PSL(2,{q})", budget)
    if g.order != expected:
        raise ActionInconsistentError(f"PSL(2,{q}) closure has order {g.order}, expected {expected}")
    return g


def build_gu2_3(budget: Budget) -> Group:
    """GU(2,3): the 2x2 matrices M over GF(9) with M * conj-transpose(M) = 1.

    All 9^4 entry tuples are filtered at once through the GF(9) tables and
    Frobenius.  The identity is element 0 and the other matrices follow in
    entry-lex order; the generators are all of them in entry-lex order, so
    this is the numbering a breadth-first closure over them gives.
    """
    _cap_check(96, budget)
    f = field_make(3, 2)
    bar = f.frobenius
    shape = (9, 9, 9, 9)
    a, b, c, d = entries = np.unravel_index(np.arange(9**4), shape)
    identity = np.ravel_multi_index((1, 0, 0, 1), shape)
    gram = mat_mul(f, entries, (bar[a], bar[c], bar[b], bar[d]))  # M times its conjugate transpose
    lex = np.flatnonzero(np.ravel_multi_index(gram, shape) == identity)
    if lex.size != 96:
        raise ActionInconsistentError(f"GU(2,3) filter produced order {lex.size}, expected 96")
    elems = np.append(identity, lex[lex != identity])
    index = np.zeros(9**4, dtype=np.intp)
    index[elems] = np.arange(elems.size)
    table = mat_mul(f, [e[elems, None] for e in entries], [e[None, elems] for e in entries])
    return Group(index[np.ravel_multi_index(table, shape)], "GU(2,3)", index[lex])


def build_power_action(spec: PowerActionSpec, budget: Budget) -> Group:
    _cap_check(spec.order, budget)
    factors = [(p_i**a_i, -t_i, 0) for p_i, a_i, t_i in spec.factors]
    gens = [spec.order // spec.p**spec.alpha]  # the acting generator a
    for m, _, _ in factors:
        gens.append(gens[-1] // m)
    label = f"PA[{spec.p}^{spec.alpha}" + "".join(
        f";{p_i}^{a_i}@{t_i}" for p_i, a_i, t_i in spec.factors
    ) + "]"
    return Group(_cyclic_extension(spec.p**spec.alpha, factors), label, gens)


def build_irreducible_frobenius(q: int, k: int, p: int, budget: Budget) -> Group:
    """Elementary abelian q^k with a cyclic order-p companion-matrix action.

    The action matrix is the companion matrix of the lexicographically first
    monic irreducible degree-k polynomial over GF(q) whose companion matrix
    has order p (an irreducible factor of x^p - 1); irreducibility of the
    polynomial makes the action irreducible.
    """
    if 2 <= k <= 3 and min(q, p) > 0 and max(q, p) > budget.order_cap:  # q^k p passes it: no primality test
        _cap_check(q**k * p, budget)
    if not (is_prime(q) and is_prime(p)) or q == p:
        raise InvalidElementError("need distinct primes q (kernel) and p (action)")
    if k < 2 or k > 3:
        raise InvalidElementError("supported kernel ranks: 2 <= k <= 3")
    _cap_check(q**k * p, budget)
    mat = _companion_of_order(q, k, p)
    if mat is None:
        raise ActionInconsistentError(
            f"no irreducible degree-{k} action of order {p} exists over GF({q})"
        )
    kernel = build_elementary_abelian(q, k, budget)
    weights = q ** np.arange(k)
    digits = np.arange(kernel.order)[:, None] // weights % q  # coordinates of v, least significant first
    action = digits @ mat.T % q @ weights  # the index of M v
    return semidirect_product(kernel, build_cyclic(p, budget), {1: action}, budget, label=f"Frob({q}^{k}:{p})")


def _companion_of_order(q: int, k: int, p: int):
    for code in range(q**k):
        coeffs = [(code // q**d) % q for d in range(k)]  # constant term first
        if not is_irreducible(tuple(coeffs + [1]), q):
            continue
        mat = np.zeros((k, k), dtype=np.int64)
        for r in range(1, k):
            mat[r, r - 1] = 1
        for r in range(k):
            mat[r, k - 1] = (-coeffs[r]) % q
        cur = np.eye(k, dtype=np.int64)
        for _ in range(p):
            cur = cur @ mat % q
        if np.array_equal(cur, np.eye(k, dtype=np.int64)):
            return mat
    return None


def build_c2sq_semi_c4(budget: Budget) -> Group:
    """C2^2 : C4 where the order-4 generator swaps the two coordinates.

    The C4 complement has a normalizer of C2 x C4 profile (order 8), and its
    normal closure lies inside that normalizer.
    """
    a = build_elementary_abelian(2, 2, budget)
    b = build_cyclic(4, budget)
    swap = np.array([0, 2, 1, 3], dtype=np.int64)  # (e1,e2) -> (e2,e1)
    return semidirect_product(a, b, {1: swap}, budget, label="C2^2:C4")


def build_d4_semi_s3(budget: Budget) -> Group:
    """D4 : S3 with the 3-cycle acting trivially and the involution by a -> a^-1, b -> ab."""
    d4 = build_dihedral(4, budget)
    s3 = build_symmetric(3, budget)
    # d4 generators: a = rotation (index 1), b = reflection (index 4)
    a_gen, b_gen = d4.generators
    a_inv = int(d4.inv[a_gen])
    ab = int(d4.mul[a_gen, b_gen])
    phi = automorphism_from_generator_images(d4, {a_gen: a_inv, b_gen: ab})
    # s3 generators: d = transposition, c = 3-cycle
    d_gen, c_gen = s3.generators
    ident = np.arange(d4.order, dtype=np.int64)
    g = semidirect_product(d4, s3, {d_gen: phi, c_gen: ident}, budget, label="D4:S3")
    return g


def build_c5xc3_semi_d4(budget: Budget) -> Group:
    """(C5 x C3) : D4; both dihedral generators invert the C3 part, C5 is central."""
    a = direct_product(build_cyclic(5, budget), build_cyclic(3, budget), budget, label="C5xC3")
    d4 = build_dihedral(4, budget)
    # a generators: C5 part = index 3, C3 part = index 1
    five_gen, three_gen = a.generators
    inv_b = automorphism_from_generator_images(
        a, {five_gen: five_gen, three_gen: int(a.inv[three_gen])}
    )
    c_gen, d_gen = d4.generators
    g = semidirect_product(a, d4, {c_gen: inv_b, d_gen: inv_b}, budget, label="(C5xC3):D4")
    return g


def build_c5_semi_q8(budget: Budget) -> Group:
    """C5 : Q8 where i and j invert C5 and k = ij centralizes it."""
    c5 = build_cyclic(5, budget)
    q8 = build_dicyclic(2, budget)
    a_gen, b_gen = q8.generators  # a order 4, b order 4 (= i, j)
    invert = np.array([0, 4, 3, 2, 1], dtype=np.int64)
    g = semidirect_product(c5, q8, {a_gen: invert, b_gen: invert}, budget, label="C5:Q8")
    return g


def _prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k, for p in (2, 3, 5, 7) or k = 1; callers check the cap before building GF(q)."""
    for p in (2, 3, 5, 7):
        k = 1
        while p**k < q:
            k += 1
        if p**k == q:
            return p, k
    if is_prime(q):
        return q, 1
    raise InvalidElementError(f"unsupported field order {q}")


# A prime-power order of more bits than this is refused without being computed.
_ORDER_BITS = 1 << 20


def _cap_check_powers(powers, budget: Budget) -> None:
    """``_cap_check`` on the product of p**k over ``powers`` (p >= 2, k >= 1).

    A p of b bits is at least 2**(b - 1), so a product whose lower bound
    2**sum(k (b - 1)) has more than ``_ORDER_BITS`` bits is refused unbuilt.
    """
    if sum(k * (p.bit_length() - 1) for p, k in powers) > _ORDER_BITS:
        raise BudgetExceededError(f"group order of more than {_ORDER_BITS} bits exceeds cap {budget.order_cap}")
    _cap_check(math.prod(p**k for p, k in powers), budget)


def _cap_check(order: int, budget: Budget):
    if order > budget.order_cap:
        try:
            text = f"group order {order}"
        except ValueError:  # more digits than Python prints (sys.get_int_max_str_digits)
            text = f"group order of {order.bit_length()} bits"
        raise BudgetExceededError(f"{text} exceeds cap {budget.order_cap}")


# --- spec dispatch ---------------------------------------------------------------


def _build_quaternion(order: int, budget: Budget) -> Group:
    if order < 8 or order > 16 or order & (order - 1):
        raise InvalidElementError("Quaternion(m) supports m in {8, 16}")
    _cap_check(order, budget)
    return Group(_cyclic_extension(2, [(order // 2, -1, order // 4)]), f"Q{order}", [order // 2, 1])


# name: (integer parameter names, builder(*params, budget)); Direct and PowerAction take nested params
_CONSTRUCTORS: dict[str, tuple] = {
    "Cyclic": (("n",), build_cyclic),
    "ElementaryAbelian": (("p", "k"), build_elementary_abelian),
    "Dihedral": (("n",), build_dihedral),
    "Dicyclic": (("n",), build_dicyclic),
    "Quaternion": (("order",), _build_quaternion),
    "Sym": (("n",), build_symmetric),
    "Alt": (("n",), build_alternating),
    "Modular": (("p", "n"), build_modular),
    "HeisenbergLike": (("p", "n"), build_heisenberg_like),
    "SL2": (("q",), build_sl2),
    "PSL2": (("q",), build_psl2),
    "GU2_3": ((), build_gu2_3),
    "C2sqSemiC4": ((), build_c2sq_semi_c4),
    "D4SemiS3": ((), build_d4_semi_s3),
    "C5xC3SemiD4": ((), build_c5xc3_semi_d4),
    "C5SemiQ8": ((), build_c5_semi_q8),
    "IrreducibleFrobenius": (("q", "k", "p"), build_irreducible_frobenius),
}


_BUILD_CACHE: dict[GroupSpec, Group] = {}


def build_group(spec: GroupSpec, budget: Budget = DEFAULT_BUDGET) -> Group:
    cached = _BUILD_CACHE.get(spec)
    # exact: a builder succeeds under cap c iff the group's order is at most c, as no intermediate group is larger
    if cached is not None and cached.order <= budget.order_cap:
        return cached
    g = _BUILD_CACHE[spec] = _build_uncached(spec, budget)
    return g


def _build_uncached(spec: GroupSpec, budget: Budget) -> Group:
    name = spec.constructor
    if name == "Direct":
        if len(spec.params) < 2 or not all(isinstance(p, GroupSpec) for p in spec.params):
            raise UnknownConstructorError("Direct takes at least two nested specs")
        g = build_group(spec.params[0], budget)
        for sub in spec.params[1:]:
            g = direct_product(g, build_group(sub, budget), budget)
        return g
    if name == "PowerAction":
        if len(spec.params) < 3 or not all(isinstance(x, int) for x in spec.params[:2]):
            raise UnknownConstructorError("PowerAction(p,alpha,(p1,a1,t1),...)")
        p, alpha = spec.params[0], spec.params[1]
        triples = spec.params[2:]
        if not all(isinstance(t, tuple) and len(t) == 3 for t in triples):
            raise UnknownConstructorError("PowerAction factors must be (prime,exp,twist) triples")
        # every prime power of the right shape, even beside a malformed one, which PowerActionSpec refuses
        powers = [(q, a) for q, a in [(p, alpha), *((q, a) for q, a, _ in triples)] if q >= 2 and a >= 1]
        cap = budget.order_cap
        if any(a > cap.bit_length() or q**a > cap for q, a in powers):
            _cap_check_powers(powers, budget)  # a factor alone passes the cap: refused before arithmetic modulo it
        pa = PowerActionSpec(p, alpha, tuple(triples))
        return build_power_action(pa, budget)
    entry = _CONSTRUCTORS.get(name)
    if entry is None:
        raise UnknownConstructorError(f"unknown constructor {name!r}")
    names, builder = entry
    if len(spec.params) != len(names) or not all(isinstance(p, int) for p in spec.params):
        raise UnknownConstructorError(f"{name} takes {len(names)} integer parameter(s)")
    return builder(*spec.params, budget)


# --- spec string grammar ---------------------------------------------------------


def parse_spec(text: str) -> GroupSpec:
    parser = _SpecParser(text)
    spec = parser.parse_spec()
    parser.expect_end()
    return spec


def parse_universe(text: str) -> list[GroupSpec]:
    """The specs of a comma-separated universe list, in order.

    An item is a spec, ``catalog`` (the standard catalog) or a range
    ``Name(lo..hi)`` of a one-integer constructor.  A range is a whole item,
    never a parameter inside a spec.
    """
    parser = _SpecParser(text)
    specs: list[GroupSpec] = []
    while parser.peek():
        specs += parser.parse_item()
        if parser.peek() != ",":
            break
        parser.pos += 1
    parser.expect_end()
    return specs


# The catalog nests specs two deep; a deeper text is refused before it can exhaust the stack.
_MAX_SPEC_DEPTH = 32


class _SpecParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_name(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        name = self.text[start : self.pos]
        if not name or name[0].isdigit():
            raise UnknownConstructorError(f"expected constructor name at {start} in {self.text!r}")
        return name

    def parse_item(self) -> list[GroupSpec]:
        """One universe item: ``catalog``, a range ``Name(lo..hi)`` or a spec."""
        start = self.pos
        name = self.parse_name()
        if self.peek() != "(":
            return standard_catalog() if name == "catalog" else [GroupSpec(name)]
        self.pos += 1
        if self.peek().isdigit() or self.peek() == "-":
            lo = self.parse_int()
            if self.peek() == "." and self.text.startswith("..", self.pos):
                self.pos += 2
                hi = self.parse_int()
                if self.peek() != ")":
                    raise UnknownConstructorError(f"expected ')' after range in {self.text!r}")
                self.pos += 1
                return _spec_range(name, lo, hi)
        self.pos = start
        return [self.parse_spec()]

    def parse_spec(self) -> GroupSpec:
        name = self.parse_name()
        if self.peek() != "(":
            return GroupSpec(name)
        self.depth += 1
        if self.depth > _MAX_SPEC_DEPTH:
            raise UnknownConstructorError(f"specs nested more than {_MAX_SPEC_DEPTH} deep at {self.pos}")
        self.pos += 1
        params = []
        if self.peek() != ")":
            params.append(self.parse_param())
            while self.peek() == ",":
                self.pos += 1
                params.append(self.parse_param())
        if self.peek() != ")":
            raise UnknownConstructorError(f"expected ')' in {self.text!r}")
        self.pos += 1
        self.depth -= 1
        return GroupSpec(name, tuple(params))

    def parse_param(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            ints = [self.parse_int()]
            while self.peek() == ",":
                self.pos += 1
                ints.append(self.parse_int())
            if self.peek() != ")":
                raise UnknownConstructorError(f"expected ')' in tuple in {self.text!r}")
            self.pos += 1
            return tuple(ints)
        if ch.isdigit() or ch == "-":
            return self.parse_int()
        return self.parse_spec()

    def parse_int(self) -> int:
        self._skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if digits == self.pos:
            raise UnknownConstructorError(f"expected integer at {start} in {self.text!r}")
        return int(self.text[start : self.pos])

    def expect_end(self):
        self._skip_ws()
        if self.pos != len(self.text):
            raise UnknownConstructorError(f"trailing input at {self.pos} in {self.text!r}")


def _spec_range(name: str, lo: int, hi: int) -> list[GroupSpec]:
    """Name(lo), ..., Name(hi).  Every one-integer constructor needs its parameter
    at least 1 and builds a group of order at least the parameter, so nothing
    outside 1..MAX_ORDER_CAP could be built; such a range is refused unlisted."""
    if len(_CONSTRUCTORS.get(name, ((),))[0]) != 1:
        raise UnknownConstructorError(f"a range needs a one-integer constructor, not {name!r}")
    if lo < 1 or hi > MAX_ORDER_CAP:
        raise UnknownConstructorError(
            f"range {name}({lo}..{hi}) leaves 1..{MAX_ORDER_CAP}: no {name} outside it can be built"
        )
    return [GroupSpec(name, (n,)) for n in range(lo, hi + 1)]


# --- the standard catalog ---------------------------------------------------------


def standard_catalog() -> list[GroupSpec]:
    """The fixed universe of groups the claim registry quantifies over."""
    specs: list[GroupSpec] = []
    specs += [GroupSpec("Cyclic", (n,)) for n in range(1, 13)]
    specs += [
        GroupSpec("ElementaryAbelian", (2, 2)),
        GroupSpec("ElementaryAbelian", (2, 3)),
        GroupSpec("ElementaryAbelian", (3, 2)),
        GroupSpec("ElementaryAbelian", (5, 2)),
        GroupSpec("Direct", (GroupSpec("Cyclic", (2,)), GroupSpec("Cyclic", (4,)))),
    ]
    specs += [GroupSpec("Dihedral", (n,)) for n in range(3, 13)]
    specs += [GroupSpec("Dicyclic", (n,)) for n in range(2, 7)]
    specs += [GroupSpec("Sym", (n,)) for n in (3, 4, 5)]
    specs += [GroupSpec("Alt", (n,)) for n in (4, 5)]
    specs += [
        GroupSpec("Modular", (3, 2)),
        GroupSpec("Modular", (5, 2)),
        GroupSpec("HeisenbergLike", (3, 1)),
        GroupSpec("HeisenbergLike", (5, 1)),
        GroupSpec("HeisenbergLike", (2, 2)),
        GroupSpec("SL2", (3,)),
        GroupSpec("SL2", (5,)),
        GroupSpec("PSL2", (4,)),
        GroupSpec("PSL2", (5,)),
        GroupSpec("PSL2", (7,)),
        GroupSpec("PSL2", (8,)),
        GroupSpec("GU2_3"),
        GroupSpec("C2sqSemiC4"),
        GroupSpec("D4SemiS3"),
        GroupSpec("C5xC3SemiD4"),
        GroupSpec("C5SemiQ8"),
        GroupSpec("PowerAction", (2, 2, (5, 1, 3))),
        GroupSpec("PowerAction", (3, 1, (7, 1, 5))),
        GroupSpec("PowerAction", (2, 1, (3, 2, 1))),
        GroupSpec("IrreducibleFrobenius", (5, 2, 3)),
        GroupSpec("IrreducibleFrobenius", (2, 2, 3)),
        GroupSpec("Direct", (GroupSpec("Cyclic", (3,)), GroupSpec("Sym", (3,)))),
        GroupSpec("Direct", (GroupSpec("Cyclic", (5,)), GroupSpec("Sym", (3,)))),
        GroupSpec("Direct", (GroupSpec("Cyclic", (7,)), GroupSpec("Alt", (5,)))),
        GroupSpec("Direct", (GroupSpec("Cyclic", (5,)), GroupSpec("Dihedral", (4,)))),
        GroupSpec("Direct", (GroupSpec("Cyclic", (3,)), GroupSpec("Dihedral", (5,)))),
    ]
    return specs
