"""Independent oracles the lattice and predicate tests check against.

These deliberately avoid the library's join-closure enumeration: subgroups
are found by an exhaustive search over subsets of the table, so agreement
with all_subgroups is a genuine two-route check.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def exhaustive_subgroups(mul: np.ndarray) -> frozenset[frozenset[int]]:
    """Every product-closed subset, by a search that decides each element in index order.

    A finite subset closed under the product is automatically a subgroup
    (powers of each element cycle through the identity and the inverse), and
    it necessarily contains the identity, index 0.  Each element not yet in
    the set is either excluded, or included together with the product closure
    of the set so far; a branch dies when its closure meets an excluded
    element.  Every product-closed set containing 0 is reached exactly once,
    by including just its own elements, and every leaf is product-closed.
    """
    n = int(mul.shape[0])
    table = mul.tolist()
    found: set[frozenset[int]] = set()

    def close(members: set[int]) -> set[int]:
        frontier = list(members)
        while frontier:
            new = {table[x][y] for x in frontier for y in members} | {table[y][x] for x in frontier for y in members}
            frontier = list(new - members)
            members |= new
        return members

    stack = [(1, {0}, set())]  # (next index to decide, closed set so far, excluded indices)
    while stack:
        i, members, excluded = stack.pop()
        while i < n and i in members:
            i += 1
        if i == n:
            found.add(frozenset(members))
            continue
        stack.append((i + 1, members, excluded | {i}))
        grown = close(members | {i})
        if not grown & excluded:
            stack.append((i + 1, grown, excluded))
    return frozenset(found)


def subset_scan_subgroups(mul: np.ndarray) -> frozenset[frozenset[int]]:
    """Every product-closed subset containing 0, by testing each subset whose size divides the order.

    The scan ``exhaustive_subgroups`` made before its search, kept as that
    search's oracle; it tests subsets of 15 or more elements in vectorized
    batches and takes tens of seconds at order 24.
    """
    n = int(mul.shape[0])
    if n <= 14:
        return frozenset(_exhaustive_bitmask(mul))
    found: set[frozenset[int]] = {frozenset([0]), frozenset(range(n))}
    rest = list(range(1, n))
    for d in divisors(n):
        if d in (1, n):
            continue
        combos = itertools.combinations(rest, d - 1)
        while True:
            batch = list(itertools.islice(combos, 4096))
            if not batch:
                break
            arr = np.concatenate(
                [np.zeros((len(batch), 1), dtype=np.int64), np.array(batch, dtype=np.int64)],
                axis=1,
            )
            closed = _closed_rows(mul, arr)
            for i in np.flatnonzero(closed):
                found.add(frozenset(int(x) for x in arr[i]))
    return frozenset(found)


def _closed_rows(mul: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """arr: (B, d) sorted member rows; returns a boolean vector of closure."""
    b, d = arr.shape
    n = int(mul.shape[0])
    prods = mul[arr[:, :, None], arr[:, None, :]].astype(np.int64)  # (B, d, d)
    offsets = (np.arange(b, dtype=np.int64) * n)[:, None]
    keys = (arr + offsets).ravel()  # globally sorted, one block per row
    queries = (prods + offsets[:, :, None]).ravel()
    pos = np.searchsorted(keys, queries)
    pos = np.minimum(pos, keys.size - 1)
    hit = keys[pos] == queries
    return hit.reshape(b, d * d).all(axis=1)


def _exhaustive_bitmask(mul: np.ndarray) -> set[frozenset[int]]:
    n = int(mul.shape[0])
    found = set()
    for mask in range(1, 1 << n):
        if not mask & 1:
            continue
        members = [i for i in range(n) if mask >> i & 1]
        closed = all(mask >> mul[x, y] & 1 for x in members for y in members)
        if closed:
            found.add(frozenset(members))
    return found


def brute_closure(mul: np.ndarray, seed, cutoff_to_full: bool = True) -> np.ndarray:
    """Subgroup generated by ``seed``: square the working set until it stops growing.

    Each round adds every product of two current members (one sort-and-merge
    per round); past n/2 members the answer is the whole group by Lagrange.
    """
    n = mul.shape[0]
    cur = np.unique(np.asarray(seed, dtype=np.intp))
    if cur.size == 0:
        return np.zeros(1, dtype=np.intp)
    while True:
        if cutoff_to_full and cur.size > n // 2:
            return np.arange(n, dtype=np.intp)
        prods = mul[np.ix_(cur, cur)]
        new = np.union1d(cur, prods.ravel())
        if new.size == cur.size:
            return new
        cur = new


def all_joins_subgroups(mul: np.ndarray, generators) -> frozenset[frozenset[int]]:
    """Every subgroup, by joining each class representative with every cyclic subgroup not inside it.

    The enumeration without the normalizer-orbit, coset and product-set
    reductions: each new subgroup's conjugacy class (under ``generators``) is
    added whole, and every join is a ``brute_closure``.
    """
    n = int(mul.shape[0])
    inv = np.argmin(mul, axis=1)  # mul[x, inv[x]] is the identity, index 0
    found: set[frozenset[int]] = set()
    reps: list[frozenset[int]] = []

    def orbit_add(sub: frozenset[int]):
        if sub in found:
            return
        found.add(sub)
        reps.append(sub)
        queue = [sub]
        while queue:
            cur = queue.pop()
            for s in generators:
                image = frozenset(int(mul[mul[inv[s], x], s]) for x in cur)
                if image not in found:
                    found.add(image)
                    queue.append(image)

    orbit_add(frozenset([0]))
    cyclic = sorted({frozenset(brute_closure(mul, [x]).tolist()) for x in range(1, n)}, key=sorted)
    for c in cyclic:
        orbit_add(c)
    for base in reps:  # grows while it is walked
        for c in cyclic:
            if not c <= base:
                orbit_add(frozenset(brute_closure(mul, list(base | c)).tolist()))
    return frozenset(found)


def bfs_class_ids(group, subgroups) -> tuple[np.ndarray, np.ndarray]:
    """Conjugacy class ids and normality of ``subgroups`` (sorted), by a conjugation BFS under the generators.

    Classes are numbered in the order of their first subgroup in the list, and
    a subgroup is normal when its class has no other member.  Conjugates are
    computed from the table and its inverses, not from the conjugation table.
    """
    mul, inv = group.mul, group.inv
    index = {frozenset(s.members.tolist()): i for i, s in enumerate(subgroups)}
    class_id = np.full(len(subgroups), -1, dtype=np.int64)
    normal = np.zeros(len(subgroups), dtype=bool)
    next_class = 0
    for i in range(len(subgroups)):
        if class_id[i] != -1:
            continue
        class_id[i] = next_class
        orbit = [i]
        queue = [i]
        while queue:
            members = subgroups[queue.pop()].members
            for s in group.generators:
                j = index[frozenset(mul[mul[inv[s], members], s].tolist())]
                if class_id[j] == -1:
                    class_id[j] = next_class
                    orbit.append(j)
                    queue.append(j)
        normal[i] = len(orbit) == 1
        next_class += 1
    return class_id, normal


def brute_normalizer(mul: np.ndarray, inv: np.ndarray, members: set[int]) -> set[int]:
    n = int(mul.shape[0])
    out = set()
    for g in range(n):
        conj = {int(mul[mul[g, x], inv[g]]) for x in members}
        if conj == members:
            out.add(g)
    return out


def brute_normal_closure(mul: np.ndarray, inv: np.ndarray, members: set[int], within=None) -> set[int]:
    """Smallest subgroup containing ``members`` and normalized by ``within`` (default: the group).

    ``within`` must be a subgroup containing the identity; the set of its
    conjugates of ``members`` is then invariant, and so is its closure.
    """
    conjugators = range(int(mul.shape[0])) if within is None else within
    cur = {int(mul[mul[g, x], inv[g]]) for g in conjugators for x in members} | {0}
    while True:
        new = {int(mul[x, y]) for x in cur for y in cur}
        if new <= cur:
            return cur
        cur |= new


def brute_is_subnormal(mul: np.ndarray, inv: np.ndarray, members: set[int]) -> bool:
    """Walk the chain K_0 = G, K_{i+1} = normal closure of H in K_i down to H or a fixed point."""
    current = set(range(int(mul.shape[0])))
    while True:
        nxt = brute_normal_closure(mul, inv, members, within=current)
        if nxt == members:
            return True
        if nxt == current:
            return False
        current = nxt


def recursive_is_supersolvable(group, budget) -> bool:
    """Trivial, or some normal subgroup of prime order has a supersolvable quotient.

    The definition by a normal series with cyclic factors, unrolled one
    prime-order normal subgroup at a time; every quotient gets its own
    lattice, nothing is memoized.
    """
    from fgt.fields import is_prime
    from fgt.groups import quotient_group
    from fgt.lattice import all_subgroups

    if group.order == 1:
        return True
    return any(
        is_prime(n.order) and recursive_is_supersolvable(quotient_group(group, n.members, budget)[0], budget)
        for n in all_subgroups(group, budget).normal_subgroups()
    )


def quotient_walk_fitting_height(group, budget) -> int:
    """Steps G -> G/F(G) -> (G/F(G))/F(G/F(G)) -> ... down to the trivial group.

    For solvable input only: F(G) is trivial just when G is, so each step shrinks the group.
    """
    from fgt.groups import quotient_group
    from fgt.predicates import fitting_subgroup

    height = 0
    while group.order > 1:
        group, _ = quotient_group(group, fitting_subgroup(group, budget).members, budget)
        height += 1
    return height


def sylow_intersection_core(group, p: int, budget) -> np.ndarray:
    """O_p(G) as the intersection of the Sylow p-subgroups, picked from the lattice by order."""
    from fgt.lattice import all_subgroups

    target = 1
    while group.order % (target * p) == 0:
        target *= p
    members = [s.members for s in all_subgroups(group, budget).subgroups if s.order == target]
    return functools.reduce(lambda a, b: np.intersect1d(a, b, assume_unique=True), members)


def quotient_walk_upper_p_series(group, p: int, budget) -> list[np.ndarray]:
    """Terms 1 <= O_p' <= O_p',p <= ... up to G, each pulled back from a quotient group G/N built for its N.

    For solvable input only, where every p-step grows.  O_p'(G/N) is the
    join of the normal subgroups of order prime to p, O_p(G/N) the
    intersection of the Sylow p-subgroups.
    """
    from fgt.groups import quotient_group
    from fgt.lattice import all_subgroups

    terms = [np.zeros(1, dtype=np.intp)]
    while terms[-1].size < group.order:
        quotient, coset = quotient_group(group, terms[-1], budget)
        if len(terms) % 2 == 0:
            step = sylow_intersection_core(quotient, p, budget)
        else:
            coprime = [n.members for n in all_subgroups(quotient, budget).normal_subgroups() if n.order % p]
            step = brute_closure(quotient.mul, np.concatenate(coprime), cutoff_to_full=False)
        in_step = np.zeros(quotient.order, dtype=bool)
        in_step[step] = True
        terms.append(np.flatnonzero(in_step[coset]))
    return terms


def latin_square(mul: np.ndarray) -> bool:
    """Every row and every column of the table is a permutation of 0..n-1, by sorting both axes."""
    n = mul.shape[0]
    ar = np.arange(n)
    return bool(
        np.array_equal(np.sort(mul, axis=1), np.broadcast_to(ar, (n, n)))
        and np.array_equal(np.sort(mul, axis=0), np.broadcast_to(ar[:, None], (n, n)))
    )


def quotient_walk_p_length(group, p: int, budget) -> int:
    """p-length by building G/O_p'(G) and then its quotient by O_p, even when O_p'(G) is trivial."""
    from fgt.groups import close_under_product, quotient_group
    from fgt.lattice import all_subgroups

    if group.order % p != 0:
        return 0
    core = np.array([0], dtype=np.intp)
    for n in all_subgroups(group, budget).normal_subgroups():
        if n.order % p != 0:
            core = close_under_product(group.mul, np.union1d(core, n.members), cutoff_to_full=False)
    reduced, _ = quotient_group(group, core, budget)
    if reduced.order == 1:
        return 0
    after_p, _ = quotient_group(reduced, sylow_intersection_core(reduced, p, budget), budget)
    return 1 + quotient_walk_p_length(after_p, p, budget)


def brute_is_associative(mul: np.ndarray) -> bool:
    """(x y) z == x (y z) for every triple, one row x at a time: O(n^3)."""
    for x in range(mul.shape[0]):
        if not np.array_equal(mul[mul[x]], mul[x][mul]):
            return False
    return True


# GF(9) = GF(3)[i] with i^2 = -1; a + b i is the index a + 3b.  2x2 matrices
# over it are 4-tuples of indices, row-major.
_GF9_IDENTITY = (1, 0, 0, 1)


def gf9_add(x: int, y: int) -> int:
    return (x + y) % 3 + 3 * ((x // 3 + y // 3) % 3)


def gf9_mul(x: int, y: int) -> int:
    a, b, c, d = x % 3, x // 3, y % 3, y // 3
    return (a * c - b * d) % 3 + 3 * ((a * d + b * c) % 3)


def gf9_bar(x: int) -> int:
    """The Frobenius map x -> x^3: (a + b i)^3 = a + b i^3 = a - b i."""
    return x % 3 + 3 * (-(x // 3) % 3)


def _gf9_mat_mul(m, k):
    a, b, c, d = m
    e, f, g, h = k
    return (
        gf9_add(gf9_mul(a, e), gf9_mul(b, g)),
        gf9_add(gf9_mul(a, f), gf9_mul(b, h)),
        gf9_add(gf9_mul(c, e), gf9_mul(d, g)),
        gf9_add(gf9_mul(c, f), gf9_mul(d, h)),
    )


def unitary_matrices_gf9():
    """All M over GF(9) with M * conj-transpose(M) = 1, in entry-lex order, one scalar product each."""
    out = []
    for code in range(9**4):
        m = (code // 729, code // 81 % 9, code // 9 % 9, code % 9)
        a, b, c, d = m
        if _gf9_mat_mul(m, (gf9_bar(a), gf9_bar(c), gf9_bar(b), gf9_bar(d))) == _GF9_IDENTITY:
            out.append(m)
    return out


def generate_matrix_group(generators, label: str):
    """The group of 2x2 matrices over GF(9) that ``generators`` generate, numbered by breadth-first discovery.

    Each element in turn is multiplied on the right by every generator, and
    the table is filled with one matrix product per pair of elements.
    """
    from fgt.groups import Group

    elems = [_GF9_IDENTITY]
    index = {elems[0]: 0}
    for x in elems:
        for s in generators:
            y = _gf9_mat_mul(x, s)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
    mul = np.array([[index[_gf9_mat_mul(x, y)] for y in elems] for x in elems])
    return Group(mul, label, [index[s] for s in generators])


def cyclic_extension_product(q: int, factors) -> np.ndarray:
    """Table of <a, b_1, ..., b_k | a^q = prod b_i^c_i, b_i^m_i = 1, a^-1 b_i a = b_i^r_i, [b_i, b_j] = 1>.

    ``factors`` lists the (m_i, r_i, c_i).  Element a^s b_1^e_1 ... b_k^e_k is
    the tuple (s, e_1, ..., e_k), numbered in lexicographic order.  One product
    at a time: a^s b^e a^t b^f = a^(s+t) (a^-t b^e a^t) b^f, where conjugation
    by a^t raises each b_i to the power r_i^t, and a^(s+t) with s + t >= q
    leaves a^q = prod b_i^c_i behind.
    """
    elems = list(itertools.product(range(q), *(range(m) for m, _, _ in factors)))
    index = {x: i for i, x in enumerate(elems)}
    mul = np.zeros((len(elems), len(elems)), dtype=np.int64)
    for i, (s, *e) in enumerate(elems):
        for j, (t, *f) in enumerate(elems):
            wrap = (s + t) // q
            digits = [(ei * pow(r, t, m) + fi + c * wrap) % m for ei, fi, (m, r, c) in zip(e, f, factors)]
            mul[i, j] = index[((s + t) % q, *digits)]
    return mul


def int64_cyclic_extension(q: int, factors) -> np.ndarray:
    """The same table as ``cyclic_extension_product``, by the int64 n x n formula the catalog used before its uint16 fill.

    Index arithmetic on whole n x n arrays: s and each digit e_i are read off
    the mixed-radix index, and each digit of the product is
    e_i r_i^s' + e'_i + c_i floor((s + s')/q) mod m_i.
    """
    weight = math.prod(m for m, _, _ in factors)
    idx = np.arange(q * weight)
    s = idx // weight
    mul = s[:, None] + s[None, :]
    carry = mul // q
    mul %= q
    mul *= weight
    for m, r, c in factors:
        weight //= m
        e = idx // weight % m
        rpow = np.array([pow(r % m, t, m) for t in range(q)])
        mul += (e[:, None] * rpow[s] + e + c * carry) % m * weight
    return mul


def sequential_right_table(identity, generators, mul_fn, order_cap: int):
    """Breadth-first closure one element at a time: (elements, right) with right[x, i] = x * generators[i].

    Each element in turn, in discovery order, is multiplied by every
    generator; a product not seen before gets the next index, and the walk
    raises ``BudgetExceededError`` with ``partial`` = the count so far when a
    new element would pass ``order_cap``.
    """
    from fgt.errors import BudgetExceededError

    index = {identity: 0}
    elems = [identity]
    right = []
    for x in elems:
        row = []
        for g in generators:
            y = mul_fn(x, g)
            if y not in index:
                if len(elems) >= order_cap:
                    raise BudgetExceededError(f"closure exceeds order cap {order_cap}", partial=len(elems))
                index[y] = len(elems)
                elems.append(y)
            row.append(index[y])
        right.append(row)
    return elems, np.array(right, dtype=np.intp)


def permutation_table(elems) -> np.ndarray:
    """Cayley table of a list of permutations (tuples of images): mul[a, b] is the index of a o b, b applied first."""
    perms = np.array(elems, dtype=np.int64)
    degree = perms.shape[1]
    weights = degree ** np.arange(degree)
    lookup = dict(zip((perms @ weights).tolist(), range(len(elems))))
    products = perms[:, perms]  # products[a, b, p] = a(b(p))
    return np.array([lookup[key] for key in (products @ weights).ravel().tolist()]).reshape(len(elems), -1)


def heisenberg_product(p: int, n: int) -> np.ndarray:
    """Table of <a, b, x | a^(p^n) = b^p = x^p = 1, x a x^-1 = a b, b central>.

    Element a^i b^j x^k is (i, j, k), numbered in lexicographic order.  Moving
    x^k past a^i' leaves b^(k i') behind, as x^k a x^-k = a b^k.
    """
    elems = list(itertools.product(range(p**n), range(p), range(p)))
    index = {x: i for i, x in enumerate(elems)}
    mul = np.zeros((len(elems), len(elems)), dtype=np.int64)
    for u, (i, j, k) in enumerate(elems):
        for v, (i2, j2, k2) in enumerate(elems):
            mul[u, v] = index[((i + i2) % p**n, (j + j2 + k * i2) % p, (k + k2) % p)]
    return mul


def frobenius_product(q: int, p: int, matrix) -> np.ndarray:
    """Table of GF(q)^k : <y>, y of order p acting by ``matrix``: y v y^-1 = M v.

    Element (v, i) is the vector v times y^i, numbered sum_d v_d q^d * p + i
    (first coordinate least significant).  (v, i)(w, j) = (v + M^i w, i + j).
    """
    k = len(matrix)

    def apply(vec):
        return tuple(sum(matrix[r][c] * vec[c] for c in range(k)) % q for r in range(k))

    vectors = [tuple(code // q**d % q for d in range(k)) for code in range(q**k)]
    elems = [(v, i) for v in vectors for i in range(p)]
    index = {x: u for u, x in enumerate(elems)}
    mul = np.zeros((len(elems), len(elems)), dtype=np.int64)
    for u, (v, i) in enumerate(elems):
        for w_index, (w, j) in enumerate(elems):
            for _ in range(i):
                w = apply(w)
            mul[u, w_index] = index[(tuple((a + b) % q for a, b in zip(v, w)), (i + j) % p)]
    return mul


def all_subgroups_generalized_fitting(group, budget):
    """Components, layer, F* and its class, testing every subgroup of G for perfection.

    The scan ``generalized_fitting`` made before it looked only inside the
    solvable residual.
    """
    from fgt.groups import close_under_product, commutators
    from fgt.lattice import Subgroup, all_subgroups, centralizer_members, is_subnormal, subgroup_as_group
    from fgt.predicates import _fitting_above, _least_normal_above, is_nilpotent

    lattice = all_subgroups(group, budget)
    components = []
    for i, s in enumerate(lattice.subgroups):
        if s.order == 1:
            continue
        if close_under_product(group.mul, commutators(group, s.members, s.members)).size != s.order:
            continue  # not perfect
        if not is_subnormal(group, s):
            continue
        child = subgroup_as_group(lattice, i)
        centre = centralizer_members(child, np.arange(child.order))
        if centre.size == child.order:
            continue  # abelian, not quasisimple
        child_lattice = all_subgroups(child, budget)
        if child_lattice.normal_above(child_lattice.subgroup_index(Subgroup(child, centre))).size == 2:
            components.append(i)
    layer = _least_normal_above(lattice, components)
    fstar = _least_normal_above(lattice, [layer, _fitting_above(lattice, 0)])
    nilp, klass = is_nilpotent(subgroup_as_group(lattice, fstar))
    subs = lattice.subgroups
    return [subs[i] for i in components], subs[layer], subs[fstar], (klass if nilp else None)


def loop_derived_series(group) -> tuple[list[np.ndarray], bool]:
    """Terms of the derived series and whether it reaches 1, recomputed on every call.

    Each term is the closure of the commutators of the one before; the walk
    stops at the trivial group or at a term equal to its own derived subgroup.
    """
    from fgt.groups import close_under_product, commutators

    terms = [np.arange(group.order, dtype=np.intp)]
    while True:
        cur = terms[-1]
        nxt = close_under_product(group.mul, commutators(group, cur, cur))
        if nxt.size == cur.size:
            return terms, cur.size == 1
        terms.append(nxt)
        if nxt.size == 1:
            return terms, True


def loop_lower_central_series(group) -> tuple[list[np.ndarray], bool]:
    """Terms of the lower central series and whether it reaches 1, each the closure of [term, G] over all pairs."""
    from fgt.groups import close_under_product, commutators

    whole = np.arange(group.order, dtype=np.intp)
    terms = [whole]
    while True:
        cur = terms[-1]
        nxt = close_under_product(group.mul, commutators(group, cur, whole))
        if nxt.size == cur.size:
            return terms, cur.size == 1
        terms.append(nxt)
        if nxt.size == 1:
            return terms, True


def proper_containment(subgroups) -> np.ndarray:
    """Boolean matrix of proper inclusion, tested on the packed member bitsets.

    The order-blocked test the lattice made before it read containment off
    generating sets: subgroups of one order sit in one index range, so only
    pairs of orders a < b with a | b are tested, a block of rows of order a
    against every column of order b.
    """
    count = len(subgroups)
    inside = np.zeros((count, count), dtype=bool)
    width = -(-len(subgroups[0].key) // 8) * 8
    packed = np.zeros((count, width), dtype=np.uint8)
    for i, s in enumerate(subgroups):
        packed[i, : len(s.key)] = np.frombuffer(s.key, dtype=np.uint8)
    packed = packed.view(np.uint64)
    outside = ~packed
    orders = np.array([s.order for s in subgroups])
    sizes, starts = np.unique(orders, return_index=True)
    ends = np.append(starts[1:], count)
    for a, a_start, a_end in zip(sizes, starts, ends):
        for b, b_start, b_end in zip(sizes, starts, ends):
            if b <= a or b % a:
                continue
            step = max(1, (1 << 20) // ((b_end - b_start) * width))
            for lo in range(a_start, a_end, step):
                hi = min(lo + step, a_end)
                inside[lo:hi, b_start:b_end] = ~(packed[lo:hi, None] & outside[None, b_start:b_end]).any(axis=2)
    return inside
