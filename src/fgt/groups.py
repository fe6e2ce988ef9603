"""Finite groups as dense Cayley tables with canonical element numbering.

A Group is an immutable n x n multiplication table over element indices
0..n-1 with the identity at index 0.  Constructors guarantee deterministic
numbering (BFS discovery order for generated groups, lexicographic tuples
for formula-built groups), so every downstream computation is reproducible
byte for byte.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_BUDGET, Budget
from .errors import (
    ActionInconsistentError,
    BudgetExceededError,
    InvalidElementError,
    NotAutomorphismError,
    NotNormalError,
)
from .fields import perm_compose


_BLOCK_BYTES = 1 << 17  # temporaries below glibc's default mmap threshold come from the heap


def _validate_table(mul: np.ndarray, generators) -> tuple[np.ndarray, tuple[int, ...]]:
    """Check that ``mul`` is a group table generated by ``generators``.

    Returns the inverse map and the generating set as a tuple.  Associativity
    is Light's test: if S generates a loop, the loop is associative iff
    (x s) y = x (s y) for all x, y and every s in S (Clifford-Preston, The
    Algebraic Theory of Semigroups I, 1961).
    The elements passing that test are closed under the product, so the test
    is exact once right multiplication by S reaches every element from the
    identity; that closure runs without the Lagrange cutoff, which presumes
    a group.  The test compares a block of rows x for every s at once, two
    temporaries of about ``_BLOCK_BYTES`` each.

    No Latin-square check is needed: once every entry is an element, 0 is a
    two-sided identity, every row holds 0 and S generates, Light's test makes
    the table an associative monoid in which every element has a right
    inverse.  Such a monoid is a group (if xy = 1 and yz = 1, then
    yx = yx(yz) = y(xy)z = yz = 1), and a group table is a Latin square.
    """
    n = mul.shape[0]
    if mul.shape != (n, n):
        raise InvalidElementError("multiplication table is not square")
    if n == 0:
        raise InvalidElementError("empty multiplication table")
    if mul.max() >= n:  # before any indexing by table values
        raise InvalidElementError(f"table entry out of range 0..{n - 1}")
    ar = np.arange(n, dtype=mul.dtype)
    if not (np.array_equal(mul[0], ar) and np.array_equal(mul[:, 0], ar)):
        raise InvalidElementError("index 0 is not a two-sided identity")
    inv = np.argmin(mul, axis=1).astype(mul.dtype)  # position of 0 in each row
    if not np.array_equal(mul[ar, inv], np.zeros(n, dtype=mul.dtype)):
        raise InvalidElementError("missing inverses")
    gens = tuple(int(s) for s in generators)
    if not all(0 <= s < n for s in gens):
        raise InvalidElementError(f"generator index out of range 0..{n - 1}")
    if close_under_product(mul, gens, cutoff_to_full=False).size != n:
        raise InvalidElementError("generators do not generate the table")
    s_y = mul[list(gens)]  # s_y[i, y] = s_i y
    step = max(1, _BLOCK_BYTES // (n * max(len(gens), 1) * mul.itemsize))  # rows x per block
    for lo in range(0, n, step):
        x = mul[lo : lo + step]
        if not (mul[x[:, list(gens)]] == np.take(x, s_y, axis=1)).all():  # (x s) y == x (s y), (rows, |S|, n)
            bad = next(s for s, sy in zip(gens, s_y) if not (mul[mul[:, s]] == mul[:, sy]).all())
            raise InvalidElementError(f"associativity fails at generator {bad}")
    return inv, gens


class Group:
    """Immutable finite group on indices 0..n-1 (identity = 0).

    ``generators`` always generates the group: every builder passes the set it
    built the table from, and the table is checked against it.
    """

    __slots__ = ("label", "mul", "inv", "generators", "_cache")

    def __init__(self, mul, label: str, generators):
        mul = np.ascontiguousarray(mul, dtype=np.uint16)
        inv, self.generators = _validate_table(mul, generators)
        mul.setflags(write=False)
        inv.setflags(write=False)
        self.mul = mul
        self.inv = inv
        self.label = label
        self._cache: dict = {}

    @property
    def order(self) -> int:
        return int(self.mul.shape[0])

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"Group({self.label!r}, order={self.order})"

    def conjugates(self, ys, xs):
        """y x y^-1 for y in ``ys`` and x in ``xs``, broadcast as ``mul[ys, xs]`` is."""
        ys = np.asarray(ys)
        return self.mul[self.mul[ys, xs], self.inv[ys]]

    def element_orders(self) -> np.ndarray:
        orders = self._cache.get("orders")
        if orders is None:
            n = self.order
            orders = np.ones(n, dtype=np.int64)
            cur = np.arange(n)
            ar = np.arange(n)
            k = 1
            remaining = cur != 0
            while remaining.any():
                cur = self.mul[cur, ar]
                k += 1
                newly = remaining & (cur == 0)
                orders[newly] = k
                remaining &= ~newly
            orders.setflags(write=False)
            self._cache["orders"] = orders
        return orders

    def power(self, x: int, e: int) -> int:
        o = int(self.element_orders()[x])
        e %= o
        acc = 0
        for _ in range(e):
            acc = int(self.mul[acc, x])
        return acc


def close_under_product(mul: np.ndarray, seed, cutoff_to_full: bool = True, start=None) -> np.ndarray:
    """Smallest subgroup (as a sorted index array) containing ``seed``.

    Breadth-first from the identity: each round multiplies the frontier by
    every seed element and keeps the products not yet marked.  In a finite
    group the multiplicative closure is already a subgroup.  When the marked
    set passes n/2 the answer must be the whole group (Lagrange), which
    short-circuits the common case of joins that collapse to G.  Validation
    passes ``cutoff_to_full=False``, as its table is not yet known to be a group.

    ``start``, the sorted members of a subgroup inside <seed>, begins the walk
    marked instead of the identity; the seed then needs only generators.
    """
    n = mul.shape[0]
    seeds = np.asarray(seed, dtype=np.intp).ravel()
    frontier = np.zeros(1, dtype=np.intp) if start is None else np.asarray(start, dtype=np.intp)
    mask = np.zeros(n, dtype=bool)
    mask[frontier] = True
    size = frontier.size
    while frontier.size:
        reached = np.zeros(n, dtype=bool)
        reached[mul[frontier[:, None], seeds]] = True
        reached &= ~mask
        frontier = reached.nonzero()[0]
        mask |= reached
        size += frontier.size
        if cutoff_to_full and size > n // 2:
            return np.arange(n, dtype=np.intp)
    return mask.nonzero()[0]


# --- generated groups ---------------------------------------------------------


def _right_table(identity, generators, mul_fn, order_cap: int) -> np.ndarray:
    """Breadth-first closure, elements numbered in discovery order.

    Returns right[x, i] = x * generators[i]; row 0 holds the generators' indices.
    A whole level is multiplied at once, ``mul_fn(xs, g)`` giving x * g for
    each row x of ``xs``; its new elements, looked up by the bytes of their
    rows, are numbered by first appearance in (x, generator) order, as a walk
    one element at a time numbers them.
    """
    level = np.array([identity])
    index = {level.tobytes(): 0}
    rows = []
    while len(level):
        products = np.stack([mul_fn(level, g) for g in generators], axis=1).astype(level.dtype).reshape(-1, level.shape[1])
        keys = products.view(np.dtype((np.void, products[0].nbytes))).ravel().tolist()
        size = len(index)
        index.update(zip(dict.fromkeys(itertools.filterfalse(index.__contains__, keys)), itertools.count(size)))
        if len(index) > max(size, order_cap):  # a new element past the cap, met where a sequential walk meets it
            raise BudgetExceededError(f"closure exceeds order cap {order_cap}", partial=max(size, order_cap))
        ids = np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys))
        rows.append(ids.reshape(len(level), len(generators)))
        # a new element first appears where the running maximum of the ids passes size - 1
        level = products[np.diff(np.maximum.accumulate(np.maximum(ids, size - 1)), prepend=size - 1) > 0]
    return np.concatenate(rows)


def _bfs_levels(right: np.ndarray):
    """Tree edges of the breadth-first walk from 0, where ``right[x, i]`` = x * s_i, as arrays (y, x, i) per
    level: y is first reached as x * s_i, first in (x, i) order, and the levels come in discovery order."""
    n, k = right.shape
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    level = np.zeros(1, dtype=np.intp)
    while level.size:
        products = right[level].ravel()
        first = np.full(n, products.size)
        np.minimum.at(first, products, np.arange(products.size))
        pos = np.sort(first[~seen & (first < products.size)])
        x, level = level[pos // k], products[pos]
        seen[level] = True
        yield level, x, pos % k


def _table_from_bfs(right: np.ndarray) -> np.ndarray:
    """Cayley table of the group with right-multiplication table ``right``.

    If b is first reached as x * s, then a * b = (a * x) * s for every a, so
    column b is right[mul[:, x], s]: n * |S| element products fill the table.
    The columns are written as rows of the transpose, a block of one BFS
    level's rows at a time, and the transpose is turned back in place, tile
    by tile.
    """
    n = right.shape[0]
    cols = np.ascontiguousarray(right.T, dtype=np.uint16)  # cols[s, a] = a * s
    t = np.empty((n, n), dtype=np.uint16)  # t[b, a] = a * b
    t[0] = np.arange(n)
    step = max(1, _BLOCK_BYTES // (n * np.dtype(np.intp).itemsize))
    for y, x, i in _bfs_levels(right):
        for lo in range(0, y.size, step):
            t[y[lo : lo + step]] = cols[i[lo : lo + step, None], t[x[lo : lo + step]]]
    side = math.isqrt(_BLOCK_BYTES // t.itemsize)
    for r in range(0, n, side):  # swap tile (r, c) with the transpose of tile (c, r)
        for c in range(r, n, side):
            tile = t[r : r + side, c : c + side].T.copy()
            t[r : r + side, c : c + side] = t[c : c + side, r : r + side].T
            t[c : c + side, r : r + side] = tile
    return t


def generate_group(identity, generators, mul_fn, label: str, budget: Budget = DEFAULT_BUDGET) -> Group:
    """The group ``generators`` generate under ``mul_fn(xs, g)`` (x * g for each row x of ``xs``), in BFS order from ``identity``."""
    right = _right_table(identity, list(generators), mul_fn, budget.order_cap)
    return Group(_table_from_bfs(right), label, right[0])


def generate_permutation_group(generators, label: str, budget: Budget = DEFAULT_BUDGET) -> Group:
    if not generators:
        raise InvalidElementError("empty generator list")
    degree = len(generators[0])
    for g in generators:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise InvalidElementError(f"not a permutation of degree {degree}: {g}")
    return generate_group(np.arange(degree), [np.asarray(g) for g in generators], perm_compose, label, budget)


# --- products and quotients ---------------------------------------------------


def _automorphism(g: Group, table) -> np.ndarray:
    """``table`` as an index array, once checked to be a bijection of g with table[xy] = table[x] table[y]."""
    n = g.order
    table = np.asarray(table, dtype=np.intp)
    if table.shape != (n,) or not np.array_equal(np.sort(table), np.arange(n)):
        raise NotAutomorphismError("map is not a bijection of the group")
    if not np.array_equal(table[g.mul], g.mul[table[:, None], table]):
        raise NotAutomorphismError("map is not a homomorphism")
    return table


def automorphism_from_generator_images(g: Group, images: dict[int, int]) -> np.ndarray:
    """Extend generator images to a full automorphism table, or raise.

    ``images`` maps each generator index of g to its image.  The extension is
    computed along the BFS word decomposition and then verified to be a
    bijective homomorphism.
    """
    gens = list(g.generators)
    image = np.array([images[s] for s in gens], dtype=np.intp)
    table = np.zeros(g.order, dtype=np.intp)
    for y, x, i in _bfs_levels(g.mul[:, gens]):
        table[y] = g.mul[table[x], image[i]]
    return _automorphism(g, table).astype(np.uint16)


def direct_product(g: Group, h: Group, budget: Budget = DEFAULT_BUDGET, label: str | None = None) -> Group:
    """g x h, the split extension in which h acts trivially: (x, y) is numbered x*|h| + y."""
    if g.order * h.order > budget.order_cap:
        raise BudgetExceededError(f"direct product order {g.order * h.order} exceeds cap {budget.order_cap}")
    return semidirect_product(g, h, dict.fromkeys(h.generators, np.arange(g.order)), budget, label or f"{g.label} x {h.label}")


def semidirect_product(
    a: Group,
    b: Group,
    action: dict[int, np.ndarray],
    budget: Budget = DEFAULT_BUDGET,
    label: str | None = None,
) -> Group:
    """Split extension with b acting on a from the left.

    ``action`` assigns an automorphism table of ``a`` to every generator of
    ``b``; the assignment must extend to a homomorphism b -> Aut(a).  It is
    extended along BFS words and checked on every generator edge,
    act(y s) = act(y) o act(s) for all y, which by induction on word length
    covers all products.
    Elements are pairs (x in a, y in b) numbered x*|b| + y, multiplied as
    (x1, y1)(x2, y2) = (x1 * act(y1)(x2), y1 y2).
    """
    na, nb = a.order, b.order
    if na * nb > budget.order_cap:
        raise BudgetExceededError(f"semidirect product order {na * nb} exceeds cap {budget.order_cap}")
    if set(action) != set(b.generators):
        raise ActionInconsistentError("action must be given exactly on the generators of b")
    identity = np.arange(na)
    if all(np.array_equal(table, identity) for table in action.values()):
        act = identity[None]  # the trivial action, one row broadcast over b
    else:
        gens = list(b.generators)
        tables = np.array([_automorphism(a, action[s]) for s in gens])
        act = np.empty((nb, na), dtype=np.intp)
        act[0] = identity
        for z, y, i in _bfs_levels(b.mul[:, gens]):
            act[z] = np.take_along_axis(act[y], tables[i], axis=1)  # act(y s_i) = act(y) o act(s_i)
        for s, table in zip(gens, tables):
            if not np.array_equal(act[b.mul[:, s]], act[:, table]):
                raise ActionInconsistentError("generator assignment does not extend to a homomorphism into Aut(a)")

    # mul[x1, y1, x2, y2] = (x1 * act(y1)(x2)) * nb + y1 y2, in uint16 as every entry is below na * nb
    mul = np.add((a.mul[:, act] * nb)[:, :, :, None], b.mul[None, :, None, :], order="C")
    gens = [gi * nb for gi in a.generators] + list(b.generators)
    return Group(mul.reshape(na * nb, na * nb), label or f"{a.label} : {b.label}", gens)


def quotient_group(g: Group, normal_members, budget: Budget = DEFAULT_BUDGET) -> tuple[Group, np.ndarray]:
    """Quotient by a normal subgroup, cosets numbered by least member index, and the coset map G -> G/N."""
    mask = np.bincount(np.asarray(normal_members, dtype=np.intp), minlength=g.order).astype(bool)
    members = np.flatnonzero(mask)
    # N is normal when each generator of G conjugates N into N
    if not mask[g.conjugates(np.asarray(g.generators, dtype=np.intp)[:, None], members)].all():
        raise NotNormalError("subgroup is not normal")
    cosets = g.mul[:, members]  # row x = coset x*N
    reps = cosets.min(axis=1)
    rep_values = np.flatnonzero(np.bincount(reps, minlength=g.order))
    coset_index = np.full(g.order, -1, dtype=np.intp)
    coset_index[rep_values] = np.arange(rep_values.size)
    elem_to_coset = coset_index[reps]
    qmul = elem_to_coset[g.mul[np.ix_(rep_values, rep_values)]]
    gen_images = sorted(set(int(elem_to_coset[x]) for x in g.generators) - {0})
    qgroup = Group(qmul, f"{g.label}/N{len(members)}", gen_images)
    if elem_to_coset[0] != 0 or not np.array_equal(
        elem_to_coset[g.mul], qgroup.mul[elem_to_coset[:, None], elem_to_coset]
    ):
        raise InvalidElementError("coset map is not a homomorphism")
    return qgroup, elem_to_coset


# --- order profiles -----------------------------------------------------------


@dataclass(frozen=True)
class OrderProfile:
    """Isomorphism-type fingerprint: necessary, not sufficient, for isomorphism."""

    order: int
    order_counts: tuple[tuple[int, int], ...]
    abelian: bool
    center_order: int
    derived_order: int

    def key(self) -> tuple:
        return (self.order, self.order_counts, self.abelian, self.center_order, self.derived_order)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "elementOrders": [[o, c] for o, c in self.order_counts],
            "abelian": self.abelian,
            "centerOrder": self.center_order,
            "derivedOrder": self.derived_order,
        }


def order_fingerprint(g: Group, members=None) -> OrderProfile:
    """Profile of the whole group, or of a subgroup given by its members."""
    given = np.arange(g.order) if members is None else np.asarray(members, dtype=np.intp)
    members = np.flatnonzero(np.bincount(given, minlength=g.order))
    counts = np.bincount(g.element_orders()[members])
    values = np.flatnonzero(counts)
    block = g.mul[np.ix_(members, members)]
    commute = block == block.T
    abelian = bool(commute.all())
    center_order = int(commute.all(axis=1).sum())  # center of the subgroup itself
    comms = commutators(g, members, members)
    derived = close_under_product(g.mul, comms)
    return OrderProfile(
        int(members.size),
        tuple((int(v), int(counts[v])) for v in values),
        abelian,
        center_order,
        int(derived.size),
    )


def commutators(g: Group, a_members, b_members) -> np.ndarray:
    """Sorted distinct commutators [a, b] = a^-1 b^-1 a b over the two member sets."""
    a = np.asarray(a_members, dtype=np.intp)
    b = np.asarray(b_members, dtype=np.intp)
    m, i = g.mul, g.inv
    left = m[np.ix_(i[a], i[b])]
    right = m[np.ix_(a, b)]
    return np.flatnonzero(np.bincount(m[left, right].ravel(), minlength=g.order))
