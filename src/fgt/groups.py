"""Finite groups as dense Cayley tables with canonical element numbering.

A Group is an immutable n x n multiplication table over element indices
0..n-1 with the identity at index 0.  Constructors guarantee deterministic
numbering (BFS discovery order for generated groups, lexicographic tuples
for formula-built groups), so every downstream computation is reproducible
byte for byte.
"""

from __future__ import annotations

import json
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


def _validate_table(mul: np.ndarray, generators) -> tuple[np.ndarray, tuple[int, ...]]:
    """Check that ``mul`` is a group table generated by ``generators``.

    Returns the inverse map and the generating set: the one supplied, or the
    greedy one when none is.  Associativity is Light's test: if S generates a
    loop, the loop is associative iff (x s) y = x (s y) for all x, y and every
    s in S (Clifford-Preston, The Algebraic Theory of Semigroups I, 1961).
    The elements passing that test are closed under the product, so the test
    is exact once right multiplication by S reaches every element from the
    identity; that closure runs without the Lagrange cutoff, which presumes
    a group.

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
    gens = tuple(int(s) for s in generators) or _greedy_generators(mul)
    if not all(0 <= s < n for s in gens):
        raise InvalidElementError(f"generator index out of range 0..{n - 1}")
    if close_under_product(mul, gens, cutoff_to_full=False).size != n:
        raise InvalidElementError("generators do not generate the table")
    for s in gens:
        if not np.array_equal(mul[mul[:, s]], mul[:, mul[s]]):
            raise InvalidElementError(f"associativity fails at generator {s}")
    return inv, gens


def _greedy_generators(mul: np.ndarray) -> tuple[int, ...]:
    """Deterministic generating set: each element, in index order, not yet in the closure of those before."""
    n = mul.shape[0]
    gens: list[int] = []
    closed = np.zeros(n, dtype=bool)
    closed[0] = True
    for x in range(1, n):
        if closed[x]:
            continue
        gens.append(x)
        members = close_under_product(mul, gens, cutoff_to_full=False)
        closed[members] = True
        if members.size == n:
            break
    return tuple(gens)


class Group:
    """Immutable finite group on indices 0..n-1 (identity = 0).

    ``generators`` always generates the group: the table is checked against
    the supplied set, or against a greedy one when the caller passes none.
    """

    __slots__ = ("label", "mul", "inv", "generators", "spec", "_cache")

    def __init__(self, mul, label: str, generators, spec=None):
        mul = np.ascontiguousarray(mul, dtype=np.uint16)
        inv, self.generators = _validate_table(mul, generators)
        mul.setflags(write=False)
        inv.setflags(write=False)
        self.mul = mul
        self.inv = inv
        self.label = label
        self.spec = spec
        self._cache: dict = {}

    @property
    def order(self) -> int:
        return int(self.mul.shape[0])

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"Group({self.label!r}, order={self.order})"

    def conj_table(self) -> np.ndarray:
        """conj[g, x] = g x g^-1."""
        tab = self._cache.get("conj")
        if tab is None:
            tab = self.mul[self.mul, self.inv[:, None]]
            tab.setflags(write=False)
            self._cache["conj"] = tab
        return tab

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

    def commutator(self, x: int, y: int) -> int:
        m, i = self.mul, self.inv
        return int(m[m[i[x], i[y]], m[x, y]])


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
    """
    index = {identity: 0}
    elems = [identity]
    right = []
    for x in elems:
        row = []
        for g in generators:
            y = mul_fn(x, g)
            if y not in index:
                if len(elems) >= order_cap:
                    raise BudgetExceededError(
                        f"closure exceeds order cap {order_cap}", partial=len(elems)
                    )
                index[y] = len(elems)
                elems.append(y)
            row.append(index[y])
        right.append(row)
    return np.array(right, dtype=np.intp)


def _bfs_edges(right: np.ndarray) -> list[tuple[int, int, int]]:
    """Tree edges (y, x, i) of the breadth-first walk from 0, in discovery order.

    ``right[x, i]`` is x times the i-th generator; y is first reached as x * s_i.
    """
    rows = right.tolist()
    seen = [False] * len(rows)
    seen[0] = True
    queue = [0]
    edges = []
    for x in queue:
        for i, y in enumerate(rows[x]):
            if not seen[y]:
                seen[y] = True
                queue.append(y)
                edges.append((y, x, i))
    return edges


def _table_from_bfs(right: np.ndarray) -> np.ndarray:
    """Cayley table of the group with right-multiplication table ``right``.

    If b is first reached as x * s, then a * b = (a * x) * s for every a, so
    column b is right[mul[:, x], s]: n * |S| element products fill the table.
    """
    n = right.shape[0]
    mul = np.empty((n, n), dtype=np.uint16)
    mul[:, 0] = np.arange(n)
    for b, x, i in _bfs_edges(right):
        mul[:, b] = right[mul[:, x], i]
    return mul


def generate_group(identity, generators, mul_fn, label: str, budget: Budget = DEFAULT_BUDGET, spec=None) -> Group:
    """The group that ``generators`` generate under ``mul_fn``, numbered by breadth-first discovery from ``identity``."""
    right = _right_table(identity, list(generators), mul_fn, budget.order_cap)
    return Group(_table_from_bfs(right), label, right[0], spec=spec)


def generate_permutation_group(generators, label: str, budget: Budget = DEFAULT_BUDGET, spec=None) -> Group:
    if not generators:
        raise InvalidElementError("empty generator list")
    degree = len(generators[0])
    for g in generators:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise InvalidElementError(f"not a permutation of degree {degree}: {g}")
    return generate_group(tuple(range(degree)), [tuple(g) for g in generators], perm_compose, label, budget, spec)


# --- products and quotients ---------------------------------------------------


def direct_product(g: Group, h: Group, budget: Budget = DEFAULT_BUDGET, label: str | None = None, spec=None) -> Group:
    n1, n2 = g.order, h.order
    if n1 * n2 > budget.order_cap:
        raise BudgetExceededError(f"direct product order {n1 * n2} exceeds cap {budget.order_cap}")
    mul = (g.mul.astype(np.int64)[:, None, :, None] * n2 + h.mul.astype(np.int64)[None, :, None, :]).reshape(
        n1 * n2, n1 * n2
    )
    gens = [gi * n2 for gi in g.generators] + list(h.generators)
    return Group(mul, label or f"{g.label} x {h.label}", gens, spec=spec)


def automorphism_from_generator_images(g: Group, images: dict[int, int]) -> np.ndarray:
    """Extend generator images to a full automorphism table, or raise.

    ``images`` maps each generator index of g to its image.  The extension is
    computed along the BFS word decomposition and then verified to be a
    bijective homomorphism.
    """
    n = g.order
    gens = list(g.generators)
    table = np.zeros(n, dtype=np.int64)
    for y, x, i in _bfs_edges(g.mul[:, gens]):
        table[y] = g.mul[table[x], images[gens[i]]]
    if len(set(table.tolist())) != n:
        raise NotAutomorphismError("generator images do not extend to a bijection")
    if not np.array_equal(table[g.mul], g.mul[np.ix_(table, table)]):
        raise NotAutomorphismError("generator images do not extend to a homomorphism")
    return table.astype(np.uint16)


def _check_automorphism(g: Group, table: np.ndarray):
    n = g.order
    table = np.asarray(table, dtype=np.int64)
    if table.shape != (n,) or sorted(table.tolist()) != list(range(n)):
        raise NotAutomorphismError("action table is not a bijection")
    if not np.array_equal(table[g.mul], g.mul[np.ix_(table, table)]):
        raise NotAutomorphismError("action table is not a homomorphism")


def semidirect_product(
    a: Group,
    b: Group,
    action: dict[int, np.ndarray],
    budget: Budget = DEFAULT_BUDGET,
    label: str | None = None,
    spec=None,
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
    for table in action.values():
        _check_automorphism(a, table)

    gens = list(b.generators)
    act = np.empty((nb, na), dtype=np.int64)
    act[0] = np.arange(na)
    for z, y, i in _bfs_edges(b.mul[:, gens]):
        act[z] = act[y][action[gens[i]]]
    for s in gens:
        if not np.array_equal(act[b.mul[:, s]], act[:, action[s]]):
            raise ActionInconsistentError(
                "generator assignment does not extend to a homomorphism into Aut(a)"
            )

    mul = np.empty((na * nb, na * nb), dtype=np.int64)
    bm = b.mul.astype(np.int64)
    am = a.mul.astype(np.int64)
    x2 = np.arange(na)
    for y1 in range(nb):
        twisted = act[y1][x2]  # act(y1)(x2) for all x2
        # block[(x1, x2), (y2)] for all x1, y2 at this y1
        left = am[:, twisted]  # (na, na): x1 * act(y1)(x2)
        block = left[:, :, None] * nb + bm[y1][None, None, :]  # (na, na, nb)
        cols = (x2[:, None] * nb + np.arange(nb)[None, :]).reshape(-1)
        rows = np.arange(na) * nb + y1
        mul[np.ix_(rows, cols)] = block.reshape(na, na * nb)
    gens = [gi * nb for gi in a.generators] + list(b.generators)
    return Group(mul, label or f"{a.label} : {b.label}", gens, spec=spec)


@dataclass(frozen=True)
class GroupHom:
    """Verified homomorphism given by a per-element image table."""

    source: Group
    target: Group
    map: tuple[int, ...]

    def __post_init__(self):
        m = np.asarray(self.map, dtype=np.int64)
        if m[0] != 0:
            raise InvalidElementError("homomorphism must fix the identity")
        if not np.array_equal(m[self.source.mul], self.target.mul[np.ix_(m, m)]):
            raise InvalidElementError("map is not a homomorphism")

    def kernel_size(self) -> int:
        return sum(1 for x in self.map if x == 0)

    def image_size(self) -> int:
        return len(set(self.map))


def quotient_group(g: Group, normal_members, budget: Budget = DEFAULT_BUDGET) -> tuple[Group, GroupHom]:
    """Quotient by a normal subgroup; cosets numbered by least member index."""
    members = np.unique(np.asarray(normal_members, dtype=np.intp))
    conj = g.conj_table()
    mask = np.zeros(g.order, dtype=bool)
    mask[members] = True
    if not mask[conj[:, members]].all():
        raise NotNormalError("subgroup is not normal")
    cosets = g.mul[:, members]  # row x = coset x*N
    reps = cosets.min(axis=1)
    rep_values = np.unique(reps)
    coset_index = np.full(g.order, -1, dtype=np.int64)
    coset_index[rep_values] = np.arange(rep_values.size)
    elem_to_coset = coset_index[reps]
    qmul = elem_to_coset[g.mul[np.ix_(rep_values, rep_values)]]
    gen_images = sorted(set(int(elem_to_coset[x]) for x in g.generators) - {0})
    qgroup = Group(qmul, f"{g.label}/N{len(members)}", gen_images)
    hom = GroupHom(g, qgroup, tuple(int(c) for c in elem_to_coset))
    return qgroup, hom


def extract_subgroup_as_group(g: Group, members, label: str | None = None) -> tuple[Group, np.ndarray]:
    """Relabel a subgroup's members as a standalone Group.

    Returns the child group and the sorted member array (child index i
    corresponds to parent element members[i]).
    """
    members = np.unique(np.asarray(members, dtype=np.intp))
    if members[0] != 0:
        raise InvalidElementError("subgroup must contain the identity")
    pos = np.full(g.order, -1, dtype=np.int64)
    pos[members] = np.arange(members.size)
    sub = pos[g.mul[np.ix_(members, members)]]
    if (sub < 0).any():
        raise InvalidElementError("member set is not closed under multiplication")
    child = Group(sub, label or f"{g.label}|sub{members.size}", [])
    return child, members


def element_order(g: Group, x: int) -> int:
    if not 0 <= x < g.order:
        raise InvalidElementError(f"element index {x} out of range")
    return int(g.element_orders()[x])


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
    if members is None:
        members = np.arange(g.order, dtype=np.intp)
    else:
        members = np.unique(np.asarray(members, dtype=np.intp))
    orders = g.element_orders()[members]
    values, counts = np.unique(orders, return_counts=True)
    block = g.mul[np.ix_(members, members)]
    abelian = bool(np.array_equal(block, block.T))
    # center of the subgroup itself
    if abelian:
        center_order = members.size
    else:
        center_order = int((block == block.T).all(axis=1).sum())
    comms = commutators(g, members, members)
    derived = close_under_product(g.mul, comms)
    return OrderProfile(
        int(members.size),
        tuple((int(v), int(c)) for v, c in zip(values, counts)),
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
    return np.unique(m[left, right])


def group_to_json(g: Group) -> str:
    doc = {
        "label": g.label,
        "order": g.order,
        "mul": [int(v) for v in g.mul.ravel()],
        "generators": list(g.generators),
    }
    return json.dumps(doc, separators=(",", ":"))
