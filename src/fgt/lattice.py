"""Complete subgroup lattices: enumeration, normalizers, closures, Sylow theory.

Subgroups are sorted index arrays over a parent Group; the lattice holds
every subgroup, found by seeding with the cyclic subgroups and closing
under pairwise joins.  All outputs are sorted by (order, bitset) so that
witness selection downstream is deterministic.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_BUDGET, Budget
from .errors import BudgetExceededError, ConsistencyError
from .groups import Group, close_under_product


class Subgroup:
    __slots__ = ("parent", "members", "_key")

    def __init__(self, parent: Group, members):
        self.parent = parent
        m = np.unique(np.asarray(members, dtype=np.intp))
        m.setflags(write=False)
        self.members = m
        self._key = None

    @classmethod
    def _sorted(cls, parent: Group, members: np.ndarray, key: bytes) -> Subgroup:
        """A subgroup from ``members`` already sorted and duplicate-free, with its packed ``key``; unchecked."""
        sub = cls.__new__(cls)
        sub.parent = parent
        # a copy, so that no subgroup keeps alive the buffer its members were cut from
        sub.members = members.astype(np.intp)
        sub.members.setflags(write=False)
        sub._key = key
        return sub

    @property
    def order(self) -> int:
        return int(self.members.size)

    @property
    def key(self) -> bytes:
        if self._key is None:
            mask = np.zeros(self.parent.order, dtype=bool)
            mask[self.members] = True
            self._key = np.packbits(mask).tobytes()
        return self._key

    def sort_key(self) -> tuple[int, bytes]:
        return (self.order, self.key)

    def mask(self) -> np.ndarray:
        mask = np.zeros(self.parent.order, dtype=bool)
        mask[self.members] = True
        return mask

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and self.parent is other.parent and self.key == other.key

    def __hash__(self) -> int:
        return hash((id(self.parent), self.key))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.label})"


def subgroup_from_generators(g: Group, gens) -> Subgroup:
    members = close_under_product(g.mul, np.asarray(list(gens) + [0], dtype=np.intp))
    return Subgroup(g, members)


def trivial_subgroup(g: Group) -> Subgroup:
    return Subgroup(g, [0])


def full_subgroup(g: Group) -> Subgroup:
    return Subgroup(g, np.arange(g.order))


class ClassSizes(NamedTuple):
    """Orders of N_G(H), H^G and their meet; the same for every conjugate of H."""

    normalizer: int
    closure: int
    meet: int


class SubgroupLattice:
    def __init__(self, group: Group, subgroups: list[Subgroup], orbit: np.ndarray, budget: Budget, inside=None):
        """``orbit[i]`` labels the conjugacy class of ``subgroups[i]``, which are sorted by (order, bitset).

        ``inside`` is the proper-containment matrix when the caller already has it.
        """
        self.group = group
        self.subgroups = subgroups
        self.budget = budget
        self.index_by_key = {s.key: i for i, s in enumerate(subgroups)}
        # class ids rank the orbits by their first index, so the first index of each id is its representative
        _, first, inverse = np.unique(orbit, return_index=True, return_inverse=True)
        self.class_id = np.argsort(np.argsort(first))[inverse]
        _, reps, self.class_size = np.unique(self.class_id, return_index=True, return_counts=True)
        self.rep_indices = reps.tolist()
        self.normal = self.class_size[self.class_id] == 1
        # inside[i, j]: subgroup i is a proper subgroup of subgroup j
        self.inside = _proper_containment(subgroups) if inside is None else inside
        # the whole group sorts last: i is maximal when only the whole group contains it
        self.maximal = self.inside[:, -1] & ~self.inside[:, :-1].any(axis=1)
        self._class_sizes: dict[int, ClassSizes] = {}

    def subgroup_index(self, sub: Subgroup) -> int:
        idx = self.index_by_key.get(sub.key)
        if idx is None:
            raise ConsistencyError("subgroup not in lattice")
        return idx

    def class_representatives(self) -> list[Subgroup]:
        return [self.subgroups[i] for i in self.rep_indices]

    def class_sizes(self, i: int) -> ClassSizes:
        """Normalizer, normal closure and meet orders of subgroup i's class, computed on first use.

        |N_G(H)| = |G| / |class of H| by orbit-stabilizer, and H^G is the
        least normal subgroup containing H: ``normal_above(i)[0]``, since the
        sort is by order.
        """
        cid = int(self.class_id[i])
        sizes = self._class_sizes.get(cid)
        if sizes is None:
            g = self.group
            h = self.subgroups[i]
            closure = self.subgroups[self.normal_above(i)[0]]
            # the members of H^G that conjugate H onto itself
            meet = int(h.mask()[g.conj_table()[closure.members[:, None], h.members]].all(axis=1).sum())
            sizes = self._class_sizes[cid] = ClassSizes(g.order // int(self.class_size[cid]), closure.order, meet)
        return sizes

    def conjugacy_class_size(self, i: int) -> int:
        return int(self.class_size[self.class_id[i]])

    def normal_above(self, i: int) -> np.ndarray:
        """Indices of the normal subgroups that contain subgroup i (i itself when normal), in sort order."""
        above = self.inside[i] & self.normal
        above[i] = self.normal[i]
        return np.flatnonzero(above)

    def normal_subgroups(self) -> list[Subgroup]:
        return [s for i, s in enumerate(self.subgroups) if self.normal[i]]

    def maximal_subgroups(self) -> list[Subgroup]:
        return [s for i, s in enumerate(self.subgroups) if self.maximal[i]]

    def subgroups_of_order(self, order: int) -> list[Subgroup]:
        return [s for s in self.subgroups if s.order == order]

    def subgroups_inside(self, sub: Subgroup) -> list[Subgroup]:
        j = self.subgroup_index(sub)
        return [self.subgroups[i] for i in np.flatnonzero(self.inside[:, j])] + [self.subgroups[j]]

    def maximal_inside(self, j: int) -> np.ndarray:
        """Indices of the maximal subgroups of subgroup j (the lattice covers below j).

        Tested in row blocks of ``below``: one (below x below) block would copy
        (S-1)^2 bytes when j is the whole group.
        """
        below = np.flatnonzero(self.inside[:, j])
        covered = np.zeros(below.size, dtype=bool)
        for start in range(0, below.size, 1024):
            rows = below[start : start + 1024]
            covered[start : start + 1024] = self.inside[np.ix_(rows, below)].any(axis=1)
        return below[~covered]


_BLOCK_BYTES = 1 << 20


def _proper_containment(subgroups: list[Subgroup]) -> np.ndarray:
    """Boolean matrix of proper inclusion, tested on the packed member bitsets.

    Subgroups of one order sit in one index range, so only pairs of orders
    a < b with a | b are tested, a block of rows of order a against every
    column of order b.  The bitsets are padded to whole 64-bit words, and each
    block's temporary of rows x columns x words is held under
    ``_BLOCK_BYTES``, so a large lattice gains no large transient array.
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
            step = max(1, _BLOCK_BYTES // ((b_end - b_start) * width))
            for lo in range(a_start, a_end, step):
                hi = min(lo + step, a_end)
                inside[lo:hi, b_start:b_end] = ~(packed[lo:hi, None] & outside[None, b_start:b_end]).any(axis=2)
    return inside


def _key_of(n: int, members: np.ndarray) -> bytes:
    mask = np.zeros(n, dtype=bool)
    mask[members] = True
    return np.packbits(mask).tobytes()


def all_subgroups(g: Group, budget: Budget = DEFAULT_BUDGET) -> SubgroupLattice:
    """Every subgroup of g: cyclic seeds, then joins with cyclic subgroups until fixpoint.

    Each new subgroup's conjugacy class is added whole, so joins are only
    computed for one representative H per class: a join of a conjugate is the
    matching conjugate of a join.  H is joined with a cyclic subgroup C = <x>
    not inside it, up to three reductions (Neubueser's cyclic extension method,
    Holt-Eick-O'Brien, *Handbook of Computational Group Theory*, 2005):

    - one C per N_G(H)-orbit: for y in N_G(H), <H, C^y> = <H, C>^y, a conjugate already added;
    - one C per coset xH: for h in H, <H, x> = <H, xh>;
    - when x normalizes H, the join is the product set H<x> and needs no closure
      (the Dimino coset step, Butler, *Fundamental Algorithms for Permutation
      Groups*, LNCS 559, 1991).

    ``budget.max_join_attempts`` counts the joins left after these reductions.

    A group made by ``subgroup_as_group(G, H)`` while G holds a lattice is not
    enumerated: its lattice is read off G's (``_restricted_lattice``).
    """
    cache_key = ("lattice", budget.max_subgroups, budget.max_join_attempts)
    cached = g._cache.get(cache_key)
    if cached is not None:
        return cached
    embedding = g._cache.get("embedding")
    if embedding is not None:
        parent_lattice = _cached_lattice(embedding[0])
        if parent_lattice is not None:
            lattice = g._cache[cache_key] = _restricted_lattice(g, parent_lattice, embedding[1], budget)
            return lattice
    n = g.order
    mul = g.mul
    conj = g.conj_table()
    found: dict[bytes, np.ndarray] = {}
    orbit_of: list[int] = []  # the orbit of each subgroup in found
    reps: list[tuple[np.ndarray, int]] = []  # each orbit's first subgroup and its size

    def _add(members: np.ndarray) -> bool:
        key = _key_of(n, members)
        if key in found:
            return False
        if len(found) >= budget.max_subgroups:
            raise BudgetExceededError(f"subgroup budget {budget.max_subgroups} exceeded", partial=len(found))
        found[key] = members
        orbit_of.append(len(reps))
        return True

    def orbit_add(members: np.ndarray):
        if not _add(members):
            return
        start = len(found) - 1
        queue = [members]
        while queue:
            mem = queue.pop()
            for c in g.generators:
                cm = np.sort(conj[c][mem])
                if _add(cm):
                    queue.append(cm)
        reps.append((members, len(found) - start))

    orbit_add(np.array([0], dtype=np.intp))
    # cyclic[c] = <cyc_gen[c]>, its least generator; cyc_of[x] = c when <x> = cyclic[c]
    cyclic: list[np.ndarray] = []
    cyc_gen: list[int] = []
    cyc_of = np.full(n, -1, dtype=np.int32)
    for x in range(1, n):
        if cyc_of[x] >= 0:
            continue
        powers = [0]
        cur = x
        while cur != 0:
            powers.append(cur)
            cur = int(mul[cur, x])
        # x^k generates <x> exactly when k is prime to the order of x
        cyc_of[[p for k, p in enumerate(powers) if math.gcd(k, len(powers)) == 1]] = len(cyclic)
        cyclic.append(np.sort(np.array(powers, dtype=np.intp)))
        cyc_gen.append(x)
        orbit_add(cyclic[-1])
    cyc_gen = np.array(cyc_gen, dtype=np.intp)

    join_attempts = 0
    head = 0
    while head < len(reps):
        base, orbit_size = reps[head]
        head += 1
        if base.size == n:
            continue
        in_base = np.zeros(n, dtype=bool)
        in_base[base] = True
        cand = np.flatnonzero(~in_base[cyc_gen])
        norm = normalizer_members(g, base)
        # orbit-stabilizer: an orbit cut short or two classes walked as one breaks it
        if norm.size * orbit_size != n:
            raise ConsistencyError("conjugacy orbit does not match the normalizer")
        # keep the least index of each N_G(H)-orbit, in row blocks of N_G(H)
        xs = cyc_gen[cand]
        least = cand.astype(np.int32)
        for start in range(0, norm.size, 256):
            least = np.minimum(least, cyc_of[conj[norm[start : start + 256, None], xs]].min(axis=0))
        cand = cand[least == cand]
        # keep the first of each coset xH, named by its least member
        first = np.unique(mul[cyc_gen[cand][:, None], base].min(axis=1), return_index=True)[1]
        cand = cand[np.sort(first)]
        in_norm = np.zeros(n, dtype=bool)
        in_norm[norm] = True
        for c in cand:
            join_attempts += 1
            if join_attempts > budget.max_join_attempts:
                raise BudgetExceededError(
                    f"join budget {budget.max_join_attempts} exceeded", partial=len(found)
                )
            if in_norm[cyc_gen[c]]:
                orbit_add(product_set(mul, base, cyclic[c]))
            else:
                orbit_add(close_under_product(mul, np.concatenate([base, cyclic[c]])))

    # every member array found is sorted and duplicate-free, and its key is the one packed above
    subs = [Subgroup._sorted(g, m, key) for key, m in found.items()]
    order = sorted(range(len(subs)), key=lambda t: subs[t].sort_key())
    lattice = g._cache[cache_key] = SubgroupLattice(g, [subs[t] for t in order], np.array(orbit_of)[order], budget)
    return lattice


def _cached_lattice(g: Group) -> SubgroupLattice | None:
    """Any lattice ``g`` already holds: a lattice that was built is complete, whatever its budget."""
    return next((v for k, v in g._cache.items() if isinstance(k, tuple) and k[0] == "lattice"), None)


def _packed_keys(rows: np.ndarray, cols: np.ndarray, count: int, n: int) -> list[bytes]:
    """``Subgroup.key`` of each of ``count`` member sets of an order-n group, given as (row, member) pairs."""
    mask = np.zeros((count, n), dtype=bool)
    mask[rows, cols] = True
    return [row.tobytes() for row in np.packbits(mask, axis=1)]


def _restricted_lattice(g: Group, parent: SubgroupLattice, h: Subgroup, budget: Budget) -> SubgroupLattice:
    """The lattice of g = ``subgroup_as_group(G, H)``, read off the interval [1, H] of G's lattice.

    Element i of g is element ``H.members[i]`` of G.  That map is increasing,
    so it keeps the (order, bitset) sort: two subsets of H first differ at an
    element of H, and their images first differ at its image.  The subgroups
    of g are thus G's subgroups inside H, in G's order, with G's containment.
    Only the classes are new: H-conjugacy classes are the orbits of the
    permutations that g's generators induce on the subgroups, each conjugate
    matched to its index by key.  No joins are computed.
    """
    j = parent.subgroup_index(h)
    idx = np.append(np.flatnonzero(parent.inside[:, j]), j)
    count, n = idx.size, g.order
    if count > budget.max_subgroups:
        raise BudgetExceededError(f"subgroup budget {budget.max_subgroups} exceeded", partial=budget.max_subgroups)
    pos = np.zeros(parent.group.order, dtype=np.intp)
    pos[h.members] = np.arange(n)
    sizes = [parent.subgroups[i].order for i in idx]
    rows = np.repeat(np.arange(count), sizes)
    flat = pos[np.concatenate([parent.subgroups[i].members for i in idx])]
    keys = _packed_keys(rows, flat, count, n)
    subgroups = [Subgroup._sorted(g, m, key) for m, key in zip(np.split(flat, np.cumsum(sizes)[:-1]), keys)]
    index_by_key = {key: i for i, key in enumerate(keys)}
    conj = g.conj_table()
    perms = []
    for c in g.generators:
        perm = np.array([index_by_key.get(key, -1) for key in _packed_keys(rows, conj[c][flat], count, n)])
        if (perm < 0).any():
            raise ConsistencyError("a conjugate subgroup is missing from the parent lattice")
        perms.append(perm)
    # orbit labels: each subgroup's least index reachable under the generators
    orbit = np.arange(count)
    while True:
        label = orbit
        for perm in perms:
            label = np.minimum(label, label[perm])
        label = label[label]
        if np.array_equal(label, orbit):
            break
        orbit = label
    lattice = SubgroupLattice(g, subgroups, orbit, budget, inside=parent.inside[np.ix_(idx, idx)])
    # orbit-stabilizer: a wrong permutation or two classes merged as one breaks it
    for i in lattice.rep_indices:
        if normalizer_members(g, subgroups[i].members).size * lattice.conjugacy_class_size(i) != n:
            raise ConsistencyError("conjugacy orbit does not match the normalizer")
    return lattice


# --- member-level primitives (no lattice required) --------------------------------


def normalizer_members(g: Group, members) -> np.ndarray:
    members = np.asarray(members, dtype=np.intp)
    conj = g.conj_table()
    mask = np.zeros(g.order, dtype=bool)
    mask[members] = True
    ok = mask[conj[:, members]].all(axis=1)
    return np.flatnonzero(ok).astype(np.intp)


def normal_closure_members(g: Group, members, within=None) -> np.ndarray:
    """Smallest subgroup containing ``members`` normalized by ``within`` (default G)."""
    conj = g.conj_table()
    conjugators = np.asarray(g.generators if within is None else within, dtype=np.intp)
    cur = close_under_product(g.mul, np.asarray(members, dtype=np.intp))
    while True:
        spread = np.unique(conj[conjugators][:, cur])
        if np.isin(spread, cur, assume_unique=True).all():
            return cur
        cur = close_under_product(g.mul, np.union1d(cur, spread))


def normality_sizes(g: Group, members) -> ClassSizes:
    norm = normalizer_members(g, members)
    closure = normal_closure_members(g, members)
    return ClassSizes(norm.size, closure.size, np.intersect1d(norm, closure, assume_unique=True).size)


def centralizer_members(g: Group, members) -> np.ndarray:
    members = np.asarray(members, dtype=np.intp)
    left = g.mul[:, members]
    right = g.mul[members, :].T
    return np.flatnonzero((left == right).all(axis=1)).astype(np.intp)


# --- subgroup operations ----------------------------------------------------------


def normalizer(g: Group, h: Subgroup) -> Subgroup:
    return Subgroup(g, normalizer_members(g, h.members))


def normal_closure(g: Group, h: Subgroup) -> Subgroup:
    return Subgroup(g, normal_closure_members(g, h.members))


def centralizer(g: Group, h: Subgroup) -> Subgroup:
    return Subgroup(g, centralizer_members(g, h.members))


def center(g: Group) -> Subgroup:
    return Subgroup(g, centralizer_members(g, np.arange(g.order)))


def is_normal(g: Group, h: Subgroup) -> bool:
    return normalizer_members(g, h.members).size == g.order


def is_subnormal(g: Group, h: Subgroup) -> bool:
    """Descending normal-closure chain K0 = G, K_{i+1} = <h^K_i> stabilizes at h."""
    current = np.arange(g.order, dtype=np.intp)
    while True:
        nxt = normal_closure_members(g, h.members, within=current)
        if nxt.size == h.members.size:
            return True
        if nxt.size == current.size:
            return False
        current = nxt


def sylow_subgroups(g: Group, p: int, budget: Budget = DEFAULT_BUDGET) -> list[Subgroup]:
    lattice = all_subgroups(g, budget)
    target = 1
    while g.order % (target * p) == 0:
        target *= p
    return lattice.subgroups_of_order(target)


def maximal_subgroups(g: Group, budget: Budget = DEFAULT_BUDGET) -> list[Subgroup]:
    return all_subgroups(g, budget).maximal_subgroups()


def second_maximal_subgroups(g: Group, budget: Budget = DEFAULT_BUDGET) -> list[Subgroup]:
    """Maximal subgroups of maximal subgroups, deduplicated across the group."""
    lattice = all_subgroups(g, budget)
    second = np.zeros(len(lattice.subgroups), dtype=bool)
    for top in np.flatnonzero(lattice.maximal):
        second[lattice.maximal_inside(top)] = True
    return [lattice.subgroups[i] for i in np.flatnonzero(second)]


def product_set(mul: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product set AB = {xy : x in A, y in B} as a sorted index array.

    It is the subgroup <A, B> when one factor normalizes the other.
    """
    mask = np.zeros(mul.shape[0], dtype=bool)
    mask[mul[a[:, None], b]] = True
    return np.flatnonzero(mask)


def subgroup_product(g: Group, a: Subgroup, b: Subgroup) -> tuple[int, bool]:
    """Size of the product set AB, and whether it is all of G.

    When either factor is normal the product is a subgroup and the size
    follows from |A||B|/|A n B|; otherwise the literal product set is
    enumerated.
    """
    if is_normal(g, a) or is_normal(g, b):
        meet = np.intersect1d(a.members, b.members, assume_unique=True)
        size = a.order * b.order // meet.size
    else:
        size = product_set(g.mul, a.members, b.members).size
    return size, size == g.order


def subgroup_join(g: Group, a: Subgroup, b: Subgroup) -> Subgroup:
    return Subgroup(g, close_under_product(g.mul, np.concatenate([a.members, b.members])))


def subgroup_meet(g: Group, a: Subgroup, b: Subgroup) -> Subgroup:
    return Subgroup(g, np.intersect1d(a.members, b.members, assume_unique=True))


def normal_subgroups(g: Group, budget: Budget = DEFAULT_BUDGET) -> list[Subgroup]:
    return all_subgroups(g, budget).normal_subgroups()


def conjugate_subgroup(g: Group, h: Subgroup, x: int) -> Subgroup:
    return Subgroup(g, np.sort(g.conj_table()[x][h.members]))


# --- exports ----------------------------------------------------------------------


def hasse_edges(lattice: SubgroupLattice) -> list[tuple[int, int]]:
    """Covering pairs (i, j): subgroup i maximal inside subgroup j."""
    edges = [(int(i), j) for j in range(len(lattice.subgroups)) for i in lattice.maximal_inside(j)]
    return sorted(edges)


def lattice_to_json(lattice: SubgroupLattice) -> str:
    doc = {
        "group": lattice.group.label,
        "order": lattice.group.order,
        "subgroups": [
            {
                "order": s.order,
                "members": [int(x) for x in s.members],
                "normal": bool(lattice.normal[i]),
                "maximal": bool(lattice.maximal[i]),
                "classId": int(lattice.class_id[i]),
            }
            for i, s in enumerate(lattice.subgroups)
        ],
        "hasse": [[i, j] for i, j in hasse_edges(lattice)],
    }
    return json.dumps(doc, separators=(",", ":"))


def lattice_to_dot(lattice: SubgroupLattice) -> str:
    lines = ["digraph subgroups {", "  rankdir=BT;"]
    for i, s in enumerate(lattice.subgroups):
        shape = "doublecircle" if lattice.normal[i] else "circle"
        lines.append(f'  n{i} [label="{s.order}" shape={shape}];')
    for i, j in hasse_edges(lattice):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
