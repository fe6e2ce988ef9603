"""Complete subgroup lattices: enumeration, normalizers, closures, Sylow theory.

Subgroups are sorted index arrays over a parent Group; the lattice holds
every subgroup, found by seeding with the cyclic subgroups and closing
under pairwise joins.  All outputs are sorted by (order, bitset) so that
witness selection downstream is deterministic.
"""

from __future__ import annotations

import json
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
    members = close_under_product(g.mul, np.asarray(list(gens) + [0], dtype=np.intp), cutoff_to_full=False)
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
    def __init__(self, group: Group, subgroups: list[Subgroup], budget: Budget):
        self.group = group
        self.subgroups = subgroups  # sorted by (order, bitset)
        self.budget = budget
        self.index_by_key = {s.key: i for i, s in enumerate(subgroups)}
        self.normal = np.zeros(len(subgroups), dtype=bool)
        self.class_id = np.full(len(subgroups), -1, dtype=np.int64)
        self._annotate()
        # inside[i, j]: subgroup i is a proper subgroup of subgroup j
        self.inside = _proper_containment(subgroups)
        # the whole group sorts last: i is maximal when only the whole group contains it
        self.maximal = self.inside[:, -1] & ~self.inside[:, :-1].any(axis=1)
        # class ids follow the sort order, so the first index of each id is its representative
        self.rep_indices = np.unique(self.class_id, return_index=True)[1].tolist()
        self._class_sizes: dict[int, ClassSizes] = {}

    def _annotate(self):
        g = self.group
        conj = g.conj_table()
        # conjugacy classes, iterating in sorted order so class ids are canonical
        next_class = 0
        for i, sub in enumerate(self.subgroups):
            if self.class_id[i] != -1:
                continue
            orbit = [i]
            self.class_id[i] = next_class
            queue = [sub.members]
            seen = {sub.key}
            while queue:
                mem = queue.pop()
                for gen in g.generators:
                    conjugated = np.sort(conj[gen][mem])
                    j = self.index_by_key.get(_key_of(g.order, conjugated))
                    if j is None:
                        raise ConsistencyError("lattice not closed under conjugation")
                    if self.subgroups[j].key not in seen:
                        seen.add(self.subgroups[j].key)
                        self.class_id[j] = next_class
                        orbit.append(j)
                        queue.append(self.subgroups[j].members)
            if len(orbit) == 1:
                self.normal[orbit[0]] = True
            next_class += 1
    def subgroup_index(self, sub: Subgroup) -> int:
        idx = self.index_by_key.get(sub.key)
        if idx is None:
            raise ConsistencyError("subgroup not in lattice")
        return idx

    def class_representatives(self) -> list[Subgroup]:
        return [self.subgroups[i] for i in self.rep_indices]

    def class_sizes(self, i: int) -> ClassSizes:
        """Normalizer, normal closure and meet orders of subgroup i's class, computed on first use.

        Threads racing on one class both compute it and store equal values.
        """
        cid = int(self.class_id[i])
        sizes = self._class_sizes.get(cid)
        if sizes is None:
            sizes = self._class_sizes[cid] = normality_sizes(self.group, self.subgroups[i].members)
        return sizes

    def conjugacy_class_size(self, i: int) -> int:
        return int((self.class_id == self.class_id[i]).sum())

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
        """Indices of the maximal subgroups of subgroup j (the lattice covers below j)."""
        below = np.flatnonzero(self.inside[:, j])
        return below[~self.inside[np.ix_(below, below)].any(axis=1)]


def _proper_containment(subgroups: list[Subgroup]) -> np.ndarray:
    """Boolean matrix of proper inclusion, tested on the packed member bitsets.

    Only larger subgroups whose order the smaller one divides are tested;
    the bitsets are padded to whole 64-bit words so each row test is one
    vectorized AND over a few words per candidate.
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
    for i in range(count):
        larger = np.flatnonzero((orders > orders[i]) & (orders % orders[i] == 0))
        inside[i, larger] = ~(packed[i] & outside[larger]).any(axis=1)
    return inside


def _key_of(n: int, members: np.ndarray) -> bytes:
    mask = np.zeros(n, dtype=bool)
    mask[members] = True
    return np.packbits(mask).tobytes()


def all_subgroups(g: Group, budget: Budget = DEFAULT_BUDGET) -> SubgroupLattice:
    """Every subgroup of g: cyclic seeds, then pairwise joins until fixpoint.

    Joins are only computed against one representative per conjugacy class;
    a join of a conjugate is the matching conjugate of a join, so closing
    each new subgroup's conjugation orbit keeps the enumeration complete
    while cutting the join count by the typical class size.
    """
    cached = g._cache.get(("lattice", budget.max_subgroups, budget.max_join_attempts))
    if cached is not None:
        return cached
    n = g.order
    mul = g.mul
    conj = g.conj_table()
    found: dict[bytes, np.ndarray] = {}
    reps: list[np.ndarray] = []

    def _add_single(members: np.ndarray, key: bytes):
        if len(found) >= budget.max_subgroups:
            raise BudgetExceededError(
                f"subgroup budget {budget.max_subgroups} exceeded", partial=len(found)
            )
        found[key] = members

    def orbit_add(members: np.ndarray):
        key = _key_of(n, members)
        if key in found:
            return
        _add_single(members, key)
        reps.append(members)
        queue = [members]
        while queue:
            mem = queue.pop()
            for c in g.generators:
                cm = np.sort(conj[c][mem])
                k2 = _key_of(n, cm)
                if k2 not in found:
                    _add_single(cm, k2)
                    queue.append(cm)

    orbit_add(np.array([0], dtype=np.intp))
    cyclic: list[np.ndarray] = []
    seen_cyc = set()
    for x in range(1, n):
        powers = [0]
        cur = x
        while cur != 0:
            powers.append(cur)
            cur = int(mul[cur, x])
        members = np.unique(np.array(powers, dtype=np.intp))
        key = _key_of(n, members)
        if key not in seen_cyc:
            seen_cyc.add(key)
            cyclic.append(members)
            orbit_add(members)
    cyc_sets = [frozenset(c.tolist()) for c in cyclic]

    join_attempts = 0
    head = 0
    while head < len(reps):
        base = reps[head]
        head += 1
        if base.size == n:
            continue
        base_set = frozenset(base.tolist())
        for cyc, cyc_set in zip(cyclic, cyc_sets):
            if cyc_set <= base_set:
                continue
            join_attempts += 1
            if join_attempts > budget.max_join_attempts:
                raise BudgetExceededError(
                    f"join budget {budget.max_join_attempts} exceeded", partial=len(found)
                )
            joined = close_under_product(mul, np.concatenate([base, cyc]))
            orbit_add(joined)

    subs = [Subgroup(g, m) for m in found.values()]
    subs.sort(key=lambda s: s.sort_key())
    lattice = SubgroupLattice(g, subs, budget)
    g._cache[("lattice", budget.max_subgroups, budget.max_join_attempts)] = lattice
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
    cur = close_under_product(g.mul, np.asarray(members, dtype=np.intp), cutoff_to_full=False)
    while True:
        spread = np.unique(conj[conjugators][:, cur])
        if np.isin(spread, cur, assume_unique=True).all():
            return cur
        cur = close_under_product(g.mul, np.union1d(cur, spread), cutoff_to_full=False)


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
        size = int(np.unique(g.mul[np.ix_(a.members, b.members)]).size)
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
