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
from .groups import Group, close_under_product, commutators


class Subgroup:
    __slots__ = ("parent", "members", "_key")

    def __init__(self, parent: Group, members):
        self.parent = parent
        self.members = np.flatnonzero(_mask(parent.order, np.asarray(members, dtype=np.intp)))
        self.members.setflags(write=False)
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
            self._key = np.packbits(self.mask()).tobytes()
        return self._key

    def sort_key(self) -> tuple[int, bytes]:
        return (self.order, self.key)

    def mask(self) -> np.ndarray:
        return _mask(self.parent.order, self.members)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and self.parent is other.parent and self.key == other.key

    def __hash__(self) -> int:
        return hash((id(self.parent), self.key))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.label})"


def subgroup_from_generators(g: Group, gens) -> Subgroup:
    members = close_under_product(g.mul, np.asarray(list(gens) + [0], dtype=np.intp))
    return Subgroup(g, members)


def full_subgroup(g: Group) -> Subgroup:
    return Subgroup(g, np.arange(g.order))


def subgroup_as_group(lattice: SubgroupLattice, i: int) -> Group:
    """Subgroup i of the lattice as a group of its own, element j being its j-th member; kept in G's cache.

    Its generators are the ones the lattice records for i, relabelled, and it
    records its embedding (lattice, i), from which ``all_subgroups`` reads
    its lattice.
    """
    g = lattice.group
    child = g._cache.get(("child", i))
    if child is None:
        members = lattice.subgroups[i].members
        pos = np.zeros(g.order, dtype=np.intp)
        pos[members] = np.arange(members.size)
        gens = pos[lattice.gen_flat[lattice.gen_start[i] : lattice.gen_start[i + 1]]]
        table = pos[g.mul[np.ix_(members, members)]]
        child = g._cache[("child", i)] = Group(table, f"{g.label}|sub{members.size}", gens)
        child._cache["embedding"] = (lattice, i)
    return child


class ClassSizes(NamedTuple):
    """Orders of N_G(H), H^G and their meet; the same for every conjugate of H."""

    normalizer: int
    closure: int
    meet: int


class SubgroupLattice:
    def __init__(self, group: Group, subgroups: list[Subgroup], orbit: np.ndarray, generators):
        """``orbit[i]`` labels the conjugacy class of ``subgroups[i]``, which are sorted by (order, bitset).

        ``generators[i]`` generates ``subgroups[i]`` and is not empty: 0 generates the trivial subgroup.
        """
        self.group = group
        self.subgroups = subgroups
        self.index_by_key = {s.key: i for i, s in enumerate(subgroups)}
        # class ids rank the orbits by their first index, so the first index of each id is its representative
        _, first, inverse = np.unique(orbit, return_index=True, return_inverse=True)
        self.class_id = np.argsort(np.argsort(first))[inverse]
        _, reps, self.class_size = np.unique(self.class_id, return_index=True, return_counts=True)
        self.rep_indices = reps.tolist()
        self.normal = self.class_size[self.class_id] == 1
        # subgroup i is generated by gen_flat[gen_start[i] : gen_start[i + 1]]
        self.gen_start = np.cumsum([0] + [len(x) for x in generators])
        self.gen_flat = np.concatenate(generators).astype(np.intp)
        # inside[i]: packed row (np.packbits order) whose bit j is set when subgroup i is a proper subgroup of j
        self.inside = _packed_containment(subgroups, self.gen_flat, self.gen_start, group.order)
        # the whole group sorts last: i is maximal when the last bit is the only one set in its row
        last = len(subgroups) - 1
        self.maximal = (self.inside[:, last >> 3] == 0x80 >> (last & 7)) & ~self.inside[:, : last >> 3].any(axis=1)
        self._covers: np.ndarray | None = None
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
            # the members of H^G that conjugate H's generators into H
            gens = self.gen_flat[self.gen_start[i] : self.gen_start[i + 1]]
            meet = int(h.mask()[g.conjugates(closure.members[:, None], gens)].all(axis=1).sum())
            sizes = self._class_sizes[cid] = ClassSizes(g.order // int(self.class_size[cid]), closure.order, meet)
        return sizes

    def conjugacy_class_size(self, i: int) -> int:
        return int(self.class_size[self.class_id[i]])

    def normal_above(self, i: int) -> np.ndarray:
        """Indices of the normal subgroups that contain subgroup i (i itself when normal), in sort order."""
        above = np.unpackbits(self.inside[i], count=len(self.subgroups)).view(bool) & self.normal
        above[i] = self.normal[i]
        return np.flatnonzero(above)

    def below(self, j: int) -> np.ndarray:
        """Indices of the proper subgroups of subgroup j, in sort order: column j of ``inside``."""
        return _column(self.inside, j)

    def normal_subgroups(self) -> list[Subgroup]:
        return [s for i, s in enumerate(self.subgroups) if self.normal[i]]

    def maximal_subgroups(self) -> list[Subgroup]:
        return [s for i, s in enumerate(self.subgroups) if self.maximal[i]]

    def subgroups_of_order(self, order: int) -> list[Subgroup]:
        return [s for s in self.subgroups if s.order == order]

    def subgroups_inside(self, sub: Subgroup) -> list[Subgroup]:
        j = self.subgroup_index(sub)
        return [self.subgroups[i] for i in self.below(j)] + [self.subgroups[j]]

    def maximal_inside(self, j: int) -> np.ndarray:
        """Indices of the maximal subgroups of subgroup j (the lattice covers below j)."""
        return _column(self.covers(), j)

    def covers(self) -> np.ndarray:
        """Packed covering relation, built on first use: bit j of row i is set when i is maximal in j.

        It is ``inside & ~(inside o inside)``: row i of the product ORs the
        rows of i's overgroups k, so it marks every j with i < k < j.  The
        (row, overgroup) pairs of each block of rows are reduced in runs whose
        gathered rows stay under ``_BLOCK_BYTES``, however many overgroups one
        row has.
        """
        if self._covers is None:
            inside = self.inside
            count, width = inside.shape
            through = np.zeros_like(inside)
            step = max(1, _BLOCK_BYTES // width)
            for lo in range(0, count, step):
                rows, over = _set_bits(inside[lo : lo + step])
                for start in range(0, rows.size, step):
                    r, k = rows[start : start + step], over[start : start + step]
                    first = np.flatnonzero(np.diff(r, prepend=-1))
                    through[lo + r[first]] |= np.bitwise_or.reduceat(inside[k], first, axis=0)
            np.bitwise_not(through, out=through)
            through &= inside
            self._covers = through
        return self._covers


_BLOCK_BYTES = 1 << 20


def _column(packed: np.ndarray, j: int) -> np.ndarray:
    """Indices of the rows of a packed bit matrix whose bit j is set."""
    return np.flatnonzero(packed[:, j >> 3] & 0x80 >> (j & 7))


def _set_bits(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of every set bit of a packed bit matrix, in row-major order; only nonzero bytes are unpacked."""
    rows, byte = np.nonzero(packed)
    at, bit = np.nonzero(np.unpackbits(packed[rows, byte][:, None], axis=1))
    return rows[at], byte[at] * 8 + bit


def _packed_containment(subgroups: list[Subgroup], gen_flat: np.ndarray, gen_start: np.ndarray, n: int) -> np.ndarray:
    """Packed proper containment: bit j of row i is set when subgroup i is a proper subgroup of j.

    A subgroup J contains K exactly when J contains a generating set of K
    (Holt-Eick-O'Brien 2005), so row i is the AND, over K's generators x, of
    row x of the element-subgroup incidence table (bit j of row x is set when
    x lies in subgroup j), with bit i then cleared.  The incidence table is
    made and reduced one block of columns at a time, the block and its
    gathered rows each held under ``_BLOCK_BYTES``; padding bits stay 0.
    """
    count = len(subgroups)
    inside = np.empty((count, -(-count // 8)), dtype=np.uint8)
    sizes = np.array([s.order for s in subgroups])
    # a block of columns: n x step booleans, then gen_flat.size x step / 8 gathered bytes
    step = max(8, _BLOCK_BYTES // max(n, gen_flat.size // 8) // 8 * 8)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        members = np.concatenate([s.members for s in subgroups[lo:hi]])
        incidence = np.packbits(_mask((n, hi - lo), (members, np.repeat(np.arange(hi - lo), sizes[lo:hi]))), axis=1)
        inside[:, lo // 8 : -(-hi // 8)] = np.bitwise_and.reduceat(incidence[gen_flat], gen_start[:-1], axis=0)
    diag = np.arange(count)
    inside[diag, diag >> 3] &= ~(0x80 >> (diag & 7)).astype(np.uint8)
    return inside


def _mask(shape, index) -> np.ndarray:
    """A boolean array of ``shape``, True exactly at ``index``."""
    mask = np.zeros(shape, dtype=bool)
    mask[index] = True
    return mask


def all_subgroups(g: Group, budget: Budget = DEFAULT_BUDGET) -> SubgroupLattice:
    """Every subgroup of g, in g's one lattice, kept in its cache.

    The lattice g holds; else, for a group made by ``subgroup_as_group``, one
    read off its parent's (``_restricted_lattice``); else an enumeration
    (``_enumerate``).  A lattice of more than ``budget.max_subgroups``
    subgroups then raises the error an enumeration raises when it passes that
    count, so the answer does not depend on which budget built the lattice.
    """
    lattice = g._cache.get("lattice")
    if lattice is None:
        embedding = g._cache.get("embedding")
        lattice = _enumerate(g, budget.max_subgroups) if embedding is None else _restricted_lattice(g, *embedding)
        g._cache["lattice"] = lattice
    if len(lattice.subgroups) > budget.max_subgroups:
        raise BudgetExceededError(f"subgroup budget {budget.max_subgroups} exceeded", partial=budget.max_subgroups)
    return lattice


def _enumerate(g: Group, max_subgroups: int) -> SubgroupLattice:
    """Every subgroup of g: cyclic seeds, then joins with zuppos until fixpoint.

    Each new subgroup's conjugacy class is added whole, so joins are only
    computed for one representative H per class: a join of a conjugate is the
    matching conjugate of a join.  H is joined only with zuppos, the cyclic
    subgroups C = <x> of prime-power order, not inside it (Neubueser's cyclic
    extension method, *Numer. Math.* 2, 1960; Holt-Eick-O'Brien, *Handbook of
    Computational Group Theory*, 2005).  That is exact: a subgroup K is
    generated by its zuppos (each element is the product of its prime-power
    parts, which are its powers), so when a representative H is conjugate to
    a maximal subgroup of K, some zuppo z of the matching conjugate K^y lies
    outside H, and <H, z> = K^y.  Three reductions leave fewer joins:

    - one C per N_G(H)-orbit: for y in N_G(H), <H, C^y> = <H, C>^y, a conjugate
      already added; conjugates of zuppos are zuppos;
    - one C per coset xH: for h in H, <H, x> = <H, xh>;
    - when x normalizes H, the join is the product set H<x> (the Dimino coset
      step, Butler, LNCS 559, 1991): a boolean row, keyed by ``np.packbits``.

    Any other join is closed, from H's members under H's generators and x, and
    only when H and x lie in the solvable residual R, the last derived term.
    A non-perfect K has a normal subgroup of prime index (K/K' is abelian and
    not trivial); a conjugate of it is a representative H, and the matching
    conjugate of K is H<z> for a zuppo z outside H, a product set.  A perfect
    K = K^(k) <= G^(k) lies in R.  Both reductions keep "x normalizes H" and
    "x lies in R"; a solvable G closes nothing.

    Representatives are taken a generation (those queued so far) at a time.
    A normal H is its own class, N_G(H) = G, and its joins depend on nothing
    found since it was queued: those of every normal representative of a
    generation are formed in one pass, in runs under ``_BLOCK_BYTES``.  The
    walk in queue order then adds them, so subgroups are found in the order
    of one representative at a time.  Past ``max_subgroups`` subgroups the
    enumeration stops with ``BudgetExceededError``, whose ``partial`` is that
    count.

    Every subgroup keeps a generating set, from which the lattice reads its
    containment: 0 for the trivial subgroup, x for <x>, H's generators and x
    for a join <H, x>, and for a conjugate the conjugates of its parent's
    generators along the orbit walk.
    """
    n = g.order
    mul = g.mul
    gens = np.asarray(g.generators, dtype=np.intp)
    gen_rows = g.conjugates(gens[:, None], np.arange(n))  # gen_rows[s, x] = gens[s] x gens[s]^-1
    # cyclic[c] = <cyc_gen[c]>, its least generator; cyc_of[x] = c when <x> = cyclic[c]
    orders, least_gen, cyclic = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp), []
    step = max(1, _BLOCK_BYTES // (16 * n))  # rows of x, as the table of their powers is at most 2n wide
    for lo in range(0, n, step):
        # powers[i, k] = x^k, doubled in width (x^(w-1+j) = x^(w-1) x^j) until every x has met 1 again
        xs = np.arange(lo, min(lo + step, n), dtype=mul.dtype)
        powers = np.stack([np.zeros_like(xs), xs], axis=1)
        while not (powers[:, 1:] == 0).any(axis=1).all():
            powers = np.concatenate([powers, mul[powers[:, -1:], powers[:, 1:]]], axis=1)
        orders[xs] = order = (powers[:, 1:] == 0).argmax(axis=1) + 1
        k = np.arange(powers.shape[1])  # x^k generates <x> when k < |x| is prime to |x|
        ords, inv = np.unique(order, return_inverse=True)
        least_gen[xs] = np.where(((np.gcd(k, ords[:, None]) == 1) & (k < ords[:, None]))[inv], powers, n).min(axis=1)
        cyclic += [np.sort(powers[x - lo, : orders[x]]).astype(np.intp) for x in xs[(least_gen[xs] == xs) & (xs > 0)]]
    cyc_gen = np.flatnonzero(least_gen == np.arange(n))[1:]
    cyc_of = np.searchsorted(cyc_gen, least_gen)
    cyc_size = orders[cyc_gen]
    zuppo = np.array([_is_prime_power(int(size)) for size in cyc_size], dtype=bool)
    # the seeds are 1 and the cyclic subgroups; their classes are the orbits of the generators' permutations
    seeds = [np.zeros(1, dtype=np.intp)] + cyclic
    if len(seeds) > max_subgroups:
        raise BudgetExceededError(f"subgroup budget {max_subgroups} exceeded", partial=max_subgroups)
    cyc_class = _orbit_labels(cyc_of[gen_rows[:, cyc_gen]], len(cyclic))
    label = np.append(0, 1 + cyc_class)  # the trivial subgroup is a class of its own
    first, inverse, sizes = np.unique(label, return_index=True, return_inverse=True, return_counts=True)[1:]
    rows = np.repeat(np.arange(len(seeds)), [1, *cyc_size])
    found: dict[bytes, np.ndarray] = dict(zip(_row_keys(_mask((len(seeds), n), (rows, np.concatenate(seeds)))), seeds))
    orbit_of: list[int] = inverse.tolist()  # the orbit of each subgroup in found
    gens_of: list = [[0]] + [[int(x)] for x in cyc_gen]  # a generating set of each subgroup in found
    # each orbit's first subgroup, its size and generators
    reps = [(seeds[i], int(size), gens_of[i]) for i, size in zip(first, sizes)]

    def _add(members: np.ndarray, key: bytes, generators) -> bool:
        if key in found:
            return False
        if len(found) >= max_subgroups:
            raise BudgetExceededError(f"subgroup budget {max_subgroups} exceeded", partial=len(found))
        found[key] = members
        orbit_of.append(len(reps))
        gens_of.append(generators)
        return True

    def orbit_add(key: bytes, generators: list[int], members: np.ndarray, normal: bool):
        if not _add(members, key, generators):
            return
        start = len(found) - 1
        # a conjugate K^y is generated by the conjugates of K's generators, carried along the walk
        queue = [] if normal else [(gen_rows[:, members], gen_rows[:, generators])]
        while queue:
            images, image_gens = queue.pop()
            rows = np.repeat(np.arange(gens.size), images.shape[1])
            keys = _row_keys(_mask((gens.size, n), (rows, images.ravel())))
            for image, image_key, image_gen in zip(images, keys, image_gens):
                if image_key not in found:
                    image = np.sort(image)
                    _add(image, image_key, image_gen)
                    queue.append((gen_rows[:, image], gen_rows[:, image_gen]))
        reps.append((members, len(found) - start, generators))

    pending: dict[bytes, tuple[np.ndarray, bool]] = {}  # members and normality of product sets not yet found

    def product_sets(flat, starts, sizes, r, c) -> list[bytes]:
        """Keys of the product sets H_r C_c, H_r = flat[starts[r] : starts[r] + sizes[r]], for pairs (r, c) in order;
        a boolean row each, in runs under ``_BLOCK_BYTES``.  A key not yet found is pending with its members."""
        keys = []
        for lo, hi in _runs(64 * sizes[r] * cyc_size[c] + 2 * n * (2 + gens.size)):
            rr, width = r[lo:hi], cyc_size[c[lo:hi]]
            left = np.concatenate([cyclic[x] for x in c[lo:hi]])
            cols = _ragged_products(mul, left, flat, np.repeat(starts[rr], width), np.repeat(sizes[rr], width))
            mask = _mask((hi - lo, n), (np.repeat(np.arange(hi - lo), width * sizes[rr]), cols))
            keys += (block := _row_keys(mask))
            new = {key: i for i, key in enumerate(block) if key not in found and key not in pending}
            mask = mask[list(new.values())]
            normal = (mask[:, gen_rows] | ~mask[:, None]).all(axis=(1, 2)).tolist()
            pending.update(zip(new, zip([np.flatnonzero(row) for row in mask], normal)))
        return keys

    def normal_joins(bases: list[np.ndarray]):
        """For each normal H in ``bases``, the keys of the joins H<x> and the x, made for runs of bases at once: x runs
        over the zuppo class representatives outside H (N_G(H) = G), the first of each coset xH by its least member."""
        zuppo_reps = np.flatnonzero(zuppo & (cyc_class == np.arange(len(cyclic))))
        sizes = np.array([b.size for b in bases], dtype=np.intp)
        for lo, hi in _runs(4 * n + 64 * zuppo_reps.size * sizes):
            flat, size = np.concatenate(bases[lo:hi]), sizes[lo:hi]
            starts = np.cumsum(size) - size
            r, c = np.nonzero(~_mask((hi - lo, n), (np.repeat(np.arange(hi - lo), size), flat))[:, cyc_gen[zuppo_reps]])
            c = zuppo_reps[c]
            least = _ragged_products(mul, cyc_gen[c], flat, starts[r], size[r])
            least = np.minimum.reduceat(least, np.cumsum(size[r]) - size[r])
            first = np.sort(np.unique(r * n + least, return_index=True)[1])
            r, c = r[first], c[first]
            keys, xs = product_sets(flat, starts, size, r, c), cyc_gen[c].tolist()
            bounds = np.searchsorted(r, np.arange(hi - lo + 1)).tolist()
            yield from ((keys[a:b], xs[a:b]) for a, b in zip(bounds, bounds[1:]))

    # the series a predicate cached, else one not kept: kept for every lattice, it raised a claim run's peak RSS
    residual = _mask(n, (g._cache.get("derived") or commutator_series(g)).terms[-1])
    head = 0
    while head < len(reps):
        # one generation: the representatives queued so far, but 1 (whose joins are the seeds) and G
        generation = [rep for rep in reps[head:] if rep[0].size not in (1, n)]
        head = len(reps)
        batch = normal_joins([base for base, orbit_size, _ in generation if orbit_size == 1])
        for base, orbit_size, base_gens in generation:
            if orbit_size == 1:
                keys, xs = next(batch)
                closing = []
            else:
                cand = np.flatnonzero(zuppo & ~_mask(n, base)[cyc_gen])
                norm = normalizer_members(g, base, base_gens)
                # orbit-stabilizer: an orbit cut short or two classes walked as one breaks it
                if norm.size * orbit_size != n:
                    raise ConsistencyError("conjugacy orbit does not match the normalizer")
                # keep the least index of each N_G(H)-orbit, in row blocks of N_G(H)
                xs = cyc_gen[cand]
                least = cand.astype(np.int32)
                for start in range(0, norm.size, 256):
                    least = np.minimum(least, cyc_of[g.conjugates(norm[start : start + 256, None], xs)].min(axis=0))
                cand = cand[least == cand]
                # keep the first of each coset xH, named by its least member
                first = np.unique(mul[cyc_gen[cand][:, None], base].min(axis=1), return_index=True)[1]
                cand = cand[np.sort(first)]
                normalizing = _mask(n, norm)[cyc_gen[cand]]
                c = cand[normalizing]
                keys, xs = product_sets(base, np.zeros(1, np.intp), np.array(base.shape), 0 * c, c), cyc_gen[c].tolist()
                # a join that no product set reaches is perfect, so it lies in the solvable residual
                outside = cyc_gen[cand[~normalizing]]
                closing = outside[residual[outside]].tolist() if residual[base].all() else []
            for key, x in zip(keys, xs):
                if key not in found:
                    orbit_add(key, base_gens + [x], *pending.pop(key))
            for x in closing:
                join_gens = base_gens + [x]
                members = close_under_product(mul, join_gens, start=base)
                mask = _mask(n, members)
                orbit_add(np.packbits(mask).tobytes(), join_gens, members, mask[gen_rows[:, members]].all())
        pending.clear()

    # every member array found is sorted and duplicate-free, and its key is the one packed above
    subs = [Subgroup._sorted(g, m, key) for key, m in found.items()]
    order = sorted(range(len(subs)), key=lambda t: subs[t].sort_key())
    return SubgroupLattice(g, [subs[t] for t in order], np.array(orbit_of)[order], [gens_of[t] for t in order])


def _orbit_labels(perms, count: int) -> np.ndarray:
    """Each of ``count`` points labelled by the least index of its orbit under the permutations ``perms``."""
    orbit = np.arange(count)
    while True:
        label = orbit
        for perm in perms:
            label = np.minimum(label, label[perm])
        label = label[label]
        if np.array_equal(label, orbit):
            return orbit
        orbit = label


def _is_prime_power(k: int) -> bool:
    p = next(d for d in range(2, k + 1) if k % d == 0)
    return p ** k.bit_length() % k == 0  # k divides a power of its least prime p when p is its only prime


def _runs(cost: np.ndarray):
    """(lo, hi) of consecutive runs of items whose costs sum to at most ``_BLOCK_BYTES``; a costlier item runs alone."""
    ends = np.cumsum(cost)
    lo = 0
    while lo < cost.size:
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - cost[lo] + _BLOCK_BYTES, side="right")))
        yield lo, hi
        lo = hi


def _ragged_products(mul: np.ndarray, left: np.ndarray, flat: np.ndarray, starts, sizes) -> np.ndarray:
    """``mul[left[i], flat[starts[i] : starts[i] + sizes[i]]]`` for each i, concatenated."""
    ends = np.cumsum(sizes)
    return mul[np.repeat(left, sizes), flat[np.arange(ends[-1]) + np.repeat(starts + sizes - ends, sizes)]]


def _row_keys(mask: np.ndarray) -> list[bytes]:
    """``Subgroup.key`` of each row of a boolean matrix."""
    packed = np.packbits(mask, axis=1)
    width, packed = packed.shape[1], packed.tobytes()
    return [packed[i : i + width] for i in range(0, len(packed), width)]


def _restricted_lattice(g: Group, parent: SubgroupLattice, j: int) -> SubgroupLattice:
    """The lattice of g = ``subgroup_as_group(parent, j)``, read off the interval [1, H] of G's lattice, H = subgroup j.

    Element i of g is element ``H.members[i]`` of G.  That map is increasing,
    so it keeps the (order, bitset) sort: two subsets of H first differ at an
    element of H, and their images first differ at its image.  The subgroups
    of g are thus G's subgroups inside H, in G's order, with G's containment.
    Only the classes are new: H-conjugacy classes are the orbits of the
    permutations that g's generators induce on the subgroups, each conjugate
    matched to its index by key.  No joins are computed: each subgroup keeps
    its generators in G, relabelled.
    """
    idx = np.append(parent.below(j), j)
    count, n = idx.size, g.order
    pos = np.zeros(parent.group.order, dtype=np.intp)
    pos[parent.subgroups[j].members] = np.arange(n)
    sizes = [parent.subgroups[i].order for i in idx]
    rows = np.repeat(np.arange(count), sizes)
    flat = pos[np.concatenate([parent.subgroups[i].members for i in idx])]
    keys = _row_keys(_mask((count, n), (rows, flat)))
    subgroups = [Subgroup._sorted(g, m, key) for m, key in zip(np.split(flat, np.cumsum(sizes)[:-1]), keys)]
    index_by_key = {key: i for i, key in enumerate(keys)}
    perms = []
    for c in g.generators:
        keys = _row_keys(_mask((count, n), (rows, g.conjugates(c, flat))))
        perm = np.array([index_by_key.get(key, -1) for key in keys])
        if (perm < 0).any():
            raise ConsistencyError("a conjugate subgroup is missing from the parent lattice")
        perms.append(perm)
    generators = [pos[parent.gen_flat[parent.gen_start[i] : parent.gen_start[i + 1]]] for i in idx]
    lattice = SubgroupLattice(g, subgroups, _orbit_labels(perms, count), generators)
    # orbit-stabilizer: a wrong permutation or two classes merged as one breaks it
    for i in lattice.rep_indices:
        if normalizer_members(g, subgroups[i].members, generators[i]).size * lattice.conjugacy_class_size(i) != n:
            raise ConsistencyError("conjugacy orbit does not match the normalizer")
    return lattice


# --- member-level primitives (no lattice required) --------------------------------


def normalizer_members(g: Group, members, generators=None) -> np.ndarray:
    """N_G(H) for H given by its members, conjugating only ``generators`` when a generating set of H is known.

    y normalizes the finite group H exactly when y maps a generating set of H
    into H; without ``generators`` the members themselves are that set.
    """
    members = np.asarray(members, dtype=np.intp)
    gens = members if generators is None else np.asarray(generators, dtype=np.intp)
    return np.flatnonzero(_mask(g.order, members)[g.conjugates(np.arange(g.order)[:, None], gens)].all(axis=1))


def normal_closure_members(g: Group, members, within=None) -> np.ndarray:
    """Smallest subgroup containing ``members`` normalized by ``within`` (default G)."""
    return _normal_closure(g, members, within)[0]


def _normal_closure(g: Group, seed, conjugators=None) -> tuple[np.ndarray, np.ndarray]:
    """The least subgroup normalized by ``conjugators`` (default G's generators) containing ``seed``, and generators.

    <S> is normalized by y once y conjugates S into it, so each round conjugates
    the generators the round before added, and adds the images outside."""
    ys = np.asarray(g.generators if conjugators is None else conjugators, dtype=np.intp)
    gens = fresh = np.asarray(seed, dtype=np.intp).ravel()
    members = close_under_product(g.mul, gens)
    while fresh.size:
        fresh = np.flatnonzero(_mask(g.order, g.conjugates(ys[:, None], fresh)) & ~_mask(g.order, members))
        gens = np.concatenate([gens, fresh])
        members = close_under_product(g.mul, gens, start=members)
    return members, gens


class SeriesReport(NamedTuple):
    terms: list[np.ndarray]  # member arrays, outermost first
    terminated: bool


def commutator_series(g: Group, central: bool = False) -> SeriesReport:
    """G > G' > G'' > ..., or with ``central`` G > [G, G] > [G, G, G] > ..., down to 1 or to a term equal to the next.

    Every term N is normal and read-only.  For N = <X> and G = <Y>, [N, N] and
    [N, G] are the normal closures in G of [X, X] and [X, Y]: [<X>, <Y>] is the
    normal closure of [X, Y] in <X, Y>, and [N, N] is normal in G, being
    characteristic in N.  The next term's generators are those commutators
    and the conjugates its closure added.
    """
    terms = [np.arange(g.order, dtype=np.intp)]
    gens = whole = np.asarray(g.generators, dtype=np.intp)
    while terms[-1].size > 1:
        members, gens = _normal_closure(g, commutators(g, gens, whole if central else gens))
        if members.size == terms[-1].size:
            break
        terms.append(members)
    for t in terms:
        t.setflags(write=False)
    return SeriesReport(terms, terminated=terms[-1].size == 1)


def derived_series(g: Group) -> SeriesReport:
    """The derived series, kept in g's cache."""
    if "derived" not in g._cache:
        g._cache["derived"] = commutator_series(g)
    return g._cache["derived"]


def normality_sizes(g: Group, members, within=None) -> ClassSizes:
    """``ClassSizes`` of H = ``members`` in K, the subgroup with members ``within`` (default G): N_K(H), H^K, their meet."""
    norm = normalizer_members(g, members)
    if within is not None:
        norm = norm[_mask(g.order, within)[norm]]
    closure = normal_closure_members(g, members, within)
    return ClassSizes(norm.size, closure.size, int(_mask(g.order, closure)[norm].sum()))


def centralizer_members(g: Group, members) -> np.ndarray:
    members = np.asarray(members, dtype=np.intp)
    left = g.mul[:, members]
    right = g.mul[members, :].T
    return np.flatnonzero((left == right).all(axis=1)).astype(np.intp)


# --- subgroup operations ----------------------------------------------------------


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


def second_maximal_subgroups(g: Group, budget: Budget = DEFAULT_BUDGET) -> list[Subgroup]:
    """Maximal subgroups of maximal subgroups, deduplicated across the group."""
    lattice = all_subgroups(g, budget)
    second = np.zeros(len(lattice.subgroups), dtype=bool)
    for top in np.flatnonzero(lattice.maximal):
        second[lattice.maximal_inside(top)] = True
    return [lattice.subgroups[i] for i in np.flatnonzero(second)]


def subgroup_product(g: Group, a: Subgroup, b: Subgroup) -> tuple[int, bool]:
    """Size of the product set AB, |A||B|/|A n B| for any two subgroups, and whether it is all of G."""
    size = a.order * b.order // np.intersect1d(a.members, b.members, assume_unique=True).size
    return size, size == g.order


# --- exports ----------------------------------------------------------------------


def hasse_edges(lattice: SubgroupLattice) -> list[tuple[int, int]]:
    """Covering pairs (i, j): subgroup i maximal inside subgroup j, in (i, j) order.

    The set bits of the covers, read row-major in blocks of rows.
    """
    covers = lattice.covers()
    count, width = covers.shape
    step = max(1, _BLOCK_BYTES // width)
    edges: list[tuple[int, int]] = []
    for lo in range(0, count, step):
        i, j = _set_bits(covers[lo : lo + step])
        edges += zip((i + lo).tolist(), j.tolist())
    return edges


def lattice_to_json(lattice: SubgroupLattice) -> str:
    """The lattice as compact JSON, its subgroup entries encoded 1 024 at a time.

    The text is that of one ``json.dumps`` of the whole document; encoding it
    in parts keeps a large lattice from holding every entry's objects and
    chunks at once.
    """
    dumps = json.JSONEncoder(separators=(",", ":")).encode
    count = len(lattice.subgroups)
    subgroups = ",".join(
        dumps(
            [
                {
                    "order": s.order,
                    "members": s.members.tolist(),
                    "normal": bool(lattice.normal[i]),
                    "maximal": bool(lattice.maximal[i]),
                    "classId": int(lattice.class_id[i]),
                }
                for i, s in enumerate(lattice.subgroups[lo : lo + 1024], lo)
            ]
        )[1:-1]
        for lo in range(0, count, 1024)
    )
    hasse = ",".join(f"[{i},{j}]" for i, j in hasse_edges(lattice))
    head = dumps({"group": lattice.group.label, "order": lattice.group.order})[:-1]
    return f'{head},"subgroups":[{subgroups}],"hasse":[{hasse}]}}'


def lattice_to_dot(lattice: SubgroupLattice) -> str:
    lines = ["digraph subgroups {", "  rankdir=BT;"]
    for i, s in enumerate(lattice.subgroups):
        shape = "doublecircle" if lattice.normal[i] else "circle"
        lines.append(f'  n{i} [label="{s.order}" shape={shape}];')
    for i, j in hasse_edges(lattice):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
