"""Independent oracles the lattice and predicate tests check against.

These deliberately avoid the library's join-closure enumeration: subgroups
are found by brute subset testing, so agreement with all_subgroups is a
genuine two-route check.
"""

from __future__ import annotations

import itertools

import numpy as np


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


_EXHAUSTIVE_MEMO: dict[bytes, frozenset[frozenset[int]]] = {}


def exhaustive_subgroups(mul: np.ndarray) -> frozenset[frozenset[int]]:
    """Every product-closed subset, by brute enumeration (memoized per table).

    A finite subset closed under the product is automatically a subgroup
    (powers of each element cycle through the identity and the inverse), and
    it necessarily contains the identity, so only subsets containing index 0
    are enumerated.  Subset sizes are restricted to divisors of the group
    order; candidate subsets are tested in vectorized batches.
    """
    key = np.ascontiguousarray(mul, dtype=np.int64).tobytes()
    found = _EXHAUSTIVE_MEMO.get(key)
    if found is None:
        found = _EXHAUSTIVE_MEMO[key] = frozenset(_exhaustive_search(mul))
    return found


def _exhaustive_search(mul: np.ndarray) -> set[frozenset[int]]:
    n = int(mul.shape[0])
    if n <= 14:
        return _exhaustive_bitmask(mul)
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
    return found


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


def maximal_prime_index_oracle(group, lattice) -> bool:
    """Supersolvability via the prime-index-maximal-subgroup criterion."""
    from fgt.predicates import is_solvable, primes_of

    if not is_solvable(group):
        return False
    for m in lattice.maximal_subgroups():
        index = group.order // m.order
        if len(primes_of(index)) != 1 or index != primes_of(index)[0]:
            return False
    return True


def brute_is_associative(mul: np.ndarray) -> bool:
    """(x y) z == x (y z) for every triple, one row x at a time: O(n^3)."""
    for x in range(mul.shape[0]):
        if not np.array_equal(mul[mul[x]], mul[x][mul]):
            return False
    return True
