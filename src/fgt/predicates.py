"""Subgroup predicates, group classes, and the series machinery behind them.

Subgroup-level predicates (NC, NE, H-subgroup, pronormal, normally embedded)
are all conjugation-invariant, so the group-level classifiers only evaluate
one representative per conjugacy class of subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_BUDGET, Budget
from .errors import ConsistencyError, NotApplicableError, NotSolvableError
from .fields import is_prime
from .groups import (
    Group,
    OrderProfile,
    close_under_product,
    commutators,
    extract_subgroup_as_group,
    order_fingerprint,
)
from .lattice import (
    ClassSizes,
    Subgroup,
    SubgroupLattice,
    all_subgroups,
    centralizer_members,
    is_subnormal,
    normality_sizes,
    normalizer_members,
    sylow_subgroups,
)


def primes_of(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def vp_valuation(n: int, p: int) -> int:
    if n < 1:
        raise ValueError("valuation of a non-positive integer")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_part(n: int, p: int) -> int:
    return p ** vp_valuation(n, p)


# --- subgroup-level predicates ------------------------------------------------


def _is_nc(order: int, sizes: ClassSizes) -> bool:
    # H^G is normal, so H^G N_G(H) is a subgroup of order |H^G| |N_G(H)| / |meet|
    return sizes.closure * sizes.normalizer // sizes.meet == order


def is_nc_subgroup(g: Group, h: Subgroup) -> bool:
    """H^G N_G(H) = G."""
    return _is_nc(g.order, normality_sizes(g, h.members))


def is_ne_subgroup(g: Group, h: Subgroup) -> bool:
    """N_G(H) and H^G meet exactly in H (the meet always contains H)."""
    return normality_sizes(g, h.members).meet == h.order


def is_h_subgroup(g: Group, h: Subgroup) -> bool:
    """N_G(H) meets every conjugate of H inside H."""
    norm_mask = np.zeros(g.order, dtype=bool)
    norm_mask[normalizer_members(g, h.members)] = True
    h_mask = h.mask()
    conjugates = g.conj_table()[:, h.members]  # row x = members of H^x
    return bool((~norm_mask[conjugates] | h_mask[conjugates]).all())


def is_pronormal(g: Group, h: Subgroup) -> bool:
    """H and H^x are conjugate inside their join, for every x."""
    conj = g.conj_table()
    h_sorted = h.members
    for x in range(g.order):
        hx = np.sort(conj[x][h_sorted])
        if np.array_equal(hx, h_sorted):
            continue
        join = close_under_product(g.mul, np.concatenate([h_sorted, hx]))
        moved = np.sort(conj[join][:, h_sorted], axis=1)
        if not (moved == hx).all(axis=1).any():
            return False
    return True


def is_normally_embedded(g: Group, h: Subgroup, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Each Sylow subgroup of H is Sylow in some normal subgroup of G.

    Sylow subgroups of H are conjugate inside H, and normal subgroups of G
    are stable under that conjugation, so testing one Sylow per prime
    suffices.
    """
    lattice = all_subgroups(g, budget)
    normals = lattice.normal_subgroups()
    for p in primes_of(h.order):
        target = p_part(h.order, p)
        h_mask = h.mask()
        sylow_of_h = next(
            s for s in lattice.subgroups if s.order == target and h_mask[s.members].all()
        )
        if not any(
            n.order % target == 0
            and p_part(n.order, p) == target
            and n.mask()[sylow_of_h.members].all()
            for n in normals
        ):
            return False
    return True


def commutator_subgroup(g: Group, a: Subgroup, b: Subgroup) -> Subgroup:
    values = commutators(g, a.members, b.members)
    return Subgroup(g, close_under_product(g.mul, values))


# --- series ---------------------------------------------------------------------


@dataclass
class SeriesReport:
    kind: str
    terms: list[np.ndarray]  # member arrays, outermost first
    terminated: bool

    def lengths(self) -> list[int]:
        return [int(t.size) for t in self.terms]


def derived_series(g: Group) -> SeriesReport:
    """G > G' > G'' > ... down to a perfect term; kept in g's cache, so the terms are read-only."""
    report = g._cache.get("derived")
    if report is not None:
        return report
    terms = [np.arange(g.order, dtype=np.intp)]
    while terms[-1].size > 1:
        nxt = close_under_product(g.mul, commutators(g, terms[-1], terms[-1]))
        if nxt.size == terms[-1].size:
            break
        terms.append(nxt)
    for t in terms:
        t.setflags(write=False)
    report = g._cache["derived"] = SeriesReport("derived", terms, terminated=terms[-1].size == 1)
    return report


def lower_central_series(g: Group) -> SeriesReport:
    whole = np.arange(g.order, dtype=np.intp)
    terms = [whole]
    while True:
        cur = terms[-1]
        nxt = close_under_product(g.mul, commutators(g, cur, whole))
        if nxt.size == cur.size:
            return SeriesReport("lowerCentral", terms, terminated=cur.size == 1)
        terms.append(nxt)
        if nxt.size == 1:
            return SeriesReport("lowerCentral", terms, terminated=True)


def derived_subgroup_members(g: Group) -> np.ndarray:
    whole = np.arange(g.order, dtype=np.intp)
    return close_under_product(g.mul, commutators(g, whole, whole))


def _core_above(lattice: SubgroupLattice, i: int, p: int, p_power: bool) -> int:
    """The largest normal M above N = subgroup i with |M : N| a power of p, or prime to p when not ``p_power``.

    M is the preimage of O_p(G/N), or of O_p'(G/N): the normal subgroups of
    G/N are the M/N with M normal in G above N (correspondence theorem), and
    the largest normal p-subgroup (p'-subgroup) contains every other one.
    """
    base = lattice.subgroups[i].order
    for j in lattice.normal_above(i)[::-1]:
        index = lattice.subgroups[j].order // base
        if p_part(index, p) == (index if p_power else 1):
            return int(j)


def _least_normal_above(lattice: SubgroupLattice, indices) -> int:
    """The least normal subgroup containing every subgroup in ``indices``.

    It is their join whenever that join is normal, as it is for normal
    subgroups and for the components of G, which conjugation permutes.
    """
    above = lattice.normal_above(0)
    for i in indices:
        above = np.intersect1d(above, lattice.normal_above(i), assume_unique=True)
    return int(above[0])


def _fitting_above(lattice: SubgroupLattice, i: int) -> int:
    """The preimage of F(G/N) for N = subgroup i: the join of the preimages of each O_p(G/N)."""
    index = lattice.group.order // lattice.subgroups[i].order
    return _least_normal_above(lattice, [i] + [_core_above(lattice, i, p, True) for p in primes_of(index)])


def upper_p_series(g: Group, p: int, budget: Budget = DEFAULT_BUDGET) -> SeriesReport:
    """Ascending series 1 <= O_p' <= O_p',p <= ... up to G, read off the lattice of g.

    Terms alternate p'-core and p-core steps, starting with O_p'; the term at
    even index i >= 2 is a p-step.  Each term is the preimage of the core of
    G/N, N the term before.  A p'-step leaves O_p'(G/M) = 1, so in a solvable
    group the p-step after it grows until G is reached (Hall-Higman, 1956).
    """
    if not is_solvable(g):
        raise NotSolvableError("upper p-series computed for solvable groups only")
    lattice = all_subgroups(g, budget)
    terms = [0]
    while lattice.subgroups[terms[-1]].order < g.order:
        terms.append(_core_above(lattice, terms[-1], p, p_power=len(terms) % 2 == 0))
    return SeriesReport(f"upperPSeries({p})", [lattice.subgroups[i].members for i in terms], terminated=True)


def fitting_chain(g: Group, budget: Budget = DEFAULT_BUDGET) -> SeriesReport:
    """Ascending chain of Fitting-subgroup preimages; terminates at G for solvable g."""
    lattice = all_subgroups(g, budget)
    terms = [0]
    while lattice.subgroups[terms[-1]].order < g.order:
        nxt = _fitting_above(lattice, terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    members = [lattice.subgroups[i].members for i in terms]
    return SeriesReport("fittingChain", members, terminated=members[-1].size == g.order)


def is_abelian(g: Group) -> bool:
    return bool(np.array_equal(g.mul, g.mul.T))


def is_solvable(g: Group) -> bool:
    return derived_series(g).terminated


def is_metabelian(g: Group) -> bool:
    report = derived_series(g)
    return report.terminated and len(report.terms) <= 3


def is_nilpotent(g: Group, budget: Budget = DEFAULT_BUDGET) -> tuple[bool, int | None]:
    """All Sylow subgroups normal, that is each the only one; class read off the lower central series."""
    if any(len(sylow_subgroups(g, p, budget)) > 1 for p in primes_of(g.order)):
        return False, None
    series = lower_central_series(g)
    return True, len(series.terms) - 1


def is_simple(g: Group, budget: Budget = DEFAULT_BUDGET) -> bool:
    if g.order == 1:
        return False
    return len(all_subgroups(g, budget).normal_subgroups()) == 2


def is_dedekind(g: Group, budget: Budget = DEFAULT_BUDGET) -> bool:
    return bool(all_subgroups(g, budget).normal.all())


def is_supersolvable(g: Group, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Huppert's criterion: every maximal subgroup has prime index (Math. Z. 60, 1954)."""
    return all(is_prime(g.order // m.order) for m in all_subgroups(g, budget).maximal_subgroups())


def is_p_nilpotent(g: Group, p: int, budget: Budget = DEFAULT_BUDGET) -> bool:
    """A normal p-complement exists: a normal subgroup of order |G| / |G|_p."""
    complement_order = g.order // p_part(g.order, p)
    return any(n.order == complement_order for n in all_subgroups(g, budget).normal_subgroups())


def satisfies_cp(g: Group, p: int, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Every subgroup of a Sylow p-subgroup P is normal in N_G(P)."""
    lattice = all_subgroups(g, budget)
    sylow = sylow_subgroups(g, p, budget)[0]
    norm = normalizer_members(g, sylow.members)
    conj = g.conj_table()
    for t in lattice.subgroups_inside(sylow):
        t_mask = t.mask()
        if not t_mask[conj[norm][:, t.members]].all():
            return False
    return True


# --- characteristic subgroups -----------------------------------------------------


def p_core_members(g: Group, p: int, budget: Budget = DEFAULT_BUDGET) -> np.ndarray:
    """O_p(G): the largest normal p-subgroup."""
    lattice = all_subgroups(g, budget)
    return lattice.subgroups[_core_above(lattice, 0, p, p_power=True)].members


def fitting_subgroup(g: Group, budget: Budget = DEFAULT_BUDGET) -> Subgroup:
    """F(G): join of the p-cores over the primes dividing |G|."""
    lattice = all_subgroups(g, budget)
    return lattice.subgroups[_fitting_above(lattice, 0)]


def fitting_height(g: Group, budget: Budget = DEFAULT_BUDGET) -> int:
    if not is_solvable(g):
        raise NotApplicableError("Fitting height is only defined here for solvable groups")
    return len(fitting_chain(g, budget).terms) - 1


def frattini_subgroup(g: Group, budget: Budget = DEFAULT_BUDGET) -> Subgroup:
    lattice = all_subgroups(g, budget)
    maximals = lattice.maximal_subgroups()
    if not maximals:
        return Subgroup(g, np.arange(g.order))
    members = maximals[0].members
    for m in maximals[1:]:
        members = np.intersect1d(members, m.members, assume_unique=True)
    return Subgroup(g, members)


def p_length(g: Group, p: int, budget: Budget = DEFAULT_BUDGET) -> int:
    """Number of p-steps in the upper p-series 1 <= O_p' <= O_p',p <= ..., each of which grows."""
    if not is_solvable(g):
        raise NotSolvableError("p-length computed for solvable groups only")
    return (len(upper_p_series(g, p, budget).terms) - 1) // 2


def subgroup_as_group(g: Group, h: Subgroup) -> Group:
    cache_key = ("child", h.key)
    child = g._cache.get(cache_key)
    if child is None:
        child, _ = extract_subgroup_as_group(g, h.members)
        # all_subgroups(child) reads the child's lattice off g's when g holds one
        child._cache["embedding"] = (g, h)
        g._cache[cache_key] = child
    return child


def generalized_fitting(g: Group, budget: Budget = DEFAULT_BUDGET):
    """Components, layer E(G), F*(G) = E(G)F(G), and the nilpotency class of F*.

    A component is a subnormal quasisimple subgroup: perfect, with simple
    central quotient.  Returns (components, layer, fstar, fstar_class) where
    fstar_class is None when F* is not nilpotent.
    """
    lattice = all_subgroups(g, budget)
    # a perfect P is P^(k) <= G^(k) for every k, so it lies in the solvable residual R
    r = lattice.subgroup_index(Subgroup(g, derived_series(g).terms[-1]))
    components: list[int] = []
    for i in np.append(np.flatnonzero(lattice.inside[:, r]), r).tolist():
        s = lattice.subgroups[i]
        if s.order == 1:
            continue
        derived = close_under_product(g.mul, commutators(g, s.members, s.members))
        if derived.size != s.order:
            continue  # not perfect
        if not is_subnormal(g, s):
            continue
        child = subgroup_as_group(g, s)
        centre = centralizer_members(child, np.arange(child.order))
        if centre.size == child.order:
            continue  # abelian, not quasisimple
        # s/Z(s) is simple when Z(s) and s are the only normal subgroups of s above Z(s)
        child_lattice = all_subgroups(child, budget)
        if child_lattice.normal_above(child_lattice.subgroup_index(Subgroup(child, centre))).size == 2:
            components.append(i)
    layer = _least_normal_above(lattice, components)
    fstar = lattice.subgroups[_least_normal_above(lattice, [layer, _fitting_above(lattice, 0)])]
    child = subgroup_as_group(g, fstar)
    nilp, klass = is_nilpotent(child, budget)
    return [lattice.subgroups[i] for i in components], lattice.subgroups[layer], fstar, (klass if nilp else None)


# --- group classes -----------------------------------------------------------------


def is_pnc_group(g: Group, budget: Budget = DEFAULT_BUDGET) -> bool:
    return pnc_witness(g, budget) is None


def pnc_witness(g: Group, budget: Budget = DEFAULT_BUDGET) -> Subgroup | None:
    """First (in sort order) subgroup that is not an NC-subgroup, if any.

    Class sizes are filled one class at a time, so the search stops filling
    at the first witness.
    """
    lattice = all_subgroups(g, budget)
    for i in lattice.rep_indices:
        if not _is_nc(g.order, lattice.class_sizes(i)):
            return lattice.subgroups[i]
    return None


def is_pe_group(g: Group, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Every minimal (prime-order) subgroup is an NE-subgroup."""
    lattice = all_subgroups(g, budget)
    return all(
        lattice.class_sizes(i).meet == lattice.subgroups[i].order
        for i in lattice.rep_indices
        if is_prime(lattice.subgroups[i].order)
    )


def is_on_group(g: Group, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Every subgroup is normal, or self-normalizing with full normal closure.

    The alternatives are read conjunctively (N_G(H) = H together with
    H^G = G); the disjunctive reading would make every simple group ON
    vacuously and break both the ON classification and the implication
    ON => NSN.
    """
    lattice = all_subgroups(g, budget)
    for i in lattice.rep_indices:
        sizes = lattice.class_sizes(i)
        if sizes.normalizer == g.order:
            continue
        if sizes.normalizer == lattice.subgroups[i].order and sizes.closure == g.order:
            continue
        return False
    return True


def is_nsn_group(g: Group, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Every subgroup is normal or self-normalizing."""
    lattice = all_subgroups(g, budget)
    return all(
        lattice.class_sizes(i).normalizer in (lattice.subgroups[i].order, g.order)
        for i in lattice.rep_indices
    )


def is_t_group(g: Group, budget: Budget = DEFAULT_BUDGET) -> bool:
    """Every subnormal subgroup is normal: no non-normal H is normal in its closure H^G.

    H is normal in H^G exactly when H^G lies in N_G(H), that is when the
    meet of the class record equals the closure.  Such an H is subnormal
    (H <| H^G <| G).  Conversely, if H <| H_{k-1} <| ... <| H_1 <| G is a
    subnormal series and H is not normal in G, let H_i be its last term
    that is not normal in G; then H_i <| H_{i-1} <| G, so H_i^G <= H_{i-1}
    normalizes H_i.
    """
    lattice = all_subgroups(g, budget)
    for i in lattice.rep_indices:
        if not lattice.normal[i]:
            sizes = lattice.class_sizes(i)
            if sizes.meet == sizes.closure:
                return False
    return True


# --- the profile --------------------------------------------------------------------


@dataclass
class PredicateProfile:
    order: int
    profile: OrderProfile
    abelian: bool
    dedekind: bool
    nilpotent: bool
    nilpotency_class: int | None
    solvable: bool
    supersolvable: bool
    metabelian: bool
    t_group: bool
    pnc: bool
    pe: bool
    on: bool
    nsn: bool
    simple: bool
    p_nilpotent: dict[int, bool]
    p_length: dict[int, int | None]
    cp: dict[int, bool]

    def to_json(self) -> dict:
        per_prime = {
            str(p): {
                "pNilpotent": self.p_nilpotent[p],
                "pLength": self.p_length[p],
                "cp": self.cp[p],
            }
            for p in sorted(self.p_nilpotent)
        }
        return {
            "order": self.order,
            "abelian": self.abelian,
            "dedekind": self.dedekind,
            "nilpotent": self.nilpotent,
            "nilpotencyClass": self.nilpotency_class,
            "solvable": self.solvable,
            "supersolvable": self.supersolvable,
            "metabelian": self.metabelian,
            "tGroup": self.t_group,
            "pnc": self.pnc,
            "pe": self.pe,
            "on": self.on,
            "nsn": self.nsn,
            "simple": self.simple,
            "perPrime": per_prime,
        }

    def flags(self) -> dict[str, bool]:
        return {
            "abelian": self.abelian,
            "dedekind": self.dedekind,
            "nilpotent": self.nilpotent,
            "solvable": self.solvable,
            "supersolvable": self.supersolvable,
            "metabelian": self.metabelian,
            "t_group": self.t_group,
            "pnc": self.pnc,
            "pe": self.pe,
            "on": self.on,
            "nsn": self.nsn,
            "simple": self.simple,
        }


def classify_group(g: Group, budget: Budget = DEFAULT_BUDGET) -> PredicateProfile:
    cached = g._cache.get("predicate_profile")
    if cached is not None:
        return cached
    primes = primes_of(g.order)
    nilp, klass = is_nilpotent(g, budget)
    profile = PredicateProfile(
        order=g.order,
        profile=order_fingerprint(g),
        abelian=is_abelian(g),
        dedekind=is_dedekind(g, budget),
        nilpotent=nilp,
        nilpotency_class=klass,
        solvable=is_solvable(g),
        supersolvable=is_supersolvable(g, budget),
        metabelian=is_metabelian(g),
        t_group=is_t_group(g, budget),
        pnc=is_pnc_group(g, budget),
        pe=is_pe_group(g, budget),
        on=is_on_group(g, budget),
        nsn=is_nsn_group(g, budget),
        simple=is_simple(g, budget),
        p_nilpotent={p: is_p_nilpotent(g, p, budget) for p in primes},
        p_length={p: (p_length(g, p, budget) if is_solvable(g) else None) for p in primes},
        cp={p: satisfies_cp(g, p, budget) for p in primes},
    )
    # internal consistency
    for holds, implied, message in (
        (profile.abelian, profile.dedekind, "abelian but not Dedekind"),
        (profile.dedekind, profile.pnc and profile.nsn, "Dedekind must be PNC and NSN"),
        (profile.simple, profile.pnc, "simple must be PNC"),
        (profile.on, profile.pnc and profile.nsn, "ON must be PNC and NSN"),
    ):
        if holds and not implied:
            raise ConsistencyError(f"{g.label}: {message}")
    g._cache["predicate_profile"] = profile
    return profile
