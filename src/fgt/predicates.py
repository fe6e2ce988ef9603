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
    quotient_group,
)
from .lattice import (
    ClassSizes,
    Subgroup,
    all_subgroups,
    centralizer_members,
    is_subnormal,
    normality_sizes,
    normalizer_members,
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
    terms = [np.arange(g.order, dtype=np.intp)]
    while True:
        cur = terms[-1]
        nxt = close_under_product(g.mul, commutators(g, cur, cur))
        if nxt.size == cur.size:
            return SeriesReport("derived", terms, terminated=cur.size == 1)
        terms.append(nxt)
        if nxt.size == 1:
            return SeriesReport("derived", terms, terminated=True)


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


def _preimage(hom_map, target_members, order: int) -> np.ndarray:
    target = np.zeros(max(hom_map) + 1, dtype=bool)
    target[np.asarray(target_members, dtype=np.intp)] = True
    return np.flatnonzero(target[np.asarray(hom_map, dtype=np.intp)]).astype(np.intp)


def _quotient_by(g: Group, normal_members: np.ndarray, budget: Budget):
    """G/N and a function taking members of a subgroup of G/N to those of its preimage in G.

    When N = 1 this is G itself: G/1 would be a copy of G with a lattice of its own.
    """
    if normal_members.size == 1:
        return g, lambda members: members
    q, hom = quotient_group(g, normal_members, budget)
    return q, lambda members: _preimage(hom.map, members, g.order)


def upper_p_series(g: Group, p: int, budget: Budget = DEFAULT_BUDGET) -> SeriesReport:
    """Ascending series 1 <= O_p' <= O_p',p <= ... pulled back to subgroups of g.

    Terms alternate p'-core and p-core steps, starting with O_p'; the term at
    even index i >= 2 is a p-step.  Stops at G, or when a full p'+p round
    makes no progress (which cannot happen for solvable input).
    """
    if not is_solvable(g):
        raise NotSolvableError("upper p-series computed for solvable groups only")
    terms = [np.array([0], dtype=np.intp)]
    take_p_part = False
    stalled = 0
    while terms[-1].size < g.order and stalled < 2:
        q, lift = _quotient_by(g, terms[-1], budget)
        if take_p_part:
            step = p_core_members(q, p, budget)
        else:
            step = np.array([0], dtype=np.intp)
            lat = all_subgroups(q, budget)
            for n in lat.normal_subgroups():
                if n.order % p != 0:
                    step = close_under_product(q.mul, np.union1d(step, n.members))
        lifted = lift(step)
        stalled = stalled + 1 if lifted.size == terms[-1].size else 0
        terms.append(lifted)
        take_p_part = not take_p_part
    return SeriesReport(f"upperPSeries({p})", terms, terminated=terms[-1].size == g.order)


def fitting_chain(g: Group, budget: Budget = DEFAULT_BUDGET) -> SeriesReport:
    """Ascending chain of Fitting-subgroup preimages; terminates at G for solvable g."""
    terms = [np.array([0], dtype=np.intp)]
    while terms[-1].size < g.order:
        q, lift = _quotient_by(g, terms[-1], budget)
        lifted = lift(fitting_subgroup(q, budget).members)
        if lifted.size == terms[-1].size:
            break
        terms.append(lifted)
    return SeriesReport("fittingChain", terms, terminated=terms[-1].size == g.order)


def is_abelian(g: Group) -> bool:
    return bool(np.array_equal(g.mul, g.mul.T))


def is_solvable(g: Group) -> bool:
    return derived_series(g).terminated


def is_metabelian(g: Group) -> bool:
    report = derived_series(g)
    return report.terminated and len(report.terms) <= 3


def is_nilpotent(g: Group, budget: Budget = DEFAULT_BUDGET) -> tuple[bool, int | None]:
    """All Sylow subgroups normal; class read off the lower central series."""
    lattice = all_subgroups(g, budget)
    for p in primes_of(g.order):
        target = p_part(g.order, p)
        idxs = [i for i, s in enumerate(lattice.subgroups) if s.order == target]
        if not any(lattice.normal[i] for i in idxs):
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
    target = p_part(g.order, p)
    sylow = next(s for s in lattice.subgroups if s.order == target)
    norm = normalizer_members(g, sylow.members)
    conj = g.conj_table()
    for t in lattice.subgroups_inside(sylow):
        t_mask = t.mask()
        if not t_mask[conj[norm][:, t.members]].all():
            return False
    return True


# --- characteristic subgroups -----------------------------------------------------


def p_core_members(g: Group, p: int, budget: Budget = DEFAULT_BUDGET) -> np.ndarray:
    """O_p(G) as the intersection of the Sylow p-subgroups."""
    lattice = all_subgroups(g, budget)
    target = p_part(g.order, p)
    sylows = [s for s in lattice.subgroups if s.order == target]
    members = sylows[0].members
    for s in sylows[1:]:
        members = np.intersect1d(members, s.members, assume_unique=True)
    return members


def fitting_subgroup(g: Group, budget: Budget = DEFAULT_BUDGET) -> Subgroup:
    """F(G): join of the p-cores over the primes dividing |G|."""
    members = np.array([0], dtype=np.intp)
    for p in primes_of(g.order):
        core = p_core_members(g, p, budget)
        members = close_under_product(g.mul, np.union1d(members, core))
    return Subgroup(g, members)


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
    """Number of p-terms in the upper p-series 1 <= O_p' <= O_p',p <= ..."""
    if not is_solvable(g):
        raise NotSolvableError("p-length computed for solvable groups only")
    if g.order % p != 0:
        return 0
    lattice = all_subgroups(g, budget)
    # O_p'(G): the largest normal subgroup of order prime to p
    core = np.array([0], dtype=np.intp)
    for n in lattice.normal_subgroups():
        if n.order % p != 0:
            core = close_under_product(g.mul, np.union1d(core, n.members))
    reduced, _ = _quotient_by(g, core, budget)
    if reduced.order == 1:
        return 0
    opart = p_core_members(reduced, p, budget)
    after_p, _ = quotient_group(reduced, opart, budget)
    return 1 + p_length(after_p, p, budget)


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
    components: list[Subgroup] = []
    for s in lattice.subgroups:
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
        quot, _ = quotient_group(child, centre, budget)
        if is_simple(quot, budget):
            components.append(s)
    layer_members = np.array([0], dtype=np.intp)
    for c in components:
        layer_members = close_under_product(g.mul, np.union1d(layer_members, c.members))
    layer = Subgroup(g, layer_members)
    fit = fitting_subgroup(g, budget)
    fstar_members = close_under_product(g.mul, np.union1d(layer.members, fit.members))
    fstar = Subgroup(g, fstar_members)
    child = subgroup_as_group(g, fstar)
    nilp, klass = is_nilpotent(child, budget)
    return components, layer, fstar, (klass if nilp else None)


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
