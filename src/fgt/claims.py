"""Executable claim registry: structural statements checked over group universes.

Every claim pairs a statement (in the bundled STATEMENTS table) with a
machine check over a deterministic universe of GroupSpecs.  Outcomes are
pass / fail / skipped / reportOnly; failures always carry witnesses, and
re-running a claim reproduces its result bit for bit (modulo timing).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_BUDGET, Budget
from .errors import (
    ActionInconsistentError,
    BudgetExceededError,
    ConsistencyError,
    NotAutomorphismError,
    UnknownClaimError,
)
from .catalog import (
    GroupSpec,
    PowerActionSpec,
    build_cyclic,
    build_dihedral,
    build_group,
    parse_spec,
    standard_catalog,
)
from .fields import is_prime
from .groups import (
    Group,
    automorphism_from_generator_images,
    close_under_product,
    direct_product,
    order_fingerprint,
    quotient_group,
    semidirect_product,
)
from .lattice import (
    Subgroup,
    all_subgroups,
    centralizer_members,
    full_subgroup,
    is_subnormal,
    normal_closure_members,
    normalizer_members,
    second_maximal_subgroups,
    subgroup_as_group,
    subgroup_from_generators,
    subgroup_product,
    sylow_subgroups,
)
from .predicates import (
    GROUP_CLASSES,
    classify_group,
    commutator_subgroup,
    derived_subgroup_members,
    fitting_height,
    fitting_subgroup,
    frattini_subgroup,
    generalized_fitting,
    is_abelian,
    is_dedekind,
    is_h_subgroup,
    is_metabelian,
    is_nc_subgroup,
    is_nilpotent,
    is_normally_embedded,
    is_on_group,
    is_p_nilpotent,
    is_pe_group,
    is_pnc_group,
    is_pronormal,
    is_solvable,
    is_supersolvable,
    is_t_group,
    p_core_members,
    p_length,
    p_part,
    pnc_witness,
    primes_of,
    satisfies_cp,
    vp_valuation,
)


@dataclass
class ClaimResult:
    claim_id: str
    verdict: str  # pass | fail | skipped | reportOnly
    checked_count: int
    counterexamples: list[dict] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    elapsed_ms: float = 0.0

    def to_json(self, timing: bool = True) -> dict:
        doc = {
            "id": self.claim_id,
            "statement": STATEMENTS[self.claim_id],
            "verdict": self.verdict,
            "checkedCount": self.checked_count,
            "skipped": self.skipped,
            "counterexamples": self.counterexamples,
            "notes": self.notes,
            "elapsedMs": round(self.elapsed_ms, 2) if timing else 0.0,
        }
        return doc


@dataclass
class Claim:
    id: str
    expectation: str  # mustHold | iff | reportOnly
    universe: str  # human-readable universe description
    runner: object  # callable(Budget) -> ClaimResult


STATEMENTS: dict[str, str] = {
    "pnc-implies-t": "Every PNC-group is a T-group (all subnormal subgroups are normal).",
    "nilpotent-pnc-iff-dedekind": "A nilpotent group is a PNC-group exactly when it is Dedekind.",
    "solvable-pnc-supersolvable": "Solvable PNC-groups are supersolvable; the converse fails (C2^2:C4).",
    "nc-iff-commutator": "K is an NC-subgroup of G exactly when [K,G] N_G(K) = G.",
    "solvable-pnc-equivalences": "Solvable PNC-groups satisfy the solvable T-group equivalences: T-group, supersolvable, C_p for all p, pronormal p-subgroups, and all subgroups H-subgroups, normally embedded, and NE.",
    "normalizer-closure": "In a solvable PNC-group the normalizer of any subgroup has full normal closure.",
    "nilpotent-subgroups-dedekind": "Every nilpotent subgroup of a solvable PNC-group is Dedekind.",
    "min-prime-pnilpotent": "A solvable PNC-group is p-nilpotent at its minimal prime; minimality is needed (C5 x S3 is not 3-nilpotent).",
    "max-prime-order-normal": "In a solvable PNC-group, subgroups of order equal to the largest prime divisor are normal; simple PNC-groups violate the unqualified form.",
    "sylow-in-closure": "For every p-subgroup P of a solvable PNC-group, P is Sylow in its normal closure and |N_G(P)| has full p-part.",
    "fstar-class": "The generalized Fitting subgroup of a solvable PNC-group has nilpotency class at most 2; simple PNC-groups (A5) violate the unqualified form.",
    "structure-bundle": "Solvable PNC-groups have Fitting height <= 3, p-length <= 1 for every p, abelian Frattini subgroup, are metabelian, and in odd order satisfy G' <= F(G) and G' meet Z(G) = 1.",
    "component-lemma": "If G = AB with A, B normal and elementwise commuting, then G' <= A'B'.",
    "coprime-direct-product": "Direct products of PNC-groups of coprime orders are PNC; coprimality is needed (C3 x S3 is not PNC).",
    "quotient-closure": "Quotients of PNC-groups are PNC; the converse fails (D4 has all nontrivial quotients PNC).",
    "normal-subgroup-closure": "Normal subgroups of PNC-groups are PNC; normality is needed (C7 x A5 contains a non-PNC A4).",
    "central-p-lift": "For a central subgroup <x> of prime order p with |G|_p = p: G is PNC exactly when G/<x> is PNC; the hypothesis |G|_p = p is needed ((C5xC3):D4).",
    "nc-quotient-correspondence": "For N normal and N <= K: K is NC in G exactly when K/N is NC in G/N; the containment N <= K is needed (D4).",
    "nc-direct-factor": "For G = K x T and H <= K: H is NC in G exactly when H is NC in K; direct products are needed (D4:S3).",
    "gu23-remarks": "GU(2,3) contains a C2xC4-profile subgroup that is NC and subnormal in the whole group yet neither normal nor NC in an order-32 overgroup.",
    "dihedral-maximals": "The maximal subgroups of the dihedral group of order 2n are exactly the dihedral subgroups of index p (p prime dividing n) and the cyclic rotation subgroup.",
    "dihedral-iff": "The dihedral group of order 2n is PNC exactly when 4 does not divide n.",
    "dicyclic-iff": "The dicyclic group of order 4n is PNC exactly when 4 does not divide n.",
    "power-action-formulas": "In cyclic-by-cyclic power-action groups, conjugation and products follow the twist-power formulas (a^s)^w = a^s * prod (a_i^{k_i})^{1-(-t_i)^s} and the matching product rule.",
    "theorem3-valuations": "For power-action groups with acting prime larger than every kernel prime: PNC holds exactly when each v_{p_i}(t_i + 1) is 0 or alpha_i.",
    "sufficiency-hall": "If G = A : D with A an abelian normal Hall subgroup whose subgroups are all normal in G, D Dedekind, and every induced power map n on a in A has n = 1 or gcd(n-1, o(a)) = 1, then G is PNC; moreover each a in A lies in N_G(H) or H^G for every subgroup H.",
    "min-non-pe-shapes": "A non-PE-group all of whose proper subgroups are solvable PNC has at most two prime divisors and matches one of six structural shapes (D4, modular p-group, Heisenberg-type p-group, supersolvable PQ with q^2 kernel, minimal non-abelian PQ / SL(2,3), irreducible Frobenius PQ).",
    "min-non-pe-proper-on": "A non-PE-group all of whose proper subgroups are ON-groups matches one of six structural shapes (minimal non-abelian PQ, modular p-group, Heisenberg-type p-group, irreducible Frobenius PQ, central-extension PQ, SL(2,3)).",
    "on-characterization": "G is an ON-group exactly when G is Dedekind or G has all but one Sylow subgroup normal abelian, the remaining Sylow cyclic and self-normalizing with <x^p> equal to the p-core, acting on the normal part by fixed-point-free-power maps.",
    "maximal-pnc-dichotomy": "A group whose maximal subgroups are all solvable PNC is 2-nilpotent or minimal non-abelian of order q^m 2^n; SL(2,3) violates the stated dichotomy.",
    "simple-second-maximal": "The second maximal subgroups of PSL(2,4), PSL(2,5), PSL(2,8) are all solvable PNC; PSL(2,7) has a second maximal subgroup that is not PNC.",
    "nonsolvable-second-maximal": "All second maximal subgroups of SL(2,5) are solvable PNC.",
    "sn-probe": "PNC status of the symmetric groups S3..S7 (exploratory; S4 is the known failure).",
    "c3-semi-d4-remark": "The claimed C3-by-D4 semidirect counterexample cannot exist: D4 has no order-3 automorphism, and C3 x D4 contains no S3.",
    "self-normalizer-probe": "Probe for the garbled self-normalizer observation: reports, per solvable PNC-group, whether some subgroup has proper normalizer and whether the group is Dedekind.",
}


# --- helpers ----------------------------------------------------------------------


def _skip(skipped: list, spec: GroupSpec, error: BudgetExceededError) -> None:
    skipped.append({"group": spec.to_string(), "reason": str(error)})


def _witness(spec: GroupSpec, sub: Subgroup | None = None, detail: str | None = None) -> dict:
    doc: dict = {"group": spec.to_string()}
    if sub is not None:
        doc["subgroup"] = [int(x) for x in sub.members]
    if detail:
        doc["detail"] = detail
    return doc


def _first_failure(spec: GroupSpec, subs, fails, detail: str) -> dict | None:
    """The witness for the first subgroup in ``subs`` that ``fails``, or None."""
    bad = next((s for s in subs if fails(s)), None)
    return None if bad is None else _witness(spec, bad, detail)


def _reference_profile(spec_text: str) -> tuple:
    return order_fingerprint(build_group(parse_spec(spec_text))).key()


def _profile_key(g: Group, members=None) -> tuple:
    return order_fingerprint(g, members).key()


def _is_solvable_pnc(g: Group, budget: Budget) -> bool:
    return is_solvable(g) and is_pnc_group(g, budget)


def _class_sizes(g: Group, budget: Budget):
    lat = all_subgroups(g, budget)
    return (lat.class_sizes(i) for i in lat.rep_indices)


# --- universes and quantifiers -------------------------------------------------------
#
# A catalog claim is a statement, a universe and a check.  The check is called
# on each (spec, group) member and yields one item per instance it examines:
#   None                    the instance holds;
#   a witness dict          the instance fails;
#   (witness, lhs, rhs)     one instance of a biconditional;
#   a str                   a note, which is not an instance.
# A member whose construction, filter or check exceeds the budget becomes a
# skip entry.  Remarks run after the universe, in order, on the result so far:
# probes of named groups, the notes that close a claim and fixed skip entries.

Member = tuple[GroupSpec, Group]
Check = Callable[[GroupSpec, Group, Budget], Iterable]
Remark = Callable[[Budget, ClaimResult], None]


@dataclass(frozen=True)
class Universe:
    """A named family of groups, enumerated in a fixed order.

    ``members(budget, skipped)`` yields the members, appending a skip entry
    for each one that exceeds the budget.
    """

    text: str
    members: Callable[[Budget, list], Iterator[Member]]

    @staticmethod
    def of_specs(text: str, specs: Callable[[Budget], Iterable[GroupSpec]], max_order: int | None = None):
        def members(budget, skipped):
            for spec in specs(budget):
                try:
                    g = build_group(spec, budget)
                except BudgetExceededError as e:
                    _skip(skipped, spec, e)
                    continue
                if max_order is None or g.order <= max_order:
                    yield spec, g

        return Universe(text, members)

    def where(self, text: str, pred: Callable[[Group, Budget], bool]) -> "Universe":
        def members(budget, skipped):
            for spec, g in self.members(budget, skipped):
                try:
                    keep = pred(g, budget)
                except BudgetExceededError as e:
                    _skip(skipped, spec, e)
                    continue
                if keep:
                    yield spec, g

        return Universe(text, members)


def forall(claim_id: str, universe: Universe, check: Check, *remarks: Remark,
           expectation: str = "mustHold") -> Claim:
    """A claim asserting ``check`` on every member of ``universe``."""
    return Claim(claim_id, expectation, universe.text, _quantified(claim_id, expectation, universe, check, remarks))


def iff(claim_id: str, universe: Universe, lhs_rhs: Check, *remarks: Remark) -> Claim:
    """A biconditional over ``universe``: every instance needs lhs == rhs, and an
    instance set whose lhs takes a single value leaves the claim skipped."""
    return Claim(claim_id, "iff", universe.text, _quantified(claim_id, "iff", universe, lhs_rhs, remarks))


def _quantified(claim_id, expectation, universe, check, remarks):
    def run(budget: Budget) -> ClaimResult:
        result = ClaimResult(claim_id, "reportOnly", 0)  # asserted verdicts are settled below
        sides = set()
        for spec, g in universe.members(budget, result.skipped):
            try:
                items = list(check(spec, g, budget))
            except BudgetExceededError as e:
                _skip(result.skipped, spec, e)
                continue
            for item in items:
                if isinstance(item, str):
                    result.notes.append(item)
                    continue
                result.checked_count += 1
                if isinstance(item, tuple):
                    witness, lhs, rhs = item
                    sides.add(lhs)
                    item = witness if lhs != rhs else None
                if item is not None:
                    result.counterexamples.append(item)
        for remark in remarks:
            remark(budget, result)
        if expectation != "reportOnly":
            result.verdict = "fail" if result.counterexamples else "pass"
        if expectation == "iff" and result.verdict == "pass" and len(sides) < 2:
            only = sides.pop() if sides else None
            result.notes.append(f"VacuousSide: every instance falls on the {only} side of the biconditional")
            result.verdict = "skipped"
        return result

    return run


def probe(spec_text: str, holds: Callable[[Group, Budget], bool],
          note: str | Callable[[Group, Budget], str] | None, detail: str, counted: bool = True) -> Remark:
    """A remark on one named group: ``note`` (or ``note(group, budget)``) when ``holds``,
    else a counterexample with ``detail``; a counted probe adds one to checkedCount either way."""
    spec = parse_spec(spec_text)

    def remark(budget: Budget, result: ClaimResult) -> None:
        try:
            g = build_group(spec, budget)
            ok = holds(g, budget)
            text = note(g, budget) if ok and callable(note) else note
        except BudgetExceededError as e:
            _skip(result.skipped, spec, e)
            return
        if not ok:
            result.counterexamples.append(_witness(spec, detail=detail))
        elif text:
            result.notes.append(text)
        result.checked_count += counted

    return remark


def fixed_note(text: str) -> Remark:
    return lambda budget, result: result.notes.append(text)


def fixed_skip(group: str, reason: str) -> Remark:
    """A skip entry for a group the claim names but never builds."""
    return lambda budget, result: result.skipped.append({"group": group, "reason": reason})


def _family(constructor: str, ns) -> list[GroupSpec]:
    return [GroupSpec(constructor, (n,)) for n in ns]


def _catalog(budget: Budget) -> list[GroupSpec]:
    return standard_catalog()


CATALOG = Universe.of_specs("standard catalog", _catalog)
CATALOG_500 = Universe.of_specs("catalog members of order <= 500", _catalog, max_order=500)
CATALOG_120 = Universe.of_specs("catalog members of order <= 120", _catalog, max_order=120)
CATALOG_60 = Universe.of_specs("catalog members of order <= 60", _catalog, max_order=60)
CATALOG_DIRECT = Universe.of_specs(
    "two-factor catalog direct products of order <= 500",
    lambda budget: [s for s in standard_catalog() if s.constructor == "Direct" and len(s.params) == 2],
    max_order=500,
)
NILPOTENT = CATALOG.where("nilpotent catalog members", lambda g, budget: is_nilpotent(g)[0])
PNC = CATALOG.where("PNC catalog members", lambda g, budget: is_pnc_group(g, budget))
PNC_120 = CATALOG_120.where("PNC catalog members of order <= 120", lambda g, budget: is_pnc_group(g, budget))
SOLVABLE_PNC = CATALOG.where("solvable PNC catalog members", _is_solvable_pnc)
DIHEDRAL_24 = Universe.of_specs("dihedral groups, 3 <= n <= 24", lambda budget: _family("Dihedral", range(3, 25)))
DIHEDRAL_40 = Universe.of_specs("dihedral groups, 3 <= n <= 40", lambda budget: _family("Dihedral", range(3, 41)))
DICYCLIC_12 = Universe.of_specs("dicyclic groups, 2 <= n <= 12", lambda budget: _family("Dicyclic", range(2, 13)))
SYMMETRIC = Universe.of_specs("symmetric groups S3..S7", lambda budget: _family("Sym", range(3, 8)))


# --- structural shape checks -------------------------------------------------------


def _is_cyclic_members(g: Group, members) -> bool:
    return bool((g.element_orders()[members] == len(members)).any())


def _is_elementary_abelian_members(g: Group, members) -> bool:
    members = np.asarray(members, dtype=np.intp)
    block = g.mul[np.ix_(members, members)]
    if not np.array_equal(block, block.T):
        return False
    orders = g.element_orders()[members]
    ps = primes_of(len(members))
    return len(ps) == 1 and bool((orders[orders > 1] == ps[0]).all())


def _sylow_normal(g: Group, budget: Budget, p: int) -> Subgroup | None:
    """The Sylow p-subgroup when there is only one, that is when it is normal."""
    sylows = sylow_subgroups(g, p, budget)
    return sylows[0] if len(sylows) == 1 else None


def _all_maximals_satisfy(g: Group, budget: Budget, pred) -> bool:
    """``pred`` on every maximal subgroup, tested on one per conjugacy class: ``pred`` is an isomorphism invariant."""
    lat = all_subgroups(g, budget)
    return all(pred(subgroup_as_group(lat, i)) for i in lat.rep_indices if lat.maximal[i])


def _minimal_non_abelian(g: Group, budget: Budget) -> bool:
    return not is_abelian(g) and _all_maximals_satisfy(g, budget, is_abelian)


def shape_heisenberg(g: Group, budget: Budget) -> bool:
    ps = primes_of(g.order)
    if len(ps) != 1:
        return False
    p = ps[0]
    n = vp_valuation(g.order, p) - 2
    if n < 1:
        return False
    return _profile_key(g) == _reference_profile(f"HeisenbergLike({p},{n})")


def shape_modular(g: Group, budget: Budget) -> bool:
    ps = primes_of(g.order)
    if len(ps) != 1 or ps[0] == 2:
        return False
    p = ps[0]
    n = vp_valuation(g.order, p) - 1
    if n < 2:
        return False
    return _profile_key(g) == _reference_profile(f"Modular({p},{n})")


def shape_d4(g: Group, budget: Budget) -> bool:
    return _profile_key(g) == _reference_profile("Dihedral(4)")


def shape_sl23(g: Group, budget: Budget) -> bool:
    return _profile_key(g) == _reference_profile("SL2(3)")


def shape_minimal_nonabelian_pq(g: Group, budget: Budget, force_p2: bool = False) -> bool:
    """Minimal non-abelian with a normal elementary abelian Sylow and a cyclic one."""
    ps = primes_of(g.order)
    if len(ps) != 2:
        return False
    if not _minimal_non_abelian(g, budget):
        return False
    for p in ps:
        q = next(r for r in ps if r != p)
        if force_p2 and p != 2:
            continue
        normal_sylow = _sylow_normal(g, budget, p)
        if normal_sylow is None or not _is_elementary_abelian_members(g, normal_sylow.members):
            continue
        if _is_cyclic_members(g, sylow_subgroups(g, q, budget)[0].members):
            return True
    return False


def shape_supersolvable_pq(g: Group, budget: Budget) -> bool:
    """Supersolvable PQ: cyclic Sylow p, elementary abelian Sylow q of order q^2, O_q != 1."""
    ps = primes_of(g.order)
    if len(ps) != 2:
        return False
    p, q = ps  # p < q
    if not is_supersolvable(g, budget):
        return False
    if vp_valuation(g.order, q) != 2:
        return False
    if not _is_cyclic_members(g, sylow_subgroups(g, p, budget)[0].members):
        return False
    if not _is_elementary_abelian_members(g, sylow_subgroups(g, q, budget)[0].members):
        return False
    return p_core_members(g, q, budget).size > 1


def shape_irreducible_frobenius(g: Group, budget: Budget) -> bool:
    """Minimal non-supersolvable PQ: normal elementary abelian Sylow q of order > q,
    cyclic Sylow p (p < q) acting irreducibly."""
    ps = primes_of(g.order)
    if len(ps) != 2:
        return False
    p, q = ps
    if is_supersolvable(g, budget) or not _all_maximals_satisfy(
        g, budget, lambda m: is_supersolvable(m, budget)
    ):
        return False
    sylow_q = _sylow_normal(g, budget, q)
    if sylow_q is None or sylow_q.order <= q:
        return False
    if not _is_elementary_abelian_members(g, sylow_q.members):
        return False
    if not _is_cyclic_members(g, sylow_subgroups(g, p, budget)[0].members):
        return False
    # irreducible: no proper nontrivial normal subgroup inside the q-kernel
    lat = all_subgroups(g, budget)
    for i, s in enumerate(lat.subgroups):
        if lat.normal[i] and 1 < s.order < sylow_q.order and sylow_q.mask()[s.members].all():
            return False
    return True


def shape_central_extension_pq(g: Group, budget: Budget) -> bool:
    """Order p^2 q^n with p > q: normal elementary abelian p^2, cyclic Sylow q,
    derived subgroup of order p, center of order p q^(n-1)."""
    ps = primes_of(g.order)
    if len(ps) != 2:
        return False
    q, p = ps  # q < p
    if vp_valuation(g.order, p) != 2:
        return False
    n = vp_valuation(g.order, q)
    sylow_p = _sylow_normal(g, budget, p)
    if sylow_p is None or not _is_elementary_abelian_members(g, sylow_p.members):
        return False
    if not _is_cyclic_members(g, sylow_subgroups(g, q, budget)[0].members):
        return False
    if derived_subgroup_members(g).size != p:
        return False
    return centralizer_members(g, np.arange(g.order)).size == p * q ** (n - 1)


THM1_SHAPES = [
    ("D4", shape_d4),
    ("modular", shape_modular),
    ("heisenberg", shape_heisenberg),
    ("supersolvable-pq", shape_supersolvable_pq),
    ("minimal-nonabelian-pq", shape_minimal_nonabelian_pq),
    ("sl23", shape_sl23),
    ("irreducible-frobenius", shape_irreducible_frobenius),
]

THM2_SHAPES = [
    ("minimal-nonabelian-pq", shape_minimal_nonabelian_pq),
    ("modular", shape_modular),
    ("heisenberg", shape_heisenberg),
    ("irreducible-frobenius", shape_irreducible_frobenius),
    ("central-extension-pq", shape_central_extension_pq),
    ("sl23", shape_sl23),
]


def _exponent(g: Group, w: int, image: int) -> int | None:
    """The m with 0 <= m < o(w) and w^m = image, or None when image is not a power of w."""
    cur = 0
    for m in range(int(g.element_orders()[w])):
        if cur == image:
            return m
        cur = int(g.mul[cur, w])
    return None


def on_structural(g: Group, budget: Budget) -> bool:
    """Structural side of the ON characterization (non-Dedekind branch)."""
    if g.order == 1:
        return False
    lat = all_subgroups(g, budget)
    orders = g.element_orders()
    for p in primes_of(g.order):
        sylow = sylow_subgroups(g, p, budget)[0]
        if not _is_cyclic_members(g, sylow.members):
            continue
        if normalizer_members(g, sylow.members).size != sylow.order:
            continue
        others = [_sylow_normal(g, budget, q) for q in primes_of(g.order) if q != p]
        if any(nq is None or not is_abelian(subgroup_as_group(lat, lat.subgroup_index(nq))) for nq in others):
            continue
        # generator of the cyclic Sylow, and <x^p> = O_p(G)
        x = int(sylow.members[np.argmax(orders[sylow.members] == sylow.order)])
        if not np.array_equal(subgroup_from_generators(g, [g.power(x, p)]).members, p_core_members(g, p, budget)):
            continue
        # the other Sylow subgroups are normal, so their join is the normal p-complement
        h1 = next(s for s in lat.normal_subgroups() if s.order == g.order // sylow.order)
        good = True
        for w in h1.members:
            if w == 0:
                continue
            m = _exponent(g, w, int(g.conjugates(g.inv[x], w)))  # w^x = w^m
            ow = int(orders[w])
            if m is None or math.gcd(m, ow) != 1 or math.gcd(m - 1, ow) != 1:
                good = False
                break
        if good:
            return True
    return False


# --- catalog claims: checks ------------------------------------------------------------


def _nc_vs_commutator(spec: GroupSpec, g: Group, budget: Budget):
    whole = full_subgroup(g)
    for rep in all_subgroups(g, budget).class_representatives():
        norm = Subgroup(g, normalizer_members(g, rep.members))
        _, rhs = subgroup_product(g, commutator_subgroup(g, rep, whole), norm)
        yield _witness(spec, rep), is_nc_subgroup(g, rep), rhs


_EQUIV_ITEMS = ("t-group", "supersolvable", "cp-all-p", "pronormal-p-subgroups",
                "h-subgroups", "normally-embedded", "ne-subgroups")


def _solvable_pnc_equivalences(spec: GroupSpec, g: Group, budget: Budget):
    lat = all_subgroups(g, budget)
    reps = lat.class_representatives()
    holds = (
        is_t_group(g, budget),
        is_supersolvable(g, budget),
        all(satisfies_cp(g, p, budget) for p in primes_of(g.order)),
        all(is_pronormal(g, r) for r in reps if len(primes_of(r.order)) == 1),
        all(is_h_subgroup(g, r) for r in reps),
        all(is_normally_embedded(g, r, budget) for r in reps),
        all(lat.class_sizes(i).meet == lat.subgroups[i].order for i in lat.rep_indices),
    )
    failures = [item for item, ok in zip(_EQUIV_ITEMS, holds) if not ok]
    yield _witness(spec, detail="failed items: " + ", ".join(failures)) if failures else None


def _sylow_in_closure(spec: GroupSpec, g: Group, budget: Budget):
    lat = all_subgroups(g, budget)
    for i in lat.rep_indices:
        rep, ps = lat.subgroups[i], primes_of(lat.subgroups[i].order)
        if len(ps) != 1:
            continue
        sizes = lat.class_sizes(i)
        if p_part(sizes.closure, ps[0]) != rep.order:
            yield _witness(spec, rep, "not Sylow in its normal closure")
            return
        if p_part(sizes.normalizer, ps[0]) != p_part(g.order, ps[0]):
            yield _witness(spec, rep, "normalizer misses full p-part")
            return
    yield None


def _max_prime_order_normal(spec: GroupSpec, g: Group, budget: Budget):
    if g.order == 1:
        return
    p = max(primes_of(g.order))
    lat = all_subgroups(g, budget)
    bad = [s for i, s in enumerate(lat.subgroups) if s.order == p and not lat.normal[i]]
    if is_solvable(g):
        yield _witness(spec, bad[0], f"order-{p} subgroup not normal") if bad else None
    elif bad:
        yield (f"unqualified form refuted on non-solvable PNC member {spec.to_string()}: "
               f"order-{p} subgroup not normal")


def _fstar_class(spec: GroupSpec, g: Group, budget: Budget):
    _, _, fstar, klass = generalized_fitting(g, budget)
    if is_solvable(g):
        yield _witness(spec, fstar, f"F* nilpotency class {klass}") if klass is None or klass > 2 else None
    else:
        shown = "not nilpotent" if klass is None else f"class {klass}"
        yield f"non-solvable PNC member {spec.to_string()}: |F*| = {fstar.order}, {shown}"


def _structure_bundle(spec: GroupSpec, g: Group, budget: Budget):
    failures = []
    if fitting_height(g, budget) > 3:
        failures.append("fitting-height")
    if any(p_length(g, p, budget) > 1 for p in primes_of(g.order)):
        failures.append("p-length")
    lat = all_subgroups(g, budget)
    if not is_abelian(subgroup_as_group(lat, lat.subgroup_index(frattini_subgroup(g, budget)))):
        failures.append("frattini-abelian")
    if not is_metabelian(g):
        failures.append("metabelian")
    if g.order % 2 == 1:
        derived = derived_subgroup_members(g)
        if not np.isin(derived, fitting_subgroup(g, budget).members, assume_unique=True).all():
            failures.append("odd-derived-in-fitting")
        centre = centralizer_members(g, np.arange(g.order))
        if np.intersect1d(derived, centre, assume_unique=True).size != 1:
            failures.append("odd-derived-meets-center")
    yield _witness(spec, detail="failed: " + ", ".join(failures)) if failures else None


def _component_lemma(spec: GroupSpec, g: Group, budget: Budget):
    for a, b in itertools.combinations(all_subgroups(g, budget).normal_subgroups(), 2):
        if subgroup_product(g, a, b)[0] != g.order:
            continue
        if not np.array_equal(g.mul[np.ix_(a.members, b.members)], g.mul[np.ix_(b.members, a.members)].T):
            continue  # factors must commute elementwise
        derived_g = derived_subgroup_members(g)
        da, db = commutator_subgroup(g, a, a), commutator_subgroup(g, b, b)
        rhs = close_under_product(g.mul, np.concatenate([da.members, db.members]))
        escapes = not np.isin(derived_g, rhs, assume_unique=True).all()
        yield _witness(spec, detail=f"G' (size {derived_g.size}) escapes A'B' (size {rhs.size})") if escapes else None


def _coprime_pnc_pairs(budget: Budget, skipped: list) -> Iterator[Member]:
    pool = [(spec, g) for spec, g in PNC_120.members(budget, skipped) if g.order > 1]
    pairs = [
        (a, b)
        for a, b in itertools.combinations(pool, 2)
        if math.gcd(a[1].order, b[1].order) == 1 and a[1].order * b[1].order <= budget.order_cap
    ]
    random.Random(0x5EED).shuffle(pairs)
    for (spec_a, ga), (spec_b, gb) in pairs[:20]:
        yield GroupSpec("Direct", (spec_a, spec_b)), direct_product(ga, gb, budget)


COPRIME_PNC_PAIRS = Universe("20 seeded coprime pairs of PNC catalog members of order <= 120", _coprime_pnc_pairs)


def _coprime_remarks(budget: Budget, result: ClaimResult) -> None:
    sampled = result.checked_count
    probe("Direct(Cyclic(3),Sym(3))", lambda g, budget: not is_pnc_group(g, budget),
          "coprimality needed: C3 x S3 (non-coprime factors, both PNC) is not PNC",
          "expected non-PNC for non-coprime product")(budget, result)
    result.notes.append(f"sampled {sampled} coprime PNC pairs (seeded shuffle)")


def _quotients_pnc(spec: GroupSpec, g: Group, budget: Budget):
    for n in all_subgroups(g, budget).normal_subgroups():
        if 1 < n.order < g.order:
            q, _ = quotient_group(g, n.members, budget)
            yield None if is_pnc_group(q, budget) else _witness(spec, n, "PNC group with non-PNC quotient")


def _d4_converse(d4: Group, budget: Budget) -> bool:
    quotients_pnc = all(
        is_pnc_group(quotient_group(d4, n.members, budget)[0], budget)
        for n in all_subgroups(d4, budget).normal_subgroups()
        if n.order > 1
    )
    return quotients_pnc and not is_pnc_group(d4, budget)


def _normal_subgroups_pnc(spec: GroupSpec, g: Group, budget: Budget):
    lat = all_subgroups(g, budget)
    for i in np.flatnonzero(lat.normal):
        ok = is_pnc_group(subgroup_as_group(lat, i), budget)
        yield None if ok else _witness(spec, lat.subgroups[i], "normal subgroup of PNC group not PNC")


def _has_non_pnc_a4(big: Group, budget: Budget) -> bool:
    a4_key = _reference_profile("Alt(4)")
    lat = all_subgroups(big, budget)
    witness = next(
        (i for i, s in enumerate(lat.subgroups) if s.order == 12 and _profile_key(big, s.members) == a4_key),
        None,
    )
    return (
        witness is not None
        and is_pnc_group(big, budget)
        and not is_pnc_group(subgroup_as_group(lat, witness), budget)
    )


def _central_p_lift(spec: GroupSpec, g: Group, budget: Budget):
    """One instance per prime p with a central x of order p and |G|_p = p."""
    orders = g.element_orders()
    seen_p = set()
    for x in centralizer_members(g, np.arange(g.order)).tolist():
        o = int(orders[x])
        if is_prime(o) and p_part(g.order, o) == o and o not in seen_p:
            seen_p.add(o)
            gen = subgroup_from_generators(g, [x])
            q, _ = quotient_group(g, gen.members, budget)
            lhs, rhs = is_pnc_group(g, budget), is_pnc_group(q, budget)
            yield _witness(spec, detail=f"x index {x}, p = {gen.order}"), lhs, rhs


def _central_c2_needs_hypothesis(g: Group, budget: Budget) -> bool:
    centre = centralizer_members(g, np.arange(g.order))
    x = int(centre[np.argmax(g.element_orders()[centre] == 2)])
    q, _ = quotient_group(g, subgroup_from_generators(g, [x]).members, budget)
    return (not is_pnc_group(g, budget)) and is_pnc_group(q, budget) and p_part(g.order, 2) > 2


def _nc_mod_normal(spec: GroupSpec, g: Group, budget: Budget):
    lat = all_subgroups(g, budget)
    for n in lat.normal_subgroups():
        if n.order in (1, g.order):
            continue
        q, coset = quotient_group(g, n.members, budget)
        for k in lat.subgroups:
            if k.order <= n.order or not np.isin(n.members, k.members, assume_unique=True).all():
                continue
            image = Subgroup(q, coset[k.members])
            yield _witness(spec, k, f"mod normal of order {n.order}"), is_nc_subgroup(g, k), is_nc_subgroup(q, image)


def _d4_needs_containment(d4: Group, budget: Budget) -> bool:
    """D4 has K of order 2 outside a normal C2^2 N, not NC, with K N / N still NC."""
    lat = all_subgroups(d4, budget)
    for n in lat.normal_subgroups():
        if n.order != 4:
            continue
        for k in lat.subgroups:
            if k.order != 2 or np.isin(k.members, n.members).all():
                continue
            if np.intersect1d(k.members, n.members, assume_unique=True).size != 1 or is_nc_subgroup(d4, k):
                continue
            q, coset = quotient_group(d4, n.members, budget)
            if is_nc_subgroup(q, Subgroup(q, coset[k.members])):
                return True
    return False


def _nc_in_factor(spec: GroupSpec, g: Group, budget: Budget):
    left, right = (build_group(factor, budget) for factor in spec.params)
    # subgroups of the left factor sit at indices k * |right|, of the right at their own indices
    for factor, scale in ((left, right.order), (right, 1)):
        for rep in all_subgroups(factor, budget).class_representatives():
            embedded = Subgroup(g, rep.members * scale)
            yield _witness(spec, embedded, "factor subgroup"), is_nc_subgroup(g, embedded), is_nc_subgroup(factor, rep)


def _d4_s3_semidirect_fails(g: Group, budget: Budget) -> bool:
    """D4:S3 has a C2^2 that is NC in the D4 factor but not NC in G."""
    d4_members = np.arange(8, dtype=np.intp) * 6  # the D4 factor; |S3| = 6
    c22_key = _reference_profile("ElementaryAbelian(2,2)")
    for s in all_subgroups(g, budget).subgroups:
        if s.order != 4 or not np.isin(s.members, d4_members).all():
            continue
        if _profile_key(g, s.members) != c22_key:
            continue
        if is_nc_subgroup(g, s, within=d4_members) and not is_nc_subgroup(g, s):
            return True
    return False


def _dihedral_maximals(spec: GroupSpec, g: Group, budget: Budget):
    n = spec.params[0]
    expected = {_reference_profile(f"Cyclic({n})")}
    expected |= {_reference_profile(f"Dihedral({n // p})") for p in primes_of(n)}
    got = {_profile_key(g, m.members) for m in all_subgroups(g, budget).maximal_subgroups()}
    yield None if got == expected else _witness(spec, detail="maximal profile set mismatch")


def _pnc_iff_4_does_not_divide_n(spec: GroupSpec, g: Group, budget: Budget):
    yield _witness(spec), is_pnc_group(g, budget), spec.params[0] % 4 != 0


def _run_gu23_remarks(budget: Budget) -> ClaimResult:
    """The one existence claim: a budget error on the groups it builds becomes its skip entry."""
    spec = GroupSpec("GU2_3")
    try:
        g = build_group(spec, budget)
        lat = all_subgroups(g, budget)
        wr_key = _profile_key(_wreath_c4_c2(budget))
        cp_key = _profile_key(_central_product_c4_d4(budget))
    except BudgetExceededError as e:
        result = ClaimResult("gu23-remarks", "skipped", 0)
        _skip(result.skipped, spec, e)
        return result
    c2xc4 = _reference_profile("Direct(Cyclic(2),Cyclic(4))")
    notes, counterexamples = [], []
    sylows = [s for s in lat.subgroups if s.order == 32]
    if all(_profile_key(g, s.members) == wr_key for s in sylows):
        notes.append("all order-32 Sylow subgroups carry the C4 wr C2 profile")
    c4sq_key = _reference_profile("Direct(Cyclic(4),Cyclic(4))")
    witnesses, near = [], []
    for s in lat.subgroups:
        if s.order != 8 or _profile_key(g, s.members) != c2xc4:
            continue
        nc = is_nc_subgroup(g, s)
        subnormal = is_subnormal(g, s)
        for s32 in sylows:
            if not s32.mask()[s.members].all():
                continue
            normal_in = bool(s.mask()[g.conjugates(s32.members[:, None], s.members)].all())
            if not normal_in and not is_nc_subgroup(g, s, within=s32.members):
                near.append((s, nc, subnormal, s32))
                if nc and subnormal:
                    witnesses.append(_witness(spec, s, "full witness"))
    if witnesses:
        return ClaimResult("gu23-remarks", "pass", len(near), [], [], notes)
    nc_only = [t for t in near if t[1] and not t[2]]
    sub_only = [t for t in near if t[2] and not t[1]]
    if nc_only:
        s = nc_only[0][0]
        ngh = normalizer_members(g, s.members)
        notes.append(
            "NC half realized: a C2xC4 that is NC in G, with normalizer of C4xC4 profile "
            f"({_profile_key(g, ngh) == c4sq_key}) and full normal closure "
            f"(order {normal_closure_members(g, s.members).size}); inside its order-32 Sylow it is "
            "neither normal nor NC; but full normal closure makes it non-subnormal"
        )
    if sub_only:
        s, _, _, s32 = sub_only[0]
        norm_in = np.intersect1d(normalizer_members(g, s.members), s32.members, assume_unique=True)
        notes.append(
            "subnormal half realized: a C2xC4 that is subnormal, neither normal nor NC in two of its "
            f"Sylow overgroups, with inner normalizer of C4oD4 profile ({_profile_key(g, norm_in) == cp_key}); "
            f"but its normal closure has order {normal_closure_members(g, s.members).size}, so it is not NC in G"
        )
    notes.append(
        "no single subgroup satisfies the full conjunction: a proper subgroup with H^G = G is never "
        "subnormal, and every subnormal candidate here has H^G of order 16 inside its normalizer, "
        "capping H^G N_G(H) at order 32"
    )
    counterexamples.append(_witness(spec, detail="conjunction unsatisfiable; see notes"))
    return ClaimResult("gu23-remarks", "fail", len(near), counterexamples, [], notes)


def _wreath_c4_c2(budget: Budget) -> Group:
    c4 = build_cyclic(4, budget)
    base = direct_product(c4, c4, budget)
    swap = np.array([(i % 4) * 4 + i // 4 for i in range(16)], dtype=np.int64)
    return semidirect_product(base, build_cyclic(2, budget), {1: swap}, budget, label="C4wrC2")


def _central_product_c4_d4(budget: Budget) -> Group:
    prod = direct_product(build_cyclic(4, budget), build_dihedral(4, budget), budget)
    # central C2 generated by (c^2, z): c^2 is index 2 in C4, z = a^2 is index 2 in D4
    anti = 2 * 8 + 2
    quot, _ = quotient_group(prod, np.array([0, anti], dtype=np.intp), budget)
    quot.label = "C4oD4"
    return quot


def _valuation_side(factors) -> bool:
    return all(vp_valuation(t + 1, q) in (0, a) for q, a, t in factors)


def _pa_spec(pa: PowerActionSpec) -> GroupSpec:
    return GroupSpec("PowerAction", (pa.p, pa.alpha, *pa.factors))


def _dominant(pa: PowerActionSpec) -> bool:
    """The acting prime is larger than every kernel prime."""
    return all(pa.p > q for q, _, _ in pa.factors)


POWER_ACTION = Universe.of_specs(
    "valid power-action specs (bounded sweep)",
    lambda budget: [_pa_spec(pa) for pa in _power_action_universe(min(budget.order_cap, 300))[0][:60]],
)
POWER_ACTION_DOMINANT = Universe.of_specs(
    "valid power-action specs with dominant acting prime",
    lambda budget: [_pa_spec(pa) for pa in _power_action_universe(min(budget.order_cap, 400))[0] if _dominant(pa)],
)


def _theorem3_sweep(budget: Budget, result: ClaimResult) -> None:
    """Notes on the consistency filter and on the same biconditional without the prime hypothesis."""
    limit = min(budget.order_cap, 400)
    universe, rejected = _power_action_universe(limit)
    result.notes.append(f"consistency filter rejected {rejected} twist assignments up to order {limit}")
    result.notes.append(
        f"restricted universe (acting prime above kernel primes): {sum(map(_dominant, universe))} valid specs"
    )
    mismatches = 0
    sweep_sides = {True: 0, False: 0}
    skipped = {entry["group"] for entry in result.skipped}
    for pa in universe:
        spec = _pa_spec(pa)
        try:
            lhs = is_pnc_group(build_group(spec, budget), budget)
        except BudgetExceededError as e:
            if spec.to_string() not in skipped:
                _skip(result.skipped, spec, e)
            continue
        rhs = _valuation_side(pa.factors)
        sweep_sides[rhs] += 1
        mismatches += lhs != rhs
    result.notes.append(
        "exploratory sweep without the prime-order hypothesis: "
        f"{sum(sweep_sides.values())} specs, biconditional sides (rhs true/false) = "
        f"{sweep_sides[True]}/{sweep_sides[False]}, mismatches = {mismatches}"
    )
    result.notes.append(
        "group-consistency already forces each twist to satisfy the valuation condition, "
        "so the biconditional has no false side to exercise"
    )


def _power_action_formulas(spec: GroupSpec, g: Group, budget: Budget):
    """The whole table against the product rule, and every (a^s)^w against the conjugation rule.

    Element a^s a_1^f_1 ... a_k^f_k has the mixed-radix index of its digits
    (s, f_1, ..., f_k) over (q, m_1, ..., m_k).  With r_i = -t_i mod m_i,
    (s, f)(s', u) = (s + s', u_i + r_i^s' f_i) and (a^s)^w = (s, k_i (1 - r_i^s))
    for w = (0, k).
    """
    p, alpha, *factors = spec.params
    q = p**alpha
    moduli = [pi**ai for pi, ai, _ in factors]
    dims = (q, *moduli)
    s, *f = np.indices(dims).reshape(len(dims), -1)
    powers = [np.array([pow(-t % m, e, m) for e in range(q)]) for (_, _, t), m in zip(factors, moduli)]
    product = np.ravel_multi_index(
        (s[:, None] + s, *(fi + r[s] * fi[:, None] for fi, r in zip(f, powers))), dims, mode="wrap"
    )
    kernel = np.arange(g.order // q)  # w = (0, k): the digit s is the leading one
    tops = kernel.size * np.arange(q)  # a^s
    conjugated = g.mul[g.mul[g.inv[kernel], tops[:, None]], kernel]
    expected = np.ravel_multi_index(
        (np.arange(q)[:, None], *(fi[kernel] * (1 - r[:, None]) for fi, r in zip(f, powers))), dims, mode="wrap"
    )
    ok = np.array_equal(g.mul, product) and np.array_equal(conjugated, expected)
    yield None if ok else _witness(spec, detail="table disagrees with twist-power formula")


def _power_action_universe(limit: int):
    """Deterministic enumeration of consistency-valid one- and two-factor specs."""
    primes = (2, 3, 5, 7, 11, 13)
    singles, rejected = [], 0
    for p in primes:
        for alpha in (1, 2):
            if p**alpha > limit:
                continue
            for q in primes:
                if q == p:
                    continue
                for a in (1, 2, 3):
                    m = q**a
                    if p**alpha * m > limit:
                        continue
                    for t in range(1, m):
                        try:
                            singles.append(PowerActionSpec(p, alpha, ((q, a, t),)))
                        except ActionInconsistentError:
                            rejected += 1
    doubles = []
    for p, alpha in ((2, 1), (2, 2), (3, 1)):
        for (q1, a1), (q2, a2) in itertools.combinations(
            [(q, a) for q in primes if q != p for a in (1, 2)], 2
        ):
            if q1 == q2:
                continue
            if p**alpha * q1**a1 * q2**a2 > limit:
                continue
            for t1 in range(1, q1**a1):
                for t2 in range(1, q2**a2):
                    try:
                        doubles.append(PowerActionSpec(p, alpha, ((q1, a1, t1), (q2, a2, t2))))
                    except ActionInconsistentError:
                        rejected += 1
    return singles + doubles, rejected


HALL = Universe.of_specs(
    "constructed Hall-Dedekind instances", lambda budget: [parse_spec(text) for text in _HALL_INSTANCES]
)


def _hall_sufficiency(spec: GroupSpec, g: Group, budget: Budget):
    kernel = _hall_dedekind_hypothesis(g, budget)
    if kernel is None:
        yield _witness(spec, detail="instance does not satisfy the hypothesis")
    elif not is_pnc_group(g, budget):
        yield _witness(spec, detail="hypothesis holds but group is not PNC")
    else:
        yield _first_failure(
            spec,
            all_subgroups(g, budget).class_representatives(),
            lambda h: not np.isin(
                kernel.members, np.concatenate([normalizer_members(g, h.members), normal_closure_members(g, h.members)])
            ).all(),
            "some a in A avoids both N_G(H) and H^G",
        )


def _hall_dedekind_hypothesis(g: Group, budget: Budget) -> Subgroup | None:
    """Find A with G = A : D, A abelian normal Hall (all subgroups normal in G),
    D Dedekind, and all induced power maps n satisfying n = 1 or gcd(n-1, o(a)) = 1.

    Returns the kernel A when some decomposition qualifies, else None.
    """
    lat = all_subgroups(g, budget)
    orders = g.element_orders()
    for k in np.flatnonzero(lat.normal):
        a_sub = lat.subgroups[k]
        if math.gcd(a_sub.order, g.order // a_sub.order) != 1:
            continue
        if not is_abelian(subgroup_as_group(lat, k)):
            continue
        a_mask = a_sub.mask()
        inside_ok = all(
            lat.normal[i]
            for i, s in enumerate(lat.subgroups)
            if a_mask[s.members].all()
        )
        if not inside_ok:
            continue
        c = next(
            (
                i
                for i, d in enumerate(lat.subgroups)
                if d.order == g.order // a_sub.order
                and np.intersect1d(d.members, a_sub.members, assume_unique=True).size == 1
            ),
            None,
        )
        if c is None or not is_dedekind(subgroup_as_group(lat, c), budget):
            continue
        comp = lat.subgroups[c]
        good = True
        for a in a_sub.members:
            if a == 0 or not good:
                continue
            oa = int(orders[a])
            for d in comp.members:
                n = _exponent(g, a, int(g.conjugates(g.inv[d], a)))  # a^d = a^n
                if n is None or math.gcd(n, oa) != 1:
                    good = False
                    break
                if n % oa != 1 and math.gcd(n - 1, oa) != 1:
                    good = False
                    break
        if good:
            return a_sub
    return None


_HALL_INSTANCES = (
    "PowerAction(2,2,(5,1,3))",  # order 20, faithful C4 action
    "PowerAction(3,1,(7,1,5))",  # order 21
    "PowerAction(2,1,(3,2,1))",  # order 18, inversion on C9
    "Dicyclic(3)",
    "C5SemiQ8",
    "Direct(Cyclic(5),Sym(3))",
    "Dihedral(15)",
)


_MIN_NON_PE_INSTANCES = (
    "Dihedral(4)",
    "Modular(3,2)",
    "HeisenbergLike(3,1)",
    "SL2(3)",
    "IrreducibleFrobenius(5,2,3)",
)


def _min_non_pe_gate(g: Group, budget: Budget, proper_condition) -> bool:
    """Not PE, while every proper subgroup satisfies ``proper_condition(child)``."""
    if is_pe_group(g, budget):
        return False
    lat = all_subgroups(g, budget)
    proper = (i for i in lat.rep_indices if lat.subgroups[i].order < g.order)
    return all(proper_condition(subgroup_as_group(lat, i)) for i in proper)


def _min_non_pe_over_solvable_pnc(g: Group, budget: Budget) -> bool:
    return _min_non_pe_gate(g, budget, lambda child: _is_solvable_pnc(child, budget))


MIN_NON_PE_OVER_SOLVABLE_PNC = CATALOG.where(
    "non-PE catalog members whose proper subgroups are solvable PNC", _min_non_pe_over_solvable_pnc
)
MIN_NON_PE_OVER_ON = CATALOG.where(
    "non-PE catalog members whose proper subgroups are ON",
    lambda g, budget: _min_non_pe_gate(g, budget, lambda child: is_on_group(child, budget)),
)


def _shapes(shapes):
    def check(spec: GroupSpec, g: Group, budget: Budget):
        matched = [name for name, fn in shapes if fn(g, budget)]
        if matched:
            yield f"{spec.to_string()} matches: {', '.join(matched)}"
        yield None if matched else _witness(spec, detail="matches no shape")

    return check


def _thm1_shapes(spec: GroupSpec, g: Group, budget: Budget):
    if len(primes_of(g.order)) > 2:
        return [_witness(spec, detail="more than two prime divisors")]
    return _shapes(THM1_SHAPES)(spec, g, budget)


def _on_sides_note(budget: Budget, result: ClaimResult) -> None:
    sides = []
    for spec in (parse_spec("Sym(3)"), parse_spec("Dihedral(4)")):
        try:
            sides.append(is_on_group(build_group(spec, budget), budget))
        except BudgetExceededError as e:
            _skip(result.skipped, spec, e)
            return
    if sides == [True, False]:
        result.notes.append("positive side includes Sym(3) and the Dedekind members; Dihedral(4) is negative")


MAXIMALS_SOLVABLE_PNC = CATALOG.where(
    "nontrivial catalog members whose maximal subgroups are solvable PNC",
    lambda g, budget: g.order > 1 and _all_maximals_satisfy(g, budget, lambda m: _is_solvable_pnc(m, budget)),
)


def _maximal_pnc_dichotomy(spec: GroupSpec, g: Group, budget: Budget):
    if _profile_key(g) == _reference_profile("SL2(3)"):
        yield (
            f"dichotomy refuted on {spec.to_string()}: all maximal subgroups solvable PNC, "
            "yet the group is neither 2-nilpotent nor minimal non-abelian "
            "(it has a proper non-abelian Q8); reported, not asserted"
        )
        return
    ok = is_p_nilpotent(g, 2, budget) or shape_minimal_nonabelian_pq(g, budget, force_p2=True)
    yield None if ok else _witness(spec, detail="gate holds but conclusion fails")


def _second_maximals_not_solvable_pnc(g: Group, budget: Budget) -> tuple[list[Subgroup], int]:
    """Class representatives of the second maximal subgroups that are not solvable PNC, and their number.

    Both properties are invariant under conjugation, so the failing subgroups
    form whole classes; each representative is its class's first member in sort order.
    """
    lat = all_subgroups(g, budget)
    second = {lat.subgroup_index(s) for s in second_maximal_subgroups(g, budget)}
    bad = [
        i for i in lat.rep_indices
        if i in second and not _is_solvable_pnc(subgroup_as_group(lat, i), budget)
    ]
    return [lat.subgroups[i] for i in bad], sum(lat.conjugacy_class_size(i) for i in bad)


def _second_maximals_solvable_pnc(spec: GroupSpec, g: Group, budget: Budget):
    bad, _ = _second_maximals_not_solvable_pnc(g, budget)
    yield _witness(spec, bad[0], "second maximal not solvable PNC") if bad else None


def _psl27_note(g: Group, budget: Budget) -> str:
    bad, count = _second_maximals_not_solvable_pnc(g, budget)
    return (f"excluded case: PSL(2,7) has {count} second maximal subgroups that are not solvable PNC "
            f"(first witness order {bad[0].order})")


SIMPLE_PSL2 = Universe.of_specs("PSL(2,q), q in {4,5,8}; q = 7 probed, 13 and 27 skipped",
                                lambda budget: _family("PSL2", (4, 5, 8)))
SL2_5 = Universe.of_specs("SL(2,5); SL(2,3^r) for r >= 3 skipped", lambda budget: _family("SL2", (5,)))


def _sn_status(spec: GroupSpec, g: Group, budget: Budget):
    n, witness = spec.params[0], pnc_witness(g, budget)
    if witness is None:
        yield f"S{n}: PNC"
    else:
        yield f"S{n}: not PNC, witness subgroup of order {witness.order} with members {witness.members.tolist()}"
    yield None


def _c3_semi_d4(spec: GroupSpec, g: Group, budget: Budget):
    d4 = build_group(spec.params[1], budget)
    # count automorphisms by brute force over generator images
    count = 0
    for xa in range(8):
        for xb in range(8):
            try:
                automorphism_from_generator_images(d4, {1: xa, 4: xb})
                count += 1
            except NotAutomorphismError:
                pass
    yield f"Aut(D4) has order {count}; it has no element of order 3, so no nontrivial C3 action exists"
    s3_key = _reference_profile("Sym(3)")
    has_s3 = any(s.order == 6 and _profile_key(g, s.members) == s3_key for s in all_subgroups(g, budget).subgroups)
    yield (f"the degenerate product C3 x D4 contains an S3-profile subgroup: {has_s3}; "
           "the stated counterexample cannot be realized as described")
    yield "the fully specified D4:S3 counterexample is verified under nc-direct-factor instead"
    yield None


C3_X_D4 = Universe.of_specs("the degenerate product C3 x D4",
                            lambda budget: [parse_spec("Direct(Cyclic(3),Dihedral(4))")])


# --- registry and runner -------------------------------------------------------------


def claim_registry() -> list[Claim]:
    claims = [
        forall("pnc-implies-t", CATALOG, lambda spec, g, budget: [
            _witness(spec, detail="PNC but not a T-group")
            if is_pnc_group(g, budget) and not is_t_group(g, budget) else None
        ]),
        iff("nilpotent-pnc-iff-dedekind", NILPOTENT, lambda spec, g, budget: [
            (_witness(spec), is_pnc_group(g, budget), is_dedekind(g, budget))
        ]),
        forall(
            "solvable-pnc-supersolvable", SOLVABLE_PNC,
            lambda spec, g, budget: [
                None if is_supersolvable(g, budget) else _witness(spec, detail="solvable PNC but not supersolvable")
            ],
            probe("C2sqSemiC4", lambda g, budget: is_supersolvable(g, budget) and not is_pnc_group(g, budget),
                  "converse fails: C2sqSemiC4 is supersolvable and not PNC", "expected supersolvable non-PNC witness"),
        ),
        iff("nc-iff-commutator", CATALOG_120, _nc_vs_commutator),
        forall("solvable-pnc-equivalences", SOLVABLE_PNC, _solvable_pnc_equivalences,
               fixed_note(f"items checked per group: {', '.join(_EQUIV_ITEMS)}")),
        forall("normalizer-closure", SOLVABLE_PNC, lambda spec, g, budget: [_first_failure(
            spec, all_subgroups(g, budget).class_representatives(),
            lambda rep: normal_closure_members(g, normalizer_members(g, rep.members)).size != g.order,
            "normalizer has proper normal closure",
        )]),
        forall("nilpotent-subgroups-dedekind", SOLVABLE_PNC, lambda spec, g, budget: [_first_failure(
            spec, (lat := all_subgroups(g, budget)).class_representatives(),
            lambda rep: is_nilpotent(child := subgroup_as_group(lat, lat.subgroup_index(rep)))[0]
            and not is_dedekind(child, budget),
            "nilpotent subgroup is not Dedekind",
        )]),
        forall(
            "min-prime-pnilpotent", SOLVABLE_PNC,
            lambda spec, g, budget: [
                None if is_p_nilpotent(g, p, budget) else _witness(spec, detail=f"not {p}-nilpotent at minimal prime")
                for p in primes_of(g.order)[:1]
            ],
            probe("Direct(Cyclic(5),Sym(3))",
                  lambda g, budget: is_pnc_group(g, budget) and not is_p_nilpotent(g, 3, budget)
                  and is_p_nilpotent(g, 2, budget),
                  "minimality needed: C5 x S3 is PNC, 2-nilpotent, and not 3-nilpotent",
                  "expected non-minimal-prime failure did not reproduce"),
        ),
        forall("max-prime-order-normal", PNC, _max_prime_order_normal),
        forall("sylow-in-closure", SOLVABLE_PNC, _sylow_in_closure),
        forall("fstar-class", PNC, _fstar_class),
        forall("structure-bundle", SOLVABLE_PNC, _structure_bundle),
        forall("component-lemma", CATALOG_120, _component_lemma),
        forall(
            "coprime-direct-product", COPRIME_PNC_PAIRS,
            lambda spec, g, budget: [
                None if is_pnc_group(g, budget) else _witness(spec, detail="coprime product not PNC")
            ],
            _coprime_remarks,
        ),
        forall("quotient-closure", PNC_120, _quotients_pnc,
               probe("Dihedral(4)", _d4_converse,
                     "converse fails: D4 is not PNC while all nontrivial quotients are PNC",
                     "expected converse witness")),
        forall("normal-subgroup-closure", PNC_120, _normal_subgroups_pnc,
               probe("Direct(Cyclic(7),Alt(5))", _has_non_pnc_a4,
                     "normality needed: C7 x A5 is PNC with a non-PNC subgroup of A4 type",
                     "expected non-normal A4 witness", counted=False)),
        iff("central-p-lift", CATALOG_500, _central_p_lift,
            probe("C5xC3SemiD4", _central_c2_needs_hypothesis,
                  "|G|_p = p needed: (C5xC3):D4 has central C2 with |G|_2 = 8, quotient PNC, group not PNC",
                  "expected hypothesis-violation witness", counted=False)),
        iff("nc-quotient-correspondence", CATALOG_60, _nc_mod_normal,
            probe("Dihedral(4)", _d4_needs_containment,
                  "containment needed: D4 has K of order 2, not NC, whose image mod a disjoint C2^2 is NC",
                  "expected containment-violation witness", counted=False)),
        iff("nc-direct-factor", CATALOG_DIRECT, _nc_in_factor,
            probe("D4SemiS3", _d4_s3_semidirect_fails,
                  "semidirect fails: D4:S3 has a C2^2 that is NC in the D4 factor but not NC in G",
                  "expected semidirect witness", counted=False)),
        Claim("gu23-remarks", "mustHold", "the order-96 unitary group", _run_gu23_remarks),
        forall("dihedral-maximals", DIHEDRAL_24, _dihedral_maximals),
        iff("dihedral-iff", DIHEDRAL_40, _pnc_iff_4_does_not_divide_n),
        iff("dicyclic-iff", DICYCLIC_12, _pnc_iff_4_does_not_divide_n),
        forall("power-action-formulas", POWER_ACTION, _power_action_formulas),
        iff("theorem3-valuations", POWER_ACTION_DOMINANT, lambda spec, g, budget: [
            (_witness(spec), is_pnc_group(g, budget), _valuation_side(spec.params[2:]))
        ], _theorem3_sweep),
        forall("sufficiency-hall", HALL, _hall_sufficiency, fixed_note(
            "each instance re-checked elementwise: every a in the Hall kernel lies in N_G(H) or H^G"
        )),
        forall(
            "min-non-pe-shapes", MIN_NON_PE_OVER_SOLVABLE_PNC, _thm1_shapes,
            *(
                probe(text, _min_non_pe_over_solvable_pnc, None,
                      "expected non-PE with all proper subgroups solvable PNC")
                for text in _MIN_NON_PE_INSTANCES
            ),
        ),
        forall("min-non-pe-proper-on", MIN_NON_PE_OVER_ON, _shapes(THM2_SHAPES)),
        iff("on-characterization", CATALOG_120, lambda spec, g, budget: [
            (_witness(spec), is_on_group(g, budget), is_dedekind(g, budget) or on_structural(g, budget))
        ], _on_sides_note),
        forall("maximal-pnc-dichotomy", MAXIMALS_SOLVABLE_PNC, _maximal_pnc_dichotomy),
        forall("simple-second-maximal", SIMPLE_PSL2, _second_maximals_solvable_pnc,
               probe("PSL2(7)", lambda g, budget: bool(_second_maximals_not_solvable_pnc(g, budget)[0]),
                     _psl27_note, "expected a non-PNC second maximal subgroup"),
               fixed_skip("PSL2(13)", "order-budget: permanently skipped (order 1092 lattice)"),
               fixed_skip("PSL2(27)", "order-budget: permanently skipped (order 9828)")),
        forall("nonsolvable-second-maximal", SL2_5, _second_maximals_solvable_pnc,
               fixed_skip("SL2(27)", "order-budget: permanently skipped (order 19656)"),
               fixed_skip("SL2(243)", "order-budget: permanently skipped")),
        forall("sn-probe", SYMMETRIC, _sn_status, expectation="reportOnly"),
        forall("c3-semi-d4-remark", C3_X_D4, _c3_semi_d4, expectation="reportOnly"),
        forall("self-normalizer-probe", SOLVABLE_PNC, lambda spec, g, budget: [
            f"{spec.to_string()}: some subgroup has proper normalizer = "
            f"{any(s.normalizer < g.order for s in _class_sizes(g, budget))}, "
            f"Dedekind = {is_dedekind(g, budget)}",
            None,
        ], expectation="reportOnly"),
    ]
    if len({c.id for c in claims}) != len(claims):
        raise ConsistencyError("claim ids in the registry are not unique")
    return sorted(claims, key=lambda c: c.id)



def run_claim(claim_id: str, budget: Budget = DEFAULT_BUDGET) -> ClaimResult:
    claims = {c.id: c for c in claim_registry()}
    claim = claims.get(claim_id)
    if claim is None:
        raise UnknownClaimError(f"unknown claim {claim_id!r}")
    start = time.perf_counter()
    result = claim.runner(budget)
    result.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return result


# The longest claims (theorem3-valuations is about half a serial run); workers
# start them first, so that none of them starts near the end.
_LONGEST_CLAIMS = ("theorem3-valuations",)


def run_all_claims(budget: Budget = DEFAULT_BUDGET, parallelism: int = 1) -> list[ClaimResult]:
    """Every registered claim, sorted by id; ``parallelism`` > 1 runs them in that many worker processes."""
    ids = [c.id for c in claim_registry()]
    if parallelism <= 1:
        return [run_claim(i, budget) for i in ids]
    from concurrent.futures import ProcessPoolExecutor

    # each worker owns its caches; results are read in id order, so the first
    # BudgetExceededError re-raised here is the one a serial run stops at
    with ProcessPoolExecutor(max_workers=parallelism) as pool:
        order = sorted(ids, key=lambda i: i not in _LONGEST_CLAIMS)
        futures = {i: pool.submit(run_claim, i, budget) for i in order}
        return [futures[i].result() for i in ids]


def counterexample_search(expression: str, universe: list[GroupSpec], budget: Budget = DEFAULT_BUDGET):
    """All universe members whose PredicateProfile satisfies the boolean expression."""
    predicate = _compile_profile_expression(expression)
    matches, skipped = [], []
    for spec in universe:
        try:
            g = build_group(spec, budget)
            profile = classify_group(g, budget)
        except BudgetExceededError as e:
            _skip(skipped, spec, e)
            continue
        if predicate(profile.flags()):
            matches.append(spec)
    return matches, skipped


def _compile_profile_expression(expression: str):
    """The expression as a function of the profile flags; syntax and names are checked before any group is built."""
    import ast

    cleaned = expression.replace("&", " and ").replace("|", " or ").replace("~", " not ").replace("!", " not ")
    try:
        tree = ast.parse(cleaned, mode="eval")
    except SyntaxError as e:
        raise UnknownClaimError(f"cannot parse expression {expression!r}: {e}") from None
    allowed = (ast.Expression, ast.BoolOp, ast.UnaryOp, ast.Not, ast.And, ast.Or, ast.Name, ast.Load)
    for node in ast.walk(tree):
        if not isinstance(node, allowed):
            raise UnknownClaimError(f"unsupported syntax in expression {expression!r}")
        if isinstance(node, ast.Name) and node.id not in GROUP_CLASSES:
            raise UnknownClaimError(f"unknown predicate name {node.id!r}")
    # only boolean operators over known flag names are left, so eval sees nothing else
    code = compile(tree, "<expression>", "eval")
    return lambda flags: eval(code, {"__builtins__": {}}, flags)


# --- report emission -----------------------------------------------------------------


def emit_report(results: list[ClaimResult], fmt: str = "json", timing: bool = True) -> str:
    ordered = sorted(results, key=lambda r: r.claim_id)
    if fmt == "json":
        doc = {"claims": [r.to_json(timing=timing) for r in ordered]}
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"
    if fmt == "markdown":
        lines = [
            "| claim | verdict | checked | counterexamples | skipped |",
            "| --- | --- | --- | --- | --- |",
        ]
        for r in ordered:
            first = ""
            if r.counterexamples:
                w = r.counterexamples[0]
                first = w.get("group", "")
                if "subgroup" in w:
                    first += f" {w['subgroup']}"
            lines.append(
                f"| {r.claim_id} | {r.verdict} | {r.checked_count} | "
                f"{len(r.counterexamples)}{' (' + first + ')' if first else ''} | {len(r.skipped)} |"
            )
        return "\n".join(lines) + "\n"
    raise UnknownClaimError(f"unknown report format {fmt!r}")
