"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Criterion 4 is implemented faithfully and is expected to stay red: the two
halves of the underlying remark are each machine-verified, but they hold for
two different conjugacy classes and are provably incompatible on a single
subgroup (a proper subgroup with full normal closure is never subnormal).
The decisions ledger carries the full analysis.
"""

import math

import numpy as np
import pytest

from oracles import exhaustive_subgroups

from fgt.catalog import GroupSpec, build_group, parse_spec, standard_catalog
from fgt.claims import run_claim
from fgt.config import Budget
from fgt.groups import order_fingerprint, quotient_group
from fgt.lattice import (
    Subgroup,
    all_subgroups,
    is_normal,
    normal_closure_members,
    normalizer_members,
    subgroup_as_group,
    subgroup_product,
)
from fgt.predicates import (
    classify_group,
    is_dedekind,
    is_nc_subgroup,
    is_p_nilpotent,
    is_pnc_group,
    is_solvable,
    is_supersolvable,
    pnc_witness,
)

BUDGET = Budget()

_RESULTS: dict[str, object] = {}


def claim(claim_id: str):
    if claim_id not in _RESULTS:
        _RESULTS[claim_id] = run_claim(claim_id, BUDGET)
    return _RESULTS[claim_id]


def build(text: str):
    return build_group(parse_spec(text), BUDGET)


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} ({name}): {status}" + (f" - {detail}" if detail else ""))
    assert ok, f"criterion {number:02d} ({name}) failed{': ' + detail if detail else ''}"


def test_criterion_01_dihedral_iff():
    r = claim("dihedral-iff")
    report(1, "dihedral PNC iff 4 does not divide n, n in [3,40]",
           r.verdict == "pass" and r.checked_count == 38)


def test_criterion_02_dicyclic_iff():
    r = claim("dicyclic-iff")
    q8 = classify_group(build("Dicyclic(2)"), BUDGET)
    report(2, "dicyclic PNC iff 4 does not divide n, n in [2,12]",
           r.verdict == "pass" and r.checked_count == 11 and q8.pnc and q8.dedekind)


def test_criterion_03_counterexample_remarks():
    checks = []
    g = build("C2sqSemiC4")
    complement = np.arange(4)
    prof = order_fingerprint(g, normalizer_members(g, complement))
    checks.append(is_supersolvable(g, BUDGET) and not is_pnc_group(g, BUDGET))
    checks.append(prof.order == 8 and prof.order_counts == ((1, 1), (2, 3), (4, 4)) and prof.abelian)

    checks.append(not is_pnc_group(build("Direct(Cyclic(3),Sym(3))"), BUDGET))

    d4 = build("Dihedral(4)")
    lat = all_subgroups(d4, BUDGET)
    quotients_pnc = all(
        is_pnc_group(quotient_group(d4, n.members, BUDGET)[0], BUDGET)
        for n in lat.normal_subgroups()
        if n.order > 1
    )
    checks.append(not is_pnc_group(d4, BUDGET) and quotients_pnc)

    c5s3 = classify_group(build("Direct(Cyclic(5),Sym(3))"), BUDGET)
    checks.append(c5s3.pnc and not c5s3.p_nilpotent[3] and c5s3.p_nilpotent[2])

    g = build("D4SemiS3")
    d4_members = np.arange(8, dtype=np.intp) * 6
    c22_key = order_fingerprint(build("ElementaryAbelian(2,2)")).key()
    semidirect_witness = False
    for s in all_subgroups(g, BUDGET).subgroups:
        if s.order != 4 or not np.isin(s.members, d4_members).all():
            continue
        if order_fingerprint(g, s.members).key() != c22_key:
            continue
        closure_in = normal_closure_members(g, s.members, within=d4_members)
        norm_in = np.intersect1d(normalizer_members(g, s.members), d4_members)
        nc_in_d4 = np.unique(g.mul[np.ix_(closure_in, norm_in)]).size == 8
        if nc_in_d4 and not is_nc_subgroup(g, s):
            semidirect_witness = True
            break
    checks.append(semidirect_witness)

    big = build("Direct(Cyclic(7),Alt(5))")
    a4_key = order_fingerprint(build("Alt(4)")).key()
    big_lattice = all_subgroups(big, BUDGET)
    a4_index = next(
        i for i, s in enumerate(big_lattice.subgroups)
        if s.order == 12 and order_fingerprint(big, s.members).key() == a4_key
    )
    checks.append(is_pnc_group(big, BUDGET) and not is_pnc_group(subgroup_as_group(big_lattice, a4_index), BUDGET))

    report(3, "counterexample remarks reproduce exactly", all(checks),
           detail=f"subchecks={checks}")


def test_criterion_04_gu23_remark_conjunction():
    r = claim("gu23-remarks")
    report(4, "GU(2,3): C2xC4 subgroup NC and subnormal yet bad in an order-32 overgroup",
           r.verdict == "pass",
           detail="; ".join(r.notes))


def test_criterion_05_structural_bundle():
    ids = ("solvable-pnc-equivalences", "structure-bundle", "min-prime-pnilpotent",
           "sylow-in-closure", "nilpotent-subgroups-dedekind")
    verdicts = {i: claim(i).verdict for i in ids}
    report(5, "structural bundle on every solvable PNC catalog group",
           all(v == "pass" for v in verdicts.values()), detail=str(verdicts))


def test_criterion_06_inheritance_suite():
    ids = ("quotient-closure", "normal-subgroup-closure", "coprime-direct-product", "central-p-lift")
    verdicts = {i: claim(i).verdict for i in ids}
    report(6, "inheritance suite (quotients, normal subgroups, coprime products, central lifts)",
           all(v == "pass" for v in verdicts.values()), detail=str(verdicts))


def test_criterion_07_second_maximal_theorems():
    r1 = claim("simple-second-maximal")
    r2 = claim("nonsolvable-second-maximal")
    psl7_negative = any("PSL(2,7)" in note for note in r1.notes)
    report(7, "second maximal subgroups of PSL(2,4/5/8) and SL(2,5); PSL(2,7) excluded",
           r1.verdict == "pass" and r2.verdict == "pass" and psl7_negative)


def test_criterion_08_minimal_non_pe_instances():
    from fgt.claims import _min_non_pe_gate

    ok = True
    for text in ("Dihedral(4)", "Modular(3,2)", "HeisenbergLike(3,1)", "SL2(3)",
                 "IrreducibleFrobenius(5,2,3)"):
        g = build(text)
        gate = _min_non_pe_gate(
            g, BUDGET, lambda child: is_solvable(child) and is_pnc_group(child, BUDGET)
        )
        ok = ok and gate
    r = claim("min-non-pe-shapes")
    report(8, "minimal non-PE instances are non-PE with all proper subgroups solvable PNC",
           ok and r.verdict == "pass")


def test_criterion_09_on_characterization():
    r = claim("on-characterization")
    s3 = classify_group(build("Sym(3)"), BUDGET)
    d4 = classify_group(build("Dihedral(4)"), BUDGET)
    q8 = classify_group(build("Dicyclic(2)"), BUDGET)
    report(9, "ON-group characterization over the catalog up to order 120",
           r.verdict == "pass" and s3.on and q8.on and not d4.on)


def test_criterion_10_oracle_equivalence_and_lattice_identities():
    mismatched = []
    for spec in standard_catalog():
        g = build_group(spec, BUDGET)
        if g.order > 24:
            continue
        lattice_sets = {
            frozenset(int(x) for x in s.members) for s in all_subgroups(g, BUDGET).subgroups
        }
        if lattice_sets != exhaustive_subgroups(g.mul):
            mismatched.append(spec.to_string())
    identities_ok = True
    for spec in standard_catalog():
        g = build_group(spec, BUDGET)
        if g.order > 120:
            continue
        lat = all_subgroups(g, BUDGET)
        for i, s in enumerate(lat.subgroups):
            if normalizer_members(g, s.members).size * lat.conjugacy_class_size(i) != g.order:
                identities_ok = False
        rng = np.random.default_rng(11)
        subs = lat.subgroups
        for _ in range(100):
            a = subs[int(rng.integers(len(subs)))]
            b = subs[int(rng.integers(len(subs)))]
            if not (is_normal(g, a) or is_normal(g, b)):
                continue
            size, _ = subgroup_product(g, a, b)
            literal = int(np.unique(g.mul[np.ix_(a.members, b.members)]).size)
            if size != literal:
                identities_ok = False
    report(10, "exhaustive-subset oracle agreement (<= 24) and lattice identities (<= 120)",
           not mismatched and identities_ok, detail=f"oracle mismatches: {mismatched}")


def test_criterion_11_documented_deviation_report():
    r = claim("fstar-class")
    a5_note = any("Alt(5)" in n and "not nilpotent" in n for n in r.notes)
    report(11, "generalized Fitting class bound passes on solvable universe, A5 reported",
           r.verdict == "pass" and a5_note)


def test_criterion_12_sn_probe():
    r = claim("sn-probe")
    text = " | ".join(r.notes)
    asserted = (
        r.verdict == "reportOnly"
        and "S3: PNC" in text
        and "S5: PNC" in text
        and "S4: not PNC" in text
        and "witness" in text
    )
    s6_status = next((n for n in r.notes if n.startswith("S6")), "S6: skipped")
    report(12, "symmetric-group probe (S3/S5 PNC, S4 not; S6 reported, not asserted)",
           asserted, detail=s6_status)
