import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from fgt.catalog import GroupSpec, build_group, parse_spec
from fgt.claims import (
    STATEMENTS,
    _power_action_formulas,
    _power_action_universe,
    ClaimResult,
    claim_registry,
    counterexample_search,
    emit_report,
    run_all_claims,
    run_claim,
)
from fgt.cli import main
from fgt.config import Budget
from fgt.errors import BudgetExceededError, UnknownClaimError

BUDGET = Budget()


REQUIRED_CLAIM_IDS = {
    "pnc-implies-t", "nilpotent-pnc-iff-dedekind", "solvable-pnc-supersolvable",
    "nc-iff-commutator", "solvable-pnc-equivalences", "normalizer-closure",
    "nilpotent-subgroups-dedekind", "min-prime-pnilpotent", "max-prime-order-normal",
    "sylow-in-closure", "fstar-class", "structure-bundle", "component-lemma",
    "coprime-direct-product", "quotient-closure", "normal-subgroup-closure",
    "central-p-lift", "nc-quotient-correspondence", "nc-direct-factor",
    "gu23-remarks", "dihedral-maximals", "dihedral-iff", "dicyclic-iff",
    "power-action-formulas", "theorem3-valuations", "sufficiency-hall",
    "min-non-pe-shapes", "min-non-pe-proper-on", "on-characterization",
    "maximal-pnc-dichotomy", "simple-second-maximal", "nonsolvable-second-maximal",
    "sn-probe",
}


def test_registry_size_and_uniqueness():
    claims = claim_registry()
    assert len(claims) >= 28
    ids = [c.id for c in claims]
    assert len(ids) == len(set(ids))
    assert REQUIRED_CLAIM_IDS <= set(ids)


def test_every_claim_has_statement_in_bundled_table():
    for claim in claim_registry():
        assert claim.id in STATEMENTS
        assert STATEMENTS[claim.id].strip()


def test_asserted_claims_carry_nonempty_universe():
    for claim in claim_registry():
        if claim.expectation in ("mustHold", "iff"):
            assert claim.universe.strip()


def test_unknown_claim_raises():
    with pytest.raises(UnknownClaimError):
        run_claim("no-such-claim", BUDGET)


def test_run_claim_is_deterministic_modulo_elapsed():
    a = run_claim("dihedral-maximals", BUDGET)
    b = run_claim("dihedral-maximals", BUDGET)
    assert a.to_json(timing=False) == b.to_json(timing=False)


def test_dihedral_iff_counts_38_members():
    r = run_claim("dihedral-iff", BUDGET)
    assert r.verdict == "pass" and r.checked_count == 38


def test_dicyclic_iff_counts_11_members():
    r = run_claim("dicyclic-iff", BUDGET)
    assert r.verdict == "pass" and r.checked_count == 11


def test_quotient_closure_notes_the_d4_converse():
    r = run_claim("quotient-closure", BUDGET)
    assert r.verdict == "pass"
    assert any("D4" in note for note in r.notes)


def test_fstar_class_passes_with_a5_report():
    r = run_claim("fstar-class", BUDGET)
    assert r.verdict == "pass"
    assert any("Alt(5)" in note and "not nilpotent" in note for note in r.notes)


def test_theorem3_is_vacuous_on_its_stated_universe():
    r = run_claim("theorem3-valuations", BUDGET)
    assert r.verdict == "skipped"
    assert any("VacuousSide" in note for note in r.notes)
    assert any("rejected" in note for note in r.notes)
    assert any("exploratory sweep" in note and "mismatches = 0" in note for note in r.notes)


@pytest.mark.parametrize("max_subgroups", [10, 100])
def test_a_tight_subgroup_budget_skips_sweep_members_instead_of_stopping_the_run(max_subgroups):
    results = run_all_claims(Budget(max_subgroups=max_subgroups))
    assert len(results) == 35
    r = next(r for r in results if r.claim_id == "theorem3-valuations")
    groups = [entry["group"] for entry in r.skipped]
    assert groups and len(groups) == len(set(groups))
    # every sweep spec is either counted by the sweep note or skipped once
    sweep = next(note for note in r.notes if note.startswith("exploratory sweep"))
    counted = int(sweep.split(": ")[1].split(" specs")[0])
    assert counted + len(groups) == len(_power_action_universe(400)[0])


def test_gu23_remarks_fails_with_split_witness_analysis():
    # documented deviation: the two halves of the remark hold for different
    # conjugacy classes, and provably cannot hold together
    r = run_claim("gu23-remarks", BUDGET)
    assert r.verdict == "fail"
    assert r.counterexamples
    assert any("NC half realized" in n and "True" in n for n in r.notes)
    assert any("subnormal half realized" in n and "True" in n for n in r.notes)
    assert any("no single subgroup" in n for n in r.notes)


def test_maximal_pnc_dichotomy_reports_sl23():
    r = run_claim("maximal-pnc-dichotomy", BUDGET)
    assert r.verdict == "pass"
    assert any("SL2(3)" in note for note in r.notes)


def test_max_prime_order_normal_reports_simple_violations():
    r = run_claim("max-prime-order-normal", BUDGET)
    assert r.verdict == "pass"
    assert any("Alt(5)" in note for note in r.notes)


def test_sn_probe_reports_expected_statuses():
    r = run_claim("sn-probe", BUDGET)
    assert r.verdict == "reportOnly"
    text = " | ".join(r.notes)
    assert "S3: PNC" in text
    assert "S4: not PNC" in text and "witness" in text
    assert "S5: PNC" in text
    assert any(s["group"] == "Sym(7)" for s in r.skipped)


def test_simple_second_maximal_skips_are_permanent():
    r = run_claim("simple-second-maximal", BUDGET)
    assert r.verdict == "pass"
    skipped_groups = {s["group"] for s in r.skipped}
    assert {"PSL2(13)", "PSL2(27)"} <= skipped_groups
    assert any("PSL(2,7)" in note for note in r.notes)


def test_counterexample_search_spec_examples():
    catalog = __import__("fgt.catalog", fromlist=["standard_catalog"]).standard_catalog()
    matches, _ = counterexample_search("pnc and not dedekind and nilpotent", catalog, BUDGET)
    assert matches == []
    matches, _ = counterexample_search("supersolvable and not pnc", catalog, BUDGET)
    assert GroupSpec("C2sqSemiC4") in matches
    universe = [parse_spec("Sym(3)"), parse_spec("Sym(4)"), parse_spec("Sym(5)")]
    matches, _ = counterexample_search("pnc", universe, BUDGET)
    assert [m.to_string() for m in matches] == ["Sym(3)", "Sym(5)"]


def test_counterexample_search_rejects_bad_expressions():
    with pytest.raises(UnknownClaimError):
        counterexample_search("pnc and __import__('os')", [parse_spec("Sym(3)")], BUDGET)
    with pytest.raises(UnknownClaimError):
        counterexample_search("unknown_flag", [parse_spec("Sym(3)")], BUDGET)


def test_power_action_formulas_read_the_whole_table():
    spec = parse_spec("PowerAction(2,1,(5,3,1))")
    g = build_group(spec, BUDGET)
    assert list(_power_action_formulas(spec, g, BUDGET)) == [None]
    # one wrong product, in the very last entry of the table
    mul = g.mul.copy()
    n = g.order
    mul[n - 1, n - 1] = (mul[n - 1, n - 1] + 1) % n
    altered = SimpleNamespace(mul=mul, inv=g.inv, order=n)
    assert list(_power_action_formulas(spec, altered, BUDGET)) == [
        {"group": spec.to_string(), "detail": "table disagrees with twist-power formula"}
    ]


def test_emit_report_json_schema_and_markdown():
    results = [run_claim("dicyclic-iff", BUDGET)]
    doc = json.loads(emit_report(results, "json"))
    assert list(doc.keys()) == ["claims"]
    row = doc["claims"][0]
    assert list(row.keys()) == [
        "id", "statement", "verdict", "checkedCount", "skipped",
        "counterexamples", "notes", "elapsedMs",
    ]
    md = emit_report(results, "markdown")
    assert md.count("\n") == 3  # header, separator, one row
    empty = emit_report([], "markdown")
    assert empty.count("\n") == 2


def test_emit_report_is_stable_without_timing():
    results1 = [run_claim("dihedral-maximals", BUDGET)]
    results2 = [run_claim("dihedral-maximals", BUDGET)]
    assert emit_report(results1, "json", timing=False) == emit_report(results2, "json", timing=False)


def test_failing_result_renders_first_witness_in_markdown():
    fake = ClaimResult("dihedral-iff", "fail", 3, [{"group": "Dihedral(8)", "subgroup": [0, 4]}], [], [])
    md = emit_report([fake], "markdown")
    assert "Dihedral(8) [0, 4]" in md


def test_nc_direct_factor_and_quotient_correspondence_probes():
    r = run_claim("nc-direct-factor", BUDGET)
    assert r.verdict == "pass"
    assert any("D4:S3" in n for n in r.notes)
    r = run_claim("nc-quotient-correspondence", BUDGET)
    assert r.verdict == "pass"
    assert any("containment needed" in n for n in r.notes)


def test_sufficiency_hall_instances_all_qualify():
    r = run_claim("sufficiency-hall", BUDGET)
    assert r.verdict == "pass" and r.checked_count == 7


def test_min_non_pe_gate_members_match_shapes():
    r = run_claim("min-non-pe-shapes", BUDGET)
    assert r.verdict == "pass"
    matched = " ".join(r.notes)
    for expected in ("Dihedral(4)", "Modular(3,2)", "HeisenbergLike(3,1)", "SL2(3)",
                     "IrreducibleFrobenius(5,2,3)", "Alt(4)"):
        assert expected in matched
    r2 = run_claim("min-non-pe-proper-on", BUDGET)
    assert r2.verdict == "pass"
    assert "SL2(3)" in " ".join(r2.notes)


# Per-claim digests of the timing-free output, recorded from the code before
# claims were written as data; the heavy two claims ran under a lower order cap.
GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "fgtbench" / "golden.json").read_text())
HEAVY_CLAIM_BUDGET = Budget(order_cap=150)


@pytest.mark.parametrize("claim_id", [c.id for c in claim_registry()])
def test_claim_output_is_byte_identical_to_recorded_digest(claim_id):
    budget = HEAVY_CLAIM_BUDGET if claim_id in ("theorem3-valuations", "sn-probe") else BUDGET
    doc = run_claim(claim_id, budget).to_json(timing=False)
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == GOLDEN["claims"][claim_id]


# sha256 of the timing-free report of run_all_claims(Budget()), run serially.
REPORT_SHA256 = "a94c6f77f572e3fe7f462139ca0fac3872751b250c5c628ed6ad5fe6a710a529"


def test_two_worker_processes_give_the_serial_report():
    report = emit_report(run_all_claims(BUDGET, parallelism=2), "json", timing=False)
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_SHA256


# the claims that once reached numpy.ma through value-only set routines (np.unique, np.union1d, np.intersect1d)
SET_ROUTINE_CLAIMS = ["component-lemma", "nc-quotient-correspondence", "nc-direct-factor", "gu23-remarks",
                      "sufficiency-hall"]


def test_claims_with_subgroup_set_arithmetic_leave_numpy_ma_unimported():
    """Masks, ``np.isin`` and ``assume_unique=True`` stand in for value-only set routines, which import numpy.ma."""
    script = f"import sys\nfrom fgt.claims import run_claim\nfor c in {SET_ROUTINE_CLAIMS!r}: run_claim(c)\n"
    script += "print('numpy.ma' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False"]


def test_a_budget_error_in_a_worker_process_is_a_skip_entry(tmp_path):
    """Under cap 150 only gu23-remarks fails, and the workers' report is the serial one."""
    path = tmp_path / "report.json"
    assert main(["check", "--all", "--order-cap", "150", "--parallelism", "2", "--report", str(path)]) == 1
    claims = json.loads(path.read_text())["claims"]
    assert [c["id"] for c in claims if c["verdict"] == "fail"] == ["gu23-remarks"]
    second_maximal = next(c for c in claims if c["id"] == "simple-second-maximal")
    assert {"group": "PSL2(8)", "reason": "group order 504 exceeds cap 150"} in second_maximal["skipped"]
    for c in claims:
        c["elapsedMs"] = 0.0
    serial = emit_report(run_all_claims(Budget(order_cap=150)), "json", timing=False)
    assert claims == json.loads(serial)["claims"]


@pytest.mark.parametrize("cap", [1, 8, 95, 150, 503])
def test_the_registry_finishes_under_every_order_cap(cap):
    """Every member, probe or remark group above the cap is a skip entry; no claim raises."""
    results = run_all_claims(Budget(order_cap=cap))
    assert [r.claim_id for r in results] == sorted(c.id for c in claim_registry())
    assert all(r.verdict != "fail" or r.claim_id == "gu23-remarks" for r in results)
    assert any(s["reason"].endswith(f"exceeds cap {cap}") for r in results for s in r.skipped)


def _recording_pool(monkeypatch, failing=()):
    """Replace the process pool by one that records the submission order and runs no claim.

    Each future holds its claim id, or a BudgetExceededError naming it for the ids in ``failing``.
    """
    submitted = []

    class Pool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, claim_id, budget):
            submitted.append(claim_id)
            future = concurrent.futures.Future()
            if claim_id in failing:
                future.set_exception(BudgetExceededError(claim_id))
            else:
                future.set_result(claim_id)
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return submitted


def test_workers_start_the_longest_claim_first_and_results_come_in_id_order(monkeypatch):
    submitted = _recording_pool(monkeypatch)
    ids = [c.id for c in claim_registry()]
    assert run_all_claims(BUDGET, parallelism=2) == ids
    assert submitted[0] == "theorem3-valuations"
    assert sorted(submitted) == ids


def test_workers_raise_the_budget_error_a_serial_run_stops_at(monkeypatch):
    _recording_pool(monkeypatch, failing={"simple-second-maximal", "theorem3-valuations"})
    with pytest.raises(BudgetExceededError, match="^simple-second-maximal$"):
        run_all_claims(BUDGET, parallelism=2)
