import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fgt.cli import main


# `fgt lattice <spec>` stdout digests: the benchmark's recorded set, plus
# Sym(6) (order 720, 1 455 subgroups), recorded with the earlier
# square-and-merge closure.
LATTICE_DIGESTS = {
    **json.loads((Path(__file__).resolve().parents[1] / "fgtbench" / "golden.json").read_text())["lattice"],
    "Sym(6)": "d9bb1fe0139e84e85555ef49c7098f877084ee82c7995deb5efaf54bd666ed66",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "catalog", "list")
    code2, out2, _ = run_cli(capsys, "catalog", "list")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "Dihedral(4)\t8\tD4" in out1


def test_group_info_trivial_group(capsys):
    code, out, _ = run_cli(capsys, "group", "info", "Cyclic(1)")
    assert code == 0
    doc = json.loads(out)
    assert doc["orderProfile"]["order"] == 1
    assert doc["predicates"]["pnc"] is True


def test_predicate_pnc_dihedral_8_prints_false(capsys):
    code, out, _ = run_cli(capsys, "predicate", "is_pnc", "Dihedral(8)")
    assert code == 0
    assert out.strip() == "false"


def test_predicate_subgroup_level(capsys):
    code, out, _ = run_cli(capsys, "predicate", "is_nc", "Sym(3)", "--subgroup", "1")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(capsys, "predicate", "is_normal", "Sym(3)", "--subgroup", "1")
    assert code == 0 and out.strip() == "false"


def test_predicate_usage_errors(capsys):
    code, _, err = run_cli(capsys, "predicate", "is_nc", "Sym(3)")
    assert code == 2 and "subgroup" in err
    code, _, err = run_cli(capsys, "predicate", "is_everything", "Sym(3)")
    assert code == 2
    code, _, err = run_cli(capsys, "predicate", "is_pnc", "Wat(3)")
    assert code == 2 and "unknown constructor" in err


def test_check_single_claim_pass(capsys):
    code, out, _ = run_cli(capsys, "check", "dihedral-iff")
    assert code == 0
    assert "| dihedral-iff | pass | 38 |" in out


def test_check_failing_claim_gives_exit_one(capsys):
    # gu23-remarks is the documented impossible conjunction
    code, out, _ = run_cli(capsys, "check", "gu23-remarks", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["claims"][0]["verdict"] == "fail"


def test_check_report_writes_json_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "check", "dicyclic-iff", "--report", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["claims"][0]["id"] == "dicyclic-iff"


def test_lattice_json_and_dot(capsys):
    code, out, _ = run_cli(capsys, "lattice", "Sym(3)")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["subgroups"]) == 6
    code, out, _ = run_cli(capsys, "lattice", "Sym(3)", "--dot")
    assert code == 0
    assert out.startswith("digraph") and "doublecircle" in out


def test_lattice_budget_exhaustion_exit_three(capsys):
    code, _, err = run_cli(capsys, "lattice", "Sym(5)", "--max-subgroups", "3")
    assert code == 3 and "budget" in err


def test_order_cap_flag_limits_builds(capsys):
    code, _, err = run_cli(capsys, "group", "info", "Sym(5)", "--order-cap", "100")
    assert code == 3


def test_an_order_too_long_to_print_exits_three(capsys):
    code, _, err = run_cli(capsys, "group", "info", "ElementaryAbelian(2,100000)")
    assert code == 3
    assert err.strip() == "budget exceeded: group order of 100001 bits exceeds cap 1200"


def test_search_with_range_universe(capsys):
    code, out, _ = run_cli(capsys, "search", "pnc", "--universe", "Dihedral(3..6)")
    assert code == 0
    doc = json.loads(out)
    assert doc["matches"] == ["Dihedral(3)", "Dihedral(5)", "Dihedral(6)"]


def test_search_bad_expression_exit_two(capsys):
    code, _, err = run_cli(capsys, "search", "pnc ^ dedekind", "--universe", "Sym(3)")
    assert code == 2


def test_usage_error_exit_two(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "check")[0] == 2


def test_env_order_cap_override(monkeypatch, capsys):
    monkeypatch.setenv("FGT_ORDER_CAP", "50")
    code, _, _ = run_cli(capsys, "group", "info", "Sym(5)")
    assert code == 3
    monkeypatch.setenv("FGT_ORDER_CAP", "99999")
    code, _, err = run_cli(capsys, "group", "info", "Sym(3)")
    assert code == 2  # above the hard limit


@pytest.mark.parametrize("value", ["abc", "9999"])
def test_bad_env_order_cap_exits_two_without_a_traceback(value):
    # The variable is read when the command runs, not when fgt is imported.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "FGT_ORDER_CAP": value,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "fgt", "catalog", "list"], env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_deep_nesting_exits_two_without_a_traceback():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    spec = "Direct(" * 5000 + "Cyclic(2)" + ",Cyclic(1))" * 5000
    proc = subprocess.run([sys.executable, "-m", "fgt", "group", "info", spec], env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_group_predicates_are_the_group_classes():
    from fgt.cli import GROUP_PREDICATES
    from fgt.predicates import GROUP_CLASSES

    assert list(GROUP_PREDICATES) == [f"is_{name}" for name in GROUP_CLASSES]


@pytest.mark.parametrize("spec", LATTICE_DIGESTS)
def test_lattice_output_is_byte_identical_to_recorded_digest(capsys, spec):
    code, out, _ = run_cli(capsys, "lattice", spec)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LATTICE_DIGESTS[spec]


# enumerates S7 and writes its lattice, then prints the digest and the peak RSS in KiB; the peak is
# VmHWM, not ru_maxrss, which Linux carries across exec and so reports the test runner's peak when larger
SYM7_SCRIPT = """
import hashlib
from fgt.catalog import build_group, parse_spec
from fgt.config import Budget
from fgt.lattice import all_subgroups, lattice_to_json
budget = Budget(order_cap=5040)
doc = lattice_to_json(all_subgroups(build_group(parse_spec("Sym(7)"), budget), budget))
peak_kib = next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(hashlib.sha256(doc.encode()).hexdigest(), peak_kib)
"""


def test_sym7_lattice_is_byte_identical_to_recorded_digest():
    # 11 300 subgroups in 96 classes, recorded when every representative was
    # joined with every cyclic subgroup not inside it; a fresh process, so
    # that its peak RSS counts S7 alone
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SYM7_SCRIPT], env=env, capture_output=True, text=True, check=True)
    digest, peak_kib = proc.stdout.split()
    assert digest == "eeb70b5e0bb6ad46dc51dc56ffa59e0aec3430f659afab7ad93fce41860e9c89"
    assert int(peak_kib) <= 170 * 1024


def test_the_cached_parser_keeps_no_state_between_calls(capsys):
    """``main`` reuses one parser per process: a --dot call leaves the next call's JSON as a fresh process prints it."""
    from fgt.cli import _build_parser

    assert _build_parser() is _build_parser()
    assert run_cli(capsys, "lattice", "--dot", "Cyclic(4)")[1].startswith("digraph")
    code, out, _ = run_cli(capsys, "lattice", "Cyclic(4)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = subprocess.run([sys.executable, "-m", "fgt", "lattice", "Cyclic(4)"], env=env, capture_output=True, text=True)
    assert code == fresh.returncode == 0
    assert out == fresh.stdout and json.loads(out)["order"] == 4


def test_parallelism_below_one_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "check", "--all", "--parallelism", "0")
    assert (code, out, err) == (2, "", "error: parallelism must be >= 1\n")


@pytest.mark.parametrize("argv", [
    ["--max-subgroups", "3", "lattice", "Sym(5)"],  # options follow the command they act on
    ["--order-cap", "100", "group", "info", "Sym(5)"],
    ["catalog", "--order-cap", "100", "list"],
    ["lattice", "Sym(5)", "--parallelism", "2"],  # only check reads it
    ["lattice", "Sym(3)", "--json"],
])
def test_an_option_the_command_does_not_take_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("usage: fgt")


def test_an_unknown_search_name_is_refused_before_any_group_is_built(capsys):
    code, out, err = run_cli(capsys, "search", "bogus", "--universe", "Sym(7)")
    assert (code, out, err) == (2, "", "error: unknown predicate name 'bogus'\n")


def test_a_search_range_past_the_hard_limit_exits_two_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "search", "pnc", "--universe", "Cyclic(1..3000000)")
    assert code == 2 and out == "" and err.startswith("error: range Cyclic(1..3000000)")
    assert time.perf_counter() - start < 1
