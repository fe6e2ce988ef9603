"""Self-tests of the benchmark itself (not part of the fgt test suite).

    python3 -m pytest -q fgtbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import fgt  # noqa: E402
import fgt.catalog  # noqa: E402
import fgt.cli  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYERS, SPAN_COUNTERS, Tracer, install_fgt  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    calls = {}

    # root(10) -> [a(1) -> [b(2), b(3)] (a self 4), c(5)]  in clock units
    def b(dt):
        clock.advance(dt)

    def a():
        clock.advance(1)
        calls["b"](2)
        calls["b"](3)
        clock.advance(3)

    def c():
        clock.advance(5)

    calls["b"] = tr.wrap("catalog.build_group", b)  # a span-keeping name
    wa = tr.wrap("cli.main", a)
    wc = tr.wrap("lattice.close_under_product", c)  # an aggregated leaf
    with tr.root_span("op", "synthetic"):
        clock.advance(10)
        wa()
        wc()

    st = tr.stats()
    assert st["cli.main"].calls == 1
    assert st["cli.main"].total_s == 9 and st["cli.main"].self_s == 4
    assert st["catalog.build_group"].calls == 2
    assert st["catalog.build_group"].total_s == 5 and st["catalog.build_group"].self_s == 5
    assert st["lattice.close_under_product"].self_s == 5
    spans = {sp[2]: sp for sp in tr.spans}
    assert len(tr.spans) == 4  # root, a, two b's; the leaf keeps no span
    root, main = spans["op"], spans["cli.main"]
    assert main[1] == root[0]
    assert all(sp[1] == main[0] for sp in tr.spans if sp[2] == "catalog.build_group")
    assert root[6] - root[5] == 24


def test_recursion_counts_total_time_once():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    holder = {}

    def f(n):
        clock.advance(1)
        if n:
            holder["f"](n - 1)

    holder["f"] = tr.wrap("catalog.build_group", f)
    holder["f"](2)
    st = tr.stats()["catalog.build_group"]
    assert (st.calls, st.total_s, st.self_s) == (3, 3, 3)


def _bindings():
    mods = [sys.modules["fgt"]] + [sys.modules[f"fgt.{n}"] for n in LAYERS]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    snap[("Group", "__init__")] = fgt.groups.Group.__init__
    snap[("SubgroupLattice", "__init__")] = fgt.lattice.SubgroupLattice.__init__
    return snap


def test_wrappers_are_installed_everywhere_and_restored():
    before = _bindings()
    tr = install_fgt(Tracer())
    try:
        # one wrapper per function, in every module that binds it
        assert fgt.groups.close_under_product is fgt.lattice.close_under_product
        assert fgt.groups.close_under_product is not before[("fgt.groups", "close_under_product")]
        assert fgt.build_group is fgt.catalog.build_group is fgt.cli.build_group
        golden = wl.load_golden()
        out = wl.run_round(fgt, "lattice", ["ElementaryAbelian(3,4)"], golden, span=tr.root_span)
        assert (out.attempted, out.failed) == (1, 0)
    finally:
        tr.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    m = layers.layer_metrics(tr.stats(), tr.spans, list(golden["claims"]))
    assert m["cli.main.self_s"] > 0
    assert m["lattice.all_subgroups.built"] == 1
    assert m["lattice.subgroups"] == 212  # 1 + 40 + 130 + 40 + 1 subgroups of C3^4
    assert m["lattice.close_under_product.calls"] > 0
    assert len(SPAN_COUNTERS) == len(tr.spans[0]) - 7


def test_digest_check_catches_a_tampered_output(monkeypatch):
    golden = wl.load_golden()
    items = ["Cyclic(4)", "Dihedral(3)"]
    assert wl.run_round(fgt, "construct", items, golden).failed == 0

    real = fgt.catalog.build_group

    def tampered(spec, budget=fgt.config.Budget()):
        if spec.to_string() == "Cyclic(4)":  # same order, another table
            spec = fgt.catalog.parse_spec("ElementaryAbelian(2,2)")
        return real(spec, budget)

    monkeypatch.setattr(fgt.catalog, "build_group", tampered)
    out = wl.run_round(fgt, "construct", items, golden)
    assert (out.attempted, out.failed, out.first_failure) == (2, 1, "Cyclic(4)")


def test_a_raising_operation_counts_as_failed():
    golden = dict(wl.load_golden(), construct={"Sym(9)": "0" * 64})
    out = wl.run_round(fgt, "construct", ["Sym(9)"], golden)  # an unsupported degree
    assert out.failed == 1 and out.first_failure.startswith("Sym(9): InvalidElementError")


def test_seed_draws_the_same_number_from_the_same_pools():
    golden = wl.load_golden()
    for workload, pools in (("lattice", wl.LATTICE_POOLS), ("construct", wl.construct_pools(golden))):
        canonical = wl.inputs(workload, 0, golden)
        assert canonical == [p[0] for p in pools]
        other = wl.inputs(workload, 5, golden)
        assert other == wl.inputs(workload, 5, golden)
        assert len(other) == len(canonical)
        assert sorted(other) == sorted(next(m for m in p if m in other) for p in pools)
        assert all(spec in golden[workload] for spec in other)
    assert wl.inputs("claims", 3, golden) == wl.inputs("claims", 0, golden)


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    specs = layers.metric_specs(list(wl.load_golden()["claims"]))
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == specs
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)


def test_run_without_the_source_tree_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
