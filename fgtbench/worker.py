"""One measured round of a workload, in a fresh process.

Started by run.py; prints one JSON object on its last stdout line:
setup_s (spawn to fgt imported), wall_s (first call into fgt to the last
verified result), cpu_s and peak_rss_mb of this process, the operation
counts, and with --trace 1 the per-layer metrics of the round.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / ".bench_out"
FGT_MODULES = ("fields", "groups", "catalog", "lattice", "predicates", "claims", "cli", "config")


def import_fgt():
    """Import fgt and all its modules from this checkout's src/."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import importlib

    fgt = importlib.import_module("fgt")
    if not Path(fgt.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"fgt imported from {fgt.__file__}, not from {src}")
    for name in FGT_MODULES:
        importlib.import_module(f"fgt.{name}")
    return fgt


def write_spans(path: Path, spans) -> None:
    path.parent.mkdir(exist_ok=True)
    fields = ("id", "parent", "name", "detail", "thread", "start", "end",
              "group_inits", "lattice_inits", "closures")
    with open(path, "w") as fh:
        for sp in spans:
            fh.write(json.dumps(dict(zip(fields, sp))) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    fgt = import_fgt()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads as wl

    golden = wl.load_golden()
    items = wl.inputs(args.workload, args.seed, golden)
    tracer = None
    if args.trace:
        from tracer import Tracer, install_fgt

        tracer = install_fgt(Tracer())
    try:
        t0 = time.perf_counter()
        outcome = wl.run_round(fgt, args.workload, items, golden,
                               span=tracer.root_span if tracer else None)
        wall_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "first_failure": outcome.first_failure,
    }
    if tracer is not None:
        from layers import layer_metrics

        result["layers"] = layer_metrics(tracer.stats(), tracer.spans, list(golden["claims"]))
        write_spans(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
