#!/usr/bin/env python3
"""Benchmark this checkout against a base commit with fgtbench, in alternating pairs.

    python3 scripts/bench.py --base HEAD --pairs 10 --out BENCH_7.json

The checkout is the working tree, so ``--base HEAD`` measures uncommitted
changes and ``--base HEAD~1`` the last commit.  The base commit is
exported with ``git archive`` into a temporary directory, which is removed
on exit.  For every pair and workload, ``fgtbench/run.py --trace 0`` runs
once in each tree, one run at a time, the base first in even pairs and the
checkout first in odd ones, so a slow phase of the machine falls on both
sides.  Each tree runs its own ``fgtbench``.  Both trees are byte-compiled
with ``compileall`` before the first pair, so ``setup_s`` compares the code,
not its compilation, even when ``PYTHONDONTWRITEBYTECODE`` is set.

Every workload runs with the benchmark's own defaults for seed and run
length.  The JSON written holds every pair's end-to-end metrics, the
per-side medians and interquartile ranges, the checkout's median over
the base's, and the ``src/fgt`` line count of both sides
(``fgtbench/layers.py``'s ``src_lines``).  Nothing under ``fgtbench/`` is changed.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "fgtbench"))
from layers import src_lines  # noqa: E402

WORKLOADS = ("claims", "lattice", "construct")
METRICS = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def bench(tree: Path, workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "fgtbench/run.py", "--workload", workload, "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} in {tree} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = {name: result["metrics"][name]["value"] for name in METRICS}
    out["failed"] = result["failed"]
    out["attempted"] = result["attempted"]
    return out


def medians(runs: list[dict]) -> dict:
    return {name: statistics.median(r[name] for r in runs) for name in METRICS}


def iqrs(runs: list[dict]) -> dict:
    """Distance between the quartiles of each metric, the spread a median change must exceed (0 for one run)."""
    out = {}
    for name in METRICS:
        values = [r[name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        out[name] = q3 - q1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", default="HEAD", help="commit to compare against (default: HEAD)")
    ap.add_argument("--pairs", type=int, default=3, help="base/checkout run pairs per workload")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    # On SIGTERM unwind, so the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    doc = {
        "base": git("rev-parse", args.base),
        "checkout": {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "src"))},
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "args": {"pairs": args.pairs},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="fgt-bench-base-") as tmp:
        base = Path(tmp)
        export(args.base, base)
        doc["src_fgt_lines"] = {"base": src_lines(base), "checkout": src_lines(ROOT)}
        for tree in (base, ROOT):
            for sub in ("src", "fgtbench"):
                if not compileall.compile_dir(tree / sub, quiet=1):
                    raise RuntimeError(f"byte-compiling {tree / sub} failed")
        for workload in WORKLOADS:
            pairs = []
            for i in range(args.pairs):
                order = ("base", "checkout") if i % 2 == 0 else ("checkout", "base")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = bench(base if side == "base" else ROOT, workload)
                    wall = pair[side]["wall_s"]
                    print(f"{workload} pair {i} {side}: wall_s={wall:.3f}", file=sys.stderr, flush=True)
                pairs.append(pair)
            med = {side: medians([p[side] for p in pairs]) for side in ("base", "checkout")}
            doc["workloads"][workload] = {
                "pairs": pairs,
                "median": med,
                "iqr": {side: iqrs([p[side] for p in pairs]) for side in ("base", "checkout")},
                "checkout_over_base": {m: med["checkout"][m] / med["base"][m] for m in METRICS},
            }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
