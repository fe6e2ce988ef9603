"""fgt benchmark: runs one workload and prints its metrics.

    python3 fgtbench/run.py --workload claims --seed 0 --seconds 36 --trace 0

Runs rounds of one workload, each in a fresh worker process (module caches
would make repeats free), one worker at a time.  Another round starts while
the elapsed time plus half a round stays within --seconds, so a run ends
within about half a round of --seconds.  Every output is checked against golden.json.  The last
stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over rounds,
no wrappers installed).  With --trace 1 untraced and traced rounds
alternate; the metrics are the per-layer ones from the traced rounds plus
the tracing overhead against the untraced rounds.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

MIN_SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # the whole run, set-up samples included, ends before this

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    timeout = max(1.0, deadline - time.monotonic())
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args, "--spawned-at", repr(spawned_at)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped the worker
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    untraced, traced, setups = [], [], []
    while True:
        is_traced = trace and len(untraced) > len(traced)
        t = time.monotonic()
        r = spawn(["--workload", workload, "--seed", str(seed), "--trace", str(int(is_traced))], deadline)
        took = time.monotonic() - t
        (traced if is_traced else untraced).append(r)
        setups.append(r["setup_s"])
        first = r.get("first_failure")
        print(f"round {len(untraced) + len(traced)}: traced={int(is_traced)} wall_s={r['wall_s']:.3f} "
              f"failed={r['failed']}/{r['attempted']}" + (f" first={first}" if first else ""),
              file=sys.stderr, flush=True)
        need_pair = trace and not traced
        elapsed = time.monotonic() - start
        if elapsed + took > DEADLINE_S - 10 or (not need_pair and elapsed + took / 2 > seconds):
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(["--workload", workload, "--setup-only"], deadline)["setup_s"])

    rounds = untraced + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if trace:
        metrics = {}
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        wall = statistics.median(r["wall_s"] for r in untraced)
        metrics["trace.overhead_frac"] = statistics.median(r["wall_s"] for r in traced) / wall - 1.0
        from layers import src_lines, unit_of

        metrics["code.src_fgt_lines"] = src_lines(ROOT)
        out = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        out = {}
        for name, unit in END_TO_END:
            samples = setups if name == "setup_s" else [r[name] for r in untraced]
            out[name] = {"value": statistics.median(samples), "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "fgt" / "__init__.py").is_file():
        print(f"error: no fgt source under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
