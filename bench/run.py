"""rawbench benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Without ``--workload`` every workload
in BENCHMARK.json runs in turn.  With ``--trace 0`` a run sets up its
seeded inputs several times (``setup_s`` is the median), then measures in
a fresh process for S seconds of program time.  With ``--trace 1`` it
sets up once and reports the per-layer metrics of a traced run instead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Each phase runs in its own child process (``bench/worker.py``), so input
generation never inflates the measured peak RSS.  Files are written only
under ``.bench_work/`` in the checkout; a traced run leaves its run record
and spans in ``.bench_work/trace/<workload>-seed<N>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
DEADLINE_S = 170  # a run must end within 180 s, children included


class BenchError(Exception):
    pass


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _child(phase: str, args, work: Path) -> dict:
    """Run one worker phase to completion and return its result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), phase, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--work", str(work)]
    timeout = args.deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} phase did not finish before the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{phase} phase exited with code {proc.returncode}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def _measure(args, work: Path) -> dict:
    """Set up and measure SETUP_REPEATS times, each measuring a share of --seconds.

    The host's speed varies per process and over tens of seconds, so the
    measured rounds are spread over several fresh processes placed between
    the set-ups rather than taken in one stretch.
    """
    chunk = argparse.Namespace(**{**vars(args), "seconds": args.seconds / SETUP_REPEATS})
    setups, parts = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _child("setup", args, work)
        setups.append(time.perf_counter() - t0)
        parts.append(_child("measure", chunk, work))
    problems = [p for part in parts for p in part["problems"]]
    if any(part["digests"] != parts[0]["digests"] for part in parts):
        problems.append("output digests differ between measuring processes")
    return {
        "setups": setups,
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "problems": problems,
        "round_rates": [r for part in parts for r in part["round_rates"]],
        "busy_s": sum(part["busy_s"] for part in parts),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
    }


def run_workload(args) -> dict:
    if not (ROOT / "src" / "rawbench" / "__init__.py").is_file():
        raise BenchError(f"no rawbench sources under {ROOT / 'src'}")
    work = ROOT / ".bench_work" / f"run-{os.getpid()}-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            _child("setup", args, work)
            res = _child("trace", args, work)
            metrics = res["layer_metrics"]
            if res["absent"]:
                print(f"absent wrap points (metrics left out): {', '.join(res['absent'])}")
            print(f"run record: {res['record']}/run.json")
        else:
            res = _measure(args, work)
            metrics = {
                "items_per_s": {"value": statistics.median(res["round_rates"]), "unit": "1/s"},
                "setup_s": {"value": statistics.median(res["setups"]), "unit": "s"},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            }
            print(f"rounds: {len(res['round_rates'])} in {SETUP_REPEATS} processes, program time "
                  f"{res['busy_s']:.2f} s, setups {', '.join(f'{s:.3f}' for s in res['setups'])} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    error_rate = res["failed"] / res["attempted"]
    for name, m in sorted(metrics.items()):
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate = {error_rate:.6g} ratio "
          f"({res['failed']} of {res['attempted']} items failed)")
    return {"correct": res["failed"] == 0 and not res["problems"],
            "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, help="one workload name (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="program time measured per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = _spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        for name in [args.workload] if args.workload else names:
            args.workload = name
            args.deadline = time.monotonic() + DEADLINE_S
            print(json.dumps(run_workload(args)), flush=True)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
