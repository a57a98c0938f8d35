"""One benchmark phase in a fresh process: set up, measure, or trace a workload.

    python3 bench/worker.py {setup,measure,trace} --workload W --seed N --seconds S --work DIR

``setup`` generates the seeded inputs under DIR/inputs and warms up once.
``measure`` warms up, then runs whole rounds (every unit of the workload
once) in a closed loop, one thread, until S seconds of program time have
passed; its peak RSS therefore excludes input generation.  ``trace`` runs
untraced and traced rounds in turn and derives the per-layer metrics.
The phase writes its result to DIR/result.json.  ``rawbench`` is imported
from the checkout's ``src/`` and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    import rawbench
except ImportError as exc:
    sys.exit(f"benchmark: cannot import rawbench from {SRC}: {exc}")
if Path(rawbench.__file__).resolve().parent != SRC / "rawbench":
    sys.exit(f"benchmark: rawbench resolved to {rawbench.__file__}, not {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import inputs  # noqa: E402  (needs rawbench on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402

WARNING_KINDS = {
    "metadata mismatch": "metrics.meta_mismatch_warnings",
    "exact pairwise tie": "ranking.tiebreak_fallbacks",
}


class Loop:
    """Runs rounds of a workload and keeps the counts every phase reports."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.warnings: list[str] = []
        self.last_output = None  # output of the last unit that ran without raising

    @contextmanager
    def capture(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield caught
        self.warnings += [str(w.message) for w in caught]

    def unit(self, unit, tracer=None, **kw) -> float:
        """Run and check one unit; return its program wall time in seconds."""
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = self.wl.run(unit, **kw)
            else:
                with tracer.span("bench.unit", unit=unit.name):
                    output = self.wl.run(unit, **kw)
            problems = []
        except Exception:  # the loop must go on: a raising unit is a failed unit
            problems = [traceback.format_exc()]
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        if not problems:
            self.last_output = output
            problems = self.wl.check(unit, output)
        self.attempted += unit.items
        if problems:
            self.failed += unit.items
            self.problems += problems
        return wall

    def round(self, **kw) -> float:
        """Run every unit once, untraced; return the program wall time."""
        return sum(self.unit(unit, **kw) for unit in self.wl.units)


def warning_counts(messages: list[str]) -> dict[str, int]:
    counts = dict.fromkeys(WARNING_KINDS.values(), 0)
    for msg in messages:
        for prefix, metric in WARNING_KINDS.items():
            if msg.startswith(prefix):
                counts[metric] += 1
    return counts


def phase_setup(args, work: Path) -> dict:
    shutil.rmtree(work / "inputs", ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    inputs.GENERATORS[args.workload](work / "inputs", args.seed)
    loop = Loop(workloads.WORKLOADS[args.workload](work, args.seed))
    with loop.capture():
        loop.wl.warm_up()
    return {}


def phase_measure(args, work: Path) -> dict:
    loop = Loop(workloads.WORKLOADS[args.workload](work, args.seed))
    rates = []
    with loop.capture():
        loop.wl.warm_up()
        busy = 0.0
        wall = 0.0
        while busy + wall / 2 < args.seconds:  # stop at the round end nearest to S
            items_before = loop.attempted
            wall = loop.round()
            busy += wall
            rates.append((loop.attempted - items_before) / wall)
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems[:20],
        "round_rates": rates,
        "busy_s": busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": loop.wl.digests,
    }


def post_vst_std(wl) -> float | None:
    """Std of GAT-stabilised noise over pixels with electron mean > 10 (should be ~1)."""
    gat_forward = getattr(rawbench.transforms, "gat_forward", None)
    if gat_forward is None:
        return None
    resid = []
    for name, _, _, iso, dgain, _, _ in inputs.SCENES:
        planes = {}
        for role in ("noisy", "clean"):
            frame = rawbench.core.read_frame(wl.inputs / "scenes" / f"{name}_{role}.rawb")
            planes[role] = frame.data.astype(np.float64) - inputs.BLACK  # DN above black
        pg = rawbench.denoise.effective_pg_params(wl.profile.params_for(iso), dgain)
        mask = planes["clean"] / pg.K > 10.0
        resid.append(gat_forward(planes["noisy"][mask], pg) - gat_forward(planes["clean"][mask], pg))
    resid = np.concatenate(resid)
    return float(np.std(resid)) if resid.size > 1000 else None


def git_revision() -> str | None:
    """Commit of the checkout read from .git with the stdlib, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def phase_trace(args, work: Path) -> dict:
    wl = workloads.WORKLOADS[args.workload](work, args.seed)
    loop = Loop(wl)
    with loop.capture():
        wl.warm_up()
        loop.round()  # a whole round, so neither side of the first pair runs cold
    # Each unit runs untraced and traced back to back, in alternating order,
    # so slow drifts of the machine's speed cancel out of the overhead.
    first, ratios = None, []
    t_start = time.perf_counter()
    while first is None or time.perf_counter() - t_start < args.seconds / 2:
        tracer = tracing.Tracer()
        if args.workload == "score_final":
            _item_hooks(tracer, wl)
        traced_warnings = []
        for unit in wl.units:
            walls = {}
            for traced in (False, True) if len(ratios) % 2 == 0 else (True, False):
                tracer.item = unit.name
                with loop.capture() as caught:
                    walls[traced] = loop.unit(unit, tracer if traced else None)
                if traced:
                    traced_warnings += caught
            ratios.append(walls[True] / walls[False])
        if first is None:
            first, first_warnings, first_output = tracer, traced_warnings, loop.last_output

    metrics = tracing.layer_metrics(first, gt_dir=getattr(wl, "gt_dir", None))
    metrics["trace_overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
    metrics["trace.span_coverage_pct"] = (tracing.span_coverage_pct(first), "%")
    for name, count in warning_counts([str(w.message) for w in first_warnings]).items():
        metrics[name] = (count, "count")

    speedup = vst = 0.0
    fit = {"sigma_read": 0.0, "sigma_row": 0.0}
    if args.workload == "score_final":
        with loop.capture():
            two = loop.round(threads=2)
            one = loop.round(threads=1)
        speedup = one / two
    elif args.workload == "denoise_render":
        vst = post_vst_std(wl)
    else:
        fit = wl.fit_errors(first_output[0])
    metrics["harness.pool_speedup_2t"] = (speedup, "x")
    if vst is not None:
        metrics["transforms.post_vst_std"] = (vst, "ratio")
    metrics["calibration.sigma_read_rel_err"] = (fit["sigma_read"], "ratio")
    metrics["calibration.sigma_row_rel_err"] = (fit["sigma_row"], "ratio")

    record_dir = ROOT / ".bench_work" / "trace" / f"{args.workload}-seed{args.seed}"
    record_dir.mkdir(parents=True, exist_ok=True)
    (record_dir / "trace.json").write_text(json.dumps(first.spans) + "\n", encoding="utf-8")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_revision": git_revision(),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "rawbench": rawbench.__version__},
        "nproc": os.cpu_count(),
        "traced_vs_untraced_unit_wall": ratios,
        "absent_wrap_points": first.absent,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "warnings": loop.warnings,
        "problems": loop.problems,
        "digests": wl.digests,
        "span_trees": tracing.span_trees(first),
    }
    (record_dir / "run.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems[:20],
        "layer_metrics": record["metrics"],
        "absent": first.absent,
        "record": os.fspath(record_dir.relative_to(ROOT)),
    }


def _item_hooks(tracer, wl) -> None:
    """score_final: stamp each team x image score's spans with "team/image"."""

    def on_read(args, kwargs):
        path = Path(args[0] if args else kwargs["path"])
        if path.parent.parent == wl.pred_root:
            tracer.item = f"{path.parent.name}/{path.stem}"

    def on_merge(_args, _kwargs):
        tracer.item = "round"

    tracer.hooks["core.read_frame"] = on_read
    tracer.hooks["harness.ingest_external_scores"] = on_merge


PHASES = {"setup": phase_setup, "measure": phase_measure, "trace": phase_trace}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=sorted(PHASES))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    result = PHASES[args.phase](args, args.work)
    (args.work / "result.json").write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
