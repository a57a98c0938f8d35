"""Span recorder and per-layer metrics for the traced benchmark run.

Tracing touches no program code.  In the traced run only, ``Tracer.install``
replaces the names one ``rawbench`` module imports from another (and the
public names the benchmark itself calls) with wrappers that record a span:
name, start, end, parent span and item id.  Spans stay in memory until the
run ends.  A wrap point whose attribute no longer exists is recorded as
absent, and every metric that depends only on absent wrap points is left
out rather than reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from contextlib import contextmanager


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _file_bytes(index, name):
    def attrs(args, kwargs, _result):
        path = _arg(args, kwargs, index, name)
        return {"path": os.fspath(path), "bytes": os.path.getsize(path)}

    return attrs


def _plane_attrs(args, kwargs, _result):
    plane = _arg(args, kwargs, 0, "plane")
    stride = _arg(args, kwargs, 3, "stride")
    return {"h": plane.shape[0], "w": plane.shape[1], "stride": 4 if stride is None else stride}


def _pixels_attrs(args, kwargs, _result):
    return {"pixels": int(_arg(args, kwargs, 0, "noisy_norm").channels.size)}


def _dark_frames_attrs(args, kwargs, _result):
    darks = _arg(args, kwargs, 2, "darks_by_iso")
    return {"dark_frames": sum(len(v) for v in darks.values())}


def _pairs_attrs(_args, _kwargs, result):
    return {"pairs": len(result)}


# (importing module, attribute, span name, attribute recorder).  The span
# name is "<layer>.<function>" of the module that defines the function.
WRAP_POINTS = (
    # core, as called by the benchmark and by other layers
    ("rawbench.core", "read_frame", "core.read_frame", _file_bytes(0, "path")),
    ("rawbench.core", "write_frame", "core.write_frame", _file_bytes(1, "path")),
    ("rawbench.core", "write_packed", "core.write_packed", _file_bytes(1, "path")),
    ("rawbench.core", "pack_rggb", "core.pack_rggb", None),
    ("rawbench.core", "unpack_rggb", "core.unpack_rggb", None),
    ("rawbench.core", "normalize", "core.normalize", None),
    ("rawbench.core", "denormalize", "core.denormalize", None),
    ("rawbench.harness", "read_frame", "core.read_frame", _file_bytes(0, "path")),
    ("rawbench.metrics", "pack_rggb", "core.pack_rggb", None),
    ("rawbench.metrics", "normalize", "core.normalize", None),
    ("rawbench.metrics", "center_crop", "core.center_crop", None),
    ("rawbench.synth", "pack_rggb", "core.pack_rggb", None),
    ("rawbench.synth", "normalize", "core.normalize", None),
    ("rawbench.calibration", "crop_frame", "core.crop_frame", None),
    ("rawbench.calibration", "interleave_rggb", "core.interleave_rggb", None),
    ("rawbench.calibration", "write_packed", "core.write_packed", _file_bytes(1, "path")),
    ("rawbench.calibration", "read_packed", "core.read_packed", _file_bytes(0, "path")),
    ("rawbench.isp", "interleave_rggb", "core.interleave_rggb", None),
    # calibration
    ("rawbench.calibration", "build_profile", "calibration.build_profile", _dark_frames_attrs),
    ("rawbench.calibration", "save_profile", "calibration.save_profile", None),
    ("rawbench.calibration", "load_profile", "calibration.load_profile", None),
    ("rawbench.calibration", "estimate_dark_shading", "calibration.estimate_dark_shading", None),
    ("rawbench.calibration", "correct_dark_frame", "calibration.correct_dark_frame", None),
    ("rawbench.calibration", "estimate_read_noise", "calibration.estimate_read_noise", None),
    # synth
    ("rawbench.synth", "make_pair_batch", "synth.make_pair_batch", _pairs_attrs),
    ("rawbench.synth", "synthesize_noisy", "synth.synthesize_noisy", None),
    ("rawbench.synth", "sample_shot", "synth.sample_shot", None),
    ("rawbench.synth", "sample_parametric_read", "synth.sample_parametric_read", None),
    ("rawbench.synth", "sample_dark_patch", "synth.sample_dark_patch", None),
    # transforms, as imported by denoise
    ("rawbench.denoise", "gat_forward", "transforms.gat_forward", None),
    ("rawbench.denoise", "ksigma_forward", "transforms.ksigma_forward", None),
    ("rawbench.denoise", "gat_inverse", "transforms.gat_inverse", None),
    ("rawbench.denoise", "ksigma_inverse", "transforms.ksigma_inverse", None),
    # denoise
    ("rawbench.denoise", "effective_pg_params", "denoise.effective_pg_params", None),
    ("rawbench.denoise", "denoise_raw", "denoise.denoise_raw", _pixels_attrs),
    ("rawbench.denoise", "dct8_shrink", "denoise.dct8_shrink", _plane_attrs),
    # isp
    ("rawbench.isp", "run_isp", "isp.run_isp", None),
    ("rawbench.isp", "write_ppm16", "isp.write_ppm16", _file_bytes(1, "path")),
    ("rawbench.isp", "gray_world_gains", "isp.gray_world_gains", None),
    ("rawbench.isp", "srgb_gamma", "isp.srgb_gamma", None),
    # metrics
    ("rawbench.harness", "evaluate_pair", "metrics.evaluate_pair", None),
    ("rawbench.metrics", "ssim", "metrics.ssim", None),
    ("rawbench.metrics", "psnr", "metrics.psnr", None),
    # ranking
    ("rawbench.harness", "final_table", "ranking.final_table", None),
    ("rawbench.ranking", "category_scores", "ranking.category_scores", None),
    ("rawbench.ranking", "majority_tiebreak", "ranking.majority_tiebreak", None),
    # budget
    ("rawbench.budget", "load_model_spec", "budget.load_model_spec", None),
    ("rawbench.budget", "build_report", "budget.build_report", None),
    ("rawbench.budget", "check_constraints", "budget.check_constraints", None),
    # harness
    ("rawbench.harness", "load_manifest", "harness.load_manifest", None),
    ("rawbench.harness", "run_benchmark", "harness.run_benchmark", None),
    ("rawbench.harness", "ingest_external_scores", "harness.ingest_external_scores", None),
    ("rawbench.harness", "write_ranktable", "harness.write_ranktable", None),
)


class Tracer:
    """In-memory span recorder with wrappers installed on module attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self.item = None  # item id stamped on every span opened from now on
        self.installed: set[str] = set()  # span names with at least one live wrap point
        self.absent: list[str] = []  # "module.attr" wrap points that no longer exist
        self.hooks: dict[str, object] = {}  # span name -> callable(args, kwargs), run before the call
        self._originals: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        self._next_id += 1
        rec = {"id": self._next_id, "parent": stack[-1] if stack else None, "name": name,
               "item": self.item, "start": time.perf_counter_ns(), "end": None}
        self.spans.append(rec)
        stack.append(rec["id"])
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = self._open(name)
        if attrs:
            rec["attrs"] = attrs
        try:
            yield rec
        finally:
            self._close(rec)

    def install(self, wrap_points=WRAP_POINTS) -> None:
        self.absent = []
        for module_name, attr, name, recorder in wrap_points:
            owner = importlib.import_module(module_name)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(owner, attr, self._wrapper(fn, name, recorder))
            self._originals.append((owner, attr, fn))
            self.installed.add(name)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def _wrapper(self, fn, name, recorder):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(args, kwargs)
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if recorder is not None:
                rec["attrs"] = recorder(args, kwargs, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# Deriving per-layer metrics from spans
# ---------------------------------------------------------------------------

# metric -> span names whose busy time (inclusive, outermost within the
# group, so nested members are not counted twice) it sums, in ms
BUSY_MS = {
    "core.read_frame.ms": ("core.read_frame",),
    "core.write.ms": ("core.write_frame", "core.write_packed"),
    "core.pack_normalize.ms": (
        "core.pack_rggb", "core.unpack_rggb", "core.normalize", "core.denormalize",
        "core.interleave_rggb", "core.center_crop",
    ),
    "calibration.build_profile.ms": ("calibration.build_profile",),
    "calibration.save_profile.ms": ("calibration.save_profile",),
    "calibration.load_profile.ms": ("calibration.load_profile",),
    "synth.make_pair_batch.ms": ("synth.make_pair_batch",),
    "synth.sample_shot.ms": ("synth.sample_shot",),
    "transforms.forward.ms": ("transforms.gat_forward", "transforms.ksigma_forward"),
    "transforms.inverse.ms": ("transforms.gat_inverse", "transforms.ksigma_inverse"),
    "denoise.denoise_raw.ms": ("denoise.denoise_raw",),
    "denoise.dct8_shrink.ms": ("denoise.dct8_shrink",),
    "isp.run_isp.ms": ("isp.run_isp",),
    "isp.write_ppm16.ms": ("isp.write_ppm16",),
    "metrics.evaluate_pair.ms": ("metrics.evaluate_pair",),
    "metrics.ssim.ms": ("metrics.ssim",),
    "metrics.psnr.ms": ("metrics.psnr",),
    "ranking.final_table.ms": ("ranking.final_table",),
    "budget.build_report.ms": ("budget.build_report",),
    "harness.run_benchmark.ms": ("harness.run_benchmark",),
    "harness.load_manifest.ms": ("harness.load_manifest",),
    "harness.ingest_external.ms": ("harness.ingest_external_scores",),
}

# metric -> (span names, attribute summed; None counts spans)
COUNTS = {
    "core.read_bytes": (("core.read_frame", "core.read_packed"), "bytes"),
    "core.write_bytes": (("core.write_frame", "core.write_packed"), "bytes"),
    "calibration.dark_frames": (("calibration.build_profile",), "dark_frames"),
    "synth.patches": (("synth.make_pair_batch",), "pairs"),
    "denoise.dct8_shrink.calls": (("denoise.dct8_shrink",), None),
    "metrics.pairs": (("metrics.evaluate_pair",), None),
    "budget.specs": (("budget.build_report",), None),
}

_BLOCK = 8


def _block_count(extent: int, stride: int) -> int:
    """Sliding 8-wide blocks at ``stride`` plus the flush block at the far edge."""
    n = (extent - _BLOCK) // stride + 1
    return n + (0 if (n - 1) * stride == extent - _BLOCK else 1)


def busy_ms(spans: list[dict], names) -> float:
    """Inclusive ms of spans in ``names``, skipping any nested inside another of ``names``."""
    names = set(names)
    by_id = {s["id"]: s for s in spans}
    total = 0
    for s in spans:
        if s["name"] not in names:
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent["parent"])
        if parent is None:
            total += s["end"] - s["start"]
    return total / 1e6


def self_ns(spans: list[dict]) -> dict[int, int]:
    """Span id -> its duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(tracer: Tracer, gt_dir: str | None = None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass as {name: (value, unit)}.

    Times and counts of layers the workload never calls read 0; a metric
    whose wrap points are all absent is omitted.
    """
    spans = tracer.spans
    live = tracer.installed
    out: dict[str, tuple[float, str]] = {}

    def named(names):
        return [s for s in spans if s["name"] in names]

    for metric, names in BUSY_MS.items():
        if live.intersection(names):
            out[metric] = (busy_ms(spans, names), "ms")
    for metric, (names, attr) in COUNTS.items():
        if live.intersection(names):
            sel = named(names)
            value = len(sel) if attr is None else sum(s["attrs"][attr] for s in sel)
            out[metric] = (value, "count" if attr != "bytes" else "B")

    if "core.read_frame" in live:
        gt_paths = [
            s["attrs"]["path"] for s in named({"core.read_frame"})
            if gt_dir is not None and os.path.dirname(s["attrs"]["path"]) == gt_dir
        ]
        out["core.gt_reads_per_unique"] = (
            len(gt_paths) / len(set(gt_paths)) if gt_paths else 0.0, "ratio"
        )
    if {"synth.sample_dark_patch", "synth.sample_parametric_read"} <= live:
        dark = len(named({"synth.sample_dark_patch"}))
        draws = dark + len(named({"synth.sample_parametric_read"}))
        out["synth.dark_pick_ratio"] = (dark / draws if draws else 0.0, "ratio")
    if {"denoise.dct8_shrink", "denoise.denoise_raw"} <= live:
        shrinks = named({"denoise.dct8_shrink"})
        out["denoise.blocks"] = (
            sum(_block_count(a["h"], a["stride"]) * _block_count(a["w"], a["stride"])
                for a in (s["attrs"] for s in shrinks)),
            "count",
        )
        plane_px = sum(s["attrs"]["pixels"] for s in named({"denoise.denoise_raw"}))
        shrunk_px = sum(s["attrs"]["h"] * s["attrs"]["w"] for s in shrinks)
        out["denoise.halo_ratio"] = (shrunk_px / plane_px if plane_px else 0.0, "ratio")
    if "harness.run_benchmark" in live:
        own = self_ns(spans)
        out["harness.self_ms"] = (
            sum(own[s["id"]] for s in named({"harness.run_benchmark"})) / 1e6, "ms"
        )
    return out


def span_coverage_pct(tracer: Tracer) -> float:
    """Share of the benchmark's own item spans covered by program spans, in %."""
    own = self_ns(tracer.spans)
    roots = [s for s in tracer.spans if s["name"].startswith("bench.")]
    wall = sum(s["end"] - s["start"] for s in roots if s["parent"] is None)
    if not wall:
        return 0.0
    return 100.0 * (1.0 - sum(own[s["id"]] for s in roots) / wall)


def span_trees(tracer: Tracer) -> dict[str, list[dict]]:
    """Spans grouped by item id, nested by parent, times in ms from the first span."""
    if not tracer.spans:
        return {}
    t0 = min(s["start"] for s in tracer.spans)
    nodes = {}
    for s in tracer.spans:
        node = {"name": s["name"], "start_ms": (s["start"] - t0) / 1e6,
                "ms": (s["end"] - s["start"]) / 1e6}
        if s.get("attrs"):
            node["attrs"] = s["attrs"]
        nodes[s["id"]] = (s, node)
    trees: dict[str, list[dict]] = {}
    for s, node in nodes.values():
        parent = nodes.get(s["parent"])
        if parent is not None and parent[0]["item"] == s["item"]:
            parent[1].setdefault("children", []).append(node)
        else:
            trees.setdefault(str(s["item"]), []).append(node)
    return trees
