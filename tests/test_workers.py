"""One image, or one training batch, on several threads.

``denoise_raw``'s cores, ``run_isp``'s row bands, SSIM's row bands and
``make_pair_batch``'s patches are tasks that ``core._map`` runs on
``core._WORKERS`` threads, as are ``score_pairs``' ground-truth groups
when they fill those CPUs; a ``_map`` inside a task runs inline.  The
bytes and scores must not depend on the worker count or on OpenBLAS's
threads, no thread may outlive a call, and a task's error must reach the
caller.
"""

import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rawbench import core, denoise, harness, isp, metrics, synth
from rawbench.calibration import correct_dark_frame, save_profile
from rawbench.cli import main
from rawbench.core import PackedImage, SPACE_NORMALIZED, write_frame
from rawbench.denoise import DenoiseConfig, denoise_raw
from rawbench.errors import DomainError
from rawbench.isp import IspConfig, run_isp
from rawbench.synth import BatchConfig, make_pair_batch
from rawbench.transforms import PgParams

from conftest import BLACK, WHITE, make_frame, make_profile

WORKERS = (1, 2, 3, 7)
PG = PgParams(K=80.0, sigma=400.0)
DENOISE_CONFIGS = {
    "gat": DenoiseConfig(transform="gat"),
    "ksigma": DenoiseConfig(transform="ksigma"),
    "none": DenoiseConfig(transform="none", sigma_dn=400.0),
}
ISP_CONFIGS = {
    f"{wb_name}-{gamma}": IspConfig(wb=wb, gamma=gamma)
    for wb_name, wb in (("gray", "gray_world"), ("fixed", (2.0, 1.0, 1.5)))
    for gamma in ("srgb", "none")
}


def image(h, w, seed):
    """Normalized planes with zeros, -0.0 and values above 1 after a gain."""
    rng = np.random.default_rng(seed)
    ch = np.linspace(0.02, 0.6, w) + rng.normal(0, 0.05, (4, h, w))
    ch = np.clip(ch, 0.0, 1.0) * (rng.uniform(size=(4, h, w)) < 0.9)
    ch[rng.uniform(size=ch.shape) < 0.05] = -0.0
    return PackedImage(channels=ch, space=SPACE_NORMALIZED, black_level=BLACK, white_level=WHITE)


def per_worker_count(monkeypatch, run):
    """``run()``'s bytes at each worker count in WORKERS, with the thread
    switch interval shortened so that tasks interleave more often."""
    outputs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in WORKERS:
            monkeypatch.setattr(core, "_WORKERS", workers)
            outputs.append(run().tobytes())
    finally:
        sys.setswitchinterval(interval)
    return outputs


def test_map_keeps_input_order():
    for workers in (1, 2, 5):
        assert core._map(lambda x: x * x, range(9), workers) == [x * x for x in range(9)]
    assert core._map(lambda x: x, [], 4) == []


def test_map_inside_a_task_runs_inline():
    # each inner call runs on its outer task's thread: pools do not nest
    def task(_):
        outer = threading.current_thread()
        return core._map(lambda y: threading.current_thread() is outer, range(3), 4)

    assert core._map(task, range(2), 2) == [[True] * 3] * 2


def test_map_runs_tasks_at_once():
    # both tasks must be in flight together, or the barrier times out
    barrier = threading.Barrier(2, timeout=10)

    def task(x):
        barrier.wait()
        return x

    assert core._map(task, [1, 2], 2) == [1, 2]


def test_map_raises_the_first_error_in_input_order_and_starts_no_more():
    # item 1 fails first in time, item 0 first in input order; after them
    # no item starts
    failed, started = threading.Event(), []

    def task(x):
        started.append(x)
        if x == 1:
            failed.set()
            raise KeyError(x)
        if x == 0:
            failed.wait(timeout=10)
            raise ValueError(x)
        return x

    with pytest.raises(ValueError):
        core._map(task, range(6), 2)
    assert sorted(started) == [0, 1]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
def test_worker_count_is_the_cpus_the_process_may_use():
    assert core._WORKERS == len(os.sched_getaffinity(0))


# Cores per channel at _CORE = 224: one (120x100), four with a flush block
# row and column (250x246); at a patched _CORE = 40, 24 (100x70, ragged on
# both axes).  With four channels that is 4, 16 and 96 tasks: fewer and
# more than the worker counts.
@pytest.mark.parametrize("shape, core_side", [((120, 100), 224), ((250, 246), 224),
                                              ((100, 70), 40)])
@pytest.mark.parametrize("transform", sorted(DENOISE_CONFIGS))
def test_denoise_bytes_do_not_depend_on_worker_count(monkeypatch, shape, core_side, transform):
    monkeypatch.setattr(denoise, "_CORE", core_side)
    img = image(*shape, seed=shape[0])
    outputs = per_worker_count(
        monkeypatch, lambda: denoise_raw(img, PG, DENOISE_CONFIGS[transform]).channels)
    assert outputs.count(outputs[0]) == len(WORKERS)


# Bands of 64 output rows (32 plane rows): one (h = 1, 31), two (33), five
# (129, a short last band) and ten (300).
@pytest.mark.parametrize("h, w", [(1, 5), (31, 23), (33, 17), (129, 29), (300, 41)])
@pytest.mark.parametrize("cfg_name", sorted(ISP_CONFIGS))
def test_isp_bytes_do_not_depend_on_worker_count(monkeypatch, h, w, cfg_name):
    img = image(h, w, seed=h)
    outputs = per_worker_count(monkeypatch, lambda: run_isp(img, ISP_CONFIGS[cfg_name]))
    assert outputs.count(outputs[0]) == len(WORKERS)


# 150x141 planes have 140 valid SSIM rows: two bands of 64 and one of 12.
# The dev crop of a 1040x1030 mosaic has 502: seven bands and one of 54.
SSIM_PRED, SSIM_GT = image(150, 141, 3), image(150, 141, 4)


def dev_frame():
    rng = np.random.default_rng(5)
    return make_frame(rng.integers(600, 16000, (1040, 1030)).astype(np.uint16))


SSIM_RUNS = {
    "ssim-image": lambda: np.float64(metrics.ssim(SSIM_PRED, SSIM_GT)),
    "ssim-reference": lambda: np.float64(metrics.ssim(SSIM_PRED, metrics.Reference(
        SSIM_GT, metrics._ssim_stats(SSIM_GT), (300, 282), "dev"))),
    "reference-stats": lambda: metrics.prepare_reference(dev_frame(), "dev").stats,
}


@pytest.mark.parametrize("name", sorted(SSIM_RUNS))
def test_ssim_bytes_do_not_depend_on_worker_count(monkeypatch, name):
    outputs = per_worker_count(monkeypatch, SSIM_RUNS[name])
    assert outputs.count(outputs[0]) == len(WORKERS)


def test_ssim_temporaries_stay_small(monkeypatch):
    # one channel's ratio array (8.2 MB) and each worker's band temporaries;
    # the four channels' ratios at once would be 33 MB
    monkeypatch.setattr(core, "_WORKERS", 2)
    rng = np.random.default_rng(6)
    ref = metrics.prepare_reference(
        make_frame(rng.integers(2000, 14000, (2048, 2048)).astype(np.uint16)), "final")
    pred = image(1024, 1024, 7)
    tracemalloc.start()
    try:
        metrics.ssim(pred, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def synth_profile():
    """ISOs 800 and 3200, each with two 20x20-plane corrected darks."""
    rng = np.random.default_rng(21)
    prof = make_profile(isos=(800, 3200))
    for iso in (800, 3200):
        prof.dark_library[iso] = [
            correct_dark_frame(make_frame(rng.normal(512, 3, (40, 40)).clip(0), iso=iso),
                               np.full((40, 40), 512.0))
            for _ in range(2)
        ]
    return prof


def clean_frames():
    """Three mosaics of different sizes: 48x40, 22x30 and 36x52."""
    rng = np.random.default_rng(8)
    return [make_frame(rng.integers(512, 16383, shape).astype(np.uint16))
            for shape in ((48, 40), (22, 30), (36, 52))]


def pair_bytes(pairs):
    return np.concatenate([np.concatenate([noisy.channels.ravel(), clean.channels.ravel(),
                                           [noisy.iso]]) for noisy, clean in pairs])


# Three frames of four 8x8 patches: 12 tasks, more than any worker count
@pytest.mark.parametrize("dgains", [{"dgain_choices": (100.0, 200.0)},
                                    {"dgain_range": (10.0, 100.0)}], ids=["choices", "range"])
@pytest.mark.parametrize("mode", ["parametric", "dark_sample", "hybrid"])
def test_pair_batch_bytes_do_not_depend_on_worker_count(monkeypatch, mode, dgains):
    frames, prof = clean_frames(), synth_profile()
    sampler = BatchConfig(iso_choices=(800, 3200), mode=mode, **dgains)
    outputs = per_worker_count(monkeypatch, lambda: pair_bytes(make_pair_batch(
        frames, prof, sampler, patch=8, patches_per_image=4, master_seed=3)))
    assert outputs.count(outputs[0]) == len(WORKERS)


def test_overflowing_dgain_fails_on_a_helper_thread(monkeypatch):
    # the caller's patch waits until a helper thread has drawn one, so the
    # helper's patch must raise by itself: np.errstate holds per thread
    draw, done, seen = synth.synthesize_noisy, threading.Event(), []

    def gated_draw(*args):
        helper = threading.current_thread() is not threading.main_thread()
        if not helper:
            done.wait(timeout=10)
        try:
            return draw(*args)
        except DomainError as exc:
            seen.append((helper, str(exc)))
            raise
        finally:
            if helper:
                done.set()

    monkeypatch.setattr(core, "_WORKERS", 2)
    monkeypatch.setattr(synth, "synthesize_noisy", gated_draw)
    sampler = BatchConfig(iso_choices=(800,), dgain_choices=(1e308,), mode="parametric")
    overflow = "dgain 1e+308 at ISO 800 overflows"
    with pytest.raises(DomainError, match=re.escape(overflow)):
        make_pair_batch(clean_frames(), make_profile(), sampler, patch=8,
                        patches_per_image=2, master_seed=0)
    assert any(helper and overflow in msg for helper, msg in seen)


def outputs_across_blas_and_workers(monkeypatch, commands):
    """The bytes of the files that ``commands(tag)`` names after running its
    rawbench argvs: in subprocesses with OpenBLAS at one thread and at its
    default, and in process at one worker.  ``commands`` returns
    ``(paths, argvs)``, both unique to ``tag``."""
    src = str(Path(core.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        paths, argvs = commands(threads or "default")
        for argv in argvs:
            proc = subprocess.run([sys.executable, "-m", "rawbench.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append([p.read_bytes() for p in paths])
    monkeypatch.setattr(core, "_WORKERS", 1)
    paths, argvs = commands("serial")
    for argv in argvs:
        assert main(argv) == 0
    outputs.append([p.read_bytes() for p in paths])
    return outputs


def test_cli_bytes_do_not_depend_on_blas_threads_or_workers(tmp_path, monkeypatch):
    # rawbench denoise then rawbench isp
    rng = np.random.default_rng(11)
    mosaic = rng.normal(600.0 + np.linspace(0, 3000, 520), 40.0, (600, 520))
    write_frame(make_frame(np.clip(mosaic, 0, WHITE).astype(np.uint16)), tmp_path / "in.rawb")
    save_profile(make_profile(), tmp_path / "profile.json")

    def commands(tag):
        den, ppm = tmp_path / f"den_{tag}.rawb", tmp_path / f"img_{tag}.ppm"
        return (den, ppm), [
            ["denoise", "--in", str(tmp_path / "in.rawb"), "--profile",
             str(tmp_path / "profile.json"), "--iso", "800", "--dgain", "4",
             "--transform", "gat", "--out", str(den)],
            ["isp", "--in", str(den), "--out", str(ppm)],
        ]

    outputs = outputs_across_blas_and_workers(monkeypatch, commands)
    assert outputs.count(outputs[0]) == 3


def test_cli_synth_bytes_do_not_depend_on_blas_threads_or_workers(tmp_path, monkeypatch):
    # rawbench synth in hybrid mode on two clean frames of different sizes
    (tmp_path / "clean").mkdir()
    for k, frame in enumerate(clean_frames()[:2]):
        write_frame(frame, tmp_path / "clean" / f"c{k}.rawb")
    save_profile(synth_profile(), tmp_path / "profile.json")
    names = [f"c{k}_p{j:02d}_{kind}.rawb" for k in range(2) for j in range(5)
             for kind in ("noisy", "clean")]

    def commands(tag):
        out = tmp_path / f"pairs_{tag}"
        return [out / name for name in names], [
            ["synth", "--profile", str(tmp_path / "profile.json"), "--clean",
             str(tmp_path / "clean"), "--out", str(out), "--iso-set", "800,3200",
             "--mode", "hybrid", "--patch", "8", "--per-image", "5", "--seed", "9"],
        ]

    outputs = outputs_across_blas_and_workers(monkeypatch, commands)
    assert outputs.count(outputs[0]) == 3


def test_bench_csvs_do_not_depend_on_blas_threads_or_workers(tmp_path, monkeypatch):
    # rawbench bench at the final phase: two teams, two ground truths
    rng = np.random.default_rng(12)
    entries = []
    for g in range(2):
        gt = rng.integers(2000, 14000, (2048, 2050)).astype(np.uint16)
        write_frame(make_frame(gt), tmp_path / f"g{g}.rawb")
        entries.append({"image_id": f"g{g}", "scene_type": "paired", "iso": 800,
                        "noisy_path": f"g{g}.rawb", "gt_path": f"g{g}.rawb"})
        for team, sigma in (("a", 20), ("b", 60)):
            (tmp_path / "preds" / team).mkdir(parents=True, exist_ok=True)
            pred = np.clip(gt + rng.normal(0, sigma, gt.shape), 0, WHITE).astype(np.float32)
            write_frame(make_frame(pred), tmp_path / "preds" / team / f"g{g}.rawb")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"phase": "final", "entries": entries}))

    def commands(tag):
        out = tmp_path / f"out_{tag}"
        return [out / name for name in ("scores.csv", "per_image.csv", "ranktable.csv")], [
            ["bench", "--manifest", str(manifest), "--pred-root", str(tmp_path / "preds"),
             "--out-dir", str(out)],
        ]

    outputs = outputs_across_blas_and_workers(monkeypatch, commands)
    assert outputs.count(outputs[0]) == 3


def score_pairs_input(tmp_path):
    """One prediction for each of two ground truths: two groups."""
    rng = np.random.default_rng(2)
    pairs = []
    for g in range(2):
        gt = rng.integers(2000, 14000, (1024, 1024)).astype(np.uint16)
        write_frame(make_frame(gt), tmp_path / f"g{g}.rawb")
        write_frame(make_frame(np.clip(gt + rng.normal(0, 30, gt.shape), 0, WHITE)
                               .astype(np.float32)), tmp_path / f"p{g}.rawb")
        pairs.append((f"a/g{g}", tmp_path / f"p{g}.rawb", tmp_path / f"g{g}.rawb"))
    return pairs


CALLS = {
    "denoise_raw": lambda tmp_path: denoise_raw(image(250, 246, 1), PG),
    "run_isp": lambda tmp_path: run_isp(image(300, 41, 1)),
    "ssim": lambda tmp_path: metrics.ssim(SSIM_PRED, SSIM_GT),
    "prepare_reference": lambda tmp_path: metrics.prepare_reference(dev_frame(), "dev"),
    "score_pairs": lambda tmp_path: harness.score_pairs(score_pairs_input(tmp_path), "dev",
                                                        threads=2),
    "make_pair_batch": lambda tmp_path: make_pair_batch(
        clean_frames(), synth_profile(), BatchConfig(iso_choices=(800, 3200),
                                                     dgain_choices=(100.0,), mode="hybrid"),
        patch=8, patches_per_image=4, master_seed=0),
}
# a step each call's tasks run, and which of its calls fails: score_pairs'
# two groups make two calls, and ssim's own band tasks start after the 24
# calls (4 channels x 3 bands x 2) that filter its ground truth's terms
TASK_STEPS = {
    "denoise_raw": (denoise, "dct8_shrink", 3),
    "run_isp": (isp, "_demosaic", 3),
    "ssim": (metrics, "_filter_valid", 27),
    "prepare_reference": (metrics, "_filter_valid", 3),
    "score_pairs": (harness, "evaluate_pair", 2),
    "make_pair_batch": (synth, "sample_shot", 3),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_no_thread_outlives_a_call(monkeypatch, tmp_path, name):
    monkeypatch.setattr(core, "_WORKERS", 2)
    before = threading.active_count()
    CALLS[name](tmp_path)
    assert threading.active_count() == before


class Boom(Exception):
    pass


@pytest.mark.parametrize("name", sorted(CALLS))
def test_task_error_reaches_the_caller(monkeypatch, tmp_path, name):
    owner, attr, fail_at = TASK_STEPS[name]
    step, lock, calls = getattr(owner, attr), threading.Lock(), []

    def failing_step(*args, **kwargs):
        with lock:
            calls.append(None)
            fail = len(calls) == fail_at
        if fail:
            raise Boom(f"{attr} call {fail_at} failed")
        return step(*args, **kwargs)

    monkeypatch.setattr(core, "_WORKERS", 2)
    monkeypatch.setattr(owner, attr, failing_step)
    before = threading.active_count()
    with pytest.raises(Boom):
        CALLS[name](tmp_path)
    assert threading.active_count() == before


def test_score_pairs_pools_do_not_nest(monkeypatch, tmp_path):
    # two ground-truth groups on two threads, each scoring SSIM inline: at
    # most two threads filter at once, and no third thread ever filters
    step, lock = metrics._filter_valid, threading.Lock()
    running, most, threads = [0], [0], set()

    def counting_step(x):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
            threads.add(threading.current_thread())
        try:
            return step(x)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(core, "_WORKERS", 2)
    monkeypatch.setattr(metrics, "_filter_valid", counting_step)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        harness.score_pairs(score_pairs_input(tmp_path), "dev", threads=2)
    finally:
        sys.setswitchinterval(interval)
    assert most[0] <= 2 and len(threads) <= 2


# (core._WORKERS, threads, ground truths scored at once)
@pytest.mark.parametrize("workers, threads, at_once", [(1, 2, 2), (2, 2, 2), (2, 1, 1),
                                                       (3, 2, 1)])
def test_score_pairs_runs_groups_at_once_only_on_every_cpu(monkeypatch, tmp_path, workers,
                                                           threads, at_once):
    # groups that fill the CPUs run at once, each inside a _map task (so its
    # SSIM runs inline), and the barrier needs them all; fewer groups than
    # CPUs run one at a time on the caller's thread, outside any task, so
    # each image's SSIM bands get a pool
    prepare, gate, seen = metrics.prepare_reference, threading.Barrier(at_once, timeout=10), []

    def gated_prepare(*args):
        seen.append((threading.current_thread(), getattr(core._in_map, "task", False)))
        gate.wait()
        return prepare(*args)

    monkeypatch.setattr(core, "_WORKERS", workers)
    monkeypatch.setattr(harness, "prepare_reference", gated_prepare)
    harness.score_pairs(score_pairs_input(tmp_path), "dev", threads=threads)
    assert len({thread for thread, _ in seen}) == at_once
    assert [in_task for _, in_task in seen] == [at_once > 1] * 2
