"""One image on several threads.

``denoise_raw``'s cores and ``run_isp``'s row bands are tasks that
``core._map`` runs on ``core._WORKERS`` threads, as are ``score_pairs``'
ground-truth groups on ``threads``.  The bytes must not depend on the
worker count or on OpenBLAS's threads, no thread may outlive a call, and a
task's error must reach the caller.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from rawbench import core, denoise, harness, isp
from rawbench.calibration import save_profile
from rawbench.cli import main
from rawbench.core import PackedImage, SPACE_NORMALIZED, write_frame
from rawbench.denoise import DenoiseConfig, denoise_raw
from rawbench.isp import IspConfig, run_isp
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


def test_map_runs_tasks_at_once():
    # both tasks must be in flight together, or the barrier times out
    barrier = threading.Barrier(2, timeout=10)

    def task(x):
        barrier.wait()
        return x

    assert core._map(task, [1, 2], 2) == [1, 2]


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


def test_cli_bytes_do_not_depend_on_blas_threads_or_workers(tmp_path, monkeypatch):
    # rawbench denoise then rawbench isp, in subprocesses with OpenBLAS at one
    # thread and at its default, and in process at one worker
    rng = np.random.default_rng(11)
    mosaic = rng.normal(600.0 + np.linspace(0, 3000, 520), 40.0, (600, 520))
    write_frame(make_frame(np.clip(mosaic, 0, WHITE).astype(np.uint16)), tmp_path / "in.rawb")
    save_profile(make_profile(), tmp_path / "profile.json")

    def commands(tag):
        den, ppm = tmp_path / f"den_{tag}.rawb", tmp_path / f"img_{tag}.ppm"
        return den, ppm, [
            ["denoise", "--in", str(tmp_path / "in.rawb"), "--profile",
             str(tmp_path / "profile.json"), "--iso", "800", "--dgain", "4",
             "--transform", "gat", "--out", str(den)],
            ["isp", "--in", str(den), "--out", str(ppm)],
        ]

    src = str(Path(core.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        den, ppm, argvs = commands(threads or "default")
        for argv in argvs:
            proc = subprocess.run([sys.executable, "-m", "rawbench.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append((den.read_bytes(), ppm.read_bytes()))
    monkeypatch.setattr(core, "_WORKERS", 1)
    den, ppm, argvs = commands("serial")
    for argv in argvs:
        assert main(argv) == 0
    outputs.append((den.read_bytes(), ppm.read_bytes()))
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
    "score_pairs": lambda tmp_path: harness.score_pairs(score_pairs_input(tmp_path), "dev",
                                                        threads=2),
}
# a step each call's tasks run, and which of its calls fails: score_pairs'
# two groups make two calls
TASK_STEPS = {
    "denoise_raw": (denoise, "dct8_shrink", 3),
    "run_isp": (isp, "_demosaic", 3),
    "score_pairs": (harness, "evaluate_pair", 2),
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
