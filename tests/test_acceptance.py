"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v``; the conftest hook prints
one ACCEPTANCE PASS/FAIL line per criterion.
"""

import time

import numpy as np
import pytest

from rawbench.budget import (
    BudgetReport,
    LayerSpec,
    check_constraints,
    count_macs,
    count_params,
)
from rawbench.calibration import (
    NoiseParams,
    correct_dark_frame,
    estimate_read_noise,
    estimate_system_gain,
)
from rawbench.core import (
    PackedImage,
    SPACE_NORMALIZED,
    denormalize,
    normalize,
    pack_rggb,
    read_frame,
    unpack_rggb,
    write_frame,
)
from rawbench.denoise import DenoiseConfig, denoise_raw, effective_pg_params
from rawbench.metrics import psnr, ssim
from rawbench.ranking import final_table, majority_tiebreak
from rawbench.synth import (
    SynthConfig,
    sample_parametric_read,
    sample_shot,
    synthesize_noisy,
)
from rawbench.transforms import (
    PgParams,
    gat_forward,
    gat_inverse,
    ksigma_forward,
    ksigma_inverse,
)

from conftest import (
    BLACK,
    FIDELITY_POSITIONS,
    PERCEPTUAL_POSITIONS,
    WHITE,
    make_frame,
    make_profile,
    patch_core,
)

SPAN = WHITE - BLACK[0]


@pytest.fixture
def clock():
    start = time.perf_counter()
    yield lambda: time.perf_counter() - start


def test_criterion_1_ranking_reproduction(table1_records, clock):
    table = final_table(table1_records)
    assert table.positions["fidelity"] == FIDELITY_POSITIONS
    assert table.positions["perceptual"] == PERCEPTUAL_POSITIONS
    # the published tie resolutions, checked directly
    first, second = majority_tiebreak("HIT-IIL", "MSA-Net", table1_records,
                                      ("lpips", "arniqa", "topiq"))
    assert (first, second) == ("MSA-Net", "HIT-IIL")
    assert table.positions["perceptual"]["MSA-Net"] == 5
    assert table.positions["perceptual"]["HIT-IIL"] == 6
    first, second = majority_tiebreak("MR-CAS", "IPIU-LAB", table1_records)
    assert first == "MR-CAS"  # wins 3 of the 5 metrics
    # overall column is not reproducible from the published seven rows; the
    # recomputed average ranking scores are the contract instead
    overall = {"IPIU-LAB": 2.2, "MR-CAS": 2.6, "HIT-IIL": 4.0, "VMCL-ISP": 4.2,
               "DIPLab": 4.4, "MSA-Net": 4.8, "MS-Unet": 5.8}
    for team, score in overall.items():
        assert table.scores["overall"][team] == pytest.approx(score, abs=1e-12)
    assert clock() < 1.0


def test_criterion_2_budget_boundaries(clock):
    def report(params, macs):
        return BudgetReport(total_params=params, total_macs=macs)

    assert check_constraints(report(15_000_000, 149_990_000_000)).passed
    assert not check_constraints(report(15_000_001, 1)).passed
    assert not check_constraints(report(15_000_001, 149_000_000_000)).passed
    assert not check_constraints(report(15_000_000, 150_000_000_000)).passed
    assert not check_constraints(report(1, 150_000_000_000)).passed
    # published operating point: 14.92 M params, 93.93 GMacs
    assert check_constraints(report(14_920_000, 93_930_000_000)).passed
    assert clock() < 1.0


def test_criterion_3_bgc_accounting(clock):
    def macs_oracle(layer, h, w):
        n = 0
        if layer.kind == "conv2d":
            for _ in range(h):
                for _ in range(w):
                    n += layer.in_ch * layer.out_ch * layer.kernel**2
        else:  # bgc
            for _ in range(layer.period_n**2):
                for _ in range(h // layer.period_n):
                    for _ in range(w // layer.period_n):
                        n += layer.in_ch * layer.out_ch * layer.kernel**2
        return n

    def params_oracle(layer):
        groups = layer.period_n**2 if layer.kind == "bgc" else 1
        n = 0
        for _ in range(groups):
            for _ in range(layer.out_ch):
                n += layer.in_ch * layer.kernel**2
                if layer.bias:
                    n += 1
        return n

    for in_ch in range(1, 5):
        for out_ch in range(1, 5):
            for k in (1, 3):
                for hw in (4, 8, 16):
                    conv = LayerSpec("conv2d", in_ch=in_ch, out_ch=out_ch, kernel=k)
                    bgc = LayerSpec("bgc", in_ch=in_ch, out_ch=out_ch, kernel=k, period_n=2)
                    shape = (1, in_ch, hw, hw)
                    conv_macs = count_macs([conv], shape)
                    bgc_macs = count_macs([bgc], shape)
                    assert conv_macs == bgc_macs
                    assert conv_macs == macs_oracle(conv, hw, hw)
                    assert bgc_macs == macs_oracle(bgc, hw, hw)
                    assert count_params([bgc]) == 4 * count_params([conv])
                    assert count_params([conv]) == params_oracle(conv)
                    assert count_params([bgc]) == params_oracle(bgc)
    assert clock() < 1.0


def test_criterion_4_variance_stabilization(clock):
    rng = np.random.default_rng(2024)
    n = 10**6
    for K in (0.5, 0.8, 2.0):
        for sigma in (0.0, 2.0, 8.0):
            p = PgParams(K=K, sigma=sigma)
            for e in (10.0, 100.0, 1000.0):
                y = K * rng.poisson(e, n) + (rng.normal(0.0, sigma, n) if sigma else 0.0)
                var_t = float(np.var(gat_forward(y, p)))
                assert 0.95 <= var_t <= 1.05, (K, sigma, e, var_t)
                f = ksigma_forward(y, p)
                rel = abs(np.var(f) - np.mean(f)) / np.mean(f)
                assert rel <= 0.03, (K, sigma, e, rel)
    assert clock() < 60.0


def test_criterion_5_synthesis_moment_law(clock):
    cells = [
        # (K, sigma_read, sigma_row, quant, dgain, clean, iso)
        (0.8, 4.0, 2.0, 1.0, 100.0, 0.25, 800),
        (1.6, 6.0, 1.5, 1.0, 200.0, 0.45, 1600),
        (3.2, 3.0, 1.0, 0.0, 10.0, 0.05, 3200),
    ]
    for K, sr, srow, q, dgain, clean_v, iso in cells:
        prof = make_profile(K=K, sigma_read=sr, sigma_row=srow, quant_step=q, isos=(iso,))
        clean = PackedImage(channels=np.full((4, 500, 500), clean_v),
                            space=SPACE_NORMALIZED, black_level=BLACK, white_level=WHITE)
        noisy = synthesize_noisy(clean, prof,
                                 SynthConfig(iso=iso, dgain=dgain, mode="parametric", seed=11),
                                 clip=False)
        mu_dn = clean_v * SPAN / dgain
        pred_var = dgain**2 * (K * mu_dn + sr**2 + srow**2 + q**2 / 12.0) / SPAN**2
        mean_err = abs(noisy.channels.mean() - clean_v) / clean_v
        var_err = abs(noisy.channels.var() - pred_var) / pred_var
        assert mean_err <= 0.005, (K, dgain, mean_err)
        assert var_err <= 0.03, (K, dgain, var_err)
    assert clock() < 60.0


def test_criterion_6_closed_loop_calibration(clock):
    rng = np.random.default_rng(42)
    sigma_read, sigma_row = 5.0, 2.0
    shading = 512.0 + 5.0 * np.sin(np.linspace(0, 3, 256))[:, None] * np.cos(
        np.linspace(0, 2, 256))[None, :]
    residuals = []
    for _ in range(16):
        noise = rng.normal(0, sigma_row, 256)[:, None] + rng.normal(0, sigma_read, (256, 256))
        dark = make_frame((shading + noise).clip(0).astype(np.float64))
        residuals.append(correct_dark_frame(dark, shading))
    sr_est, srow_est = estimate_read_noise(residuals)
    assert abs(sr_est - sigma_read) / sigma_read <= 0.03
    assert abs(srow_est - sigma_row) / sigma_row <= 0.05

    # photon-transfer closed loop through the synthesis sampler
    params = NoiseParams(K=0.8, sigma_read=4.0, sigma_row=0.0, quant_step=0.0)
    span = (WHITE - BLACK)[:, None, None]
    points = []
    for clean_v in np.linspace(0.02, 0.6, 12):
        flat = sample_shot(np.full((4, 256, 256), clean_v), span, params, 1.0, rng)
        flat = flat + sample_parametric_read(flat.shape, params, rng)
        points.append((float(flat.mean()), float(flat.var())))
    K_est, _ = estimate_system_gain(points)
    assert abs(K_est - 0.8) / 0.8 <= 0.02
    assert clock() < 30.0


def test_criterion_7_baseline_denoiser(clock, monkeypatch):
    side = 256
    yy, xx = np.meshgrid(np.linspace(0, 1, side), np.linspace(0, 1, side), indexing="ij")
    chart = 0.08 + 0.4 * (0.5 + 0.5 * np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy))
    clean = PackedImage(channels=np.stack([chart] * 4), space=SPACE_NORMALIZED,
                        black_level=BLACK, white_level=WHITE, iso=800)
    prof = make_profile(K=0.8, sigma_read=4.0, sigma_row=0.0, quant_step=0.0)
    noisy = synthesize_noisy(clean, prof,
                             SynthConfig(iso=800, dgain=100.0, seed=5))
    pg = effective_pg_params(prof.iso_params[800], 100.0)

    denoised = denoise_raw(noisy, pg, DenoiseConfig(transform="gat"))
    gain_db = psnr(denoised, clean) - psnr(noisy, clean)
    assert gain_db >= 3.0

    identity = denoise_raw(noisy, pg, DenoiseConfig(transform="gat", threshold_mult=0.0))
    np.testing.assert_allclose(identity.channels, noisy.channels, atol=1e-9)

    # tiling is exact: single pass, default cores and small cores agree bit for bit
    for core in (512, 48):
        calls = patch_core(monkeypatch, core)
        other = denoise_raw(noisy, pg, DenoiseConfig(transform="gat"))
        assert calls == [core]
        np.testing.assert_array_equal(other.channels, denoised.channels)
    assert clock() < 60.0


def test_criterion_8_metric_correctness(clock):
    rng = np.random.default_rng(8)
    gt = PackedImage(channels=rng.uniform(0.2, 0.8, (4, 64, 64)), space=SPACE_NORMALIZED,
                     black_level=BLACK, white_level=WHITE)
    offset = PackedImage(channels=gt.channels + 0.1, space=SPACE_NORMALIZED,
                         black_level=BLACK, white_level=WHITE)
    assert psnr(offset, gt) == pytest.approx(20.0, abs=1e-9)
    assert ssim(gt, gt) == 1.0

    a = PackedImage(channels=np.full((4, 16, 16), 0.5), space=SPACE_NORMALIZED,
                    black_level=BLACK, white_level=WHITE)
    b = PackedImage(channels=np.full((4, 16, 16), 0.6), space=SPACE_NORMALIZED,
                    black_level=BLACK, white_level=WHITE)
    closed_form = (2 * 0.5 * 0.6 + 1e-4) / (0.5**2 + 0.6**2 + 1e-4)
    assert ssim(a, b) == pytest.approx(closed_form, abs=1e-6)

    x = PackedImage(channels=rng.uniform(0, 1, (4, 32, 32)), space=SPACE_NORMALIZED,
                    black_level=BLACK, white_level=WHITE)
    y = PackedImage(channels=rng.uniform(0, 1, (4, 32, 32)), space=SPACE_NORMALIZED,
                    black_level=BLACK, white_level=WHITE)
    assert abs(ssim(x, y) - ssim(y, x)) <= 1e-12
    assert clock() < 30.0


def test_criterion_9_round_trip_exactness(tmp_path, clock):
    rng = np.random.default_rng(9)
    cases = 1000

    # pack/unpack
    for _ in range(cases):
        h, w = 2 * rng.integers(1, 9), 2 * rng.integers(1, 9)
        f = make_frame(rng.integers(0, 16384, (h, w)).astype(np.uint16))
        np.testing.assert_array_equal(unpack_rggb(pack_rggb(f)).data, f.data)

    # normalize/denormalize on in-range DN values
    for _ in range(cases):
        data = rng.uniform(513, 16383, (4, 2, 2))
        img = PackedImage(channels=data, space="dn", black_level=BLACK, white_level=WHITE)
        back = denormalize(normalize(img))
        np.testing.assert_allclose(back.channels, data, rtol=1e-12)

    # kSigma and GAT algebraic round trips
    for _ in range(cases):
        p = PgParams(K=float(rng.uniform(0.1, 5)), sigma=float(rng.uniform(0, 10)))
        y = rng.uniform(0, 16000, 16)
        np.testing.assert_allclose(ksigma_inverse(ksigma_forward(y, p), p), y,
                                   rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(gat_inverse(gat_forward(y, p), p), y,
                                   rtol=1e-12, atol=1e-9)

    # RAWB file I/O, bit-exact
    path = tmp_path / "roundtrip.rawb"
    for i in range(cases):
        h, w = 2 * rng.integers(1, 5), 2 * rng.integers(1, 5)
        if i % 2:
            data = rng.integers(0, 16384, (h, w)).astype(np.uint16)
        else:
            data = rng.uniform(0, 16000, (h, w)).astype(np.float32)
        f = make_frame(data, iso=int(rng.integers(100, 6400)))
        write_frame(f, path)
        back = read_frame(path)
        assert back.data.tobytes() == data.tobytes()
        assert back.iso == f.iso
    assert clock() < 30.0
