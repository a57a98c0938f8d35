import math

import numpy as np
import pytest

from rawbench.core import PackedImage, SPACE_NORMALIZED
from rawbench.errors import DimensionError
from rawbench.metrics import evaluate_pair, psnr, ssim

from conftest import BLACK, WHITE, make_frame


def packed(channels):
    return PackedImage(channels=np.asarray(channels, dtype=np.float64),
                       space=SPACE_NORMALIZED, black_level=BLACK, white_level=WHITE)


def mse_oracle(a, b):
    total = 0.0
    n = 0
    for c in range(4):
        for y in range(a.shape[1]):
            for x in range(a.shape[2]):
                d = float(a[c, y, x]) - float(b[c, y, x])
                total += d * d
                n += 1
    return total / n


def ssim_reference(x, y, window=11, sigma=1.5, k1=0.01, k2=0.03, L=1.0):
    """Direct windowed loops with explicit Gaussian weights, valid region."""
    r = window // 2
    ax = np.arange(window) - r
    g1 = np.exp(-(ax**2) / (2 * sigma**2))
    g = np.outer(g1, g1)
    g /= g.sum()
    c1, c2 = (k1 * L) ** 2, (k2 * L) ** 2
    h, w = x.shape
    vals = []
    for yy in range(r, h - r):
        for xx in range(r, w - r):
            wx = x[yy - r : yy + r + 1, xx - r : xx + r + 1]
            wy = y[yy - r : yy + r + 1, xx - r : xx + r + 1]
            mx, my = (g * wx).sum(), (g * wy).sum()
            vx = (g * wx * wx).sum() - mx * mx
            vy = (g * wy * wy).sum() - my * my
            cov = (g * wx * wy).sum() - mx * my
            vals.append(((2 * mx * my + c1) * (2 * cov + c2))
                        / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    return float(np.mean(vals))


class TestPsnr:
    def test_identical_is_infinite(self):
        a = packed(np.random.default_rng(0).uniform(0, 1, (4, 8, 8)))
        assert psnr(a, a) == math.inf

    def test_constant_offset_twenty_db(self):
        gt = packed(np.full((4, 8, 8), 0.4))
        pred = packed(gt.channels + 0.1)
        assert psnr(pred, gt) == pytest.approx(20.0, abs=1e-9)

    def test_half_offset(self):
        gt = packed(np.full((4, 8, 8), 0.3))
        ch = gt.channels.copy()
        ch[:, :, 4:] += 0.2
        assert psnr(packed(ch), gt) == pytest.approx(10 * math.log10(1 / 0.02), abs=1e-9)

    def test_matches_bruteforce_mse(self):
        rng = np.random.default_rng(1)
        a = packed(rng.uniform(0, 1, (4, 6, 6)))
        b = packed(rng.uniform(0, 1, (4, 6, 6)))
        expect = 10 * math.log10(1.0 / mse_oracle(a.channels, b.channels))
        assert psnr(a, b) == pytest.approx(expect, abs=1e-9)

    def test_any_offset_is_detected(self):
        rng = np.random.default_rng(2)
        gt = packed(rng.uniform(0.2, 0.8, (4, 8, 8)))
        for off in (1e-6, -1e-3, 0.05):
            assert psnr(packed(gt.channels + off), gt) < math.inf

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            psnr(packed(np.zeros((4, 4, 4))), packed(np.zeros((4, 6, 6))))


class TestSsim:
    def test_self_similarity_is_exactly_one(self):
        rng = np.random.default_rng(3)
        a = packed(rng.uniform(0, 1, (4, 16, 16)))
        assert ssim(a, a) == 1.0

    def test_constant_images_closed_form(self):
        a = packed(np.full((4, 16, 16), 0.5))
        b = packed(np.full((4, 16, 16), 0.6))
        closed = (2 * 0.5 * 0.6 + 1e-4) / (0.5**2 + 0.6**2 + 1e-4)
        assert ssim(a, b) == pytest.approx(closed, abs=1e-6)

    def test_anticorrelated_texture_negative(self):
        rng = np.random.default_rng(4)
        t = rng.uniform(-0.1, 0.1, (16, 16))
        t -= t.mean()
        gt = 0.5 + t
        pred = -gt + 1.0
        s = ssim(packed(np.stack([pred] * 4)), packed(np.stack([gt] * 4)))
        assert s < 0
        assert s == pytest.approx(ssim_reference(pred, gt), abs=1e-12)

    def test_matches_reference_on_random(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, (14, 18))
        y = np.clip(x + rng.normal(0, 0.05, x.shape), 0, 1)
        mine = ssim(packed(np.stack([x] * 4)), packed(np.stack([y] * 4)))
        assert mine == pytest.approx(ssim_reference(x, y), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        a = packed(rng.uniform(0, 1, (4, 16, 16)))
        b = packed(rng.uniform(0, 1, (4, 16, 16)))
        assert abs(ssim(a, b) - ssim(b, a)) <= 1e-12

    def test_window_too_large(self):
        with pytest.raises(DimensionError):
            ssim(packed(np.zeros((4, 8, 8))), packed(np.zeros((4, 8, 8))))


class TestEvaluatePair:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(7)
        data = rng.integers(512, 16000, (1200, 1200)).astype(np.uint16)
        f = make_frame(data)
        res = evaluate_pair(f, f, phase="dev")
        assert res.psnr == math.inf
        assert res.ssim == 1.0
        assert res.crop == (512, 512)

    def test_dev_crop_structural(self):
        rng = np.random.default_rng(8)
        pred = make_frame(rng.integers(512, 16000, (2400, 2400)).astype(np.uint16))
        gt = make_frame(rng.integers(512, 16000, (2400, 2400)).astype(np.uint16))
        res = evaluate_pair(pred, gt, phase="dev")
        assert res.n_pixels == 4 * 512 * 512

    def test_final_crop(self):
        rng = np.random.default_rng(9)
        data = rng.integers(512, 16000, (2400, 2400)).astype(np.uint16)
        res = evaluate_pair(make_frame(data), make_frame(data), phase="final")
        assert res.crop == (1024, 1024)

    def test_too_small_for_crop(self):
        f = make_frame(np.zeros((64, 64), dtype=np.uint16))
        with pytest.raises(DimensionError):
            evaluate_pair(f, f, phase="dev")

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        gt = rng.integers(512, 16000, (1040, 1040)).astype(np.uint16)
        with pytest.raises(DimensionError, match="does not match"):
            evaluate_pair(make_frame(gt[8:-8, 8:-8]), make_frame(gt), phase="dev")

    def test_metadata_mismatch_warns(self):
        rng = np.random.default_rng(10)
        data = rng.integers(512, 16000, (1200, 1200)).astype(np.uint16)
        a = make_frame(data, iso=800)
        b = make_frame(data, iso=3200)
        with pytest.warns(UserWarning):
            evaluate_pair(a, b, phase="dev")

    def test_psnr_matches_bruteforce_on_noisy_pair(self):
        rng = np.random.default_rng(11)
        gt = rng.integers(2000, 12000, (1040, 1040)).astype(np.float64)
        noisy = (gt + rng.normal(0, 40, gt.shape)).astype(np.float32).astype(np.float64)
        gt = gt.astype(np.float32).astype(np.float64)
        res = evaluate_pair(make_frame(noisy.astype(np.float32)),
                            make_frame(gt.astype(np.float32)), phase="dev")
        # brute-force MSE over the same normalized center crop
        def norm_crop(d):
            planes = np.stack([d[0::2, 0::2], d[0::2, 1::2], d[1::2, 0::2], d[1::2, 1::2]])
            n = np.clip((planes - BLACK[:, None, None]) / (WHITE - BLACK[:, None, None]), 0, 1)
            y0 = (n.shape[1] - 512) // 2
            x0 = (n.shape[2] - 512) // 2
            return n[:, y0 : y0 + 512, x0 : x0 + 512]
        a, b = norm_crop(noisy), norm_crop(gt)
        expect = 10 * math.log10(1.0 / np.mean((a - b) ** 2))
        assert res.psnr == pytest.approx(expect, abs=1e-9)
