import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from rawbench import metrics
from rawbench.core import (PackedImage, RawFrame, SPACE_DN, SPACE_DN_ABOVE_BLACK,
                           SPACE_NORMALIZED, normalize, pack_rggb)
from rawbench.errors import DimensionError, DomainError
from rawbench.metrics import evaluate_pair, prepare_reference, psnr, ssim

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


class TestNormalizedOnly:
    # both metrics assume peak 1 and L = 1: a DN-space pair would score a
    # plausible SSIM near 1 and a negative PSNR
    @pytest.mark.parametrize("metric", [psnr, ssim])
    @pytest.mark.parametrize("pred_space, gt_space, bad", [
        (SPACE_DN, SPACE_DN, "pred in space 'dn'"),
        (SPACE_NORMALIZED, SPACE_DN, "gt in space 'dn'"),
        (SPACE_DN_ABOVE_BLACK, SPACE_NORMALIZED, "pred in space 'dn_above_black'"),
        (SPACE_NORMALIZED, SPACE_DN_ABOVE_BLACK, "gt in space 'dn_above_black'"),
    ])
    def test_other_spaces_are_rejected(self, metric, pred_space, gt_space, bad):
        rng = np.random.default_rng(16)

        def image(space):
            scale = 1.0 if space == SPACE_NORMALIZED else 3000.0
            return PackedImage(channels=scale * rng.uniform(0, 1, (4, 16, 16)), space=space,
                               black_level=BLACK, white_level=WHITE)

        with pytest.raises(DomainError, match=f"{metric.__name__} expects normalized images, "
                                              f"got {bad}"):
            metric(image(pred_space), image(gt_space))

    def test_prediction_checked_against_a_reference(self):
        gt = packed(np.full((4, 16, 16), 0.5))
        pred = replace(gt, space=SPACE_DN, channels=np.full((4, 16, 16), 3000.0))
        with pytest.raises(DomainError, match="got pred in space 'dn'"):
            ssim(pred, reference_of(gt))


def pack_crop_normalize(frame, side):
    """The crop protocol in three steps: pack the whole mosaic, center-crop
    the planes at the floor-rounded offset, then normalize."""
    img = pack_rggb(frame)
    y0, x0 = (img.plane_height - side) // 2, (img.plane_width - side) // 2
    return normalize(replace(img, channels=img.channels[:, y0 : y0 + side, x0 : x0 + side]))


def ramp_frame(ph, pw):
    """A u16 mosaic of ph x pw planes whose pixels differ from their neighbours."""
    data = np.arange(4 * ph * pw) % 15000 + 600
    return make_frame(data.astype(np.uint16).reshape(2 * ph, 2 * pw))


class TestCropProtocol:
    """The crop is taken on the mosaic; the planes are those of the packed
    image's centre crop."""

    @settings(max_examples=10, deadline=None)
    @given(phase=st.sampled_from(["dev", "final"]), dtype=st.sampled_from([np.uint16, np.float32]),
           extra_h=st.integers(0, 5), extra_w=st.integers(0, 5), seed=st.integers(0, 2**16))
    @example(phase="dev", dtype=np.uint16, extra_h=2, extra_w=3, seed=0)
    @example(phase="final", dtype=np.float32, extra_h=5, extra_w=1, seed=1)
    def test_equals_pack_crop_normalize(self, phase, dtype, extra_h, extra_w, seed):
        side = metrics._CROP_SIDES[phase]
        rng = np.random.default_rng(seed)
        shape = (2 * (side + extra_h), 2 * (side + extra_w))
        frame = RawFrame(data=rng.uniform(0, 20000, shape).astype(dtype),
                         black_level=rng.uniform(0, 1000, 4).round(),
                         white_level=float(rng.uniform(2000, 16383)), camera_id="camB", iso=1600)
        got = metrics._crop_protocol(frame, phase)
        want = pack_crop_normalize(frame, side)
        assert got.channels.tobytes() == want.channels.tobytes()
        for name in (f.name for f in fields(PackedImage) if f.name != "channels"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_centred_crop_offset(self):
        frame = ramp_frame(514, 516)  # planes 2 and 4 wider than the dev side
        planes = normalize(pack_rggb(frame)).channels
        got = metrics._crop_protocol(frame, "dev").channels
        np.testing.assert_array_equal(got, planes[:, 1:513, 2:514])

    def test_odd_remainder_floor_offset(self):
        frame = ramp_frame(513, 515)  # odd remainders 1 and 3: offsets 0 and 1
        planes = normalize(pack_rggb(frame)).channels
        got = metrics._crop_protocol(frame, "dev").channels
        np.testing.assert_array_equal(got, planes[:, 0:512, 1:513])

    def test_full_crop_is_identity(self):
        frame = ramp_frame(512, 512)
        got = metrics._crop_protocol(frame, "dev").channels
        assert got.tobytes() == normalize(frame).channels.tobytes()

    def test_too_large_rejected(self):
        for ph, pw in [(511, 600), (600, 511)]:
            with pytest.raises(DimensionError, match=f"crop 512x512 does not fit planes {pw}x{ph}"):
                metrics._crop_protocol(ramp_frame(ph, pw), "dev")


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


def ssim_unbanded(pred, gt):
    """The whole-plane formula SSIM had before row bands: every term filtered
    over the full plane, one num/den array and one mean per channel."""
    g = metrics._gaussian_window(11, 1.5)
    r = 5

    def filter_valid(x):
        y = ndimage.correlate1d(x, g, axis=0, mode="constant")
        y = ndimage.correlate1d(y, g, axis=1, mode="constant")
        return y[r : x.shape[0] - r, r : x.shape[1] - r]

    c1, c2 = 0.01**2, 0.03**2
    scores = []
    for c in range(4):
        x = pred.channels[c].astype(np.float64)
        y = gt.channels[c].astype(np.float64)
        mu_x, mu_y = filter_valid(x), filter_valid(y)
        var_x = filter_valid(x * x) - mu_x * mu_x
        var_y = filter_valid(y * y) - mu_y * mu_y
        cov = filter_valid(x * y) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
        den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        scores.append(float(np.mean(num / den)))
    return float(np.mean(scores))


def filter_valid_oracle(x):
    """SSIM's window filter as two full scipy passes, valid region only."""
    g = metrics._gaussian_window(11, 1.5)
    y = ndimage.correlate1d(x, g, axis=0, mode="constant")
    y = ndimage.correlate1d(y, g, axis=1, mode="constant")
    return y[5 : x.shape[0] - 5, 5 : x.shape[1] - 5]


class TestFilterValid:
    def test_window_is_exactly_symmetric(self):
        # This exact symmetry is what makes summing (x[-j] + x[+j]) * w[c - j]
        # for j = 5, ..., 1 equal, bit for bit, to scipy's correlate1d order.
        assert metrics._GAUSS[::-1].tobytes() == metrics._GAUSS.tobytes()

    # Sides 11-150 on each axis (11 is one valid row or column); planes that
    # are uniform, integer-valued, of tiny magnitude, or float32-origin.
    @settings(max_examples=150, deadline=None)
    @given(h=st.integers(11, 150), w=st.integers(11, 150), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["uniform", "integer", "tiny", "float32"]))
    @example(h=11, w=11, seed=0, kind="uniform")
    @example(h=11, w=150, seed=1, kind="integer")
    @example(h=150, w=11, seed=2, kind="tiny")
    @example(h=74, w=97, seed=3, kind="float32")
    @example(h=37, w=11, seed=4, kind="uniform")  # one valid column
    @example(h=53, w=12, seed=5, kind="integer")  # two valid columns
    @example(h=11, w=96, seed=6, kind="uniform")  # one valid row
    @example(h=74, w=1034, seed=7, kind="uniform")  # one SSIM band of a 1024 crop
    def test_equals_two_scipy_passes_bit_for_bit(self, h, w, seed, kind):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, (h, w))
        if kind == "integer":
            x = rng.integers(0, 1024, (h, w)).astype(np.float64)
        elif kind == "tiny":
            x = 1e-3 * x * x
        elif kind == "float32":
            x = x.astype(np.float32).astype(np.float64)
        got = metrics._filter_valid(x)
        assert got.shape == (h - 10, w - 10)
        assert got.tobytes() == filter_valid_oracle(x).tobytes()


def test_scoring_imports_no_scipy():
    # scipy is a test oracle only: the CLI and a scored pair must not load it
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import rawbench.cli\n"
        "from rawbench import metrics\n"
        "from rawbench.core import RawFrame\n"
        "data = np.random.default_rng(0).integers(600, 16000, (1024, 1024)).astype(np.uint16)\n"
        "gt = RawFrame(data=data, black_level=512.0, white_level=16383.0)\n"
        "pred = RawFrame(data=data // 2 + 600, black_level=512.0, white_level=16383.0)\n"
        "print(metrics.evaluate_pair(pred, gt).ssim)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(metrics.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    ssim_text, modules = proc.stdout.splitlines()
    assert 0.0 < float(ssim_text) < 1.0
    assert modules == "[]"


def reference_of(gt):
    """A Reference holding the packed image ``gt`` as its (already cropped) planes."""
    return metrics.Reference(gt, metrics._ssim_stats(gt),
                             (2 * gt.plane_height, 2 * gt.plane_width), "dev")


class TestBandedSsim:
    # Output rows are side - 10: below, at and just past one band of
    # core._BAND_ROWS = 64 rows, exactly two bands, and many non-multiples.
    @settings(max_examples=60, deadline=None)
    @given(h=st.integers(11, 300), w=st.integers(11, 300), seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.float64, np.float32]))
    @example(h=11, w=11, seed=0, dtype=np.float64)
    @example(h=73, w=40, seed=1, dtype=np.float64)
    @example(h=74, w=300, seed=2, dtype=np.float64)
    @example(h=75, w=12, seed=3, dtype=np.float32)
    @example(h=138, w=97, seed=4, dtype=np.float64)
    @example(h=300, w=300, seed=5, dtype=np.float64)
    def test_banded_equals_unbanded_bit_for_bit(self, h, w, seed, dtype):
        rng = np.random.default_rng(seed)
        gt = rng.uniform(0, 1, (4, h, w))
        pred = np.clip(gt + rng.normal(0, rng.uniform(0.001, 0.3), gt.shape), 0, 1)
        gt, pred = packed(gt.astype(dtype)), packed(pred.astype(dtype))
        expect = ssim_unbanded(pred, gt)
        assert ssim(pred, gt) == expect
        assert ssim(pred, reference_of(gt)) == expect

    def test_reference_stats_are_one_block(self):
        stats = metrics._ssim_stats(packed(np.full((4, 30, 20), 0.5)))
        assert stats.shape == (2, 4, 20, 10) and stats.dtype == np.float64
        np.testing.assert_allclose(stats[0], 0.5, rtol=1e-15)
        np.testing.assert_allclose(stats[1], 0.0, atol=1e-15)


class TestPreparedReference:
    @pytest.mark.parametrize("phase", ["dev", "final"])
    def test_frame_and_reference_score_the_same(self, phase):
        rng = np.random.default_rng(14)
        gt = rng.integers(2000, 12000, (2056, 2064)).astype(np.uint16)
        noisy = np.clip(gt + rng.normal(0, 50, gt.shape), 0, 16383).astype(np.float32)
        pred, gt = make_frame(noisy), make_frame(gt)
        ref = prepare_reference(gt, phase)
        assert ref.mosaic_shape == (2056, 2064) and ref.phase == phase
        assert evaluate_pair(pred, ref, phase) == evaluate_pair(pred, gt, phase)

    def test_reference_of_another_phase_rejected(self):
        f = make_frame(np.full((1200, 1200), 3000, dtype=np.uint16))
        with pytest.raises(ValueError, match="prepared for phase 'dev', scored at 'final'"):
            evaluate_pair(f, prepare_reference(f, "dev"), "final")

    def test_shape_mismatch_against_a_reference(self):
        rng = np.random.default_rng(15)
        gt = rng.integers(512, 16000, (1100, 1100)).astype(np.uint16)
        ref = prepare_reference(make_frame(gt), "dev")
        with pytest.raises(DimensionError, match=r"does not match ground truth \(1100, 1100\)"):
            evaluate_pair(make_frame(gt[:1096]), ref, "dev")

    def test_metadata_mismatch_warns_against_a_reference(self):
        data = np.full((1100, 1100), 3000, dtype=np.uint16)
        ref = prepare_reference(make_frame(data, iso=800), "dev")
        with pytest.warns(UserWarning, match="metadata mismatch"):
            evaluate_pair(make_frame(data, iso=3200), ref, "dev")

    def test_gt_too_small_for_the_crop(self):
        with pytest.raises(DimensionError, match="does not fit"):
            prepare_reference(make_frame(np.zeros((64, 64), dtype=np.uint16)), "final")
