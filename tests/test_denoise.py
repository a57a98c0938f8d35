from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import fft as sfft

from rawbench import denoise
from rawbench.calibration import NoiseParams
from rawbench.core import PackedImage, SPACE_NORMALIZED
from rawbench.denoise import (
    DenoiseConfig,
    _tiled_shrink,
    dct8_shrink,
    denoise_raw,
    effective_pg_params,
)
from rawbench.errors import DimensionError, DomainError, ProfileError
from rawbench.metrics import psnr
from rawbench.synth import SynthConfig, synthesize_noisy

from conftest import BLACK, WHITE, make_profile

SPAN = WHITE - BLACK[0]


def dct8_reference(plane, sigma, threshold_mult):
    """Slow per-block loop mirroring the documented algorithm (blocks every 4 pixels)."""
    p = np.asarray(plane, dtype=np.float64)
    h, w = p.shape
    ys = sorted({*range(0, h - 7, 4), h - 8})
    xs = sorted({*range(0, w - 7, 4), w - 8})
    out = np.zeros_like(p)
    cnt = np.zeros_like(p)
    for y in ys:
        for x in xs:
            block = p[y : y + 8, x : x + 8]
            coef = sfft.dctn(block, norm="ortho")
            mask = np.abs(coef) < threshold_mult * sigma
            mask[0, 0] = False
            coef = np.where(mask, 0.0, coef)
            out[y : y + 8, x : x + 8] += sfft.idctn(coef, norm="ortho")
            cnt[y : y + 8, x : x + 8] += 1.0
    return out / cnt


class TestDct8Shrink:
    def test_sigma_zero_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, (32, 40))
        np.testing.assert_allclose(dct8_shrink(x, 0.0), x, atol=1e-12)

    def test_constant_plane_unchanged(self):
        for shape in ((24, 24), (24, 29)):
            x = np.full(shape, 5.5)
            np.testing.assert_allclose(dct8_shrink(x, 3.0), x, atol=1e-12)

    def test_pure_noise_energy_removed(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (256, 256))
        out = dct8_shrink(x, 1.0, 3.0)
        assert out.var() < 0.15

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(2)
        for shape in ((32, 32), (33, 47), (8, 8), (9, 17)):
            x = rng.normal(0, 1, shape) + 3.0
            np.testing.assert_allclose(
                dct8_shrink(x, 0.7, 2.5), dct8_reference(x, 0.7, 2.5), atol=1e-12
            )

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_reference_on_large_ragged_plane(self, k):
        # Sides 240 + k and 250 - k put (side - 8) mod 4 through all four
        # residues on both axes: off the grid, the flush block row or column
        # overlaps the regular ones.
        x = np.random.default_rng(10 + k).normal(0, 1, (240 + k, 250 - k)) + 3.0
        np.testing.assert_allclose(
            dct8_shrink(x, 1.0, 3.0), dct8_reference(x, 1.0, 3.0), atol=1e-12
        )

    def test_small_plane_rejected(self):
        with pytest.raises(DimensionError):
            dct8_shrink(np.zeros((7, 16)), 1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            dct8_shrink(np.zeros((8, 8)), -1.0)
        with pytest.raises(DomainError):
            dct8_shrink(np.zeros((8, 8)), float("nan"))


class TestTiling:
    def test_tiled_equals_single_pass(self):
        rng = np.random.default_rng(3)
        plane = rng.normal(0, 1, (128, 128)) + np.linspace(0, 3, 128)[None, :]
        single = dct8_shrink(plane, 1.0, 3.0)
        np.testing.assert_array_equal(_tiled_shrink(plane, 1.0, 3.0, core=48), single)

    def test_non_square_and_misfit_sizes(self):
        rng = np.random.default_rng(4)
        plane = rng.normal(0, 1, (100, 70))
        np.testing.assert_array_equal(_tiled_shrink(plane, 1.0, 3.0, core=40),
                                      dct8_shrink(plane, 1.0, 3.0))

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(8, 160),
        w=st.integers(8, 160),
        core=st.integers(1, 170),
        seed=st.integers(0, 2**16),
    )
    @example(h=602, w=602, core=224, seed=0)
    @example(h=610, w=610, core=224, seed=0)
    @example(h=610, w=518, core=90, seed=0)
    def test_tiled_equals_single_pass_property(self, h, w, core, seed):
        plane = np.random.default_rng(seed).normal(0, 1, (h, w)) + np.linspace(0, 3, w)
        single = dct8_shrink(plane, 1.0, 3.0)
        np.testing.assert_array_equal(_tiled_shrink(plane, 1.0, 3.0, core), single)


class TestDenoiseRaw:
    def _noisy_pair(self, seed=5, side=128):
        yy, xx = np.meshgrid(np.linspace(0, 1, side), np.linspace(0, 1, side), indexing="ij")
        chart = 0.08 + 0.4 * (0.5 + 0.5 * np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy))
        clean = PackedImage(channels=np.stack([chart] * 4), space=SPACE_NORMALIZED,
                            black_level=BLACK, white_level=WHITE, iso=800)
        prof = make_profile(K=0.8, sigma_read=4.0, sigma_row=0.0, quant_step=0.0)
        cfg = SynthConfig(iso=800, dgain=100.0, row=False, quant=False, seed=seed)
        return synthesize_noisy(clean, prof, cfg), clean

    def _pg(self):
        return effective_pg_params(NoiseParams(K=0.8, sigma_read=4.0, sigma_row=0.0,
                                               quant_step=0.0), 100.0)

    def test_threshold_zero_is_identity(self):
        noisy, _ = self._noisy_pair()
        for transform in ("gat", "ksigma"):
            out = denoise_raw(noisy, self._pg(),
                              DenoiseConfig(transform=transform, threshold_mult=0.0))
            np.testing.assert_allclose(out.channels, noisy.channels, atol=1e-9)

    def test_psnr_gain_on_chart(self):
        noisy, clean = self._noisy_pair()
        den = denoise_raw(noisy, self._pg(), DenoiseConfig(transform="gat"))
        gain = psnr(den, clean) - psnr(noisy, clean)
        assert gain >= 3.0

    def test_energy_preserved(self):
        noisy, _ = self._noisy_pair()
        den = denoise_raw(noisy, self._pg(), DenoiseConfig(transform="gat"))
        assert abs(den.channels.mean() - noisy.channels.mean()) / noisy.channels.mean() < 0.01

    def test_deterministic(self):
        noisy, _ = self._noisy_pair()
        a = denoise_raw(noisy, self._pg(), DenoiseConfig())
        b = denoise_raw(noisy, self._pg(), DenoiseConfig())
        np.testing.assert_array_equal(a.channels, b.channels)

    def test_core_size_does_not_change_output(self, monkeypatch):
        noisy, _ = self._noisy_pair(side=256)  # larger than one default core
        default = denoise_raw(noisy, self._pg(), DenoiseConfig())
        for core in (10**6, 48):  # single pass, then many small cores
            monkeypatch.setattr(denoise, "_tiled_shrink", partial(_tiled_shrink, core=core))
            out = denoise_raw(noisy, self._pg(), DenoiseConfig())
            np.testing.assert_array_equal(out.channels, default.channels)

    def test_transform_none_needs_sigma(self):
        noisy, _ = self._noisy_pair()
        with pytest.raises(ProfileError):
            denoise_raw(noisy, self._pg(), DenoiseConfig(transform="none"))
        out = denoise_raw(noisy, self._pg(), DenoiseConfig(transform="none", sigma_dn=400.0))
        assert np.all(np.isfinite(out.channels))

    def test_output_clamped(self):
        noisy, _ = self._noisy_pair()
        out = denoise_raw(noisy, self._pg(), DenoiseConfig())
        assert out.channels.min() >= 0.0 and out.channels.max() <= noisy.clip_hi

    def test_effective_params_scaling(self):
        pg = effective_pg_params(NoiseParams(K=0.8, sigma_read=3.0, sigma_row=4.0,
                                             quant_step=0.0), 10.0)
        assert pg.K == pytest.approx(8.0)
        assert pg.sigma == pytest.approx(50.0)

    def test_config_validation(self):
        for removed in ("shrink", "tile", "overlap"):  # settings that could not change the output
            with pytest.raises(TypeError):
                DenoiseConfig(**{removed: 256})
        with pytest.raises(DomainError):
            DenoiseConfig(transform="wavelet")
        with pytest.raises(DomainError):
            DenoiseConfig(threshold_mult=-1.0)
