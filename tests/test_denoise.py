import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sfft

from rawbench import denoise
from rawbench.calibration import NoiseParams
from rawbench.core import PackedImage, SPACE_NORMALIZED
from rawbench.denoise import (
    DenoiseConfig,
    dct8_shrink,
    denoise_raw,
    effective_pg_params,
)
from rawbench.errors import DimensionError, DomainError, ProfileError
from rawbench.metrics import psnr
from rawbench.synth import SynthConfig, synthesize_noisy
from rawbench.transforms import gat_forward, gat_inverse, ksigma_forward, ksigma_inverse

from conftest import BLACK, WHITE, make_profile, patch_core

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


def dct8_block_oracle(plane, sigma, threshold_mult):
    """Per-block shrink in the group order of :func:`dct8_shrink`.

    Each block is transformed on its own as ``C @ block @ C.T`` over a
    sliding window view, and the groups of disjoint blocks (grid phase 0,
    phase 4, then the flush start, on each axis) are added back in the same
    order, so the result must equal :func:`dct8_shrink` bit for bit.
    """
    p = np.asarray(plane, dtype=np.float64)
    C = denoise._DCT

    def groups(extent):
        last = (extent - 8) // 4 * 4
        gs = [slice(o, last + 1, 8) for o in (0, 4) if o <= last]
        if last != extent - 8:
            gs.append(slice(extent - 8, extent - 7))
        cover = np.zeros(extent)
        for g in gs:
            for s in range(*g.indices(extent - 7)):
                cover[s : s + 8] += 1.0
        return gs, cover

    rows, row_cover = groups(p.shape[0])
    cols, col_cover = groups(p.shape[1])
    thr = threshold_mult * sigma
    src = sliding_window_view(p, (8, 8))
    out = np.zeros_like(p)
    dst = sliding_window_view(out, (8, 8), writeable=True)
    for ry in rows:
        for rx in cols:
            coef = C @ src[ry, rx] @ C.T
            keep = np.abs(coef) >= thr
            keep[..., 0, 0] = True
            dst[ry, rx] += C.T @ (coef * keep) @ C
    out /= row_cover[:, None] * col_cover[None, :]
    return out


def whole_plane_chain(noisy_norm, params, cfg):
    """:func:`denoise_raw`'s channels as one whole-plane pass per channel.

    Each step runs over the full plane: scale, VST forward, one single-pass
    :func:`dct8_shrink`, VST inverse, rescale and clip.  The core loop must
    equal it bit for bit.
    """
    span = noisy_norm.white_level - noisy_norm.black_level
    out = np.empty_like(noisy_norm.channels, dtype=np.float64)
    for c in range(4):
        y = noisy_norm.channels[c].astype(np.float64) * span[c]
        if cfg.transform == "gat":
            t, sigma = gat_forward(y, params), 1.0
        elif cfg.transform == "ksigma":
            t, sigma = ksigma_forward(y, params), 1.0
        else:
            t, sigma = y, float(cfg.sigma_dn)
        t = dct8_shrink(t, sigma, cfg.threshold_mult)
        if cfg.transform == "gat":
            y_hat = gat_inverse(np.maximum(t, 0.0), params)
        elif cfg.transform == "ksigma":
            y_hat = ksigma_inverse(t, params)
        else:
            y_hat = t
        out[c] = np.clip(y_hat / span[c], 0.0, noisy_norm.clip_hi)
    return out


def noisy_image(shape, seed=0):
    """A seeded normalized 4-channel image: a ramp under Gaussian noise, clipped to [0, 1]."""
    h, w = shape
    rng = np.random.default_rng(seed)
    ramp = np.linspace(0.02, 0.6, w)[None, None, :]
    x = np.clip(ramp + rng.normal(0.0, 0.05, (4, h, w)), 0.0, 1.0)
    return PackedImage(channels=x, space=SPACE_NORMALIZED, black_level=BLACK,
                       white_level=WHITE, iso=800)


PG = effective_pg_params(NoiseParams(K=0.8, sigma_read=4.0, sigma_row=0.0, quant_step=0.0),
                         100.0)
CONFIGS = {
    "gat": DenoiseConfig(transform="gat"),
    "ksigma": DenoiseConfig(transform="ksigma"),
    "none": DenoiseConfig(transform="none", sigma_dn=400.0),
}


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

    @settings(max_examples=150, deadline=None)
    @given(
        h=st.integers(8, 120),
        w=st.integers(8, 120),
        sigma=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        threshold_mult=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
        integer=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(h=8, w=8, sigma=1.0, threshold_mult=0.0, integer=False, seed=0)
    @example(h=120, w=118, sigma=1.0, threshold_mult=3.0, integer=True, seed=1)
    def test_bit_identical_to_block_oracle(self, h, w, sigma, threshold_mult, integer, seed):
        # integer-valued planes put coefficients exactly on the threshold
        x = np.random.default_rng(seed).normal(3.0, 2.0, (h, w))
        if integer:
            x = np.rint(x)
        got = dct8_shrink(x, sigma, threshold_mult)
        assert got.tobytes() == dct8_block_oracle(x, sigma, threshold_mult).tobytes()

    def test_small_plane_rejected(self):
        with pytest.raises(DimensionError):
            dct8_shrink(np.zeros((7, 16)), 1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(DomainError):
            dct8_shrink(np.zeros((8, 8)), -1.0)
        with pytest.raises(DomainError):
            dct8_shrink(np.zeros((8, 8)), float("nan"))


def cores_run(img, cfg, core):
    """``denoise_raw``'s channels at core side ``core``, after checking from
    the patch shapes its shrink saw that the core side took effect."""
    with pytest.MonkeyPatch.context() as mp:
        shapes = patch_core(mp, core)
        got = denoise_raw(img, PG, cfg).channels
    _, h, w = img.channels.shape
    step = max(core // 8 * 8, 8)
    assert len(shapes) == 4 * -(-h // step) * -(-w // step)
    assert max(map(max, shapes)) <= step + 16
    return got


class TestTiling:
    def test_tiled_equals_single_pass(self):
        img = noisy_image((128, 128), seed=3)
        for cfg in CONFIGS.values():
            got = cores_run(img, cfg, 48)
            assert got.tobytes() == whole_plane_chain(img, PG, cfg).tobytes()

    def test_non_square_and_misfit_sizes(self):
        img = noisy_image((100, 70), seed=4)
        got = cores_run(img, CONFIGS["gat"], 40)
        assert got.tobytes() == whole_plane_chain(img, PG, CONFIGS["gat"]).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(8, 300),
        w=st.integers(8, 300),
        core=st.integers(1, 170),
        transform=st.sampled_from(sorted(CONFIGS)),
        seed=st.integers(0, 2**16),
    )
    @example(h=602, w=602, core=224, transform="gat", seed=0)
    @example(h=610, w=610, core=224, transform="ksigma", seed=0)
    @example(h=610, w=518, core=90, transform="none", seed=0)
    def test_tiled_equals_single_pass_property(self, h, w, core, transform, seed):
        # the halo matters: a patch cut at the core's edge shrinks its border
        # blocks without their neighbours and differs there
        img = noisy_image((h, w), seed)
        got = cores_run(img, CONFIGS[transform], core)
        assert got.tobytes() == whole_plane_chain(img, PG, CONFIGS[transform]).tobytes()

    def test_bytes_do_not_depend_on_blas_threads(self):
        # The shrink's matrix products are large enough for OpenBLAS to split
        # across threads, and its C-ordered and transposed operands take
        # different paths; the seeded results must not depend on either.
        code = (
            "import hashlib, numpy as np\n"
            "from rawbench.core import PackedImage, SPACE_NORMALIZED\n"
            "from rawbench.denoise import DenoiseConfig, dct8_shrink, denoise_raw\n"
            "from rawbench.transforms import PgParams\n"
            "rng = np.random.default_rng(7)\n"
            "plane = rng.normal(0, 1, (1024, 1024)) + 3.0\n"
            "print(hashlib.sha256(dct8_shrink(plane, 1.0, 3.0).tobytes()).hexdigest())\n"
            "x = np.linspace(0.02, 0.6, 518) + rng.normal(0, 0.05, (4, 610, 518))\n"
            "img = PackedImage(channels=np.clip(x, 0, 1), space=SPACE_NORMALIZED,\n"
            "                  black_level=np.full(4, 512.0), white_level=16383.0)\n"
            "den = denoise_raw(img, PgParams(K=80.0, sigma=400.0), DenoiseConfig('gat'))\n"
            "print(hashlib.sha256(den.channels.tobytes()).hexdigest())\n"
        )
        src = str(Path(denoise.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr[-2000:]
            outputs.append(proc.stdout.split())
        assert len(outputs[0]) == 2
        assert outputs[0] == outputs[1]


class TestDenoiseRaw:
    def _noisy_pair(self, seed=5, shape=(128, 128)):
        h, w = shape
        yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
        chart = 0.08 + 0.4 * (0.5 + 0.5 * np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy))
        clean = PackedImage(channels=np.stack([chart] * 4), space=SPACE_NORMALIZED,
                            black_level=BLACK, white_level=WHITE, iso=800)
        prof = make_profile(K=0.8, sigma_read=4.0, sigma_row=0.0, quant_step=0.0)
        cfg = SynthConfig(iso=800, dgain=100.0, seed=seed)
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
        noisy, _ = self._noisy_pair(shape=(256, 256))  # larger than one default core
        default = denoise_raw(noisy, self._pg(), DenoiseConfig())
        # single pass, then 6 x 6 small cores with their halos
        for core, n_patches, side in ((10**6, 4, 256), (48, 4 * 36, 64)):
            shapes = patch_core(monkeypatch, core)
            out = denoise_raw(noisy, self._pg(), DenoiseConfig())
            assert len(shapes) == n_patches and max(map(max, shapes)) == side
            np.testing.assert_array_equal(out.channels, default.channels)

    # SHA-256 of the float64 channels of seeded denoise_raw outputs: a
    # 120x100 plane (one core, no flush block) and a 250x246 plane (tiled,
    # with a flush block row and column)
    @pytest.mark.parametrize("shape, cfg, digest", [
        ((120, 100), DenoiseConfig(transform="gat"),
         "0b4e8f3e3fe82b42c7f044a02b0e61365a9e00f31037280f0466d751d079892e"),
        ((120, 100), DenoiseConfig(transform="ksigma"),
         "13c8b19397a98065b8e425afd983c8b47fec88bda49eeffe5b5d17bb933e5e51"),
        ((120, 100), DenoiseConfig(transform="none", sigma_dn=400.0),
         "aa3cfac711d6e6e52df953f48acc3a71f05376a19f00a3e59dc45ec3c685b85c"),
        ((250, 246), DenoiseConfig(transform="gat"),
         "8548fee64c7a00e3cefe576cfa88efb7e5bdbfad2c62bd6403c66a4fffc7c557"),
        ((250, 246), DenoiseConfig(transform="ksigma"),
         "a2469e2c33c23dacb772d15866bca835a783cca242c62638d8dac1f63c8b1f67"),
        ((250, 246), DenoiseConfig(transform="none", sigma_dn=400.0),
         "f48084450c1a16fc6672b18ccdd77ee345762e77ddf3fa62c9b5f8f4aeae4d35"),
    ], ids=["gat-core", "ksigma-core", "none-core", "gat-flush", "ksigma-flush", "none-flush"])
    def test_pinned_output_digest(self, shape, cfg, digest):
        noisy, _ = self._noisy_pair(shape=shape)
        out = denoise_raw(noisy, self._pg(), cfg)
        assert hashlib.sha256(out.channels.tobytes()).hexdigest() == digest

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

    @pytest.mark.parametrize("dgain", [np.inf, np.nan, 0.0])
    def test_effective_params_reject_bad_dgain(self, dgain):
        with pytest.raises(DomainError, match=f"dgain must be finite and > 0, got {dgain}"):
            effective_pg_params(NoiseParams(K=0.8, sigma_read=3.0, sigma_row=4.0), dgain)

    def test_config_validation(self):
        for removed in ("shrink", "tile", "overlap"):  # settings that could not change the output
            with pytest.raises(TypeError):
                DenoiseConfig(**{removed: 256})
        with pytest.raises(DomainError):
            DenoiseConfig(transform="wavelet")
        with pytest.raises(DomainError):
            DenoiseConfig(threshold_mult=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("threshold_mult", np.nan), ("threshold_mult", np.inf),
        ("sigma_dn", np.nan), ("sigma_dn", np.inf), ("sigma_dn", -1.0),
    ])
    def test_config_rejects_non_finite_settings(self, field, value):
        # a NaN threshold would zero every AC coefficient
        with pytest.raises(DomainError, match=f"{field} must be finite and >= 0, got {value}"):
            DenoiseConfig(**{field: value})
