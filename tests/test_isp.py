import numpy as np
import pytest
from scipy import ndimage

from rawbench.core import PackedImage, SPACE_NORMALIZED, read_rgb, write_rgb
from rawbench.errors import DomainError
from rawbench.isp import (
    _K_CHROMA,
    _K_GREEN,
    IspConfig,
    _demosaic_normalizer,
    gray_world_gains,
    read_ppm16,
    run_isp,
    srgb_gamma,
    srgb_gamma_inverse,
    write_ppm16,
)

from conftest import BLACK, WHITE


def packed(channels):
    return PackedImage(channels=np.asarray(channels, dtype=np.float64),
                       space=SPACE_NORMALIZED, black_level=BLACK, white_level=WHITE)


def demosaic_oracle(mosaic):
    """Per-pixel bilinear reference: average in-bounds same-color neighbors."""
    h, w = mosaic.shape
    color = np.empty((h, w), dtype=int)  # 0=R 1=G 2=B
    color[0::2, 0::2] = 0
    color[0::2, 1::2] = 1
    color[1::2, 0::2] = 1
    color[1::2, 1::2] = 2
    offsets = {
        0: [(0, 0)], 1: [(0, 0)], 2: [(0, 0)],
    }
    kernel = {  # weights of the bilinear kernels over a 3x3 neighborhood
        "g": {(-1, 0): 1, (1, 0): 1, (0, -1): 1, (0, 1): 1, (0, 0): 4},
        "rb": {(-1, -1): 1, (-1, 1): 1, (1, -1): 1, (1, 1): 1,
               (-1, 0): 2, (1, 0): 2, (0, -1): 2, (0, 1): 2, (0, 0): 4},
    }
    out = np.zeros((h, w, 3))
    for y in range(h):
        for x in range(w):
            for ch, kname in ((0, "rb"), (1, "g"), (2, "rb")):
                num = den = 0.0
                for (dy, dx), wgt in kernel[kname].items():
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w and color[yy, xx] == ch:
                        num += wgt * mosaic[yy, xx]
                        den += wgt
                out[y, x, ch] = num / den
    return out


class TestRunIsp:
    def test_constant_gray_passthrough(self):
        v = 0.3
        img = packed(np.full((4, 8, 8), v))
        rgb = run_isp(img, IspConfig(gamma="none"))
        np.testing.assert_allclose(rgb, v, atol=1e-12)
        assert rgb.shape == (16, 16, 3)

    def test_gray_world_gains_on_constant(self):
        img = packed(np.full((4, 8, 8), 0.25))
        assert gray_world_gains(img) == (1.0, 1.0, 1.0)

    def test_gray_world_balances_casts(self):
        ch = np.stack([np.full((8, 8), 0.4), np.full((8, 8), 0.2),
                       np.full((8, 8), 0.2), np.full((8, 8), 0.1)])
        gains = gray_world_gains(packed(ch))
        assert gains[0] == pytest.approx(0.5)
        assert gains[2] == pytest.approx(2.0)
        rgb = run_isp(packed(ch), IspConfig(gamma="none"))
        np.testing.assert_allclose(rgb, 0.2, atol=1e-12)

    def test_impulse_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        ch = np.zeros((4, 4, 4))
        ch[0, 2, 2] = 1.0  # R-plane impulse at an interior site
        img = packed(ch)
        rgb = run_isp(img, IspConfig(wb=(1.0, 1.0, 1.0), gamma="none"))
        from rawbench.core import interleave_rggb
        oracle = demosaic_oracle(interleave_rggb(img.channels))
        np.testing.assert_allclose(rgb, np.clip(oracle, 0, 1), atol=1e-12)

    def test_random_mosaic_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        ch = rng.uniform(0, 1, (4, 4, 4))
        img = packed(ch)
        rgb = run_isp(img, IspConfig(wb=(1.0, 1.0, 1.0), gamma="none"))
        from rawbench.core import interleave_rggb
        oracle = demosaic_oracle(interleave_rggb(img.channels))
        np.testing.assert_allclose(rgb, np.clip(oracle, 0, 1), atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2), (5, 7), (64, 96)])
    def test_normalizers_equal_mask_convolution(self, shape):
        h, w = shape
        masks = np.zeros((3, h, w))
        masks[0, 0::2, 0::2] = 1.0
        masks[1, 0::2, 1::2] = 1.0
        masks[1, 1::2, 0::2] = 1.0
        masks[2, 1::2, 1::2] = 1.0
        for mask, kernel, color in zip(masks, (_K_CHROMA, _K_GREEN, _K_CHROMA), "rgb"):
            np.testing.assert_array_equal(
                _demosaic_normalizer(h, w, color),
                ndimage.convolve(mask, kernel, mode="constant", cval=0.0))

    def test_ccm_applied_per_pixel(self):
        swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        ch = np.stack([np.full((4, 4), 0.6), np.full((4, 4), 0.2),
                       np.full((4, 4), 0.2), np.full((4, 4), 0.4)])
        rgb = run_isp(packed(ch), IspConfig(wb=(1.0, 1.0, 1.0), ccm=swap, gamma="none"))
        np.testing.assert_allclose(rgb[..., 0], 0.2, atol=1e-12)
        np.testing.assert_allclose(rgb[..., 1], 0.6, atol=1e-12)

    def test_output_range_and_dims(self):
        rng = np.random.default_rng(2)
        img = packed(rng.uniform(0, 1, (4, 6, 10)))
        rgb = run_isp(img, IspConfig())
        assert rgb.shape == (12, 20, 3)
        assert rgb.min() >= 0.0 and rgb.max() <= 1.0

    def test_requires_normalized(self):
        img = PackedImage(channels=np.zeros((4, 4, 4)), space="dn",
                          black_level=BLACK, white_level=WHITE)
        with pytest.raises(DomainError):
            run_isp(img)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            IspConfig(wb=(1.0, -1.0, 1.0))
        with pytest.raises(DomainError):
            IspConfig(gamma="rec709")
        with pytest.raises(DomainError):
            IspConfig(ccm=np.zeros((2, 3)))


class TestSrgbGamma:
    def test_endpoints(self):
        assert srgb_gamma(0.0) == 0.0
        assert srgb_gamma(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_knee_value_both_branches(self):
        knee = 0.0031308
        linear = 12.92 * knee
        power = 1.055 * knee ** (1 / 2.4) - 0.055
        assert srgb_gamma(knee) == pytest.approx(linear, abs=1e-12)
        assert abs(linear - power) < 1e-7  # branches agree at the knee
        assert srgb_gamma(knee) == pytest.approx(0.0404499, abs=1e-6)

    def test_mid_value(self):
        assert float(srgb_gamma(0.5)) == pytest.approx(1.055 * 0.5 ** (1 / 2.4) - 0.055,
                                                       abs=1e-12)
        assert float(srgb_gamma(0.5)) == pytest.approx(0.735357, abs=1e-6)

    def test_monotone(self):
        v = np.linspace(0, 1, 1001)
        out = srgb_gamma(v)
        assert np.all(np.diff(out) > 0)

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(0, 1, 1000)
        np.testing.assert_allclose(srgb_gamma_inverse(srgb_gamma(v)), v, atol=1e-9)

    def test_strict_mode(self):
        with pytest.raises(DomainError):
            srgb_gamma(1.5, strict=True)
        assert srgb_gamma(1.5) == pytest.approx(1.0, abs=1e-12)


class TestImageFiles:
    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        rgb = rng.uniform(0, 1, (5, 7, 3))
        write_ppm16(rgb, tmp_path / "img.ppm")
        back = read_ppm16(tmp_path / "img.ppm")
        np.testing.assert_allclose(back, rgb, atol=0.5 / 65535)
        header = (tmp_path / "img.ppm").read_bytes()[:20]
        assert header.startswith(b"P6\n7 5\n65535\n")

    def test_rgb_rawb_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        rgb = rng.uniform(0, 1, (4, 6, 3)).astype(np.float32)
        write_rgb(rgb, tmp_path / "img.rawb", extra={"isp": {"wb": "gray-world"}})
        back = read_rgb(tmp_path / "img.rawb")
        np.testing.assert_array_equal(back, rgb)
