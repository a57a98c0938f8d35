import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from rawbench import core
from rawbench.core import PackedImage, SPACE_NORMALIZED, interleave_rggb, read_rgb, write_rgb
from rawbench.errors import DomainError
from rawbench.isp import (
    IspConfig,
    _demosaic_bilinear,
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


# Bilinear kernels over the sparse same-color mosaics; in the interior they
# reduce to the classic half/quarter neighbor weights.
K_GREEN = np.array([[0.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 0.0]]) / 4.0
K_CHROMA = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]]) / 4.0


def demosaic_convolution(mosaic):
    """Normalised-convolution reference: convolve each color's masked mosaic
    and its 0/1 site mask with the color's kernel, and divide."""
    h, w = mosaic.shape
    masks = np.zeros((3, h, w))
    masks[0, 0::2, 0::2] = 1.0
    masks[1, 0::2, 1::2] = 1.0
    masks[1, 1::2, 0::2] = 1.0
    masks[2, 1::2, 1::2] = 1.0
    return np.stack([
        ndimage.convolve(mosaic * mask, kernel, mode="constant", cval=0.0)
        / ndimage.convolve(mask, kernel, mode="constant", cval=0.0)
        for mask, kernel in zip(masks, (K_CHROMA, K_GREEN, K_CHROMA))
    ], axis=-1)


def isp_whole_image(img, cfg):
    """run_isp's chain on the whole image at once: gains, remosaic, demosaic
    of the full mosaic, gamma, clip."""
    gains = gray_world_gains(img) if cfg.wb == "gray_world" else cfg.wb
    balanced = img.channels * np.asarray([gains[0], gains[1], gains[1], gains[2]])[:, None, None]
    rgb = _demosaic_bilinear(interleave_rggb(balanced))
    if cfg.gamma == "srgb":
        rgb = srgb_gamma(rgb)
    return np.clip(rgb, 0.0, 1.0)


def ppm_whole_image(rgb):
    """write_ppm16's bytes with the payload encoded from the whole array at once."""
    h, w = rgb.shape[:2]
    scaled = np.rint(np.clip(np.asarray(rgb, dtype=np.float64), 0.0, 1.0) * 65535.0)
    return f"P6\n{w} {h}\n65535\n".encode("ascii") + scaled.astype(">u2").tobytes()


PLANE_BAND = core._BAND_ROWS // 2  # plane rows in one band of ISP output rows


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
        oracle = demosaic_oracle(interleave_rggb(img.channels))
        np.testing.assert_allclose(rgb, np.clip(oracle, 0, 1), atol=1e-12)

    def test_random_mosaic_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        ch = rng.uniform(0, 1, (4, 4, 4))
        img = packed(ch)
        rgb = run_isp(img, IspConfig(wb=(1.0, 1.0, 1.0), gamma="none"))
        oracle = demosaic_oracle(interleave_rggb(img.channels))
        np.testing.assert_allclose(rgb, np.clip(oracle, 0, 1), atol=1e-12)

    @pytest.mark.parametrize(
        "shape", [(2, 2), (2, 4), (4, 6), (10, 14), (64, 96), (1220, 1036), (1204, 1540)]
    )
    def test_demosaic_equals_normalized_convolution(self, shape):
        mosaic = np.random.default_rng(shape[0]).uniform(0, 1.5, shape)
        np.testing.assert_array_equal(_demosaic_bilinear(mosaic), demosaic_convolution(mosaic))

    @settings(max_examples=60, deadline=None)
    @given(half_h=st.integers(1, 40), half_w=st.integers(1, 40), seed=st.integers(0, 2**16))
    def test_demosaic_equals_normalized_convolution_property(self, half_h, half_w, seed):
        rng = np.random.default_rng(seed)
        # a few repeated values and zeros alongside arbitrary ones
        mosaic = rng.choice([0.0, 0.5, rng.uniform(0, 4)], (2 * half_h, 2 * half_w))
        mosaic += rng.uniform(0, 1, mosaic.shape) * (rng.uniform(size=mosaic.shape) < 0.7)
        np.testing.assert_array_equal(_demosaic_bilinear(mosaic), demosaic_convolution(mosaic))

    @settings(max_examples=80, deadline=None)
    @given(
        h=st.sampled_from([1, PLANE_BAND - 1, PLANE_BAND, PLANE_BAND + 1, 2 * PLANE_BAND + 1]),
        w=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        wb=st.one_of(st.just("gray_world"),
                     st.tuples(*[st.floats(0.05, 8.0)] * 3)),
        gamma=st.sampled_from(["srgb", "none"]),
    )
    @example(h=1, w=1, seed=0, wb="gray_world", gamma="srgb")
    @example(h=2 * PLANE_BAND + 1, w=40, seed=1, wb=(2.0, 1.0, 1.5), gamma="none")
    def test_banded_equals_whole_image_chain(self, h, w, seed, wb, gamma):
        rng = np.random.default_rng(seed)
        img = packed(rng.uniform(0, 1, (4, h, w)) * (rng.uniform(size=(4, h, w)) < 0.9))
        cfg = IspConfig(wb=wb, gamma=gamma)
        assert np.array_equal(run_isp(img, cfg), isp_whole_image(img, cfg))

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
        # there is no strict mode: input outside [0, 1] is clamped
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

    @settings(max_examples=40, deadline=None)
    @given(h=st.integers(1, 3 * core._BAND_ROWS + 1).filter(lambda h: h % core._BAND_ROWS),
           w=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.float64, np.float32]))
    @example(h=1, w=1, seed=0, dtype=np.float64)
    @example(h=core._BAND_ROWS + 1, w=7, seed=1, dtype=np.float32)
    def test_ppm_bytes_equal_whole_array_encoding(self, tmp_path_factory, h, w, seed, dtype):
        rng = np.random.default_rng(seed)
        rgb = rng.uniform(-0.2, 1.2, (h, w, 3)).astype(dtype)  # clipped at both ends
        path = tmp_path_factory.mktemp("ppm") / "img.ppm"
        write_ppm16(rgb, path)
        assert path.read_bytes() == ppm_whole_image(rgb)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ppm_non_finite_rejected_without_a_file(self, tmp_path, bad):
        rgb = np.full((core._BAND_ROWS + 3, 5, 3), 0.5)
        rgb[core._BAND_ROWS + 1, 2, 1] = bad  # in the second band, after the first is written
        with pytest.raises(DomainError, match="img.ppm: non-finite"):
            write_ppm16(rgb, tmp_path / "img.ppm")
        assert not (tmp_path / "img.ppm").exists()

    # SHA-256 of the PPM of a seeded render, computed with the whole-image
    # ISP and encoder (the second with the former identity color matrix);
    # 61 plane rows are 122 output rows, one full band and one ragged one.
    @pytest.mark.parametrize("cfg, digest", [
        (IspConfig(), "3dde791cb8d7612d5c3bf3c79d422507f2b0a69059b5f21dcc0ef7c8d6cf0d98"),
        (IspConfig(wb=(2.0, 1.0, 1.5), gamma="none"),
         "5137e63be63a0c91e572d67a721376be2e09e955354fdd94384779ac99eb4a9f"),
    ])
    def test_seeded_render_digest(self, tmp_path, cfg, digest):
        img = packed(np.random.default_rng(61).uniform(0, 1, (4, 61, 37)))
        write_ppm16(run_isp(img, cfg), tmp_path / "img.ppm")
        assert hashlib.sha256((tmp_path / "img.ppm").read_bytes()).hexdigest() == digest

    def test_rgb_rawb_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        rgb = rng.uniform(0, 1, (4, 6, 3)).astype(np.float32)
        write_rgb(rgb, tmp_path / "img.rawb", extra={"isp": {"wb": "gray-world"}})
        back = read_rgb(tmp_path / "img.rawb")
        np.testing.assert_array_equal(back, rgb)

    @pytest.mark.parametrize("header", [
        b"P6\n# made by gimp\n7 5\n65535\n",
        b"P6 7 5 65535\n",
        b"P6#c1\n7\t5 # c2\r\n# c3\n65535 ",
    ])
    def test_ppm_netpbm_headers(self, tmp_path, header):
        rgb = np.random.default_rng(6).uniform(0, 1, (5, 7, 3))
        write_ppm16(rgb, tmp_path / "img.ppm")
        payload = (tmp_path / "img.ppm").read_bytes()[len(b"P6\n7 5\n65535\n"):]
        (tmp_path / "other.ppm").write_bytes(header + payload)
        np.testing.assert_array_equal(read_ppm16(tmp_path / "other.ppm"),
                                      read_ppm16(tmp_path / "img.ppm"))

    def test_ppm_truncated_payload_names_file(self, tmp_path):
        write_ppm16(np.zeros((5, 7, 3)), tmp_path / "img.ppm")
        blob = (tmp_path / "img.ppm").read_bytes()
        (tmp_path / "cut.ppm").write_bytes(blob[:-1])
        with pytest.raises(DomainError, match="cut.ppm: payload is 209 bytes"):
            read_ppm16(tmp_path / "cut.ppm")

    @pytest.mark.parametrize("header", [b"P5\n7 5\n65535\n", b"P6\n7 5\n255\n", b"P6\n7\n"])
    def test_ppm_bad_header_rejected(self, tmp_path, header):
        (tmp_path / "bad.ppm").write_bytes(header + bytes(210))
        with pytest.raises(DomainError, match="bad.ppm"):
            read_ppm16(tmp_path / "bad.ppm")
