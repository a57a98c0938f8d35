import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from rawbench.calibration import (
    NoiseParams,
    SensorProfile,
    build_profile,
    correct_dark_frame,
    estimate_dark_shading,
    estimate_read_noise,
    estimate_system_gain,
    filter_by_sharpness,
    laplacian_variance,
    load_profile,
    save_profile,
)
from rawbench.core import PackedImage, Roi, SPACE_DN_ABOVE_BLACK
from rawbench.errors import (
    CalibrationWarning,
    DimensionError,
    InsufficientData,
    ProfileError,
    RawBenchError,
)

from conftest import BLACK, WHITE, make_frame


def laplacian_oracle(plane):
    """Brute-force 3x3 convolution with [[0,1,0],[1,-4,1],[0,1,0]], valid region."""
    p = np.asarray(plane, dtype=np.float64)
    h, w = p.shape
    vals = []
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            vals.append(p[y - 1, x] + p[y + 1, x] + p[y, x - 1] + p[y, x + 1] - 4 * p[y, x])
    vals = np.asarray(vals)
    return float(np.mean((vals - vals.mean()) ** 2))


class TestDarkShading:
    def test_mean_of_constants(self):
        darks = [make_frame(np.full((4, 4), v, dtype=np.float32)) for v in (100, 102, 104)]
        shading = estimate_dark_shading(darks, Roi(0, 0, 4, 4))
        np.testing.assert_allclose(shading, 102.0)

    def test_gradient_plus_offsets(self):
        grad = np.linspace(100, 200, 16).reshape(4, 4)
        darks = [make_frame((grad + off).astype(np.float64)) for off in (-1.0, 0.0, 1.0)]
        shading = estimate_dark_shading(darks, Roi(0, 0, 4, 4))
        np.testing.assert_allclose(shading, grad, rtol=1e-14)

    def test_roi_cropping(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(100, 200, (8, 8))
        darks = [make_frame(data), make_frame(data)]
        shading = estimate_dark_shading(darks, Roi(2, 2, 4, 4))
        np.testing.assert_allclose(shading, data[2:6, 2:6])

    def test_matches_bruteforce_mean(self):
        rng = np.random.default_rng(12)
        darks = [make_frame(rng.uniform(400, 700, (6, 6))) for _ in range(5)]
        shading = estimate_dark_shading(darks, Roi(0, 0, 6, 6))
        for y in range(6):
            for x in range(6):
                expect = sum(float(d.data[y, x]) for d in darks) / 5
                assert shading[y, x] == pytest.approx(expect, rel=1e-14)

    def test_single_frame_rejected(self):
        with pytest.raises(InsufficientData):
            estimate_dark_shading([make_frame(np.zeros((4, 4), dtype=np.uint16))], Roi(0, 0, 4, 4))

    def test_mixed_iso_rejected(self):
        darks = [make_frame(np.zeros((4, 4), dtype=np.uint16), iso=800),
                 make_frame(np.zeros((4, 4), dtype=np.uint16), iso=1600)]
        with pytest.raises(ProfileError):
            estimate_dark_shading(darks, Roi(0, 0, 4, 4))


class TestCorrectDarkFrame:
    def test_exact_match_gives_zero(self):
        shading = np.full((4, 4), 120.0)
        res = correct_dark_frame(make_frame(shading.copy()), shading)
        np.testing.assert_array_equal(res.channels, 0.0)
        assert res.space == "dn_above_black"

    def test_constant_offset(self):
        shading = np.full((4, 4), 120.0)
        res = correct_dark_frame(make_frame(shading + 5.0), shading)
        np.testing.assert_allclose(res.channels, 5.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            correct_dark_frame(make_frame(np.zeros((4, 4), dtype=np.uint16)), np.zeros((6, 6)))

    def test_library_residuals_are_zero_mean(self):
        # Same-set correction: residual mean over the library is exactly zero
        # per pixel; against the true shading it stays within sampling error.
        rng = np.random.default_rng(1)
        sigma, m = 5.0, 16
        true_shading = np.full((32, 32), 512.0)
        darks = [make_frame(true_shading + rng.normal(0, sigma, (32, 32))) for _ in range(m)]
        est_shading = estimate_dark_shading(darks, Roi(0, 0, 32, 32))
        res_same = np.mean([correct_dark_frame(d, est_shading).channels for d in darks], axis=0)
        np.testing.assert_allclose(res_same, 0.0, atol=1e-10)
        res_true = np.mean([correct_dark_frame(d, true_shading).channels for d in darks], axis=0)
        assert abs(res_true.mean()) < 3 * sigma / np.sqrt(m * res_true.size)


class TestReadNoise:
    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(42)
        sigma_row, sigma_read = 2.0, 5.0
        resids = []
        for _ in range(16):
            rows = rng.normal(0, sigma_row, 256)[:, None]
            noise = rows + rng.normal(0, sigma_read, (256, 256))
            resids.append(correct_dark_frame(make_frame(noise + 512.0), np.full((256, 256), 512.0)))
        sr, srow = estimate_read_noise(resids)
        assert abs(sr - sigma_read) / sigma_read <= 0.02
        assert abs(srow - sigma_row) / sigma_row <= 0.05

    def test_all_zero(self):
        res = correct_dark_frame(make_frame(np.full((8, 8), 512.0)), np.full((8, 8), 512.0))
        assert estimate_read_noise([res]) == (0.0, 0.0)

    def test_constant_per_frame_offset_absorbed(self):
        resids = [
            correct_dark_frame(make_frame(np.full((8, 8), 512.0 + c)), np.full((8, 8), 512.0))
            for c in (-3.0, 0.0, 4.0)
        ]
        sr, srow = estimate_read_noise(resids)
        assert sr == pytest.approx(0.0, abs=1e-12)
        assert srow == pytest.approx(0.0, abs=1e-12)

    def test_column_banding_axis(self):
        rng = np.random.default_rng(7)
        cols = rng.normal(0, 3.0, 128)[None, :]
        noise = cols + rng.normal(0, 1.0, (128, 128))
        res = correct_dark_frame(make_frame(noise + 512.0), np.full((128, 128), 512.0))
        _, srow_wrong = estimate_read_noise([res], band_axis="row")
        _, srow_right = estimate_read_noise([res], band_axis="col")
        assert abs(srow_right - 3.0) / 3.0 < 0.15
        assert srow_wrong < 1.0

    def test_empty_rejected(self):
        with pytest.raises(InsufficientData):
            estimate_read_noise([])


class TestSystemGain:
    def test_exact_line(self):
        means = np.linspace(5, 500, 20)
        pts = [(m, 0.8 * m + 4.0) for m in means]
        k, floor = estimate_system_gain(pts)
        assert k == pytest.approx(0.8, rel=1e-9)
        assert floor == pytest.approx(4.0, rel=1e-9)

    def test_two_points(self):
        k, floor = estimate_system_gain([(10.0, 12.0), (20.0, 20.0)])
        assert k == pytest.approx(0.8, rel=1e-12)
        assert floor == pytest.approx(4.0, rel=1e-12)

    def test_perturbed_levels(self):
        rng = np.random.default_rng(3)
        means = np.linspace(10, 2000, 50)
        pts = [(m, (0.8 * m + 4.0) * (1 + rng.normal(0, 0.01))) for m in means]
        k, _ = estimate_system_gain(pts)
        assert abs(k - 0.8) / 0.8 <= 0.01

    def test_degenerate_points(self):
        with pytest.raises(InsufficientData):
            estimate_system_gain([(10.0, 5.0)])
        with pytest.raises(InsufficientData):
            estimate_system_gain([(10.0, 5.0), (10.0, 6.0)])

    def test_negative_slope_flagged(self):
        with pytest.warns(CalibrationWarning):
            k, _ = estimate_system_gain([(10.0, 20.0), (20.0, 10.0)])
        assert k < 0


class TestLaplacianVariance:
    def test_constant_is_zero(self):
        assert laplacian_variance(np.full((8, 8), 3.7)) == 0.0

    def test_linear_ramp_is_zero(self):
        x = np.tile(np.arange(8, dtype=np.float64), (8, 1))
        assert laplacian_variance(x) == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-1.0, 1.0)])
    def test_checkerboard_matches_oracle(self, lo, hi):
        y, x = np.mgrid[0:6, 0:6]
        board = np.where((x + y) % 2 == 0, hi, lo)
        assert laplacian_variance(board) == pytest.approx(laplacian_oracle(board), rel=1e-12)

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0, 1, (7, 9))
        assert laplacian_variance(p) == pytest.approx(laplacian_oracle(p), rel=1e-12)

    def test_too_small(self):
        with pytest.raises(DimensionError):
            laplacian_variance(np.zeros((2, 5)))

    def test_sharpness_filter_drops_blurriest(self):
        rng = np.random.default_rng(5)
        sharp = [rng.uniform(0, 1, (16, 16)) for _ in range(8)]
        blurry = [np.full((16, 16), 0.5) for _ in range(2)]
        planes = blurry[:1] + sharp + blurry[1:]
        kept = filter_by_sharpness(planes, drop_fraction=0.2)
        assert 0 not in kept and len(planes) - 1 not in kept
        assert len(kept) == 8


class TestBuildProfile:
    def _darks(self, iso, rng, n=4, side=16):
        return [
            make_frame(rng.normal(512.0, 2.0, (side, side)).clip(0), iso=iso)
            for _ in range(n)
        ]

    def test_structural_two_isos(self):
        rng = np.random.default_rng(6)
        darks = {800: self._darks(800, rng), 1600: self._darks(1600, rng)}
        prof = build_profile("camA", [800, 1600], darks, provided_gains={800: 0.8, 1600: 1.6})
        assert sorted(prof.iso_params) == [800, 1600]
        assert len(prof.dark_library[800]) == 4
        assert prof.dark_shading[800].shape == (16, 16)

    def test_provided_gains_stored_verbatim(self):
        rng = np.random.default_rng(7)
        prof = build_profile("camA", [800], {800: self._darks(800, rng)},
                             provided_gains={800: 0.7431})
        assert prof.iso_params[800].K == 0.7431

    def test_ptc_fallback(self):
        rng = np.random.default_rng(8)
        pts = [(m, 0.9 * m + 3.0) for m in np.linspace(10, 100, 5)]
        prof = build_profile("camA", [800], {800: self._darks(800, rng)},
                             ptc_points_by_iso={800: pts})
        assert prof.iso_params[800].K == pytest.approx(0.9, rel=1e-9)

    def test_missing_darks(self):
        with pytest.raises(ProfileError):
            build_profile("camA", [800], {}, provided_gains={800: 1.0})

    def test_no_iso_settings(self):
        with pytest.raises(InsufficientData, match="at least one ISO"):
            build_profile("camA", [], {})

    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        darks = {800: self._darks(800, rng), 3200: self._darks(3200, rng)}
        prof = build_profile("camA", [800, 3200], darks,
                             provided_gains={800: 0.8123456789, 3200: 3.2987654321})
        save_profile(prof, tmp_path / "prof.json")
        back = load_profile(tmp_path / "prof.json")
        assert back.camera_id == prof.camera_id
        np.testing.assert_allclose(back.black_level, prof.black_level, rtol=1e-12)
        assert back.white_level == prof.white_level
        assert back.effective_roi == prof.effective_roi
        for iso in (800, 3200):
            a, b = prof.iso_params[iso], back.iso_params[iso]
            assert b.K == pytest.approx(a.K, rel=1e-12)
            assert b.sigma_read == pytest.approx(a.sigma_read, rel=1e-12)
            assert b.sigma_row == pytest.approx(a.sigma_row, rel=1e-12)
            assert b.quant_step == a.quant_step
            # arrays are stored as f32; the cast is the only loss
            np.testing.assert_array_equal(
                back.dark_shading[iso], prof.dark_shading[iso].astype(np.float32)
            )
            assert len(back.dark_library[iso]) == len(prof.dark_library[iso])
            np.testing.assert_array_equal(
                back.dark_library[iso][0].channels,
                prof.dark_library[iso][0].channels.astype(np.float32),
            )


def _fixed_profile():
    ramp = (np.arange(64).reshape(8, 8) * 37 % 101).astype(np.float64)
    residual = PackedImage(channels=(ramp.reshape(4, 4, 4) - 50.0) / 8.0, space=SPACE_DN_ABOVE_BLACK,
                           black_level=BLACK, white_level=WHITE, camera_id="camA", iso=800)
    return SensorProfile(
        camera_id="camA",
        black_level=BLACK,
        white_level=WHITE,
        effective_roi=Roi(2, 4, 8, 8),
        iso_params={800: NoiseParams(K=0.8123456789, sigma_read=3.25, sigma_row=0.5),
                    3200: NoiseParams(K=3.3, sigma_read=9.0, sigma_row=1.75, quant_step=0.5)},
        dark_shading={800: ramp + 512.0},
        dark_library={800: [residual, replace(residual, channels=-residual.channels)], 3200: []},
    )


class TestLoadProfileErrors:
    @pytest.mark.parametrize("damage, match", [
        (lambda doc: doc.pop("isos"), "missing field 'isos'"),
        (lambda doc: doc["isos"]["800"].pop("K"), "'K'"),
        (lambda doc: doc["isos"]["800"].update(K="fast"), "malformed"),
        (lambda doc: doc["isos"]["800"].update(K=-1.0), "system gain"),
        (lambda doc: doc.update(isos=[800]), "malformed"),
        (lambda doc: doc["effective_roi"].pop("h"), "'h'"),
        (lambda doc: doc.update(effective_roi={"x0": 1, "y0": 0, "w": 8, "h": 8}), "x0"),
        (lambda doc: doc.update(white_level=100.0), "0 <= black < white"),
        (lambda doc: doc.update(black_level=[1.0, 2.0, 3.0]), "4 values"),
        (lambda doc: doc["isos"]["800"].update(dark_library="abc.rawb"), "ISO 800: dark_library"),
        (lambda doc: doc["isos"]["3200"].update(dark_library=[1, 2]), "ISO 3200: dark_library"),
    ], ids=["no-isos", "no-K", "string-K", "negative-K", "isos-list", "roi-no-h", "roi-odd-x0",
            "white-below-black", "black-3-values", "string-dark-library", "number-dark-library"])
    def test_damaged_profile_names_the_file(self, tmp_path, damage, match):
        path = tmp_path / "prof.json"
        save_profile(_fixed_profile(), path)
        doc = json.loads(path.read_text())
        damage(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(RawBenchError, match=match) as err:
            load_profile(path)
        assert str(err.value).startswith(f"{path}: ")
        assert isinstance(err.value, (ProfileError, DimensionError))


@pytest.mark.parametrize("black, white", [(512.0, 100.0), (512.0, 512.0), (-1.0, 100.0)])
def test_profile_levels_follow_the_image_rule(black, white):
    with pytest.raises(ProfileError, match="0 <= black < white"):
        replace(_fixed_profile(), black_level=black, white_level=white)


def test_profile_levels_stored_as_in_rawframe():
    prof = replace(_fixed_profile(), black_level=64, white_level=1023)
    np.testing.assert_array_equal(prof.black_level, np.full(4, 64.0))
    assert prof.black_level.dtype == np.float64 and type(prof.white_level) is float


class TestStoredProfile:
    """Exact bytes of a saved profile and its sidecars (the profile format is frozen)."""

    PINNED = {
        "prof.json": "a12ebe0a8e3f88f897f78e574976a5af0fdb4a9f323414799fadcceaa78bd197",
        "prof_iso800_shading.rawb": "e680cf8df000868a99351d409af34b6a70276c70942ad47e4efe1182b0cc6cc3",
        "prof_iso800_dark000.rawb": "4d689a9e26f4c26e0c3e3e14e77e5832e1186bbe79252b7be89384331e6f8006",
        "prof_iso800_dark001.rawb": "acf69f485dea846c5669ca7626aeaf11d5172480f15b834f3032771e54cd1e78",
    }

    def _digests(self, directory):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(directory.iterdir())}

    def test_save_profile_bytes(self, tmp_path):
        save_profile(_fixed_profile(), tmp_path / "prof.json")
        assert self._digests(tmp_path) == self.PINNED

    def test_resaved_profile_is_byte_identical(self, tmp_path):
        save_profile(_fixed_profile(), tmp_path / "a" / "prof.json")
        save_profile(load_profile(tmp_path / "a" / "prof.json"), tmp_path / "b" / "prof.json")
        assert self._digests(tmp_path / "b") == self._digests(tmp_path / "a")
