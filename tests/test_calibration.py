import hashlib
import json
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rawbench import calibration
from rawbench.calibration import (
    NoiseParams,
    SensorProfile,
    build_profile,
    estimate_system_gain,
    load_profile,
    save_profile,
)
from rawbench.core import (
    PackedImage,
    RawFrame,
    Roi,
    SPACE_DN_ABOVE_BLACK,
    crop_frame,
    interleave_rggb,
    pack_rggb,
    split_rggb,
    write_packed,
)
from rawbench.errors import (
    CalibrationWarning,
    DimensionError,
    InsufficientData,
    ProfileError,
    RawBenchError,
)
from rawbench.synth import BatchConfig, make_pair_batch

from conftest import BLACK, WHITE, make_frame


class TestDarkShading:
    def test_mean_of_constants(self):
        darks = [make_frame(np.full((4, 4), v, dtype=np.float32)) for v in (100, 102, 104)]
        shading = calibration._dark_shading(darks, Roi(0, 0, 4, 4))
        np.testing.assert_allclose(shading, 102.0)

    def test_gradient_plus_offsets(self):
        grad = np.linspace(100, 200, 16).reshape(4, 4)
        darks = [make_frame((grad + off).astype(np.float64)) for off in (-1.0, 0.0, 1.0)]
        shading = calibration._dark_shading(darks, Roi(0, 0, 4, 4))
        np.testing.assert_allclose(shading, grad, rtol=1e-14)

    def test_roi_cropping(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(100, 200, (8, 8))
        darks = [make_frame(data), make_frame(data)]
        shading = calibration._dark_shading(darks, Roi(2, 2, 4, 4))
        np.testing.assert_allclose(shading, data[2:6, 2:6])

    def test_matches_bruteforce_mean(self):
        rng = np.random.default_rng(12)
        darks = [make_frame(rng.uniform(400, 700, (6, 6))) for _ in range(5)]
        shading = calibration._dark_shading(darks, Roi(0, 0, 6, 6))
        for y in range(6):
            for x in range(6):
                expect = sum(float(d.data[y, x]) for d in darks) / 5
                assert shading[y, x] == pytest.approx(expect, rel=1e-14)

    def test_mixed_levels_rejected(self, monkeypatch):
        # blacks of 512 and 256 gave a map of mean 384, a pedestal neither has;
        # build_profile refuses them before any shading is made
        darks = [make_frame(np.full((4, 4), 600.0)),
                 make_frame(np.full((4, 4), 300.0), black=np.full(4, 256.0))]
        monkeypatch.setattr(calibration, "_map", None)
        with pytest.raises(ProfileError, match=re.escape(
                "ISO 800 dark 1 has black_level [256.0, 256.0, 256.0, 256.0] but ISO 800 dark 0 "
                "has [512.0, 512.0, 512.0, 512.0]")):
            build_profile("camA", [800], {800: darks}, provided_gains={800: 0.8})


def _sigmas(darks, band_axis="row"):
    """build_profile's (sigma_read, sigma_row) of one ISO's darks."""
    params = build_profile("camA", [800], {800: darks}, provided_gains={800: 0.8},
                           band_axis=band_axis).iso_params[800]
    return params.sigma_read, params.sigma_row


def _antithetic(shading, noises):
    """Darks ``shading + n`` and ``shading - n`` for each n: their mean is
    the shading, so each residual is exactly +n or -n."""
    return [make_frame(shading + sign * n) for n in noises for sign in (1.0, -1.0)]


class TestCorrectDarkFrame:
    """Dark-frame correction in build_profile: each library image is its
    dark minus the shading of its ISO's darks, split to RGGB."""

    def test_exact_match_gives_zero(self):
        shading = np.full((4, 4), 120.0)
        prof = build_profile("camA", [800], {800: [make_frame(shading.copy())] * 2},
                             provided_gains={800: 0.8})
        for res in prof.dark_library[800]:
            np.testing.assert_array_equal(res.channels, 0.0)
            assert res.space == "dn_above_black"

    def test_constant_offset(self):
        prof = build_profile("camA", [800], {800: _antithetic(np.full((4, 4), 120.0), [5.0])},
                             provided_gains={800: 0.8})
        np.testing.assert_array_equal(prof.dark_library[800][0].channels, 5.0)
        np.testing.assert_array_equal(prof.dark_library[800][1].channels, -5.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError, match=re.escape(
                "ISO 800: roi Roi(x0=0, y0=0, w=6, h=6) does not fit darks of 4x4")):
            build_profile("camA", [800], {800: [make_frame(np.zeros((4, 4), np.uint16))] * 2},
                          provided_gains={800: 0.8}, roi=Roi(0, 0, 6, 6))

    def test_library_residuals_are_zero_mean(self):
        # Same-set correction: residual mean over the library is exactly zero
        # per pixel; against the true shading it stays within sampling error.
        rng = np.random.default_rng(1)
        sigma, m = 5.0, 16
        true_shading = np.full((32, 32), 512.0)
        darks = [make_frame(true_shading + rng.normal(0, sigma, (32, 32))) for _ in range(m)]
        est_shading = calibration._dark_shading(darks, Roi(0, 0, 32, 32))
        res_same = np.mean([d.data - est_shading for d in darks], axis=0)
        np.testing.assert_allclose(res_same, 0.0, atol=1e-10)
        res_true = np.mean([d.data - true_shading for d in darks], axis=0)
        assert abs(res_true.mean()) < 3 * sigma / np.sqrt(m * res_true.size)


class TestReadNoise:
    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(42)
        sigma_row, sigma_read = 2.0, 5.0
        noises = [rng.normal(0, sigma_row, 256)[:, None] + rng.normal(0, sigma_read, (256, 256))
                  for _ in range(8)]
        sr, srow = _sigmas(_antithetic(np.full((256, 256), 512.0), noises))
        assert abs(sr - sigma_read) / sigma_read <= 0.02
        assert abs(srow - sigma_row) / sigma_row <= 0.05

    def test_all_zero(self):
        assert _sigmas([make_frame(np.full((8, 8), 512.0))] * 2) == (0.0, 0.0)

    def test_constant_per_frame_offset_absorbed(self):
        darks = [make_frame(np.full((8, 8), 512.0 + c)) for c in (-3.0, 0.0, 4.0)]
        assert _sigmas(darks) == (0.0, 0.0)

    def test_column_banding_axis(self):
        rng = np.random.default_rng(7)
        cols = rng.normal(0, 3.0, 128)[None, :]
        noise = cols + rng.normal(0, 1.0, (128, 128))
        darks = _antithetic(np.full((128, 128), 512.0), [noise])
        _, srow_wrong = _sigmas(darks, band_axis="row")
        _, srow_right = _sigmas(darks, band_axis="col")
        assert abs(srow_right - 3.0) / 3.0 < 0.15
        assert srow_wrong < 1.0

    @pytest.mark.parametrize("n", [2, 8])
    def test_independent_darks_read_shrunk_by_n_minus_1_over_n(self, n):
        # residuals from the mean of the same n darks have variance
        # (n - 1) / n of the sensor's; both sigmas are stored as measured.
        # 2048 rows hold the band estimate's own spread near 1 % at n = 2
        rng = np.random.default_rng(n)
        sigma_row, sigma_read = 2.0, 5.0
        darks = [make_frame(512.0 + rng.normal(0, sigma_row, 2048)[:, None]
                            + rng.normal(0, sigma_read, (2048, 256))) for _ in range(n)]
        shrink = np.sqrt((n - 1) / n)
        sr, srow = _sigmas(darks)
        assert abs(sr - shrink * sigma_read) / (shrink * sigma_read) <= 0.02
        assert abs(srow - shrink * sigma_row) / (shrink * sigma_row) <= 0.05

    def test_empty_rejected(self):
        with pytest.raises(ProfileError, match="no dark frames supplied for ISO 800"):
            _sigmas([])
        with pytest.raises(InsufficientData, match="ISO 800: need >= 2 dark frames, got 1"):
            _sigmas([make_frame(np.full((8, 8), 512.0))])


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
        assert {(img.channels.shape, img.channels.dtype) for img in prof.dark_library[800]} \
            == {((4, 8, 8), np.dtype(np.float32))}

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
            # the images are the sidecars: they come back as they were built
            assert [r.channels.tobytes() for r in back.dark_library[iso]] == \
                [r.channels.tobytes() for r in prof.dark_library[iso]]

    def test_bad_band_axis_fails_before_any_frame_is_read(self):
        # no darks at all: a check made after the first frame would raise
        # "no dark frames supplied" instead
        with pytest.raises(ValueError,
                           match=r"band_axis must be one of \('row', 'col'\), got 'diag'"):
            build_profile("camA", [800], {}, provided_gains={800: 1.0}, band_axis="diag")

    def test_each_dark_set_is_checked_once(self, monkeypatch):
        # the shading map used to run the dark-set rule again: 800, 1600, 800, 1600
        rng = np.random.default_rng(19)
        darks = {800: self._darks(800, rng), 1600: self._darks(1600, rng)}
        checked, check = [], calibration._check_darks

        def check_darks(iso, *args):
            checked.append(iso)
            return check(iso, *args)

        monkeypatch.setattr(calibration, "_check_darks", check_darks)
        build_profile("camA", [800, 1600], darks, provided_gains={800: 0.8, 1600: 1.6})
        assert checked == [800, 1600]

    def test_darks_of_another_iso_name_both_isos(self):
        # ISO-1600 darks filed under ISO 800 would give ISO 800 their noise
        rng = np.random.default_rng(11)
        darks = {800: self._darks(800, rng)[:3] + self._darks(1600, rng, n=1)}
        with pytest.raises(ProfileError, match="ISO 800 darks include frames of ISO 1600"):
            build_profile("camA", [800], darks, provided_gains={800: 0.8})

    # one dark of another camera or with other levels, in the first ISO or
    # a later one: the profile would keep the first dark's levels
    @pytest.mark.parametrize("iso, k, change, message", [
        (800, 2, {"camera": "camB"}, "ISO 800 dark 2 has camera_id 'camB' but ISO 800 dark 0 "
                                     "has 'camA'"),
        (1600, 0, {"camera": "camB"}, "ISO 1600 dark 0 has camera_id 'camB' but ISO 800 dark 0 "
                                      "has 'camA'"),
        (1600, 3, {"black": np.array([512.0, 512.0, 512.0, 500.0])},
         "ISO 1600 dark 3 has black_level [512.0, 512.0, 512.0, 500.0] but ISO 800 dark 0 has "
         "[512.0, 512.0, 512.0, 512.0]"),
        (1600, 1, {"white": 4095.0}, "ISO 1600 dark 1 has white_level 4095.0 but ISO 800 "
                                     "dark 0 has 16383.0"),
    ], ids=["camera-same-iso", "camera-later-iso", "black", "white"])
    @pytest.mark.parametrize("camera_id", ["camA", "X"])
    def test_mixed_darks_fail_before_any_frame_is_calibrated(self, monkeypatch, iso, k, change,
                                                             message, camera_id):
        # camera_id retags the profile; it does not let darks mix cameras
        rng = np.random.default_rng(12)
        darks = {800: self._darks(800, rng), 1600: self._darks(1600, rng)}
        darks[iso][k] = make_frame(darks[iso][k].data, iso=iso, **change)
        monkeypatch.setattr(calibration, "_map", None)  # no task may start
        with pytest.raises(ProfileError, match=re.escape(message)):
            build_profile(camera_id, [800, 1600], darks, provided_gains={800: 0.8, 1600: 1.6})

    def test_missing_gain_fails_before_any_frame_is_calibrated(self, monkeypatch):
        rng = np.random.default_rng(13)
        darks = {800: self._darks(800, rng), 1600: self._darks(1600, rng)}
        monkeypatch.setattr(calibration, "_map", None)
        with pytest.raises(ProfileError, match="ISO 1600: no gain provided and no PTC points"):
            build_profile("camA", [800, 1600], darks, provided_gains={800: 0.8})

    @pytest.mark.parametrize("gain", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_gain_fails_before_any_frame_is_calibrated(self, monkeypatch, gain):
        # a gain of -1 used to fail only after every ISO's shading was made,
        # and its message named no ISO
        rng = np.random.default_rng(14)
        darks = {800: self._darks(800, rng), 1600: self._darks(1600, rng)}
        monkeypatch.setattr(calibration, "_dark_shading", None)
        monkeypatch.setattr(calibration, "_map", None)
        with pytest.raises(ProfileError, match=re.escape(
                f"ISO 1600: system gain K must be finite and > 0, got {gain}")):
            build_profile("camA", [800, 1600], darks, provided_gains={800: 0.8, 1600: gain})

    def test_non_positive_ptc_gain_fails_before_any_frame_is_calibrated(self, monkeypatch):
        rng = np.random.default_rng(15)
        monkeypatch.setattr(calibration, "_dark_shading", None)
        monkeypatch.setattr(calibration, "_map", None)
        with pytest.warns(CalibrationWarning), pytest.raises(
                ProfileError, match="ISO 800: system gain K must be finite and > 0, got -1"):
            build_profile("camA", [800], {800: self._darks(800, rng)},
                          ptc_points_by_iso={800: [(10.0, 20.0), (20.0, 10.0)]})

    # (ISO 1600's darks from the 16x16 ones, roi, error, message): each used
    # to fail only after ISO 800 was calibrated, and most named no ISO
    BAD_LATER_ISO = {
        "one-dark": (lambda darks, big: darks[:1], None, InsufficientData,
                     "ISO 1600: need >= 2 dark frames, got 1"),
        "mixed-sizes": (lambda darks, big: darks[:3] + big[:1], Roi(0, 0, 8, 8), ProfileError,
                        "ISO 1600 darks have mixed dimensions: dark 3 is 24x24, dark 0 16x16"),
        "roi-too-large": (lambda darks, big: darks, Roi(0, 0, 20, 20), DimensionError,
                          "ISO 1600: roi Roi(x0=0, y0=0, w=20, h=20) does not fit darks of 16x16"),
    }

    @pytest.mark.parametrize("case", BAD_LATER_ISO)
    def test_bad_later_iso_fails_before_any_frame_is_calibrated(self, monkeypatch, case):
        darks_of, roi, error, message = self.BAD_LATER_ISO[case]
        rng = np.random.default_rng(16)
        darks = {800: self._darks(800, rng, side=24),
                 1600: darks_of(self._darks(1600, rng), self._darks(1600, rng, side=24))}
        monkeypatch.setattr(calibration, "_dark_shading", None)
        monkeypatch.setattr(calibration, "_map", None)
        with pytest.raises(error, match=re.escape(message)):
            build_profile("camA", [800, 1600], darks, provided_gains={800: 0.8, 1600: 1.6},
                          roi=roi)

    def test_first_iso_of_mixed_sizes_fails_before_any_frame_is_calibrated(self, monkeypatch):
        rng = np.random.default_rng(17)
        darks = {800: self._darks(800, rng)[:2] + self._darks(800, rng, n=1, side=8)}
        monkeypatch.setattr(calibration, "_dark_shading", None)
        monkeypatch.setattr(calibration, "_map", None)
        with pytest.raises(ProfileError, match=re.escape(
                "ISO 800 darks have mixed dimensions: dark 2 is 8x8, dark 0 16x16")):
            build_profile("camA", [800], darks, provided_gains={800: 0.8})

    @pytest.mark.parametrize("camera_id", [None, 5])
    def test_camera_id_fails_before_any_frame_is_calibrated(self, monkeypatch, camera_id):
        # it used to fail as a TypeError inside a library-image task
        rng = np.random.default_rng(18)
        monkeypatch.setattr(calibration, "_dark_shading", None)
        monkeypatch.setattr(calibration, "_map", None)
        with pytest.raises(TypeError, match=f"camera_id must be a string, got {camera_id}"):
            build_profile(camera_id, [800], {800: self._darks(800, rng)},
                          provided_gains={800: 0.8})

    @pytest.mark.parametrize("side", [32, 128])
    def test_later_iso_of_another_size_names_both_isos(self, side):
        rng = np.random.default_rng(10)
        darks = {800: self._darks(800, rng, side=64), 1600: self._darks(1600, rng, side=side)}
        gains = {800: 0.8, 1600: 1.6}
        with pytest.raises(ProfileError,
                           match=f"ISO 1600 darks are {side}x{side} but ISO 800 darks are 64x64"):
            build_profile("camA", [800, 1600], darks, provided_gains=gains)
        # an explicit roi that fits every frame calibrates the common region
        prof = build_profile("camA", [800, 1600], darks, provided_gains=gains,
                             roi=Roi(0, 0, 32, 32))
        assert prof.dark_library[1600][0].channels.shape == (4, 16, 16)


def _oracle_profile(isos, darks_by_iso, gains, roi, band_axis):
    """The estimators as written before they became one pass per frame: a
    float64 stack for the shading, each residual split to RGGB, and read
    noise from interleaved, cast, raveled and concatenated residuals.
    Returns the profile, whose library images are those float64 residuals
    cast to float32, and per ISO the float64 shading mosaic."""
    iso_params, libraries, shadings = {}, {}, {}
    first = darks_by_iso[isos[0]][0]
    roi = roi or Roi(0, 0, first.width, first.height)
    for iso in isos:
        darks = [crop_frame(d, roi) for d in darks_by_iso[iso]]
        shading = np.stack([d.data.astype(np.float64) for d in darks]).mean(axis=0)
        residuals = [
            PackedImage(channels=split_rggb(d.data.astype(np.float64) - shading),
                        space=SPACE_DN_ABOVE_BLACK, black_level=d.black_level,
                        white_level=d.white_level, camera_id=d.camera_id, iso=d.iso)
            for d in darks
        ]
        band_means, pixel_parts = [], []
        for res in residuals:
            mosaic = interleave_rggb(res.channels).astype(np.float64)
            if band_axis == "col":
                mosaic = mosaic.T
            means = mosaic.mean(axis=1)
            band_means.append(means - means.mean())
            pixel_parts.append((mosaic - means[:, None]).ravel())
        iso_params[iso] = NoiseParams(
            K=gains[iso],
            sigma_read=float(np.std(np.concatenate(pixel_parts), ddof=1)),
            sigma_row=float(np.std(np.concatenate(band_means), ddof=1)),
        )
        libraries[iso] = [replace(r, channels=r.channels.astype(np.float32)) for r in residuals]
        shadings[iso] = shading
    profile = SensorProfile(camera_id="camA", black_level=first.black_level,
                            white_level=first.white_level, effective_roi=roi,
                            iso_params=iso_params, dark_library=libraries)
    return profile, shadings


class TestOnePassCalibration:
    """build_profile and its shading map give the bits of the oracle above."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 6), n_isos=st.integers(1, 2),
           dtype=st.sampled_from([np.uint16, np.float32]),
           h=st.integers(4, 14), w=st.integers(4, 14),
           roi=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2)),
           band_axis=st.sampled_from(["row", "col"]), fortran=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_bits_match_the_stacked_oracle(self, tmp_path_factory, n, n_isos, dtype, h, w, roi,
                                           band_axis, fortran, seed):
        rng = np.random.default_rng(seed)
        shape = (2 * h, 2 * w)
        isos = [800, 3200][:n_isos]
        darks_by_iso = {}
        for iso in isos:
            frames = []
            for _ in range(n):
                dn = 512.0 + rng.normal(0, 3.0 * iso / 800, shape) + rng.normal(0, 2.0, (shape[0], 1))
                data = dn.clip(0).astype(dtype)
                frames.append(RawFrame(np.asfortranarray(data) if fortran else data,
                                       black_level=BLACK, white_level=WHITE, camera_id="camA",
                                       iso=iso))
            darks_by_iso[iso] = frames
        if roi is not None:
            # offsets of 2 (mod 4) included; the region keeps at least 2x2
            x0, y0 = 2 * roi[0], 2 * roi[1]
            roi = Roi(x0, y0, shape[1] - x0 - 2, shape[0] - y0 - 2)
        gains = {800: 0.8, 3200: 3.2}
        want, shadings = _oracle_profile(isos, darks_by_iso, gains, roi, band_axis)
        got = build_profile("camA", isos, darks_by_iso, provided_gains=gains, roi=roi,
                            band_axis=band_axis)
        assert got.effective_roi == want.effective_roi
        for iso in isos:
            assert got.iso_params[iso] == want.iso_params[iso]
            # the float64 shading keeps the oracle's bits, and the profile
            # holds the residuals cast to float32
            assert calibration._dark_shading(darks_by_iso[iso], want.effective_roi).tobytes() == \
                shadings[iso].tobytes()
            assert [r.channels.tobytes() for r in got.dark_library[iso]] == \
                [r.channels.tobytes() for r in want.dark_library[iso]]
        out = tmp_path_factory.mktemp("profiles")
        save_profile(want, out / "want" / "prof.json")
        save_profile(got, out / "got" / "prof.json")
        assert {p.name: p.read_bytes() for p in (out / "got").iterdir()} == \
            {p.name: p.read_bytes() for p in (out / "want").iterdir()}


class TestRoundTrip:
    """A built profile and its save_profile/load_profile copy are one profile."""

    @pytest.mark.parametrize("dtype", [np.uint16, np.float32])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_loaded_copy_synthesizes_the_same_batches(self, tmp_path_factory, n, dtype, seed):
        # with 3 or 5 darks, k/n is inexact in float32: a float64 library
        # held by the built profile gave other dark_sample and hybrid batches
        rng = np.random.default_rng(seed)
        darks = {iso: [make_frame((512.0 + rng.normal(0, 3.0, (16, 16))).clip(0).astype(dtype),
                                  iso=iso) for _ in range(n)]
                 for iso in (800, 3200)}
        built = build_profile("camA", [800, 3200], darks, provided_gains={800: 0.8, 3200: 3.2})
        path = tmp_path_factory.mktemp("profile") / "prof.json"
        save_profile(built, path)
        loaded = load_profile(path)
        frames = [make_frame(rng.integers(512, 16383, (20, 20)).astype(np.uint16))
                  for _ in range(2)]
        for mode in ("parametric", "dark_sample", "hybrid"):
            sampler = BatchConfig(iso_choices=(800, 3200), dgain_range=(10.0, 200.0), mode=mode)
            batches = [[(noisy.channels.tobytes(), clean.channels.tobytes(), noisy.iso)
                        for noisy, clean in make_pair_batch(frames, profile, sampler, patch=4,
                                                            patches_per_image=3,
                                                            master_seed=seed)]
                       for profile in (built, loaded)]
            assert batches[0] == batches[1], mode


def _fixed_profile():
    ramp = (np.arange(64).reshape(8, 8) * 37 % 101).astype(np.float64)
    residual = PackedImage(channels=((ramp.reshape(4, 4, 4) - 50.0) / 8.0).astype(np.float32),
                           space=SPACE_DN_ABOVE_BLACK, black_level=BLACK, white_level=WHITE,
                           camera_id="camA", iso=800)
    return SensorProfile(
        camera_id="camA",
        black_level=BLACK,
        white_level=WHITE,
        effective_roi=Roi(2, 4, 8, 8),
        iso_params={800: NoiseParams(K=0.8123456789, sigma_read=3.25, sigma_row=0.5),
                    3200: NoiseParams(K=3.3, sigma_read=9.0, sigma_row=1.75, quant_step=0.5)},
        dark_library={800: [residual, replace(residual, channels=-residual.channels)], 3200: []},
    )


def _two_iso_profile():
    """build_profile's profile of ISOs 800 and 3200 from two 8x8 darks each."""
    rng = np.random.default_rng(5)
    darks = {iso: [make_frame(rng.normal(512.0, 3.0, (8, 8)).clip(0), iso=iso) for _ in range(2)]
             for iso in (800, 3200)}
    return build_profile("camA", [800, 3200], darks, provided_gains={800: 0.8, 3200: 3.2})


# A clean frame of another camera, in DN, with the planes of _two_iso_profile
_CLEAN = pack_rggb(make_frame(np.full((8, 8), 1000.0, dtype=np.float32), camera="camB"))


class TestSidecarRule:
    """Every image a profile holds passes one rule in SensorProfile, however
    the profile is made; in a loaded profile the error also names the JSON."""

    # (ISO 800's new library, error after "ISO 800: dark_library[0]: ")
    CONSTRUCTOR = {
        "library-of-another-iso": (
            lambda p: p.dark_library[3200],
            "tagged camera 'camA' ISO 3200, expected camera 'camA' ISO 800"),
        "clean-frame-of-another-camera": (
            lambda p: [_CLEAN],
            "the profile expects dn_above_black images, got sidecar in space 'dn'"),
        "residual-of-another-camera": (
            lambda p: [replace(p.dark_library[800][0], camera_id="camB")],
            "tagged camera 'camB' ISO 800, expected camera 'camA' ISO 800"),
        "library-shape": (
            lambda p: [replace(p.dark_library[800][0],
                               channels=p.dark_library[800][0].channels[:, 1:])],
            "float32 planes of 3x4, expected float32 planes of 4x4 (effective_roi halved)"),
        "float64-library": (
            lambda p: [replace(p.dark_library[800][0], channels=np.zeros((4, 4, 4)))],
            "float64 planes of 4x4, expected float32 planes of 4x4"),
        "library-not-an-image": (
            lambda p: [interleave_rggb(p.dark_library[800][0].channels)],
            "expected a PackedImage, got ndarray"),
    }

    @pytest.mark.parametrize("case", CONSTRUCTOR)
    def test_constructor(self, case):
        images, message = self.CONSTRUCTOR[case]
        prof = _two_iso_profile()
        with pytest.raises(ProfileError, match=re.escape(f"ISO 800: dark_library[0]: {message}")):
            replace(prof, dark_library={**prof.dark_library, 800: images(prof)})

    def test_images_of_an_iso_without_noise_params(self):
        prof = _two_iso_profile()
        images = [replace(prof.dark_library[800][0], iso=1600)]
        with pytest.raises(ProfileError, match=re.escape(
                "ISO 1600: dark_library[0]: ISO 1600 not in profile (available: [800, 3200])")):
            replace(prof, dark_library={**prof.dark_library, 1600: images})

    # (image written as "other.rawb" or None, JSON edit, error after "ISO 800: ")
    JSON = {
        "library-of-another-iso": (
            None, lambda iso: iso["800"].update(dark_library=iso["3200"]["dark_library"]),
            "dark_library[0]: tagged camera 'camA' ISO 3200, expected camera 'camA' ISO 800"),
        "clean-frame-of-another-camera": (
            lambda p: _CLEAN, lambda iso: iso["800"]["dark_library"].insert(0, "other.rawb"),
            "dark_library[0]: the profile expects dn_above_black images, "
            "got sidecar in space 'dn'"),
        "library-shape": (
            lambda p: replace(p.dark_library[800][0],
                              channels=p.dark_library[800][0].channels[:, :2]),
            lambda iso: iso["800"].update(dark_library=["other.rawb"]),
            "dark_library[0]: float32 planes of 2x4, expected float32 planes of 4x4"),
        # RAWB holds no float64: a u16 image is the wrong dtype a file can hold
        "u16-library": (
            lambda p: replace(p.dark_library[800][0], channels=np.zeros((4, 4, 4), np.uint16)),
            lambda iso: iso["800"].update(dark_library=["other.rawb"]),
            "dark_library[0]: uint16 planes of 4x4, expected float32 planes of 4x4"),
        "library-of-an-iso-without-noise-params": (
            lambda p: replace(p.dark_library[800][0], iso=1600),
            lambda iso: iso["800"].update(dark_library=["other.rawb"]),
            "dark_library[0]: tagged camera 'camA' ISO 1600, expected camera 'camA' ISO 800"),
    }

    @pytest.mark.parametrize("case", JSON)
    def test_edited_json(self, tmp_path, case):
        image, edit, message = self.JSON[case]
        prof = _two_iso_profile()
        path = tmp_path / "prof.json"
        save_profile(prof, path)
        if image is not None:
            write_packed(image(prof), tmp_path / "other.rawb")
        doc = json.loads(path.read_text())
        edit(doc["isos"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ProfileError, match=re.escape(f"{path}: ISO 800: {message}")):
            load_profile(path)


@pytest.mark.parametrize("field", ["K", "sigma_read", "sigma_row", "quant_step"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_noise_params_reject_non_finite_fields(field, value):
    with pytest.raises(ProfileError, match=f"{field} must be finite and >=? 0, got {value}"):
        NoiseParams(**{"K": 0.8, "sigma_read": 4.0, "sigma_row": 2.0, "quant_step": 1.0,
                       field: value})


def test_noise_params_store_floats(tmp_path):
    # as images store their levels, so a JSON int K loads and saves back as 1.0
    params = NoiseParams(K=1, sigma_read=np.float32(2.5), sigma_row=np.int64(0))
    assert [type(v) for v in asdict(params).values()] == [float] * 4
    path = tmp_path / "prof.json"
    save_profile(_fixed_profile(), path)
    doc = json.loads(path.read_text())
    doc["isos"]["800"]["K"] = 1
    path.write_text(json.dumps(doc))
    assert type(load_profile(path).iso_params[800].K) is float
    save_profile(load_profile(path), path)
    assert json.loads(path.read_text())["isos"]["800"]["K"] == 1.0
    assert '"K": 1.0' in path.read_text()


@pytest.mark.parametrize("field", ["sigma_read", "sigma_row", "quant_step"])
def test_noise_params_reject_fields_with_an_infinite_square(field):
    # effective_pg_params squares them: sigma_read=1e200 raised a bare OverflowError there
    with pytest.raises(ProfileError, match=f"{field} must have a finite square, got 1e\\+200"):
        NoiseParams(**{"K": 1.0, "sigma_read": 4.0, "sigma_row": 0.0, "quant_step": 1.0,
                       field: 1e200})


class TestLoadProfileErrors:
    @pytest.mark.parametrize("damage, match", [
        (lambda doc: doc.pop("isos"), "missing field 'isos'"),
        (lambda doc: doc["isos"]["800"].pop("K"), "'K'"),
        (lambda doc: doc["isos"]["800"].update(K="fast"), "malformed"),
        (lambda doc: doc["isos"]["800"].update(K=-1.0), "system gain"),
        (lambda doc: doc["isos"]["800"].update(sigma_read=float("nan")),
         "sigma_read must be finite"),
        (lambda doc: doc.update(isos=[800]), "malformed"),
        (lambda doc: doc["effective_roi"].pop("h"), "'h'"),
        (lambda doc: doc.update(effective_roi={"x0": 1, "y0": 0, "w": 8, "h": 8}), "x0"),
        (lambda doc: doc.update(white_level=100.0), "0 <= black < white"),
        (lambda doc: doc.update(white_level=float("inf")), "white_level must be finite"),
        (lambda doc: doc.update(black_level=[1.0, 2.0, 3.0]), "4 values"),
        (lambda doc: doc["isos"]["800"].update(dark_library="abc.rawb"), "ISO 800: dark_library"),
        (lambda doc: doc["isos"]["3200"].update(dark_library=[1, 2]), "ISO 3200: dark_library"),
        # JSON numbers only: true and "1023" used to load as 1.0 and 1023.0
        (lambda doc: doc["isos"]["800"].update(K=True), "K must be a number, got True"),
        (lambda doc: doc["isos"]["3200"].update(quant_step="0.5"),
         "quant_step must be a number, got '0.5'"),
        (lambda doc: doc.update(white_level="1023"), "white_level must be a number, got '1023'"),
        (lambda doc: doc["black_level"].__setitem__(2, "512"),
         "black_level must be a number, got '512'"),
        # an unknown key: a misspelt quant_step loaded as the default 1.0,
        # and an old profile's shading file was read and never used
        (lambda doc: doc["isos"]["800"].update(quant_stp=0.25),
         re.escape("malformed profile (ISO 800: unknown keys ['quant_stp'])")),
        (lambda doc: doc["isos"]["3200"].update(dark_shading_path="prof_iso3200_shading.rawb"),
         re.escape("malformed profile (ISO 3200: unknown keys ['dark_shading_path'])")),
        (lambda doc: doc.update(camera="camB", roi=None), re.escape("unknown keys ['camera', 'roi']")),
        # a null camera_id loaded as None, and a float ROI as float fields
        (lambda doc: doc.update(camera_id=None), "camera_id must be a string, got None"),
        (lambda doc: doc.update(camera_id=7), "camera_id must be a string, got 7"),
        (lambda doc: doc["effective_roi"].update(x0=0.0), "Roi.x0 must be an integer >= 0, got 0.0"),
        (lambda doc: doc["effective_roi"].update(w=8.0), "Roi.w must be an integer >= 0, got 8.0"),
        (lambda doc: doc["effective_roi"].update(h=True), "Roi.h must be an integer >= 0, got True"),
        # an ISO key edited to "-5" loaded as ISO -5
        (lambda doc: doc["isos"].update({"-5": doc["isos"].pop("800")}),
         "isos key must be finite and >= 0, got -5"),
        # "0800" loaded as a second ISO 800 that silently replaced the first
        (lambda doc: doc["isos"].update({"0800": {**doc["isos"]["800"], "K": 9.0}}),
         re.escape("isos keys must be plain whole numbers, got ['800', '3200', '0800']")),
        # an entry that is no JSON object, before its sidecar names are read
        (lambda doc: doc["isos"].update({"800": 5}), "malformed profile"),
    ], ids=["no-isos", "no-K", "string-K", "negative-K", "nan-sigma-read", "isos-list", "roi-no-h", "roi-odd-x0",
            "white-below-black", "white-infinite", "black-3-values", "string-dark-library",
            "number-dark-library", "bool-K", "string-quant-step", "string-white",
            "string-black", "misspelt-quant-step", "old-shading-path", "top-level-keys",
            "null-camera", "number-camera", "float-roi-x0",
            "float-roi-w", "bool-roi-h", "negative-iso-key", "iso-key-spelt-twice",
            "number-iso-entry"])
    def test_damaged_profile_names_the_file(self, tmp_path, damage, match):
        path = tmp_path / "prof.json"
        save_profile(_fixed_profile(), path)
        doc = json.loads(path.read_text())
        damage(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(RawBenchError, match=match) as err:
            load_profile(path)
        assert str(err.value).startswith(f"{path}: ")
        assert isinstance(err.value, ProfileError)


_PARAMS = NoiseParams(K=0.8, sigma_read=4.0, sigma_row=2.0)


class TestProfileRule:
    """SensorProfile's constructor refuses what load_profile would refuse:
    each case used to save a profile that did not load back, or fail inside
    save_profile."""

    CASES = {
        "null-camera": ({"camera_id": None}, "camera_id must be a string, got None"),
        "number-camera": ({"camera_id": 5}, "camera_id must be a string, got 5"),
        "bool-iso-key": ({"iso_params": {True: _PARAMS}},
                         "ISO True: isos key must be a number, got True"),
        "string-iso-key": ({"iso_params": {"800": _PARAMS}},
                           "ISO '800': isos key must be a number, got '800'"),
        "fractional-iso-key": ({"iso_params": {800.5: _PARAMS}},
                               "ISO 800.5: isos key must be a whole number, got 800.5"),
        "negative-iso-key": ({"iso_params": {-800: _PARAMS}},
                             "ISO -800: isos key must be finite and >= 0, got -800"),
        "tuple-params": ({"iso_params": {800: (0.8, 4.0, 2.0, 1.0)}},
                         "ISO 800: expected NoiseParams, got tuple"),
        "tuple-roi": ({"effective_roi": (0, 0, 8, 8)},
                      "effective_roi must be a Roi, got (0, 0, 8, 8)"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_constructor(self, case):
        change, message = self.CASES[case]
        fields = {"camera_id": "camA", "black_level": BLACK, "white_level": WHITE,
                  "effective_roi": Roi(0, 0, 8, 8), **change}
        with pytest.raises(ProfileError, match=f"^{re.escape(message)}$"):
            SensorProfile(**fields)

    def test_whole_number_iso_keys_are_stored_as_ints_and_round_trip(self, tmp_path):
        # an ISO key of 800.0 used to be saved as "800.0", which did not load
        prof = _fixed_profile()
        prof = replace(prof, iso_params={800.0: prof.iso_params[800],
                                         np.int64(3200): prof.iso_params[3200]})
        assert [type(iso) for iso in prof.iso_params] == [int, int]
        save_profile(prof, tmp_path / "prof.json")
        back = load_profile(tmp_path / "prof.json")
        assert back.iso_params == prof.iso_params == _fixed_profile().iso_params
        assert [r.channels.tobytes() for r in back.dark_library[800]] == \
            [r.channels.tobytes() for r in prof.dark_library[800]]


@pytest.mark.parametrize("black, white", [(512.0, 100.0), (512.0, 512.0), (-1.0, 100.0)])
def test_profile_levels_follow_the_image_rule(black, white):
    with pytest.raises(ProfileError, match="0 <= black < white"):
        replace(_fixed_profile(), black_level=black, white_level=white)


def test_profile_levels_stored_as_in_rawframe():
    prof = replace(_fixed_profile(), black_level=64, white_level=1023)
    np.testing.assert_array_equal(prof.black_level, np.full(4, 64.0))
    assert prof.black_level.dtype == np.float64 and type(prof.white_level) is float


def test_saved_profile_holds_only_what_is_read(tmp_path):
    # one sidecar kind: the library residuals, and no shading map
    save_profile(_two_iso_profile(), tmp_path / "prof.json")
    assert {p.name for p in tmp_path.iterdir()} == {"prof.json"} | {
        f"prof_iso{iso}_dark{k:03d}.rawb" for iso in (800, 3200) for k in range(2)}


def test_saved_keys_are_the_keys_load_profile_takes(tmp_path):
    # the writer and the key rule of the reader share one list of keys
    save_profile(_fixed_profile(), tmp_path / "prof.json")
    doc = json.loads((tmp_path / "prof.json").read_text())
    assert tuple(doc) == calibration._PROFILE_KEYS
    assert [tuple(entry) for entry in doc["isos"].values()] == [calibration._ENTRY_KEYS] * 2


class TestStoredProfile:
    """Exact bytes of a saved profile and its sidecars (the profile format is frozen)."""

    PINNED = {
        "prof.json": "8ab586c576c8426b894e0405163cd93426ff00e4b76658e93289a12f74cf9383",
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
