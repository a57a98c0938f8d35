import hashlib
import re

import numpy as np
import pytest

from rawbench.calibration import NoiseParams
from rawbench.core import PackedImage, SPACE_DN_ABOVE_BLACK, SPACE_NORMALIZED
from rawbench.errors import DimensionError, DomainError, ProfileError
from rawbench.synth import (
    BatchConfig,
    SynthConfig,
    make_pair_batch,
    sample_dark_patch,
    sample_parametric_read,
    sample_shot,
    synthesize_noisy,
)

from conftest import BLACK, WHITE, dark_residual, make_frame, make_profile, with_library

SPAN = WHITE - BLACK[0]


def flat_clean(value, side=64):
    return PackedImage(
        channels=np.full((4, side, side), value, dtype=np.float64),
        space=SPACE_NORMALIZED,
        black_level=BLACK,
        white_level=WHITE,
        camera_id="camA",
        iso=800,
    )


SPANS = np.full((4, 1, 1), SPAN)


def const_residual(value, side):
    """A dark residual of ``value`` DN everywhere, planes of ``side``."""
    return PackedImage(channels=np.full((4, side, side), value, dtype=np.float32),
                       space=SPACE_DN_ABOVE_BLACK, black_level=BLACK, white_level=WHITE,
                       camera_id="camA", iso=800)


class TestSampleShot:
    def test_zero_clean_is_exact_zero(self):
        out = sample_shot(np.zeros((4, 64, 64)), SPANS, NoiseParams(1.0, 0, 0, 0), 1.0,
                          np.random.default_rng(0))
        np.testing.assert_array_equal(out, 0.0)

    def test_poisson_moments(self):
        # clean 0.5 with unit gain and span 1000 -> 500 electrons
        out = sample_shot(np.full((4, 500, 500), 0.5), 1000.0, NoiseParams(1.0, 0, 0, 0), 1.0,
                          np.random.default_rng(1))
        m, v = out.mean(), out.var()
        assert abs(m - 500.0) / 500.0 <= 0.005
        assert abs(v - 500.0) / 500.0 <= 0.02

    def test_scaled_poisson_variance_identity(self):
        # Var_DN = K * E[DN] for K-scaled Poisson counts
        out = sample_shot(np.full((4, 500, 500), 0.5), 1000.0, NoiseParams(2.0, 0, 0, 0), 1.0,
                          np.random.default_rng(2))
        m, v = out.mean(), out.var()
        assert abs(v - 2.0 * m) / (2.0 * m) <= 0.02

    def test_exact_poisson_branch_below_threshold(self):
        # tiny means use the exact sampler: all outputs integer multiples of K
        out = sample_shot(np.full((4, 32, 32), 0.001), SPANS, NoiseParams(0.8, 0, 0, 0), 100.0,
                          np.random.default_rng(3))
        counts = out / 0.8
        np.testing.assert_allclose(counts, np.rint(counts), atol=1e-9)

    def test_negative_clean_rejected(self):
        with pytest.raises(DomainError):
            sample_shot(np.full((4, 2, 2), -0.1), SPANS, NoiseParams(1.0, 0, 0, 0), 1.0,
                        np.random.default_rng(4))


class TestParametricRead:
    def test_all_off_is_zero(self):
        rng = np.random.default_rng(0)
        res = sample_parametric_read((4, 8, 8), NoiseParams(1.0, 0.0, 0.0, 0.0), rng)
        np.testing.assert_array_equal(res, 0.0)
        # a zero profile draws nothing from the stream
        assert rng.random() == np.random.default_rng(0).random()

    def test_read_only_std(self):
        res = sample_parametric_read((4, 500, 500), NoiseParams(1.0, 5.0, 0.0, 0.0),
                                     np.random.default_rng(1))
        assert abs(res.std() - 5.0) / 5.0 <= 0.01

    def test_row_only_structure(self):
        res = sample_parametric_read((4, 64, 64), NoiseParams(1.0, 0.0, 2.0, 0.0),
                                     np.random.default_rng(2))
        # every pixel within a mosaic row identical: R row == Gr row, constant
        assert np.all(res[0] == res[0][:, :1])
        np.testing.assert_array_equal(res[0], res[1])
        np.testing.assert_array_equal(res[2], res[3])
        rows = np.concatenate([res[0][:, 0], res[2][:, 0]])
        assert abs(rows.std() - 2.0) / 2.0 <= 0.05

    def test_quant_only_uniform(self):
        res = sample_parametric_read((4, 250, 250), NoiseParams(1.0, 0.0, 0.0, 2.0),
                                     np.random.default_rng(3))
        assert res.min() >= -1.0 and res.max() <= 1.0
        assert abs(res.std() - 2.0 / np.sqrt(12)) / (2.0 / np.sqrt(12)) <= 0.01


class TestDarkPatch:
    def _profile_with_library(self, n_frames=1, side=16, seed=0):
        rng = np.random.default_rng(seed)
        lib = []
        for _ in range(n_frames):
            lib.append(dark_residual(rng.normal(512, 3, (2 * side, 2 * side)).clip(0)))
        return with_library(make_profile(), {800: lib})

    def test_full_frame_patch_is_exact(self):
        prof = self._profile_with_library(1, side=8)
        res = sample_dark_patch(prof, 800, (4, 8, 8), np.random.default_rng(0))
        np.testing.assert_array_equal(res, prof.dark_library[800][0].channels)

    def test_determinism(self):
        prof = self._profile_with_library(3, side=16)
        a = sample_dark_patch(prof, 800, (4, 4, 4), np.random.default_rng(9))
        b = sample_dark_patch(prof, 800, (4, 4, 4), np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_uniform_selection(self):
        # a distinct constant in each library frame makes the picks observable
        prof = with_library(make_profile(), {800: [const_residual(0.0, 4), const_residual(1.0, 4)]})
        rng = np.random.default_rng(10)
        picks = [sample_dark_patch(prof, 800, (4, 2, 2), rng)[0, 0, 0] for _ in range(10_000)]
        frac = np.mean(picks)
        assert abs(frac - 0.5) <= 0.03

    def test_empty_library(self):
        prof = make_profile()
        with pytest.raises(ProfileError):
            sample_dark_patch(prof, 800, (4, 2, 2), np.random.default_rng(0))

    def test_patch_too_large(self):
        prof = self._profile_with_library(1, side=4)
        with pytest.raises(DimensionError):
            sample_dark_patch(prof, 800, (4, 64, 64), np.random.default_rng(0))


class TestSynthesizeNoisy:
    def test_dark_sample_constant_residual_formula(self):
        # The shot draw has its own stream, so a zero-noise parametric run at
        # the same seed is the signal the dark residual is added to.
        const = 7.0
        prof = with_library(make_profile(sigma_read=0.0, sigma_row=0.0, quant_step=0.0),
                            {800: [const_residual(const, 64)]})
        clean = flat_clean(0.2)
        signal = synthesize_noisy(clean, prof, SynthConfig(iso=800, dgain=50.0, seed=3))
        out = synthesize_noisy(clean, prof, SynthConfig(iso=800, dgain=50.0, seed=3,
                                                        mode="dark_sample"))
        np.testing.assert_array_equal(out.channels, signal.channels + 50.0 * const / SPAN)

    def test_moment_law_parametric(self):
        prof = make_profile(K=0.8, sigma_read=4.0, sigma_row=2.0, quant_step=1.0)
        clean_v, dgain = 0.25, 100.0
        clean = flat_clean(clean_v, side=500)
        out = synthesize_noisy(clean, prof, SynthConfig(iso=800, dgain=dgain, seed=11))
        mu_dn = clean_v * SPAN / dgain
        pred_var = dgain**2 * (0.8 * mu_dn + 16.0 + 4.0 + 1.0 / 12.0) / SPAN**2
        assert abs(out.channels.mean() - clean_v) / clean_v <= 0.005
        assert abs(out.channels.var() - pred_var) / pred_var <= 0.03

    def test_clipping_bounds(self):
        prof = make_profile(K=0.8, sigma_read=50.0, sigma_row=0.0, quant_step=0.0)
        clean = flat_clean(0.01, side=128)
        out = synthesize_noisy(clean, prof, SynthConfig(iso=800, dgain=200.0, seed=1))
        assert out.channels.min() >= 0.0 and out.channels.max() <= 1.0
        out2 = synthesize_noisy(flat_clean(0.99, side=128), prof,
                                SynthConfig(iso=800, dgain=200.0, seed=1, clip_hi=2.0))
        assert out2.channels.max() <= 2.0

    def test_hybrid_endpoints_match_pure_modes(self):
        rng = np.random.default_rng(11)
        prof = with_library(make_profile(),
                            {800: [dark_residual(rng.normal(512, 3, (64, 64)).clip(0))]})
        clean = flat_clean(0.3, side=16)
        for seed in (0, 1, 2):
            par = synthesize_noisy(clean, prof, SynthConfig(iso=800, dgain=10, seed=seed))
            hyb0 = synthesize_noisy(clean, prof, SynthConfig(iso=800, dgain=10, seed=seed,
                                                             mode="hybrid", hybrid_rho=0.0))
            np.testing.assert_array_equal(par.channels, hyb0.channels)
            dk = synthesize_noisy(clean, prof, SynthConfig(iso=800, dgain=10, seed=seed,
                                                           mode="dark_sample"))
            hyb1 = synthesize_noisy(clean, prof, SynthConfig(iso=800, dgain=10, seed=seed,
                                                             mode="hybrid", hybrid_rho=1.0))
            np.testing.assert_array_equal(dk.channels, hyb1.channels)

    def test_hybrid_mixes_both_sources(self):
        prof = with_library(make_profile(sigma_read=0.0, sigma_row=0.0, quant_step=0.0),
                            {800: [const_residual(100.0, 16)]})
        clean = flat_clean(0.2, side=16)
        dark_picks = 0
        n = 200
        for seed in range(n):
            # a zero-noise parametric run at the same seed draws the same shot noise
            signal = synthesize_noisy(clean, prof, SynthConfig(iso=800, dgain=10, seed=seed))
            out = synthesize_noisy(clean, prof, SynthConfig(iso=800, dgain=10, seed=seed,
                                                            mode="hybrid"))
            if not np.array_equal(out.channels, signal.channels):
                dark_picks += 1
        assert 0.35 <= dark_picks / n <= 0.65

    def test_unknown_iso(self):
        with pytest.raises(ProfileError):
            synthesize_noisy(flat_clean(0.1), make_profile(), SynthConfig(iso=1600, dgain=10))

    @pytest.mark.parametrize("dgain", [1e308, 1e-306])
    def test_overflowing_dgain_names_dgain_and_iso(self, dgain):
        # 1e308 overflowed dgain * residual / span with only a RuntimeWarning and
        # came back as a patch of 0s and 1s; 1e-306 overflows the electron count
        with pytest.raises(DomainError, match=re.escape(f"dgain {dgain} at ISO 800 overflows")):
            synthesize_noisy(flat_clean(0.3, side=8), make_profile(),
                             SynthConfig(iso=800, dgain=dgain))

    def test_bad_config(self):
        with pytest.raises(DomainError):
            SynthConfig(iso=800, dgain=0.0)
        with pytest.raises(DomainError):
            SynthConfig(iso=800, dgain=1.0, hybrid_rho=1.5)
        with pytest.raises(DomainError):
            SynthConfig(iso=800, dgain=1.0, mode="magic")


class TestPairBatch:
    def _frames(self, n, side=32, seed=0):
        rng = np.random.default_rng(seed)
        return [make_frame(rng.integers(512, 16000, (side, side)).astype(np.uint16))
                for _ in range(n)]

    def _sampler(self, **kw):
        defaults = dict(iso_choices=(800,), dgain_choices=(100.0, 200.0))
        defaults.update(kw)
        return BatchConfig(**defaults)

    def test_eight_per_image(self):
        pairs = make_pair_batch(self._frames(3), make_profile(), self._sampler(),
                                patch=8, patches_per_image=8, master_seed=0)
        assert len(pairs) == 24
        for noisy, clean in pairs:
            assert noisy.channels.shape == (4, 8, 8)
            assert clean.channels.shape == (4, 8, 8)

    def test_determinism_same_master_seed(self):
        frames = self._frames(2)
        a = make_pair_batch(frames, make_profile(), self._sampler(),
                            patch=8, patches_per_image=4, master_seed=123)
        b = make_pair_batch(frames, make_profile(), self._sampler(),
                            patch=8, patches_per_image=4, master_seed=123)
        for (na, ca), (nb, cb) in zip(a, b):
            np.testing.assert_array_equal(na.channels, nb.channels)
            np.testing.assert_array_equal(ca.channels, cb.channels)

    def test_iso_draws_uniform(self):
        frames = self._frames(1, side=16)
        isos = (800, 1600, 3200)
        prof = make_profile(isos=isos)
        pairs = make_pair_batch(frames, prof, self._sampler(iso_choices=isos),
                                patch=4, patches_per_image=10_000, master_seed=7)
        counts = {iso: 0 for iso in isos}
        for noisy, _ in pairs:
            counts[noisy.iso] += 1
        for iso in isos:
            assert abs(counts[iso] / len(pairs) - 1 / 3) <= 0.03

    def test_dgain_range_mode(self):
        pairs = make_pair_batch(self._frames(1), make_profile(),
                                self._sampler(dgain_choices=None, dgain_range=(10.0, 100.0)),
                                patch=8, patches_per_image=4, master_seed=1)
        assert len(pairs) == 4

    def test_patch_validation(self):
        with pytest.raises(DimensionError):
            make_pair_batch(self._frames(1), make_profile(), self._sampler(),
                            patch=7, patches_per_image=1, master_seed=0)
        with pytest.raises(DimensionError):
            make_pair_batch(self._frames(1, side=8), make_profile(), self._sampler(),
                            patch=32, patches_per_image=1, master_seed=0)

    def test_every_frame_checked_before_any_patch(self):
        # frame 0's patches would overflow, but frame 1 is too small for the
        # patch: the frame check runs first and names it
        frames = self._frames(1) + self._frames(1, side=8)
        with pytest.raises(DimensionError, match=re.escape("(image 1)")):
            make_pair_batch(frames, make_profile(), self._sampler(dgain_choices=(1e308,)),
                            patch=8, patches_per_image=2, master_seed=0)

    def test_sampler_validation(self):
        with pytest.raises(DomainError):
            BatchConfig(iso_choices=(800,))
        with pytest.raises(DomainError):
            BatchConfig(iso_choices=(800,), dgain_choices=(1.0,), dgain_range=(1.0, 2.0))

    @pytest.mark.parametrize("bad", [{"mode": "bogus"}, {"hybrid_rho": 7.0}, {"clip_hi": 0.0},
                                     {"clip_hi": -1.0}, {"clip_hi": np.nan}, {"clip_hi": np.inf},
                                     {"dgain": np.inf}])
    def test_bad_knobs_rejected(self, bad):
        if "dgain" not in bad:  # a batch draws its dgains from presets
            with pytest.raises(DomainError):
                self._sampler(**bad)
        with pytest.raises(DomainError, match=next(iter(bad))):
            SynthConfig(**{"iso": 800, "dgain": 1.0, **bad})

    @pytest.mark.parametrize("dgains", [
        {"dgain_range": (-5.0, 0.0)}, {"dgain_range": (0.0, 10.0)}, {"dgain_range": (20.0, 10.0)},
        {"dgain_range": (1.0, np.inf)}, {"dgain_range": (np.nan, 10.0)},
        {"dgain_choices": (100.0, 0.0)}, {"dgain_choices": (-1.0,)},
        {"dgain_choices": (np.nan,)}, {"dgain_choices": ()},
    ], ids=["range-negative", "range-zero-lo", "range-reversed", "range-inf", "range-nan",
            "choice-zero", "choice-negative", "choice-nan", "choices-empty"])
    def test_bad_dgains_rejected(self, dgains):
        with pytest.raises(DomainError, match="dgain"):
            self._sampler(**{"dgain_choices": None, **dgains})

    def test_single_point_dgain_range_accepted(self):
        pairs = make_pair_batch(self._frames(1), make_profile(),
                                self._sampler(dgain_choices=None, dgain_range=(50.0, 50.0)),
                                patch=8, patches_per_image=2, master_seed=0)
        assert len(pairs) == 2

    @pytest.mark.parametrize("per_image", [0, -3])
    def test_patches_per_image_checked_before_any_frame(self, per_image):
        # the frames are not images: touching one would raise something else
        with pytest.raises(DomainError, match="patches_per_image"):
            make_pair_batch([None, None], make_profile(), self._sampler(),
                            patch=8, patches_per_image=per_image, master_seed=0)

    @pytest.mark.parametrize("bad, error", [
        ({"patch": 8.0}, DimensionError), ({"patch": True}, DimensionError),
        ({"patches_per_image": 2.0}, DomainError), ({"master_seed": 1.5}, DomainError),
    ], ids=["float-patch", "bool-patch", "float-per-image", "float-seed"])
    def test_integer_arguments_checked_before_any_frame(self, bad, error):
        # patch=8.0 died in a pool task ("slice indices must be integers") and
        # patches_per_image=2.0 in range(); the frames are not images here
        with pytest.raises(error, match=re.escape(f"{next(iter(bad))} must be an integer >= ")):
            make_pair_batch([None, None], make_profile(), self._sampler(),
                            **{"patch": 8, "patches_per_image": 1, "master_seed": 0, **bad})

    def test_iso_choices_checked_before_any_frame(self):
        sampler = self._sampler(iso_choices=(800, 9999))
        with pytest.raises(ProfileError, match="9999"):
            make_pair_batch([], make_profile(), sampler, patch=8, patches_per_image=1,
                            master_seed=0)

    def test_configs_refuse_positional_arguments(self):
        with pytest.raises(TypeError):
            SynthConfig(800, 2.0, "hybrid", 0.5)
        with pytest.raises(TypeError):
            BatchConfig((800,), (1.0,))


class TestPinnedBytes:
    """SHA-256 pins over seeded synthesis output in every mode: a seed fixes
    the bytes of a batch and of a single synthesized patch."""

    @staticmethod
    def _profile():
        rng = np.random.default_rng(21)
        prof = make_profile(K=0.8, sigma_read=4.0, sigma_row=2.0, quant_step=1.0,
                            isos=(800, 3200))
        return with_library(prof, {
            iso: [dark_residual(rng.normal(512, 3, (40, 40)).clip(0), iso=iso)
                  for _ in range(2)]
            for iso in (800, 3200)
        })

    @staticmethod
    def _digest(arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("mode, dgains, digest", [
        ("parametric", {"dgain_choices": (100.0, 200.0)},
         "cc03de46a2b808c06e5d9193e1789588eced11e1ff7bcb3c17d16ab23ca435ed"),
        ("parametric", {"dgain_range": (10.0, 100.0)},
         "ab00c3cd7cebf7576059eee59a251106a0de5bdabae5889c191ff6fc75d0eee6"),
        ("dark_sample", {"dgain_choices": (100.0, 200.0)},
         "7897c488a023944b2559b1fdf14465fdeb3288a6247b9024331aee54400e9bf0"),
        ("dark_sample", {"dgain_range": (10.0, 100.0)},
         "7d6c60c99fb9df68e2237bdf68dd6707e01f20f63b7ab174d5b69da698b5b461"),
        ("hybrid", {"dgain_choices": (100.0, 200.0)},
         "0fce00b16dc976f9b2ff2e0c6ed5eac5d9435ccb915db946e5e97c5b2c7b3b97"),
        ("hybrid", {"dgain_range": (10.0, 100.0)},
         "7979cc5e2d1fdcdd4a222f8b169392bf453e7e87e842b99ec45f64f219041a71"),
    ], ids=["parametric-choices", "parametric-range", "dark_sample-choices",
            "dark_sample-range", "hybrid-choices", "hybrid-range"])
    def test_pair_batch_digest(self, mode, dgains, digest):
        rng = np.random.default_rng(4)
        frames = [make_frame(rng.integers(512, 16383, (48, 48)).astype(np.uint16))
                  for _ in range(2)]
        sampler = BatchConfig(iso_choices=(800, 3200), mode=mode, **dgains)
        arrays = []
        for seed in (0, 1):
            for noisy, clean in make_pair_batch(frames, self._profile(), sampler, patch=8,
                                                patches_per_image=3, master_seed=seed):
                arrays += [noisy.channels, clean.channels, np.array([noisy.iso])]
        assert self._digest(arrays) == digest

    @pytest.mark.parametrize("digest", [
        "67d55ee54e3edc20ce474139acb4e9c40d8dbd574f15c2e8489eab33f52cafdf",
    ], ids=["clip"])
    def test_synthesize_noisy_digest(self, digest):
        ramp = np.linspace(0.0, 1.0, 4 * 24 * 24).reshape(4, 24, 24)
        clean = PackedImage(channels=ramp, space=SPACE_NORMALIZED, black_level=BLACK,
                            white_level=WHITE, camera_id="camA", iso=800)
        cfg = SynthConfig(iso=800, dgain=20.0, seed=7)
        out = synthesize_noisy(clean, self._profile(), cfg)
        assert self._digest([out.channels]) == digest
