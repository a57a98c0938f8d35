import numpy as np
import pytest

from rawbench.calibration import NoiseParams
from rawbench.core import PackedImage, SPACE_NORMALIZED
from rawbench.errors import DimensionError, DomainError, ProfileError
from rawbench.synth import (
    BatchConfig,
    SynthConfig,
    _NoiseKnobs,
    make_pair_batch,
    sample_dark_patch,
    sample_parametric_read,
    sample_shot,
    synthesize_noisy,
)

from conftest import BLACK, WHITE, make_frame, make_profile

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


class TestSampleShot:
    def test_zero_clean_is_exact_zero(self):
        out = sample_shot(flat_clean(0.0), NoiseParams(1.0, 0, 0, 0), 1.0,
                          np.random.default_rng(0))
        np.testing.assert_array_equal(out.channels, 0.0)

    def test_poisson_moments(self):
        # clean 0.5 with unit gain and span 1000 -> 500 electrons
        clean = PackedImage(channels=np.full((4, 500, 500), 0.5), space=SPACE_NORMALIZED,
                            black_level=np.zeros(4), white_level=1000.0)
        out = sample_shot(clean, NoiseParams(1.0, 0, 0, 0), 1.0, np.random.default_rng(1))
        m, v = out.channels.mean(), out.channels.var()
        assert abs(m - 500.0) / 500.0 <= 0.005
        assert abs(v - 500.0) / 500.0 <= 0.02

    def test_scaled_poisson_variance_identity(self):
        # Var_DN = K * E[DN] for K-scaled Poisson counts
        clean = PackedImage(channels=np.full((4, 500, 500), 0.5), space=SPACE_NORMALIZED,
                            black_level=np.zeros(4), white_level=1000.0)
        out = sample_shot(clean, NoiseParams(2.0, 0, 0, 0), 1.0, np.random.default_rng(2))
        m, v = out.channels.mean(), out.channels.var()
        assert abs(v - 2.0 * m) / (2.0 * m) <= 0.02

    def test_exact_poisson_branch_below_threshold(self):
        # tiny means use the exact sampler: all outputs integer multiples of K
        clean = flat_clean(0.001, side=32)
        out = sample_shot(clean, NoiseParams(0.8, 0, 0, 0), 100.0, np.random.default_rng(3))
        counts = out.channels / 0.8
        np.testing.assert_allclose(counts, np.rint(counts), atol=1e-9)

    def test_negative_clean_rejected(self):
        bad = PackedImage(channels=np.full((4, 2, 2), -0.1), space=SPACE_NORMALIZED,
                          black_level=BLACK, white_level=WHITE)
        with pytest.raises(DomainError):
            sample_shot(bad, NoiseParams(1.0, 0, 0, 0), 1.0, np.random.default_rng(4))


class TestParametricRead:
    def test_all_off_is_zero(self):
        res = sample_parametric_read((4, 8, 8), NoiseParams(1.0, 5.0, 2.0, 1.0),
                                     np.random.default_rng(0),
                                     _NoiseKnobs(read=False, row=False, quant=False))
        np.testing.assert_array_equal(res, 0.0)

    def test_read_only_std(self):
        res = sample_parametric_read((4, 500, 500), NoiseParams(1.0, 5.0, 0.0, 0.0),
                                     np.random.default_rng(1), _NoiseKnobs(row=False, quant=False))
        assert abs(res.std() - 5.0) / 5.0 <= 0.01

    def test_row_only_structure(self):
        res = sample_parametric_read((4, 64, 64), NoiseParams(1.0, 0.0, 2.0, 0.0),
                                     np.random.default_rng(2), _NoiseKnobs(read=False, quant=False))
        # every pixel within a mosaic row identical: R row == Gr row, constant
        assert np.all(res[0] == res[0][:, :1])
        np.testing.assert_array_equal(res[0], res[1])
        np.testing.assert_array_equal(res[2], res[3])
        rows = np.concatenate([res[0][:, 0], res[2][:, 0]])
        assert abs(rows.std() - 2.0) / 2.0 <= 0.05

    def test_quant_only_uniform(self):
        res = sample_parametric_read((4, 250, 250), NoiseParams(1.0, 0.0, 0.0, 2.0),
                                     np.random.default_rng(3), _NoiseKnobs(read=False, row=False))
        assert res.min() >= -1.0 and res.max() <= 1.0
        assert abs(res.std() - 2.0 / np.sqrt(12)) / (2.0 / np.sqrt(12)) <= 0.01


class TestDarkPatch:
    def _profile_with_library(self, n_frames=1, side=16, seed=0):
        rng = np.random.default_rng(seed)
        prof = make_profile()
        from rawbench.calibration import correct_dark_frame
        lib = []
        for _ in range(n_frames):
            dark = make_frame(rng.normal(512, 3, (2 * side, 2 * side)).clip(0))
            lib.append(correct_dark_frame(dark, np.full((2 * side, 2 * side), 512.0)))
        prof.dark_library[800] = lib
        return prof

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
        prof = self._profile_with_library(2, side=4)
        # tag each library frame with a distinct constant so picks are observable
        prof.dark_library[800][0].channels[:] = 0.0
        prof.dark_library[800][1].channels[:] = 1.0
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
    def test_identity_when_all_disabled(self):
        prof = make_profile()
        clean = flat_clean(0.37)
        cfg = SynthConfig(iso=800, dgain=100.0, shot=False, read=False, row=False, quant=False)
        out = synthesize_noisy(clean, prof, cfg)
        np.testing.assert_array_equal(out.channels, clean.channels)

    def test_dark_sample_constant_residual_formula(self):
        prof = make_profile()
        const = 7.0
        lib_img = PackedImage(channels=np.full((4, 64, 64), const), space="dn_above_black",
                              black_level=BLACK, white_level=WHITE, iso=800)
        prof.dark_library[800] = [lib_img]
        clean = flat_clean(0.2)
        cfg = SynthConfig(iso=800, dgain=50.0, mode="dark_sample", shot=False)
        out = synthesize_noisy(clean, prof, cfg)
        expected = np.clip(0.2 + 50.0 * const / SPAN, 0, 1.0)
        np.testing.assert_allclose(out.channels, expected, rtol=1e-12)

    def test_moment_law_parametric(self):
        prof = make_profile(K=0.8, sigma_read=4.0, sigma_row=2.0, quant_step=1.0)
        clean_v, dgain = 0.25, 100.0
        clean = flat_clean(clean_v, side=500)
        out = synthesize_noisy(clean, prof, SynthConfig(iso=800, dgain=dgain, seed=11),
                               clip=False)
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
        prof = make_profile()
        rng = np.random.default_rng(11)
        from rawbench.calibration import correct_dark_frame
        dark = make_frame(rng.normal(512, 3, (64, 64)).clip(0))
        prof.dark_library[800] = [correct_dark_frame(dark, np.full((64, 64), 512.0))]
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
        prof = make_profile(sigma_read=0.0, sigma_row=0.0, quant_step=0.0)
        lib_img = PackedImage(channels=np.full((4, 16, 16), 100.0), space="dn_above_black",
                              black_level=BLACK, white_level=WHITE, iso=800)
        prof.dark_library[800] = [lib_img]
        clean = flat_clean(0.2, side=16)
        dark_picks = 0
        n = 200
        for seed in range(n):
            out = synthesize_noisy(clean, prof, SynthConfig(iso=800, dgain=10, seed=seed,
                                                            mode="hybrid", shot=False))
            if out.channels[0, 0, 0] > 0.2:
                dark_picks += 1
        assert 0.35 <= dark_picks / n <= 0.65

    def test_unknown_iso(self):
        with pytest.raises(ProfileError):
            synthesize_noisy(flat_clean(0.1), make_profile(), SynthConfig(iso=1600, dgain=10))

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

    def test_sampler_validation(self):
        with pytest.raises(DomainError):
            BatchConfig(iso_choices=(800,))
        with pytest.raises(DomainError):
            BatchConfig(iso_choices=(800,), dgain_choices=(1.0,), dgain_range=(1.0, 2.0))

    @pytest.mark.parametrize("bad", [{"mode": "bogus"}, {"hybrid_rho": 7.0}])
    def test_bad_knobs_rejected(self, bad):
        with pytest.raises(DomainError):
            self._sampler(**bad)

    def test_configs_refuse_positional_arguments(self):
        with pytest.raises(TypeError):
            SynthConfig(800, 2.0, "hybrid", 0.5)
        with pytest.raises(TypeError):
            BatchConfig((800,), (1.0,))
