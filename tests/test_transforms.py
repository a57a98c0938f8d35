import re

import numpy as np
import pytest

from rawbench.errors import DomainError
from rawbench.transforms import (
    PgParams,
    gat_forward,
    gat_inverse,
    ksigma_forward,
    ksigma_inverse,
)


class TestKsigma:
    def test_forward_example(self):
        assert ksigma_forward(10.0, PgParams(K=2.0, sigma=4.0)) == 9.0

    def test_unit_gain_identity(self):
        y = np.linspace(-5, 50, 23)
        np.testing.assert_array_equal(ksigma_forward(y, PgParams(K=1.0, sigma=0.0)), y)

    def test_inverse_example(self):
        assert ksigma_inverse(9.0, PgParams(K=2.0, sigma=4.0)) == 10.0

    def test_inverse_of_zero_image(self):
        p = PgParams(K=2.0, sigma=4.0)
        assert ksigma_inverse(p.sigma**2 / p.K**2, p) == 0.0

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = PgParams(K=rng.uniform(0.1, 5), sigma=rng.uniform(0, 10))
            y = rng.uniform(-100, 10000, 256)
            np.testing.assert_allclose(ksigma_inverse(ksigma_forward(y, p), p), y,
                                       rtol=1e-12, atol=1e-9)

    def test_mean_variance_identity_mc(self):
        rng = np.random.default_rng(1)
        p = PgParams(K=2.0, sigma=4.0)
        y = p.K * rng.poisson(50.0, 10**6) + rng.normal(0, p.sigma, 10**6)
        f = ksigma_forward(y, p)
        assert abs(np.var(f) - np.mean(f)) / np.mean(f) <= 0.03

    def test_bad_gain(self):
        with pytest.raises(DomainError):
            PgParams(K=0.0, sigma=1.0)
        with pytest.raises(DomainError):
            PgParams(K=-1.0, sigma=1.0)


@pytest.mark.parametrize("field, value, rule", [
    ("K", np.inf, "system gain K must be finite and > 0"),
    ("K", np.nan, "system gain K must be finite and > 0"),
    ("K", 1e300, "system gain K must have a finite square"),
    ("sigma", np.nan, "sigma must be finite and >= 0"),
    ("sigma", np.inf, "sigma must be finite and >= 0"),
    ("sigma", -1.0, "sigma must be finite and >= 0"),
    ("sigma", 1e300, "sigma must have a finite square"),
], ids=["K-inf", "K-nan", "K-square", "sigma-nan", "sigma-inf", "sigma-negative", "sigma-square"])
def test_pg_params_reject_values_the_transforms_cannot_use(field, value, rule):
    # the transforms square K and sigma: 1e300 used to overflow inside them
    with pytest.raises(DomainError, match=re.escape(f"{rule}, got {value}")):
        PgParams(**{"K": 2.0, "sigma": 4.0, field: value})


def test_pg_params_reject_an_infinite_sigma_over_k_square():
    # ksigma_forward squares sigma / K: 1 / 1e-300 raised a bare OverflowError there
    with pytest.raises(DomainError, match=re.escape("(sigma / K)^2 must be finite")):
        PgParams(K=1e-300, sigma=1.0)


class TestGat:
    def test_pure_anscombe_at_zero(self):
        np.testing.assert_allclose(gat_forward(0.0, PgParams(K=1.0, sigma=0.0)),
                                   2.0 * np.sqrt(0.375), rtol=1e-15)

    def test_forward_example(self):
        np.testing.assert_allclose(gat_forward(10.0, PgParams(K=0.5, sigma=1.0)),
                                   4.0 * np.sqrt(6.09375), rtol=1e-15)

    def test_inverse_example(self):
        assert gat_inverse(2.0, PgParams(K=1.0, sigma=0.0)) == 1.0 - 0.375

    def test_roundtrip(self):
        p = PgParams(K=0.5, sigma=1.0)
        np.testing.assert_allclose(gat_inverse(gat_forward(10.0, p), p), 10.0, rtol=1e-12)
        assert gat_inverse(gat_forward(0.0, PgParams(K=1.0, sigma=0.0)),
                           PgParams(K=1.0, sigma=0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = PgParams(K=rng.uniform(0.1, 5), sigma=rng.uniform(0, 10))
            y = rng.uniform(0, 20000, 256)
            np.testing.assert_allclose(gat_inverse(gat_forward(y, p), p), y,
                                       rtol=1e-12, atol=1e-9)

    def test_negative_t_rejected(self):
        with pytest.raises(DomainError):
            gat_inverse(-0.1, PgParams(K=1.0, sigma=0.0))

    def test_stabilization_mc(self):
        rng = np.random.default_rng(3)
        p = PgParams(K=0.8, sigma=2.0)
        for e in (10.0, 100.0, 1000.0):
            y = p.K * rng.poisson(e, 10**6) + rng.normal(0, p.sigma, 10**6)
            assert 0.95 <= np.var(gat_forward(y, p)) <= 1.05


class TestMonotonicity:
    @pytest.mark.parametrize("forward", [ksigma_forward, gat_forward])
    def test_strictly_increasing(self, forward):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = PgParams(K=rng.uniform(0.1, 5), sigma=rng.uniform(0, 10))
            y = np.sort(rng.uniform(0, 10000, 512))
            y = np.unique(y)
            out = forward(y, p)
            assert np.all(np.diff(out) > 0)
