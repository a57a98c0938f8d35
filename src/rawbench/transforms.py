"""Variance-stabilizing and noise-normalizing transforms with algebraic inverses.

Both transforms consume Poisson-Gaussian data in DN above black, described
by a system gain K (DN per electron) and a total Gaussian std sigma (DN):

    y = K * Poisson(e) + N(0, sigma^2)

The kSigma map rescales y to a unit-gain form where variance equals mean;
the generalized Anscombe map stabilizes the variance to ~1 for electron
means above roughly 10.  The inverses used here are the plain algebraic
ones; callers that need an exact-unbiased inverse can post-apply their own
correction to the forward/inverse pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _check_finite
from .errors import DomainError


@dataclass(frozen=True)
class PgParams:
    """Poisson-Gaussian noise description in the DN domain.

    K > 0 and sigma >= 0 must be finite, and so must their squares and
    (sigma / K)^2, which the transforms compute.
    """

    K: float
    sigma: float

    def __post_init__(self):
        for name, value, positive in (("system gain K", self.K, True),
                                      ("sigma", self.sigma, False)):
            value = _check_finite(name, value, positive=positive, error=DomainError)
            if not np.isfinite(value * value):
                raise DomainError(f"{name} must have a finite square, got {value}")
        ratio = float(self.sigma) / float(self.K)
        if not np.isfinite(ratio * ratio):
            raise DomainError(f"(sigma / K)^2 must be finite, got sigma={self.sigma}, K={self.K}")


def ksigma_forward(y, p: PgParams):
    """f(y) = y/K + sigma^2/K^2, mapping data to unit-gain Poisson-Gaussian form.

    After the map, E[f] = Var[f] = e + sigma^2/K^2.
    """
    return np.asarray(y, dtype=np.float64) / p.K + (p.sigma / p.K) ** 2


def ksigma_inverse(t, p: PgParams):
    """Exact algebraic inverse of ksigma_forward: y = K*t - sigma^2/K."""
    return p.K * np.asarray(t, dtype=np.float64) - p.sigma**2 / p.K


def gat_forward(y, p: PgParams):
    """Generalized Anscombe transform T(y) = (2/K)*sqrt(K*y + (3/8)*K^2 + sigma^2).

    The argument of the square root is clamped at zero; where the clamp is
    inactive the transform is strictly increasing and Var[T(y)] is ~1 for
    Poisson-Gaussian y with electron mean >~ 10.
    """
    y = np.asarray(y, dtype=np.float64)
    arg = p.K * y + 0.375 * p.K**2 + p.sigma**2
    return (2.0 / p.K) * np.sqrt(np.maximum(arg, 0.0))


def gat_inverse(t, p: PgParams):
    """Algebraic inverse y = (K/4)*t^2 - (3/8)*K - sigma^2/K.

    Exact inverse of gat_forward wherever the forward clamp was inactive.
    Negative stabilized values are outside the transform's range.
    """
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise DomainError("gat_inverse requires t >= 0")
    return 0.25 * p.K * t**2 - 0.375 * p.K - p.sigma**2 / p.K
