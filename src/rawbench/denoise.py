"""Classical baseline denoiser: VST -> sliding-DCT hard threshold -> inverse VST.

The shrinkage stage slides an 8x8 orthonormal DCT over each plane at
stride 4, zeroes AC coefficients below ``threshold_mult * sigma``, and
averages the overlapping reconstructions.  After a variance-stabilizing
transform the noise std is ~1, making the threshold parameter-free; with
``transform="none"`` the caller supplies the DN-domain sigma instead.

The blocks that start on one phase of the stride grid do not overlap; the
flush blocks at the far edges form one more phase.  The blocks of one row
phase x column phase therefore tile one rectangle of the plane, which is
transformed by two plain matrix products each way (the columns of every
block at once by a left product, then the rows of every block at once by a
right product on the rectangle's rows taken 8 at a time), thresholded and
added back in place.

One core of at most ``_CORE`` x ``_CORE`` (224 x 224) pixels of one channel
is the unit of work.  Cores start on multiples of the block period (8, the
block side; the core side is rounded down to a multiple of it), and each
core's patch, the core plus a one-period halo, runs the whole chain: scale
to DN, VST forward, shrink, crop to the core, VST inverse, rescale and
clip, straight into the output.  The halo holds every block that touches the core, so the
shrink of the patch equals the single pass over the plane there, and every
other step is pointwise: the result equals the whole-plane chain, while
one shrink call sees at most about 240^2 pixels and no plane-sized
temporary is made.  The cores are independent tasks: each reads the input
and writes only its own disjoint slice of the output, so ``core._map`` runs
them.

The forward transform's row product multiplies by ``_DCT_T``, a C-ordered
copy of the DCT matrix's transpose: numpy's matmul on the transposed view
gives the same bits but runs about 1.5-2x slower on a patch's products.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import core
from .calibration import NoiseParams
from .core import PackedImage, SPACE_NORMALIZED, _check_choice, _check_finite, _check_space
from .errors import DimensionError, DomainError, ProfileError
from .transforms import PgParams, gat_forward, gat_inverse, ksigma_forward, ksigma_inverse

_BLOCK = 8
_STRIDE = 4  # the baseline's block step: blocks _BLOCK (two steps) apart never overlap
_CORE = 224  # core side of the unit of work, before rounding down to the period
_TRANSFORMS = ("gat", "ksigma", "none")


def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix: ``C @ x`` is ``scipy.fft.dct(x, norm="ortho")``."""
    k = np.arange(n)
    c = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / (2 * n))
    c[0] /= np.sqrt(2.0)
    c.flags.writeable = False
    return c


_DCT = _dct_matrix(_BLOCK)
_DCT_T = np.ascontiguousarray(_DCT.T)
_DCT_T.flags.writeable = False


@dataclass(frozen=True)
class DenoiseConfig:
    transform: str = "gat"
    threshold_mult: float = 3.0
    sigma_dn: float | None = None  # required for transform == "none", refused otherwise

    def __post_init__(self):
        _check_choice("transform", self.transform, _TRANSFORMS, error=DomainError)
        _check_finite("threshold_mult", self.threshold_mult, positive=False, error=DomainError)
        if self.sigma_dn is not None:
            _check_finite("sigma_dn", self.sigma_dn, positive=False, error=DomainError)
        if (self.sigma_dn is None) == (self.transform == "none"):
            raise ProfileError('transform="none" requires sigma_dn, and no other transform '
                               f'reads it; got transform={self.transform!r}')


def _block_groups(extent: int) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Block starts along one axis, split into groups of non-overlapping blocks.

    The starts are 0, 4, 8, ... up to ``extent - 8``, plus the flush start
    ``extent - 8`` when the grid misses it.  Each group is a run of starts
    one block side apart, given as (first start, number of blocks): one per
    phase of the grid, then the flush start on its own.  Also returns how
    many blocks cover each pixel.
    """
    last = (extent - _BLOCK) // _STRIDE * _STRIDE
    groups = [(o, (last - o) // _BLOCK + 1) for o in range(0, min(_BLOCK, last + 1), _STRIDE)]
    if last != extent - _BLOCK:
        groups.append((extent - _BLOCK, 1))
    is_start = np.zeros(extent - _BLOCK + 1)
    for start, n in groups:
        is_start[start : start + n * _BLOCK : _BLOCK] = 1.0
    return groups, np.convolve(is_start, np.ones(_BLOCK))


def dct8_shrink(plane: np.ndarray, sigma: float, threshold_mult: float = 3.0) -> np.ndarray:
    """Sliding 8x8 DCT hard-threshold denoiser for additive Gaussian noise.

    AC coefficients with magnitude below ``threshold_mult * sigma`` are
    zeroed; the DC coefficient is always kept, so constant planes pass
    through unchanged and sigma = 0 reproduces the input exactly.  Blocks
    start every 4 pixels, plus a flush block at the far edge.
    """
    p = np.asarray(plane, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] < _BLOCK or p.shape[1] < _BLOCK:
        raise DimensionError(f"plane must be at least 8x8, got {p.shape}")
    if not sigma >= 0:
        raise DomainError("sigma must be >= 0")
    rows, row_cover = _block_groups(p.shape[0])
    cols, col_cover = _block_groups(p.shape[1])
    thr = threshold_mult * sigma
    out = np.zeros_like(p)
    for y0, ny in rows:
        for x0, nx in cols:
            # The ny x nx disjoint blocks of one row group x column group tile
            # one rectangle.  Viewed as (ny, 8, 8 nx), a left product by the
            # DCT matrix transforms the columns of every block, and a right
            # product on its rows taken 8 at a time transforms their rows.
            y1, x1 = y0 + _BLOCK * ny, x0 + _BLOCK * nx
            x = p[y0:y1, x0:x1].reshape(ny, _BLOCK, _BLOCK * nx)
            coef = ((_DCT @ x).reshape(-1, _BLOCK) @ _DCT_T).reshape(ny, _BLOCK, nx, _BLOCK)
            keep = np.abs(coef) >= thr
            keep[:, 0, :, 0] = True
            coef *= keep
            rec = (_DCT.T @ coef.reshape(ny, _BLOCK, _BLOCK * nx)).reshape(-1, _BLOCK) @ _DCT
            # disjoint blocks: this overlap-add writes each pixel at most once
            out[y0:y1, x0:x1] += rec.reshape(y1 - y0, x1 - x0)
    out /= row_cover[:, None] * col_cover[None, :]
    return out


def effective_pg_params(params: NoiseParams, dgain: float) -> PgParams:
    """DN-domain Poisson-Gaussian parameters of a digitally amplified frame.

    Denormalizing noisy_norm * (white - black) yields dgain*(K*Poisson(e) + n),
    i.e. gain dgain*K and Gaussian std dgain*sqrt(read^2 + row^2 + quant^2/12).
    ``dgain`` must be finite and > 0.
    """
    _check_finite("dgain", dgain, positive=True, error=DomainError)
    sigma_total = np.sqrt(
        params.sigma_read**2 + params.sigma_row**2 + params.quant_step**2 / 12.0
    )
    return PgParams(K=dgain * params.K, sigma=dgain * float(sigma_total))


def denoise_raw(
    noisy_norm: PackedImage,
    params: PgParams,
    cfg: DenoiseConfig = DenoiseConfig(),
) -> PackedImage:
    """Denoise a normalized RGGB image core by core, on every channel.

    ``params`` is one PgParams shared by all four channels, already scaled
    for the applied digital gain (see :func:`effective_pg_params`).  The
    pipeline per channel is scale to DN above black -> VST forward -> dct8
    shrinkage (sigma = 1 post-VST, or cfg.sigma_dn for transform="none") ->
    VST inverse -> rescale -> clamp to [0, clip_hi].  The unit of work is
    one core of side ``_CORE`` (rounded down to the block period) with its
    one-period halo, and the result equals the whole-plane chain (see the
    module docstring); a plane no larger than one core is one patch.  The
    cores are ``core._map`` tasks.
    """
    _check_space("denoise_raw", SPACE_NORMALIZED, noisy_norm=noisy_norm)
    span = noisy_norm.white_level - noisy_norm.black_level
    sigma = 1.0 if cfg.transform != "none" else float(cfg.sigma_dn)
    _, h, w = noisy_norm.channels.shape
    step = max(_CORE // _BLOCK * _BLOCK, _BLOCK)
    out = np.empty((4, h, w))

    def task(where):
        # the whole chain of one channel's core, into its own slice of out
        c, ay, ax = where
        y0, x0 = max(0, ay - _BLOCK), max(0, ax - _BLOCK)
        patch = noisy_norm.channels[c, y0 : ay + step + _BLOCK, x0 : ax + step + _BLOCK]
        t = np.multiply(patch, span[c], dtype=np.float64)
        if cfg.transform == "gat":
            t = gat_forward(t, params)
        elif cfg.transform == "ksigma":
            t = ksigma_forward(t, params)
        t = dct8_shrink(t, sigma, cfg.threshold_mult)[ay - y0 : ay - y0 + step,
                                                      ax - x0 : ax - x0 + step]
        if cfg.transform == "gat":
            # shrinkage can overshoot slightly below the stabilized range
            t = gat_inverse(np.maximum(t, 0.0), params)
        elif cfg.transform == "ksigma":
            t = ksigma_inverse(t, params)
        np.clip(t / span[c], 0.0, noisy_norm.clip_hi, out=out[c, ay : ay + step, ax : ax + step])

    core._map(task, product(range(4), range(0, h, step), range(0, w, step)))
    return replace(noisy_norm, channels=out)
