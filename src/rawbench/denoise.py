"""Classical baseline denoiser: VST -> sliding-DCT hard threshold -> inverse VST.

The shrinkage stage slides an 8x8 orthonormal DCT over each plane at
stride 4, zeroes AC coefficients below ``threshold_mult * sigma``, and
averages the overlapping reconstructions.  After a variance-stabilizing
transform the noise std is ~1, making the threshold parameter-free; with
``transform="none"`` the caller supplies the DN-domain sigma instead.

The blocks that start on one phase of the stride grid do not overlap, so
each phase is transformed as one batch of matrix products and added back in
place; the flush blocks at the far edges form one more phase.

Each plane is processed one core of at most 224 x 224 pixels at a time,
which bounds the working set: one shrink call sees at most about 240^2
pixels, and is faster than a single pass over a larger plane.  Cores start
on multiples of the block period (8, the block side; the core side is
rounded down to a multiple of it) and each is shrunk inside a patch with a
one-period halo, which holds every block that touches the core.  Tiling is
therefore exact: the tiled result equals the single pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .calibration import NoiseParams
from .core import PackedImage, SPACE_NORMALIZED
from .errors import DimensionError, DomainError, ProfileError
from .transforms import PgParams, gat_forward, gat_inverse, ksigma_forward, ksigma_inverse

_BLOCK = 8
_STRIDE = 4  # the baseline's block step: blocks _BLOCK (two steps) apart never overlap
_CORE = 224  # core side of the tiled shrink, before rounding down to the period
_TRANSFORMS = ("gat", "ksigma", "none")


def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix: ``C @ x`` is ``scipy.fft.dct(x, norm="ortho")``."""
    k = np.arange(n)
    c = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / (2 * n))
    c[0] /= np.sqrt(2.0)
    c.flags.writeable = False
    return c


_DCT = _dct_matrix(_BLOCK)


@dataclass(frozen=True)
class DenoiseConfig:
    transform: str = "gat"
    threshold_mult: float = 3.0
    sigma_dn: float | None = None  # required for transform == "none"

    def __post_init__(self):
        if self.transform not in _TRANSFORMS:
            raise DomainError(f"transform must be one of {_TRANSFORMS}")
        if self.threshold_mult < 0:
            raise DomainError("threshold_mult must be >= 0")


def _block_groups(extent: int) -> tuple[list[slice], np.ndarray]:
    """Block starts along one axis, split into groups of non-overlapping blocks.

    The starts are 0, 4, 8, ... up to ``extent - 8``, plus the flush start
    ``extent - 8`` when the grid misses it.  Each group is a slice over start
    positions: one per phase of the grid, stepping by the block side, then
    the flush start on its own.  Also returns how many blocks cover each
    pixel.
    """
    last = (extent - _BLOCK) // _STRIDE * _STRIDE
    groups = [slice(o, last + 1, _BLOCK) for o in range(0, min(_BLOCK, last + 1), _STRIDE)]
    if last != extent - _BLOCK:
        groups.append(slice(extent - _BLOCK, extent - _BLOCK + 1))
    is_start = np.zeros(extent - _BLOCK + 1)
    for g in groups:
        is_start[g] = 1.0
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
    src = sliding_window_view(p, (_BLOCK, _BLOCK))
    out = np.zeros_like(p)
    dst = sliding_window_view(out, (_BLOCK, _BLOCK), writeable=True)
    for ry in rows:
        for rx in cols:
            # the blocks of one row group x column group are disjoint, so the
            # in-place overlap-add below writes each pixel at most once
            coef = _DCT @ src[ry, rx] @ _DCT.T
            keep = np.abs(coef) >= thr
            keep[..., 0, 0] = True
            dst[ry, rx] += _DCT.T @ (coef * keep) @ _DCT
    out /= row_cover[:, None] * col_cover[None, :]
    return out


def _tiled_shrink(
    plane: np.ndarray, sigma: float, threshold_mult: float, core: int = _CORE
) -> np.ndarray:
    """:func:`dct8_shrink` of a plane, computed one core at a time.

    Core origins are multiples of the block period, so each patch (core plus
    a one-period halo) sees exactly the blocks the single pass places over
    its core, in the same order: the result equals the single pass.  A plane
    no larger than one core is shrunk in one call.
    """
    h, w = plane.shape
    halo = _BLOCK  # the block period
    step = max(core // halo * halo, halo)
    out = np.empty((h, w))
    for ay in range(0, h, step):
        y0, y1 = max(0, ay - halo), min(h, ay + step + halo)
        for ax in range(0, w, step):
            x0, x1 = max(0, ax - halo), min(w, ax + step + halo)
            patch = dct8_shrink(plane[y0:y1, x0:x1], sigma, threshold_mult)
            out[ay : ay + step, ax : ax + step] = patch[
                ay - y0 : ay - y0 + step, ax - x0 : ax - x0 + step
            ]
    return out


def effective_pg_params(params: NoiseParams, dgain: float) -> PgParams:
    """DN-domain Poisson-Gaussian parameters of a digitally amplified frame.

    Denormalizing noisy_norm * (white - black) yields dgain*(K*Poisson(e) + n),
    i.e. gain dgain*K and Gaussian std dgain*sqrt(read^2 + row^2 + quant^2/12).
    """
    sigma_total = np.sqrt(
        params.sigma_read**2 + params.sigma_row**2 + params.quant_step**2 / 12.0
    )
    return PgParams(K=dgain * params.K, sigma=dgain * float(sigma_total))


def denoise_raw(
    noisy_norm: PackedImage,
    params: PgParams,
    cfg: DenoiseConfig = DenoiseConfig(),
) -> PackedImage:
    """Denoise a normalized RGGB image channel by channel.

    ``params`` is one PgParams shared by all four channels, already scaled
    for the applied digital gain (see :func:`effective_pg_params`).  The
    pipeline per channel is scale to DN above black -> VST forward -> dct8
    shrinkage (sigma = 1 post-VST, or cfg.sigma_dn for transform="none") ->
    VST inverse -> rescale -> clamp to [0, clip_hi].  The output is
    deterministic.
    """
    if noisy_norm.space != SPACE_NORMALIZED:
        raise DomainError("denoise_raw expects a normalized image")
    if cfg.transform == "none" and cfg.sigma_dn is None:
        raise ProfileError('transform="none" requires cfg.sigma_dn')

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
        t = _tiled_shrink(t, sigma, cfg.threshold_mult)
        if cfg.transform == "gat":
            # shrinkage can overshoot slightly below the stabilized range
            y_hat = gat_inverse(np.maximum(t, 0.0), params)
        elif cfg.transform == "ksigma":
            y_hat = ksigma_inverse(t, params)
        else:
            y_hat = t
        out[c] = np.clip(y_hat / span[c], 0.0, noisy_norm.clip_hi)
    return replace(noisy_norm, channels=out)
