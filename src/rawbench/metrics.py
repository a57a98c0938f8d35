"""Full-reference fidelity metrics computed directly on Bayer RAW tensors.

PSNR pools the squared error over all four RGGB channels jointly (one
tensor, one MSE).  SSIM is the standard single-scale formulation with an
11x11 Gaussian window (sigma 1.5), k1 = 0.01, k2 = 0.03, L = 1.0,
valid-region pooling, averaged over the four channels.  evaluate_pair
implements the benchmark crop protocol: center-crop the packed planes to
512 (development phase) or 1024 (final phase) before scoring.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import PackedImage, RawFrame, center_crop, normalize, pack_rggb
from .errors import DimensionError

_CROP_SIDES = {"dev": 512, "final": 1024}


@dataclass(frozen=True)
class EvalResult:
    psnr: float
    ssim: float
    n_pixels: int
    crop: tuple[int, int]


def psnr(pred: PackedImage, gt: PackedImage, peak: float = 1.0) -> float:
    """10*log10(peak^2 / MSE) with MSE pooled over all channels and pixels.

    Identical images return +inf.
    """
    if pred.channels.shape != gt.channels.shape:
        raise DimensionError(
            f"shape mismatch {pred.channels.shape} vs {gt.channels.shape}"
        )
    diff = pred.channels.astype(np.float64) - gt.channels.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / mse))


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    x = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


def _filter_valid(x: np.ndarray, window: np.ndarray) -> np.ndarray:
    r = len(window) // 2
    y = ndimage.correlate1d(x, window, axis=0, mode="constant")
    y = ndimage.correlate1d(y, window, axis=1, mode="constant")
    return y[r : x.shape[0] - r, r : x.shape[1] - r]


def ssim(
    pred: PackedImage,
    gt: PackedImage,
    window: int = 11,
    sigma_g: float = 1.5,
    k1: float = 0.01,
    k2: float = 0.03,
    L: float = 1.0,
) -> float:
    """Mean single-scale SSIM over the four RGGB channels (valid pooling)."""
    if pred.channels.shape != gt.channels.shape:
        raise DimensionError(
            f"shape mismatch {pred.channels.shape} vs {gt.channels.shape}"
        )
    if pred.plane_height < window or pred.plane_width < window:
        raise DimensionError(
            f"planes {pred.plane_height}x{pred.plane_width} smaller than window {window}"
        )
    g = _gaussian_window(window, sigma_g)
    c1 = (k1 * L) ** 2
    c2 = (k2 * L) ** 2
    scores = []
    for c in range(4):
        x = pred.channels[c].astype(np.float64)
        y = gt.channels[c].astype(np.float64)
        mu_x = _filter_valid(x, g)
        mu_y = _filter_valid(y, g)
        var_x = _filter_valid(x * x, g) - mu_x * mu_x
        var_y = _filter_valid(y * y, g) - mu_y * mu_y
        cov = _filter_valid(x * y, g) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
        den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        scores.append(float(np.mean(num / den)))
    return float(np.mean(scores))


def evaluate_pair(pred_frame: RawFrame, gt_frame: RawFrame, phase: str = "dev") -> EvalResult:
    """Benchmark protocol for one prediction: normalize, center-crop, score.

    Crop side is 512 packed pixels in the dev phase and 1024 in the final
    phase.  Mosaics of different shapes raise DimensionError: their crops
    would cover different pixels.  Mismatched camera/ISO metadata triggers
    a warning, not an error, so near-miss manifests still evaluate.
    """
    if phase not in _CROP_SIDES:
        raise ValueError(f"phase must be one of {sorted(_CROP_SIDES)}, got {phase!r}")
    if pred_frame.data.shape != gt_frame.data.shape:
        raise DimensionError(
            f"prediction mosaic {pred_frame.data.shape} does not match "
            f"ground truth {gt_frame.data.shape}"
        )
    if pred_frame.camera_id != gt_frame.camera_id or pred_frame.iso != gt_frame.iso:
        warnings.warn(
            f"metadata mismatch: pred {pred_frame.camera_id}/ISO{pred_frame.iso} "
            f"vs gt {gt_frame.camera_id}/ISO{gt_frame.iso}"
        )
    side = _CROP_SIDES[phase]
    pred = center_crop(normalize(pack_rggb(pred_frame), clip_hi=1.0), side, side)
    gt = center_crop(normalize(pack_rggb(gt_frame), clip_hi=1.0), side, side)
    return EvalResult(
        psnr=psnr(pred, gt),
        ssim=ssim(pred, gt),
        n_pixels=4 * side * side,
        crop=(side, side),
    )
