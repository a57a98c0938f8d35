"""Full-reference fidelity metrics computed directly on Bayer RAW tensors.

PSNR pools the squared error over all four RGGB channels jointly (one
tensor, one MSE) against a peak of 1.  SSIM is the standard single-scale
formulation with an 11x11 Gaussian window (sigma 1.5), k1 = 0.01,
k2 = 0.03, L = 1.0, valid-region pooling, averaged over the four channels.
These are the protocol's constants: no argument changes them.  evaluate_pair
implements the benchmark crop protocol: center-crop the packed planes to
512 (development phase) or 1024 (final phase) before scoring.

A prediction is scored against a *prepared reference* (``Reference``): the
ground truth packed, center-cropped and normalized once, plus the SSIM terms
that depend on it alone, the windowed mean ``mu_y`` and variance ``var_y`` of
each channel.  At the final phase every team is scored against the same
ground truths, so ``prepare_reference`` (RawFrame only) runs once per
image, not once per team.  ``evaluate_pair`` and ``ssim`` accept a reference
wherever they accept a ground truth: evaluate_pair prepares a plain RawFrame
on the fly, and ssim filters a plain PackedImage's terms with the same
helper, so there is one scoring path.

SSIM filters in the row bands of ``core._row_bands``: the band of valid
output rows [r0, r1) reads the input rows [r0, r1 + 10) (the window's
radius is 5), so its temporaries stay cache-sized.  Each band writes its
num/den into one full-size ratio array, and the channel's mean is taken
once over that array.  The pooled sum therefore keeps the order of the unbanded
formula, and every score is bit-identical to it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import PackedImage, RawFrame, _row_bands, center_crop, normalize, pack_rggb
from .errors import DimensionError

_CROP_SIDES = {"dev": 512, "final": 1024}
# SSIM's constants (Wang et al., 2004): Gaussian window side and sigma, and
# the stabilisers (k1 * L)^2 and (k2 * L)^2 for L = 1
_WINDOW, _SIGMA = 11, 1.5
_C1, _C2 = 0.01**2, 0.03**2


@dataclass(frozen=True)
class EvalResult:
    psnr: float
    ssim: float
    n_pixels: int
    crop: tuple[int, int]


@dataclass(frozen=True, eq=False)
class Reference:
    """A ground truth prepared once for scoring many predictions against it.

    ``image`` holds the planes of a RawFrame of shape ``mosaic_shape`` after
    the crop protocol of ``phase`` (packed, center-cropped, normalized), and
    ``stats`` the (2, 4, h - 10, w - 10) float64 block of SSIM's ``mu_y`` and
    ``var_y`` per channel under the 11x11, sigma 1.5 window.
    """

    image: PackedImage
    stats: np.ndarray
    mosaic_shape: tuple[int, int]
    phase: str


def psnr(pred: PackedImage, gt: PackedImage) -> float:
    """10*log10(1 / MSE) with MSE pooled over all channels and pixels (peak 1).

    Identical images return +inf.
    """
    if pred.channels.shape != gt.channels.shape:
        raise DimensionError(
            f"shape mismatch {pred.channels.shape} vs {gt.channels.shape}"
        )
    diff = np.subtract(pred.channels, gt.channels, dtype=np.float64)
    diff *= diff
    mse = float(np.mean(diff))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / mse))


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    x = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


_GAUSS = _gaussian_window(_WINDOW, _SIGMA)
_GAUSS.flags.writeable = False
_R = _WINDOW // 2  # the window's radius: a valid output row reads 2 * _R more input rows


def _filter_valid(x: np.ndarray) -> np.ndarray:
    """Separable correlation of ``x`` with SSIM's window, valid region only.
    The rows outside it are dropped between the two passes: each row's pass
    along axis 1 is independent of the others, so the result does not change."""
    y = ndimage.correlate1d(x, _GAUSS, axis=0, mode="constant")[_R : x.shape[0] - _R]
    y = ndimage.correlate1d(y, _GAUSS, axis=1, mode="constant")
    return y[:, _R : x.shape[1] - _R]


def _bands(plane: np.ndarray):
    """Yield (r0, r1, rows) per band of valid output rows [r0, r1) of SSIM's
    window: ``rows`` are the float64 input rows [r0, r1 + 2 * _R)."""
    for r0, r1 in _row_bands(plane.shape[0] - 2 * _R):
        yield r0, r1, np.asarray(plane[r0 : r1 + 2 * _R], dtype=np.float64)


def _crop_protocol(frame: RawFrame, phase: str) -> PackedImage:
    """Pack, center-crop to the phase's side, then normalize: normalizing is
    pointwise, so normalizing only the cropped pixels gives the same values."""
    side = _CROP_SIDES[phase]
    return normalize(center_crop(pack_rggb(frame), side, side), clip_hi=1.0)


def _check_phase(phase: str) -> None:
    if phase not in _CROP_SIDES:
        raise ValueError(f"phase must be one of {sorted(_CROP_SIDES)}, got {phase!r}")


def _ssim_stats(gt: PackedImage) -> np.ndarray:
    """SSIM's ground-truth-only terms: the (2, 4, h - 10, w - 10) float64
    block of ``mu_y`` and ``var_y`` per channel, filtered band by band.
    Planes smaller than the window raise DimensionError."""
    if gt.plane_height < _WINDOW or gt.plane_width < _WINDOW:
        raise DimensionError(
            f"planes {gt.plane_height}x{gt.plane_width} smaller than window {_WINDOW}"
        )
    _, h, w = gt.channels.shape
    stats = np.empty((2, 4, h - 2 * _R, w - 2 * _R))
    for c in range(4):
        for r0, r1, y in _bands(gt.channels[c]):
            mu_y = _filter_valid(y)
            stats[0, c, r0:r1] = mu_y
            stats[1, c, r0:r1] = _filter_valid(y * y) - mu_y * mu_y
    return stats


def prepare_reference(gt: RawFrame, phase: str = "dev") -> Reference:
    """Prepare a ground truth for scoring under the crop protocol of
    ``phase``, as evaluate_pair would on every call."""
    _check_phase(phase)
    image = _crop_protocol(gt, phase)
    return Reference(image, _ssim_stats(image), gt.data.shape, phase)


def ssim(pred: PackedImage, gt: PackedImage | Reference) -> float:
    """Mean single-scale SSIM over the four RGGB channels (valid pooling).

    ``gt`` may be a Reference, whose ``mu_y``/``var_y`` are then used as
    they are; a PackedImage's are filtered here.
    """
    gt_image = gt.image if isinstance(gt, Reference) else gt
    if pred.channels.shape != gt_image.channels.shape:
        raise DimensionError(
            f"shape mismatch {pred.channels.shape} vs {gt_image.channels.shape}"
        )
    stats = gt.stats if isinstance(gt, Reference) else _ssim_stats(gt_image)
    ratio = np.empty(stats.shape[2:])
    scores = []
    for c in range(4):
        bands = zip(_bands(pred.channels[c]), _bands(gt_image.channels[c]))
        for (r0, r1, x), (_, _, y) in bands:
            mu_y = stats[0, c, r0:r1]
            var_y = stats[1, c, r0:r1]
            mu_x = _filter_valid(x)
            var_x = _filter_valid(x * x) - mu_x * mu_x
            cov = _filter_valid(x * y) - mu_x * mu_y
            num = (2.0 * mu_x * mu_y + _C1) * (2.0 * cov + _C2)
            den = (mu_x * mu_x + mu_y * mu_y + _C1) * (var_x + var_y + _C2)
            np.divide(num, den, out=ratio[r0:r1])
        scores.append(float(np.mean(ratio)))
    return float(np.mean(scores))


def evaluate_pair(
    pred_frame: RawFrame, gt: RawFrame | Reference, phase: str = "dev"
) -> EvalResult:
    """Benchmark protocol for one prediction: center-crop, normalize, score.

    Crop side is 512 packed pixels in the dev phase and 1024 in the final
    phase.  ``gt`` is a RawFrame or a Reference prepared from one for the
    same phase.  Mosaics of different shapes raise DimensionError: their
    crops would cover different pixels.  Mismatched camera/ISO metadata
    triggers a warning, not an error, so near-miss manifests still evaluate.
    """
    ref = gt if isinstance(gt, Reference) else prepare_reference(gt, phase)
    if ref.phase != phase:
        raise ValueError(f"reference prepared for phase {ref.phase!r}, scored at {phase!r}")
    if pred_frame.data.shape != ref.mosaic_shape:
        raise DimensionError(
            f"prediction mosaic {pred_frame.data.shape} does not match "
            f"ground truth {ref.mosaic_shape}"
        )
    gt_camera, gt_iso = ref.image.camera_id, ref.image.iso
    if pred_frame.camera_id != gt_camera or pred_frame.iso != gt_iso:
        warnings.warn(
            f"metadata mismatch: pred {pred_frame.camera_id}/ISO{pred_frame.iso} "
            f"vs gt {gt_camera}/ISO{gt_iso}"
        )
    pred = _crop_protocol(pred_frame, phase)
    side = _CROP_SIDES[phase]
    return EvalResult(
        psnr=psnr(pred, ref.image),
        ssim=ssim(pred, ref),
        n_pixels=4 * side * side,
        crop=(side, side),
    )
