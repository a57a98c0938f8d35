"""Full-reference fidelity metrics computed directly on Bayer RAW tensors.

PSNR pools the squared error over all four RGGB channels jointly (one
tensor, one MSE) against a peak of 1.  SSIM is the standard single-scale
formulation with an 11x11 Gaussian window (sigma 1.5), k1 = 0.01,
k2 = 0.03, L = 1.0, valid-region pooling, averaged over the four channels.
These are the protocol's constants: no argument changes them, and both
metrics take normalized images only (a DomainError names any other space).
evaluate_pair implements the benchmark crop protocol: center-crop the
mosaic to 512 (development phase) or 1024 (final phase) packed pixels
before scoring.

A prediction is scored against a *prepared reference* (``Reference``): the
ground truth center-cropped and normalized once, plus the SSIM terms
that depend on it alone, the windowed mean ``mu_y`` and variance ``var_y`` of
each channel.  At the final phase every team is scored against the same
ground truths, so ``prepare_reference`` (RawFrame only) runs once per
image, not once per team.  ``evaluate_pair`` and ``ssim`` accept a reference
wherever they accept a ground truth: evaluate_pair prepares a plain RawFrame
on the fly, and ssim filters a plain PackedImage's terms with the same
helper, so there is one scoring path.

SSIM filters in the row bands of ``core._row_bands``: the band of valid
output rows [r0, r1) reads the input rows [r0, r1 + 10) (the window's
radius is 5), so its temporaries stay cache-sized.  Each band is a
``core._map`` task with its own temporaries.
Each channel has one full-size ratio array; a band task writes only its own
rows of it, and the channel's mean is taken once over that array after
every band has run.  The four channel means are averaged in channel order.
The pooled sums therefore keep the order of the unbanded formula, and every
score is bit-identical to it at any worker count.  ``prepare_reference``
runs one task per (channel, band), each writing its rows of ``mu_y`` and
``var_y``.

The window filter (``_filter_valid``) is separable, and one loop runs both
passes: rows, then columns.  Each pass is numpy sums of shifted row (or
column) slices over the valid outputs only, added in the order
``scipy.ndimage.correlate1d`` uses for a symmetric window: the centre times
``w[5]``, then ``(x[-j] + x[+j]) * w[5 - j]`` for j = 5, ..., 1.  The window
is exactly symmetric and no valid output reads the padding, so each step is
the same correctly rounded operation as in scipy and the bits are equal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import core
from .core import (PackedImage, RawFrame, Roi, SPACE_NORMALIZED, _check_choice, _check_space,
                   _row_bands, crop_frame, normalize)
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


@dataclass(frozen=True, eq=False)
class Reference:
    """A ground truth prepared once for scoring many predictions against it.

    ``image`` holds the planes of a RawFrame of shape ``mosaic_shape`` after
    the crop protocol of ``phase`` (mosaic center-cropped, then normalized), and
    ``stats`` the (2, 4, h - 10, w - 10) float64 block of SSIM's ``mu_y`` and
    ``var_y`` per channel under the 11x11, sigma 1.5 window.
    """

    image: PackedImage
    stats: np.ndarray
    mosaic_shape: tuple[int, int]
    phase: str


def psnr(pred: PackedImage, gt: PackedImage) -> float:
    """10*log10(1 / MSE) with MSE pooled over all channels and pixels (peak 1).

    Identical images return +inf.  Both images must be normalized.
    """
    _check_space("psnr", SPACE_NORMALIZED, pred=pred, gt=gt)
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
    """Separable correlation of float64 ``x`` with SSIM's window, valid
    region only: a (h - 10, w - 10) array.

    One loop runs the vertical pass, then the horizontal one, over shifted
    row (then column) slices and the valid outputs only, in
    ``ndimage.correlate1d``'s order for a symmetric window: the centre line
    times ``w[5]``, then ``(x[-j] + x[+j]) * w[5 - j]`` added for
    j = 5, ..., 1.  ``_GAUSS`` is exactly symmetric and no valid output reads
    the padding, so each step is the same correctly rounded operation as in
    scipy and the bits are equal.  Float addition is not associative: do not
    reorder these steps.  The column slices are strided views; a transposed
    copy measured slower.
    """
    for axis in (0, 1):
        n = x.shape[axis] - 2 * _R
        lines = [x[a : a + n] if axis == 0 else x[:, a : a + n] for a in range(2 * _R + 1)]
        y = np.multiply(lines[_R], _GAUSS[_R])
        t = np.empty_like(y)
        for j in range(_R, 0, -1):
            np.add(lines[_R - j], lines[_R + j], out=t)
            t *= _GAUSS[_R - j]
            y += t
        x = y
    return x


def _band_rows(plane: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """The float64 input rows [r0, r1 + 2 * _R) that SSIM's valid output rows
    [r0, r1) read."""
    return np.asarray(plane[r0 : r1 + 2 * _R], dtype=np.float64)


def _crop_protocol(frame: RawFrame, phase: str) -> PackedImage:
    """Center-crop the mosaic to the phase's side of planes at even offsets
    (the floor-rounded plane offset, doubled), then normalize."""
    side = _CROP_SIDES[phase]
    ph, pw = frame.height // 2, frame.width // 2
    if side > ph or side > pw:
        raise DimensionError(f"crop {side}x{side} does not fit planes {pw}x{ph}")
    roi = Roi(x0=(pw - side) // 2 * 2, y0=(ph - side) // 2 * 2, w=2 * side, h=2 * side)
    return normalize(crop_frame(frame, roi))


def _ssim_stats(gt: PackedImage) -> np.ndarray:
    """SSIM's ground-truth-only terms: the (2, 4, h - 10, w - 10) float64
    block of ``mu_y`` and ``var_y`` per channel, one task per channel and
    band.  Planes smaller than the window raise DimensionError."""
    if gt.plane_height < _WINDOW or gt.plane_width < _WINDOW:
        raise DimensionError(
            f"planes {gt.plane_height}x{gt.plane_width} smaller than window {_WINDOW}"
        )
    _, h, w = gt.channels.shape
    stats = np.empty((2, 4, h - 2 * _R, w - 2 * _R))

    def band(task):
        c, (r0, r1) = task
        y = _band_rows(gt.channels[c], r0, r1)
        mu_y = _filter_valid(y)
        stats[0, c, r0:r1] = mu_y
        stats[1, c, r0:r1] = _filter_valid(y * y) - mu_y * mu_y

    core._map(band, product(range(4), _row_bands(h - 2 * _R)))
    return stats


def prepare_reference(gt: RawFrame, phase: str = "dev") -> Reference:
    """Prepare a ground truth for scoring under the crop protocol of
    ``phase``, as evaluate_pair would on every call."""
    image = _crop_protocol(gt, _check_choice("phase", phase, _CROP_SIDES, error=ValueError))
    return Reference(image, _ssim_stats(image), gt.data.shape, phase)


def _ssim_channel(x_plane: np.ndarray, y_plane: np.ndarray, stats: np.ndarray) -> float:
    """One channel's mean SSIM: ``stats`` is its (2, h - 10, w - 10) block of
    ``mu_y`` and ``var_y``.  Each band of rows is a task writing its rows of
    the channel's ratio array; the mean is taken once all have run."""
    ratio = np.empty(stats.shape[1:])

    def band(rows):
        r0, r1 = rows
        x = _band_rows(x_plane, r0, r1)
        y = _band_rows(y_plane, r0, r1)
        mu_y = stats[0, r0:r1]
        var_y = stats[1, r0:r1]
        mu_x = _filter_valid(x)
        var_x = _filter_valid(x * x) - mu_x * mu_x
        cov = _filter_valid(x * y) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + _C1) * (2.0 * cov + _C2)
        den = (mu_x * mu_x + mu_y * mu_y + _C1) * (var_x + var_y + _C2)
        np.divide(num, den, out=ratio[r0:r1])

    core._map(band, _row_bands(len(ratio)))
    return float(np.mean(ratio))


def ssim(pred: PackedImage, gt: PackedImage | Reference) -> float:
    """Mean single-scale SSIM over the four RGGB channels (valid pooling).

    ``gt`` may be a Reference, whose ``mu_y``/``var_y`` are then used as
    they are; a PackedImage's are filtered here.  Both images must be
    normalized (a Reference's always is).
    """
    gt_image = gt.image if isinstance(gt, Reference) else gt
    _check_space("ssim", SPACE_NORMALIZED, pred=pred, gt=gt_image)
    if pred.channels.shape != gt_image.channels.shape:
        raise DimensionError(
            f"shape mismatch {pred.channels.shape} vs {gt_image.channels.shape}"
        )
    stats = gt.stats if isinstance(gt, Reference) else _ssim_stats(gt_image)
    scores = [_ssim_channel(pred.channels[c], gt_image.channels[c], stats[:, c])
              for c in range(4)]
    return float(np.mean(scores))


def evaluate_pair(
    pred_frame: RawFrame, gt: RawFrame | Reference, phase: str = "dev"
) -> EvalResult:
    """Benchmark protocol for one prediction: crop the mosaic, normalize, score.

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
    return EvalResult(psnr=psnr(pred, ref.image), ssim=ssim(pred, ref))
