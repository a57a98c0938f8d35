"""Full-reference fidelity metrics computed directly on Bayer RAW tensors.

PSNR pools the squared error over all four RGGB channels jointly (one
tensor, one MSE) against a peak of 1.  SSIM is the standard single-scale
formulation with an 11x11 Gaussian window (sigma 1.5), k1 = 0.01,
k2 = 0.03, L = 1.0, valid-region pooling, averaged over the four channels.
These are the protocol's constants: no argument changes them.  Both metrics
take a normalized PackedImage or a mosaic RawFrame, whose rows they
normalize at clip_hi 1 as they read them (a DomainError names a PackedImage
in any other space).  evaluate_pair implements the benchmark crop protocol:
center-crop the mosaic to 512 (development phase) or 1024 (final phase)
packed pixels, then score the cropped mosaic.  No full-size normalized copy
of either image is made: every band reads its rows straight from the crop
through ``core._normalize_rows``, the arithmetic of ``normalize``, so every
score equals the one of the normalized planes bit for bit.

A prediction is scored against a *prepared reference* (``Reference``): the
ground truth's cropped mosaic, copied once, plus the SSIM terms that depend
on it alone, the windowed mean ``mu_y`` and variance ``var_y`` of each
channel.  At the final phase every team is scored against the same ground
truths, so ``prepare_reference`` (RawFrame only) runs once per image, not
once per team.  ``evaluate_pair`` and ``ssim`` accept a reference wherever
they accept a ground truth: evaluate_pair prepares a plain RawFrame on the
fly, and ssim filters a plain image's terms with the same helper, so there
is one scoring path.

PSNR's mean is numpy's: ``np.mean`` of a contiguous float64 array is a
pairwise sum over the flat array, then one divide.  ``_pairwise_sum`` splits
the flat (4, h, w) range by numpy's rule down to leaves of at most
``_PSNR_LEAF`` values; each leaf is a ``core._map`` task that computes its
squared errors from its rows and sums them with ``np.add.reduce``, and the
leaf sums are added serially in the tree's order.  The MSE is therefore
bit-identical to ``np.mean((pred - gt)**2)`` at any worker count.

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
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from . import core
from .core import (PackedImage, RawFrame, Roi, SPACE_NORMALIZED, _check_choice, _check_space,
                   _rggb_views, _row_bands, crop_frame)
from .errors import DimensionError

_CROP_SIDES = {"dev": 512, "final": 1024}
# SSIM's constants (Wang et al., 2004): Gaussian window side and sigma, and
# the stabilisers (k1 * L)^2 and (k2 * L)^2 for L = 1
_WINDOW, _SIGMA = 11, 1.5
_C1, _C2 = 0.01**2, 0.03**2
# The most squared errors one PSNR task sums: a leaf of numpy's pairwise tree
_PSNR_LEAF = 1 << 16


@dataclass(frozen=True)
class EvalResult:
    psnr: float
    ssim: float


@dataclass(frozen=True, eq=False)
class Reference:
    """A ground truth prepared once for scoring many predictions against it.

    ``image`` is the mosaic a RawFrame of shape ``mosaic_shape`` is cut to
    by the crop protocol of ``phase``, as a contiguous copy, and ``stats``
    the (2, 4, h - 10, w - 10) float64 block of SSIM's ``mu_y`` and
    ``var_y`` per channel of its normalized planes under the 11x11, sigma
    1.5 window.  A Reference built by hand may hold a normalized
    PackedImage instead; the metrics read either.
    """

    image: RawFrame | PackedImage
    stats: np.ndarray
    mosaic_shape: tuple[int, int]
    phase: str


def _plane_shape(img: RawFrame | PackedImage) -> tuple[int, int, int]:
    """The (4, h, w) planes a scoring source is read as."""
    if isinstance(img, RawFrame):
        return 4, img.height // 2, img.width // 2
    return img.channels.shape


def _check_sources(where: str, **images: RawFrame | PackedImage) -> tuple[int, int, int]:
    """The rule of psnr's and ssim's two inputs: each of ``images`` is a
    mosaic RawFrame or a normalized PackedImage (else DomainError), and both
    have one plane shape (else DimensionError).  Returns that shape."""
    _check_space(where, SPACE_NORMALIZED,
                 **{name: img for name, img in images.items() if not isinstance(img, RawFrame)})
    first, second = (_plane_shape(img) for img in images.values())
    if first != second:
        raise DimensionError(f"shape mismatch {first} vs {second}")
    return first


def _rows(img: RawFrame | PackedImage, c: int, r0: int, r1: int) -> np.ndarray:
    """Rows [r0, r1) of channel ``c`` of a scoring source as float64, not to
    be written: a normalized PackedImage's as they are, a mosaic's normalized
    at clip_hi 1 from its CFA view, equal bit for bit to the same rows of
    ``normalize(frame)``."""
    if isinstance(img, RawFrame):
        black = img.black_level[c]
        return core._normalize_rows(_rggb_views(img.data)[c][r0:r1], black,
                                    img.white_level - black, 1.0, out=None)
    return np.asarray(img.channels[c, r0:r1], dtype=np.float64)


def _pairwise_sum(leaf_sum, n: int, leaf: int):
    """``np.add.reduce`` of n float64 values, bit for bit, where
    ``leaf_sum(a, b)`` is ``np.add.reduce`` of values [a, b).

    numpy sums a contiguous array pairwise: a block of more than 128 values
    is split after n // 2 values, rounded down to a multiple of 8, and the
    halves' sums are added.  This splits by the same rule down to blocks of
    at most ``leaf`` (>= 128) values, runs those leaves as ``core._map``
    tasks, and adds their sums serially in the tree's order.
    """
    leaves = []

    def split(a, b):
        if b - a <= leaf:
            leaves.append((a, b))
            return len(leaves) - 1
        m = a + (b - a) // 2 // 8 * 8
        return [split(a, m), split(m, b)]

    def total(node):
        return total(node[0]) + total(node[1]) if isinstance(node, list) else sums[node]

    root = split(0, n)
    sums = core._map(lambda ab: leaf_sum(*ab), leaves)
    return total(root)


def psnr(pred: RawFrame | PackedImage, gt: RawFrame | PackedImage) -> float:
    """10*log10(1 / MSE) with MSE pooled over all channels and pixels (peak 1).

    Identical images return +inf.  Each image is a normalized PackedImage or
    a mosaic RawFrame, read normalized at clip_hi 1.  The MSE is
    ``np.mean((pred - gt)**2)`` over the (4, h, w) planes bit for bit, but no
    full-size array is made: the squared errors are summed in numpy's
    pairwise order (``_pairwise_sum``), each leaf from its own rows.
    """
    _, h, w = _check_sources("psnr", pred=pred, gt=gt)
    hw = h * w
    if hw == 0:
        raise DimensionError(f"psnr of empty {h}x{w} planes")

    def leaf_sum(a, b):
        # the leaf's flat range of the (4, h, w) planes may cross rows and planes
        parts = []
        for c in range(a // hw, (b - 1) // hw + 1):
            lo, hi = max(a - c * hw, 0), min(b - c * hw, hw)
            r0, r1 = lo // w, -(-hi // w)
            d = np.subtract(_rows(pred, c, r0, r1), _rows(gt, c, r0, r1))
            d *= d
            parts.append(d.ravel()[lo - r0 * w : hi - r0 * w])
        return np.add.reduce(parts[0] if len(parts) == 1 else np.concatenate(parts))

    n = 4 * hw
    mse = float(_pairwise_sum(leaf_sum, n, _PSNR_LEAF) / n)
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


def _crop_protocol(frame: RawFrame, phase: str) -> RawFrame:
    """Center-crop the mosaic to the phase's side of planes at even offsets
    (the floor-rounded plane offset, doubled).  The crop is a view; psnr and
    ssim normalize its rows band by band."""
    side = _CROP_SIDES[phase]
    ph, pw = frame.height // 2, frame.width // 2
    if side > ph or side > pw:
        raise DimensionError(f"crop {side}x{side} does not fit planes {pw}x{ph}")
    roi = Roi(x0=(pw - side) // 2 * 2, y0=(ph - side) // 2 * 2, w=2 * side, h=2 * side)
    return crop_frame(frame, roi)


def _ssim_stats(gt: RawFrame | PackedImage) -> np.ndarray:
    """SSIM's ground-truth-only terms: the (2, 4, h - 10, w - 10) float64
    block of ``mu_y`` and ``var_y`` per channel, one task per channel and
    band.  Planes smaller than the window raise DimensionError."""
    _, h, w = _plane_shape(gt)
    if h < _WINDOW or w < _WINDOW:
        raise DimensionError(f"planes {h}x{w} smaller than window {_WINDOW}")
    stats = np.empty((2, 4, h - 2 * _R, w - 2 * _R))

    def band(task):
        c, (r0, r1) = task
        y = _rows(gt, c, r0, r1 + 2 * _R)
        mu_y = _filter_valid(y)
        stats[0, c, r0:r1] = mu_y
        stats[1, c, r0:r1] = _filter_valid(y * y) - mu_y * mu_y

    core._map(band, product(range(4), _row_bands(h - 2 * _R)))
    return stats


def prepare_reference(gt: RawFrame, phase: str = "dev") -> Reference:
    """Prepare a ground truth for scoring under the crop protocol of
    ``phase``, as evaluate_pair would on every call.  The crop is copied, so
    the reference holds none of the frame's border."""
    crop = _crop_protocol(gt, _check_choice("phase", phase, _CROP_SIDES, error=ValueError))
    image = replace(crop, data=crop.data.copy())
    return Reference(image, _ssim_stats(image), gt.data.shape, phase)


def _ssim_channel(x_img: RawFrame | PackedImage, y_img: RawFrame | PackedImage, c: int,
                  stats: np.ndarray) -> float:
    """Channel ``c``'s mean SSIM: ``stats`` is its (2, h - 10, w - 10) block
    of ``mu_y`` and ``var_y``.  Each band of rows is a task writing its rows
    of the channel's ratio array; the mean is taken once all have run."""
    ratio = np.empty(stats.shape[1:])

    def band(rows):
        r0, r1 = rows
        x = _rows(x_img, c, r0, r1 + 2 * _R)
        y = _rows(y_img, c, r0, r1 + 2 * _R)
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


def ssim(pred: RawFrame | PackedImage, gt: RawFrame | PackedImage | Reference) -> float:
    """Mean single-scale SSIM over the four RGGB channels (valid pooling).

    ``gt`` may be a Reference, whose ``mu_y``/``var_y`` are then used as
    they are; a plain image's are filtered here.  Each image is a normalized
    PackedImage or a mosaic RawFrame, read normalized at clip_hi 1.
    """
    gt_image = gt.image if isinstance(gt, Reference) else gt
    _check_sources("ssim", pred=pred, gt=gt_image)
    stats = gt.stats if isinstance(gt, Reference) else _ssim_stats(gt_image)
    scores = [_ssim_channel(pred, gt_image, c, stats[:, c]) for c in range(4)]
    return float(np.mean(scores))


def evaluate_pair(
    pred_frame: RawFrame, gt: RawFrame | Reference, phase: str = "dev"
) -> EvalResult:
    """Benchmark protocol for one prediction: crop the mosaic, score it normalized.

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
