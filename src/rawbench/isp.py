"""Minimal ISP: white balance, bilinear demosaic, gamma.

Converts a normalized RGGB image to an sRGB array of exactly twice the
plane resolution, the representation perceptual metrics are computed on.
The chain is deliberately simple so every run is reproducible: gray-world
or fixed white-balance gains, a bilinear demosaic that averages the nearest
sites of each colour, and the standard sRGB opto-electronic transfer
function or no gamma at all.  There is no color matrix: the camera RGB is
taken as the output RGB (an identity CCM).

The demosaic reads the four white-balanced planes; no mosaic is rebuilt.
The mosaic site ``(2i + a, 2j + b)`` is pixel ``(i, j)`` of plane
``2a + b``, so each neighbour an output phase ``(py, px)`` sums is a shifted
slice of one plane, zero-padded by one pixel: offset ``(dy, dx)`` reads
plane ``2 * ((py + dy) % 2) + (px + dx) % 2`` at a shift of
``((py + dy) // 2, (px + dx) // 2)`` plane pixels.  A sum's first term is
added to +0.0, so no sum is -0.0: a -0.0 site gives +0.0, as it does in
the normalised convolution.

``run_isp`` computes the gray-world gains over the whole image, then renders
in the row bands of ``core._row_bands``, so its float64 buffers stay
cache-sized: each band of output rows is a whole number of plane rows, read
with one plane row of halo on each side where the image has one.  The
demosaic reaches one mosaic row up and down, so the halo gives each of the
band's own pixels exactly the in-bounds sites it has in the whole image,
summed in the same order and divided by the same count.  Each band is one
``core._map`` task, and it writes only its own output rows.  A task
allocates its own zero-bordered balanced planes, and the demosaic returns
the band's sums as one new contiguous ``(2, 2, 3, rows, w)`` array (phase
row, phase column, colour, plane row, plane column); the sRGB transfer
runs on it in place through the helper ``srgb_gamma`` also calls, and one
clip interleaves it into the output rows.  Every step after the demosaic works pixel by pixel, so the result
equals the whole-image chain bit for bit, whatever the number of workers;
a property test keeps that chain as its reference.
``write_ppm16`` encodes and writes one band of rows at a time, with the
same bytes as encoding the whole array.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import core
from .core import (PackedImage, SPACE_NORMALIZED, _check_choice, _check_finite, _check_space,
                   _row_bands)
from .errors import DimensionError, DomainError

_SRGB_KNEE = 0.0031308
_GAMMAS = ("srgb", "none")
# P6, then width, height and maxval, each after whitespace or comments
_PPM_SEPARATOR = rb"(?:\s|#[^\r\n]*[\r\n])+"
_PPM_HEADER = re.compile(rb"P6" + (_PPM_SEPARATOR + rb"(\d+)") * 3 + rb"\s")


@dataclass(frozen=True)
class IspConfig:
    """wb: "gray_world" or fixed (r, g, b) gains; gamma: "srgb" | "none"."""

    wb: str | tuple[float, float, float] = "gray_world"
    gamma: str = "srgb"

    def __post_init__(self):
        if isinstance(self.wb, str) or not np.iterable(self.wb):
            _check_choice("wb", self.wb, ("gray_world",), error=DomainError)
        else:
            gains = tuple(_check_finite("wb gain", g, positive=True, error=DomainError)
                          for g in self.wb)
            if len(gains) != 3:
                raise DomainError(f"fixed wb gains must be 3 values, got {len(gains)}")
            object.__setattr__(self, "wb", gains)
        _check_choice("gamma", self.gamma, _GAMMAS, error=DomainError)


def srgb_gamma(v):
    """sRGB OETF: 12.92*v below the knee, 1.055*v^(1/2.4) - 0.055 above.

    Inputs are clamped to [0, 1].
    """
    # a fresh C-ordered array, also for a scalar (0-d) input, so the input
    # is never written
    out = np.array(v, dtype=np.float64, order="C")
    _srgb_in_place(out)
    return out


def _srgb_in_place(v: np.ndarray) -> None:
    """Clamp a C-contiguous float64 array to [0, 1] and apply the sRGB OETF
    in place: one power pass, with the linear segment gathered before it and
    scattered back over its flat indices after (numpy's masked multiply is
    several times slower where a band mixes both segments)."""
    np.clip(v, 0.0, 1.0, out=v)
    flat = v.reshape(-1)
    low = np.flatnonzero(flat <= _SRGB_KNEE)
    linear = flat[low] * 12.92
    np.power(flat, 1.0 / 2.4, out=flat)
    flat *= 1.055
    flat -= 0.055
    flat[low] = linear


def gray_world_gains(img: PackedImage) -> tuple[float, float, float]:
    """Per-channel gains equalizing channel means to the green mean.

    gain_c = mean(G) / mean(c) with G = (Gr + Gb)/2; green gain is 1.  A
    channel with non-positive mean keeps gain 1 (nothing to balance).  A
    gain that is not finite (a mean so small that the ratio overflows)
    raises DomainError naming the channel.
    """
    r = float(np.mean(img.channels[0]))
    g = float(np.mean(img.channels[1]) + np.mean(img.channels[2])) / 2.0
    b = float(np.mean(img.channels[3]))
    gain_r = g / r if r > 0 else 1.0
    gain_b = g / b if b > 0 else 1.0
    # a vanishing (e.g. subnormal) mean gives an infinite gain; a zero green
    # mean gives gain 0, gray world's own answer for a scene without green
    return (_check_finite("gray-world R gain", gain_r, positive=False, error=DomainError), 1.0,
            _check_finite("gray-world B gain", gain_b, positive=False, error=DomainError))


_CFA = ((0, 1), (1, 2))  # colour (0 R, 1 G, 2 B) of a site by (row parity, column parity)


def _pair_counts(n: int, p: int) -> np.ndarray:
    """In-bounds sites among i - 1 and i + 1 (1 or 2) for i = p, p + 2, ... < n."""
    i = np.arange(p, n, 2)
    return (i > 0).astype(np.float64) + (i < n - 1)


def _demosaic(padded: np.ndarray, p0: int, h: int) -> np.ndarray:
    """Bilinear demosaic of balanced RGGB planes; borders average available neighbors.

    ``padded`` holds plane rows ``p0 - 1`` to ``p0 + rows`` (zero where
    outside the image) and one zero column on each side: its shape is
    exactly (4, rows + 2, w + 2).  Returns a new array ``out`` of shape
    (2, 2, 3, rows, w): colour ``c`` at mosaic site
    ``(2 * (p0 + i) + py, 2 * j + px)`` of an image of ``h`` plane rows is
    ``out[py, px, c, i, j]``.

    Each output value is the sum of the in-bounds nearest sites of its
    colour, divided by their count.  Those sites lie in the 3x3
    neighbourhood, and green uses only the 4-neighbour cross.  This equals
    the normalised convolution with the classic half/quarter bilinear
    kernels bit for bit: the sites reaching one pixel carry the same
    power-of-two weight and are summed in the same row-major offset order.
    The mosaic site at offset ``(dy, dx)`` from phase ``(py, px)`` is plane
    ``2 * ((py + dy) % 2) + (px + dx) % 2`` shifted by ``((py + dy) // 2,
    (px + dx) // 2)`` plane pixels, so each term is a slice of one padded
    plane.  The first term of a sum is added to +0.0, as a sum started
    from zeros is, so a -0.0 site gives +0.0.

    A count depends only on which neighbour rows and columns exist.  Around
    a pixel the sites fall into four classes, each of one colour: the pixel
    itself (1 site), its row pair (``nx`` in bounds), its column pair
    (``ny``) and its diagonals (``ny * nx``).  A colour's count is the sum
    of its classes: a product for the diagonal set, ``ny + nx`` for the
    green cross.  The pixel's own colour is its own site alone (count 1),
    so its sum is not divided.
    """
    rows, w = padded.shape[1] - 2, padded.shape[2] - 2
    out = np.empty((2, 2, 3, rows, w))
    for py in (0, 1):
        ny = _pair_counts(2 * h, py)[p0 : p0 + rows, None]
        for px in (0, 1):
            nx = _pair_counts(2 * w, px)
            sums = out[py, px]
            started = [False, False, False]
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    sy, sx = py + dy, px + dx
                    c = _CFA[sy % 2][sx % 2]
                    if c == 1 and dy and dx:
                        continue  # a green diagonal is never a nearest green site
                    site = padded[2 * (sy % 2) + sx % 2,
                                  1 + sy // 2 : 1 + sy // 2 + rows, 1 + sx // 2 : 1 + sx // 2 + w]
                    if started[c]:
                        sums[c] += site
                    else:
                        np.add(site, 0.0, out=sums[c])
                        started[c] = True
            count = [0.0, 0.0, 0.0]
            for sy, sx, n in ((0, 1, nx), (1, 0, ny), (1, 1, ny * nx)):
                c = _CFA[(py + sy) % 2][(px + sx) % 2]
                if not (c == 1 and sy and sx):
                    count[c] = count[c] + n
            for c in range(3):
                if c != _CFA[py][px]:
                    sums[c] /= count[c]
    return out


def run_isp(img: PackedImage, cfg: IspConfig = IspConfig()) -> np.ndarray:
    """Render a normalized RGGB image to sRGB, shape (2H, 2W, 3) in [0, 1]."""
    _check_space("run_isp", SPACE_NORMALIZED, img=img)
    if cfg.wb == "gray_world":
        gain_r, gain_g, gain_b = gray_world_gains(img)
    else:
        gain_r, gain_g, gain_b = cfg.wb
    gains = np.asarray([gain_r, gain_g, gain_g, gain_b])[:, None, None]
    _, h, w = img.channels.shape
    out = np.empty((2 * h, 2 * w, 3))
    # out[2 * i + py, 2 * j + px, c] is tiles[i, py, j, px, c]
    tiles = out.reshape(h, 2, w, 2, 3)

    def render(band):
        p0, p1 = band[0] // 2, band[1] // 2
        # one plane row (two mosaic rows, so the CFA phase is kept) of halo
        # on each side, where the image has one; outside it stays zero
        padded = np.zeros((4, p1 - p0 + 2, w + 2))
        a, b = max(p0 - 1, 0), min(p1 + 1, h)
        np.multiply(img.channels[:, a:b], gains, out=padded[:, 1 + a - p0 : 1 + b - p0, 1:-1])
        rgb = _demosaic(padded, p0, h)
        if cfg.gamma == "srgb":
            _srgb_in_place(rgb)
        np.clip(rgb.transpose(3, 0, 4, 1, 2), 0.0, 1.0, out=tiles[p0:p1])

    core._map(render, _row_bands(2 * h))
    return out


def write_ppm16(rgb: np.ndarray, path) -> None:
    """Write an (H, W, 3) float image in [0, 1] as 16-bit binary PPM (P6).

    Values are clipped to [0, 1]; a NaN or infinite value raises
    DomainError naming the file, and no file is left behind.
    """
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise DimensionError(f"expected (H, W, 3), got {rgb.shape}")
    h, w = rgb.shape[:2]
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(f"P6\n{w} {h}\n65535\n".encode("ascii"))
            for r0, r1 in _row_bands(h):
                band = rgb[r0:r1]
                if not np.isfinite(band).all():
                    raise DomainError(f"{path}: non-finite value in rows {r0}-{r1 - 1}")
                # clip into float64: a float32 band would otherwise round
                # in float32 and change the bytes
                f = np.clip(band, 0.0, 1.0, dtype=np.float64)
                f *= 65535.0
                np.rint(f, out=f)
                fh.write(f.astype(">u2", order="C"))
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def read_ppm16(path) -> np.ndarray:
    """Read a 16-bit binary PPM back to [0, 1]; the header may hold any
    whitespace and ``#`` comments between its tokens, as Netpbm allows."""
    blob = Path(path).read_bytes()
    header = _PPM_HEADER.match(blob)
    if header is None:
        raise DomainError(f"{path}: not a P6 PPM file")
    w, h, maxval = (int(v) for v in header.groups())
    if maxval != 65535:
        raise DomainError(f"{path}: expected 16-bit PPM, maxval={maxval}")
    payload = blob[header.end() :]
    if len(payload) < h * w * 6:
        raise DomainError(f"{path}: payload is {len(payload)} bytes, header implies {h * w * 6}")
    data = np.frombuffer(payload, dtype=">u2", count=h * w * 3)
    return data.reshape(h, w, 3).astype(np.float64) / 65535.0
