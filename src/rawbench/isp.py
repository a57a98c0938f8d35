"""Minimal ISP: white balance, remosaic, bilinear demosaic, gamma.

Converts a normalized RGGB image to an sRGB array of exactly twice the
plane resolution, the representation perceptual metrics are computed on.
The chain is deliberately simple so every run is reproducible: gray-world
or fixed white-balance gains, a bilinear demosaic that averages the nearest
sites of each colour, and the standard sRGB opto-electronic transfer
function or no gamma at all.  There is no color matrix: the camera RGB is
taken as the output RGB (an identity CCM).

``run_isp`` computes the gray-world gains over the whole image, then renders
in the row bands of ``core._row_bands``, so its float64 temporaries stay
cache-sized: each band of output rows is a whole number of plane rows, read
with one plane row of halo on each side where the image has one.  A plane
row is two mosaic rows, so every band's mosaic starts on the CFA's first
row.  The demosaic reaches one mosaic row up and down, so the halo gives
each of the band's own pixels exactly the in-bounds sites it has in the
whole image, summed in the same order and divided by the same count; the
halo's own rows are dropped.  Every later step (gamma, clip) works pixel
by pixel, so the result equals the whole-image chain bit for bit; a
property test keeps that chain as its reference.
``write_ppm16`` encodes and writes one band of rows at a time, with the
same bytes as encoding the whole array.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import PackedImage, SPACE_NORMALIZED, _row_bands, interleave_rggb
from .errors import DimensionError, DomainError

_SRGB_KNEE = 0.0031308
# P6, then width, height and maxval, each after whitespace or comments
_PPM_SEPARATOR = rb"(?:\s|#[^\r\n]*[\r\n])+"
_PPM_HEADER = re.compile(rb"P6" + (_PPM_SEPARATOR + rb"(\d+)") * 3 + rb"\s")


@dataclass(frozen=True)
class IspConfig:
    """wb: "gray_world" or fixed (r, g, b) gains; gamma: "srgb" | "none"."""

    wb: str | tuple[float, float, float] = "gray_world"
    gamma: str = "srgb"

    def __post_init__(self):
        if isinstance(self.wb, str):
            if self.wb != "gray_world":
                raise DomainError(f"unknown wb mode {self.wb!r}")
        else:
            gains = tuple(float(g) for g in self.wb)
            if len(gains) != 3 or any(g <= 0 for g in gains):
                raise DomainError("fixed wb gains must be 3 positive values")
            object.__setattr__(self, "wb", gains)
        if self.gamma not in ("srgb", "none"):
            raise DomainError(f"gamma must be 'srgb' or 'none', got {self.gamma!r}")


def srgb_gamma(v):
    """sRGB OETF: 12.92*v below the knee, 1.055*v^(1/2.4) - 0.055 above.

    Inputs are clamped to [0, 1].
    """
    v = np.asarray(v, dtype=np.float64)
    v = np.clip(v, 0.0, 1.0)
    return np.where(v <= _SRGB_KNEE, 12.92 * v, 1.055 * np.power(v, 1.0 / 2.4) - 0.055)


def srgb_gamma_inverse(v):
    """Analytic inverse of :func:`srgb_gamma` on [0, 1]."""
    v = np.asarray(v, dtype=np.float64)
    v = np.clip(v, 0.0, 1.0)
    return np.where(v <= 12.92 * _SRGB_KNEE, v / 12.92, np.power((v + 0.055) / 1.055, 2.4))


def gray_world_gains(img: PackedImage) -> tuple[float, float, float]:
    """Per-channel gains equalizing channel means to the green mean.

    gain_c = mean(G) / mean(c) with G = (Gr + Gb)/2; green gain is 1.  A
    channel with non-positive mean keeps gain 1 (nothing to balance).
    """
    r = float(np.mean(img.channels[0]))
    g = float(np.mean(img.channels[1]) + np.mean(img.channels[2])) / 2.0
    b = float(np.mean(img.channels[3]))
    gain_r = g / r if r > 0 else 1.0
    gain_b = g / b if b > 0 else 1.0
    return gain_r, 1.0, gain_b


_CFA = ((0, 1), (1, 2))  # colour (0 R, 1 G, 2 B) of a site by (row parity, column parity)


def _pair_counts(n: int, p: int) -> np.ndarray:
    """In-bounds sites among i - 1 and i + 1 (1 or 2) for i = p, p + 2, ... < n."""
    i = np.arange(p, n, 2)
    return (i > 0).astype(np.float64) + (i < n - 1)


def _demosaic_bilinear(mosaic: np.ndarray) -> np.ndarray:
    """Bilinear demosaic of an RGGB mosaic; borders average available neighbors.

    Each output value is the sum of the in-bounds nearest sites of its
    colour, divided by their count.  Those sites lie in the 3x3
    neighbourhood, and green uses only the 4-neighbour cross.  This equals
    the normalised convolution with the classic half/quarter bilinear
    kernels bit for bit: the sites reaching one pixel carry the same
    power-of-two weight and are summed in the same row-major offset order.

    A count depends only on which neighbour rows and columns exist.  Around
    a pixel the sites fall into four classes, each of one colour: the pixel
    itself (1 site), its row pair (``nx`` in bounds), its column pair
    (``ny``) and its diagonals (``ny * nx``).  A colour's count is the sum
    of its classes: a product for the diagonal set, ``ny + nx`` for the
    green cross.
    """
    h, w = mosaic.shape
    values = np.pad(np.asarray(mosaic, dtype=np.float64), 1)
    rgb = np.empty((h, w, 3), dtype=np.float64)
    for py, px in ((0, 0), (0, 1), (1, 0), (1, 1)):
        ny = _pair_counts(h, py)[:, None]
        nx = _pair_counts(w, px)
        total = np.zeros((3, len(ny), len(nx)))
        count = [0.0, 0.0, 0.0]
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                c = _CFA[(py + dy) % 2][(px + dx) % 2]
                if c == 1 and dy and dx:
                    continue  # a green diagonal is never a nearest green site
                at = (slice(1 + py + dy, 1 + h + dy, 2), slice(1 + px + dx, 1 + w + dx, 2))
                total[c] += values[at]
        for sy, sx, n in ((0, 0, 1.0), (0, 1, nx), (1, 0, ny), (1, 1, ny * nx)):
            c = _CFA[(py + sy) % 2][(px + sx) % 2]
            if not (c == 1 and sy and sx):
                count[c] = count[c] + n
        for c in range(3):
            np.divide(total[c], count[c], out=rgb[py::2, px::2, c])
    return rgb


def run_isp(img: PackedImage, cfg: IspConfig = IspConfig()) -> np.ndarray:
    """Render a normalized RGGB image to sRGB, shape (2H, 2W, 3) in [0, 1]."""
    if img.space != SPACE_NORMALIZED:
        raise DomainError("run_isp expects a normalized image")
    if cfg.wb == "gray_world":
        gain_r, gain_g, gain_b = gray_world_gains(img)
    else:
        gain_r, gain_g, gain_b = cfg.wb
    gains = np.asarray([gain_r, gain_g, gain_g, gain_b])[:, None, None]
    _, h, w = img.channels.shape
    out = np.empty((2 * h, 2 * w, 3))
    for o0, o1 in _row_bands(2 * h):
        p0, p1 = o0 // 2, o1 // 2
        # one plane row (two mosaic rows, so the CFA phase is kept) of halo
        # on each side, where the image has one
        a, b = max(p0 - 1, 0), min(p1 + 1, h)
        balanced = img.channels[:, a:b].astype(np.float64) * gains
        rgb = _demosaic_bilinear(interleave_rggb(balanced))[2 * (p0 - a) : 2 * (p1 - a)]
        if cfg.gamma == "srgb":
            rgb = srgb_gamma(rgb)
        np.clip(rgb, 0.0, 1.0, out=out[o0:o1])
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
                band = np.asarray(rgb[r0:r1], dtype=np.float64)
                if not np.all(np.isfinite(band)):
                    raise DomainError(f"{path}: non-finite value in rows {r0}-{r1 - 1}")
                scaled = np.clip(band, 0.0, 1.0)
                scaled *= 65535.0
                fh.write(np.rint(scaled, out=scaled).astype(">u2"))
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
