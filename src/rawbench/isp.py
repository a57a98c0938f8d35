"""Minimal ISP: white balance, remosaic, bilinear demosaic, color matrix, gamma.

Converts a normalized RGGB image to an sRGB array of exactly twice the
plane resolution, the representation perceptual metrics are computed on.
The chain is deliberately simple and fully parameterized so every run is
reproducible: gray-world or fixed white-balance gains, a bilinear demosaic
that averages the nearest sites of each colour, a 3x3 color matrix
(identity by default), and the standard sRGB opto-electronic transfer
function or no gamma at all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import PackedImage, SPACE_NORMALIZED, interleave_rggb
from .errors import DimensionError, DomainError

_SRGB_KNEE = 0.0031308
# P6, then width, height and maxval, each after whitespace or comments
_PPM_SEPARATOR = rb"(?:\s|#[^\r\n]*[\r\n])+"
_PPM_HEADER = re.compile(rb"P6" + (_PPM_SEPARATOR + rb"(\d+)") * 3 + rb"\s")


@dataclass(frozen=True)
class IspConfig:
    """wb: "gray_world" or fixed (r, g, b) gains; ccm: 3x3; gamma: "srgb" | "none"."""

    wb: str | tuple[float, float, float] = "gray_world"
    ccm: np.ndarray = field(default_factory=lambda: np.eye(3))
    gamma: str = "srgb"

    def __post_init__(self):
        ccm = np.asarray(self.ccm, dtype=np.float64)
        if ccm.shape != (3, 3) or not np.all(np.isfinite(ccm)):
            raise DomainError("ccm must be a finite 3x3 matrix")
        object.__setattr__(self, "ccm", ccm)
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


def srgb_gamma(v, strict: bool = False):
    """sRGB OETF: 12.92*v below the knee, 1.055*v^(1/2.4) - 0.055 above.

    Inputs are clamped to [0, 1]; with ``strict=True`` out-of-range values
    raise instead.
    """
    v = np.asarray(v, dtype=np.float64)
    if strict and (np.any(v < 0) or np.any(v > 1)):
        raise DomainError("srgb_gamma input outside [0, 1] in strict mode")
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


def _demosaic_bilinear(mosaic: np.ndarray) -> np.ndarray:
    """Bilinear demosaic of an RGGB mosaic; borders average available neighbors.

    Each output value is the sum of the in-bounds nearest sites of its
    colour, divided by their count.  Those sites lie in the 3x3
    neighbourhood, and green uses only the 4-neighbour cross.  This equals
    the normalised convolution with the classic half/quarter bilinear
    kernels bit for bit: the sites reaching one pixel carry the same
    power-of-two weight and are summed in the same row-major offset order.
    """
    h, w = mosaic.shape
    values = np.pad(np.asarray(mosaic, dtype=np.float64), 1)
    inside = np.pad(np.ones((h, w)), 1)
    rgb = np.empty((h, w, 3), dtype=np.float64)
    for py, px in ((0, 0), (0, 1), (1, 0), (1, 1)):
        total = np.zeros((3, *rgb[py::2, px::2, 0].shape))
        count = np.zeros_like(total)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                c = _CFA[(py + dy) % 2][(px + dx) % 2]
                if c == 1 and dy and dx:
                    continue  # a green diagonal is never a nearest green site
                at = (slice(1 + py + dy, 1 + h + dy, 2), slice(1 + px + dx, 1 + w + dx, 2))
                total[c] += values[at]
                count[c] += inside[at]
        rgb[py::2, px::2] = np.moveaxis(total / count, 0, -1)
    return rgb


def run_isp(img: PackedImage, cfg: IspConfig = IspConfig()) -> np.ndarray:
    """Render a normalized RGGB image to sRGB, shape (2H, 2W, 3) in [0, 1]."""
    if img.space != SPACE_NORMALIZED:
        raise DomainError("run_isp expects a normalized image")
    if cfg.wb == "gray_world":
        gain_r, gain_g, gain_b = gray_world_gains(img)
    else:
        gain_r, gain_g, gain_b = cfg.wb
    balanced = img.channels.astype(np.float64) * np.asarray(
        [gain_r, gain_g, gain_g, gain_b]
    )[:, None, None]
    mosaic = interleave_rggb(balanced)
    rgb = _demosaic_bilinear(mosaic)
    rgb = rgb @ cfg.ccm.T
    if cfg.gamma == "srgb":
        rgb = srgb_gamma(rgb)
    return np.clip(rgb, 0.0, 1.0)


def write_ppm16(rgb: np.ndarray, path) -> None:
    """Write an (H, W, 3) float image in [0, 1] as 16-bit binary PPM (P6)."""
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise DimensionError(f"expected (H, W, 3), got {rgb.shape}")
    h, w = rgb.shape[:2]
    scaled = np.rint(np.clip(rgb, 0.0, 1.0) * 65535.0).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(scaled.tobytes())


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
