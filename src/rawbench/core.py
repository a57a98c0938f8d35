"""Bayer RAW data model: RGGB packing, normalization, cropping, and RAWB file I/O.

A mosaic frame (``RawFrame``) is the on-disk unit: a single-channel Bayer
array in digital numbers (DN) plus the metadata needed to interpret it
(black/white levels, camera, ISO).  A ``PackedImage`` is the working
representation: four half-resolution planes in R, Gr, Gb, B order with a
value-space tag telling whether the data are raw DN, DN above black, or
normalized to [0, clip_hi].

All arithmetic is done in float64; storage is u16 (DN) or f32.  Every
operation is pure and returns new arrays, so values are safe to share
between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DimensionError, DomainError, FormatError, ProfileError, UnsupportedCfa

SPACE_DN = "dn"
SPACE_DN_ABOVE_BLACK = "dn_above_black"
SPACE_NORMALIZED = "normalized"

_RAWB_MAGIC = "RAWB1"
_RAWB_DTYPES = {"u16": np.dtype("<u2"), "f32": np.dtype("<f4")}


def _as_black_level(black_level) -> np.ndarray:
    """Broadcast a scalar black level to the 4 CFA positions (R, Gr, Gb, B)."""
    arr = np.asarray(black_level, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(4, float(arr))
    if arr.shape != (4,):
        raise ProfileError(f"black_level must be a scalar or 4 values, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class RawFrame:
    """Single-channel Bayer mosaic with capture metadata.

    The mosaic must have even dimensions so a whole number of 2x2 CFA
    periods fits.  Data are DN-valued (finite, >= 0), stored as uint16 or float32.
    """

    data: np.ndarray
    black_level: np.ndarray
    white_level: float
    camera_id: str = ""
    iso: int = 0
    exposure_s: float | None = None
    cfa: str = "RGGB"

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 2:
            raise DimensionError(f"mosaic must be 2-D, got ndim={data.ndim}")
        h, w = data.shape
        if h % 2 or w % 2 or h == 0 or w == 0:
            raise DimensionError(f"mosaic dims must be even and non-zero, got {h}x{w}")
        black = _as_black_level(self.black_level)
        white = float(self.white_level)
        if np.any(black < 0) or np.any(black >= white):
            raise ProfileError(
                f"black_level must satisfy 0 <= black < white, got {black} vs white={white}"
            )
        if data.dtype.kind == "f" and not (np.min(data) >= 0 and np.isfinite(np.max(data))):
            raise DomainError("mosaic data must be finite and >= 0")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "black_level", black)
        object.__setattr__(self, "white_level", white)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class PackedImage:
    """Four half-resolution RGGB planes with a value-space tag.

    ``channels`` has shape (4, H, W) in R, Gr, Gb, B order.  ``space`` is
    one of ``dn`` (raw DN), ``dn_above_black`` (black pedestal removed,
    may be negative for noise residuals), or ``normalized`` (values in
    [0, clip_hi]).  Metadata mirrors the source RawFrame.
    """

    channels: np.ndarray
    space: str
    black_level: np.ndarray
    white_level: float
    camera_id: str = ""
    iso: int = 0
    exposure_s: float | None = None
    cfa: str = "RGGB"
    clip_hi: float = 1.0

    def __post_init__(self):
        ch = np.asarray(self.channels)
        if ch.ndim != 3 or ch.shape[0] != 4:
            raise DimensionError(f"channels must have shape (4, H, W), got {ch.shape}")
        if self.space not in (SPACE_DN, SPACE_DN_ABOVE_BLACK, SPACE_NORMALIZED):
            raise DomainError(f"unknown value space {self.space!r}")
        object.__setattr__(self, "channels", ch)
        object.__setattr__(self, "black_level", _as_black_level(self.black_level))
        object.__setattr__(self, "white_level", float(self.white_level))

    @property
    def plane_height(self) -> int:
        return self.channels.shape[1]

    @property
    def plane_width(self) -> int:
        return self.channels.shape[2]


@dataclass(frozen=True)
class Roi:
    """Mosaic-domain rectangle with even offsets/extents (preserves CFA phase)."""

    x0: int
    y0: int
    w: int
    h: int

    def __post_init__(self):
        for name in ("x0", "y0", "w", "h"):
            v = getattr(self, name)
            if v < 0 or v % 2:
                raise DimensionError(f"Roi.{name} must be even and >= 0, got {v}")
        if self.w == 0 or self.h == 0:
            raise DimensionError("Roi extents must be non-zero")


def _meta_kwargs(obj) -> dict:
    return {
        "black_level": obj.black_level,
        "white_level": obj.white_level,
        "camera_id": obj.camera_id,
        "iso": obj.iso,
        "exposure_s": obj.exposure_s,
        "cfa": obj.cfa,
    }


def pack_rggb(frame: RawFrame, space: str = SPACE_DN) -> PackedImage:
    """Split a Bayer mosaic into 4 half-resolution planes (R, Gr, Gb, B).

    channels[R][i][j] = data[2i][2j], Gr = data[2i][2j+1],
    Gb = data[2i+1][2j], B = data[2i+1][2j+1].  ``space`` declares how the
    caller wants the values tagged; packing itself never subtracts black.
    """
    if frame.cfa != "RGGB":
        raise UnsupportedCfa(f"only RGGB is supported, got {frame.cfa!r}")
    if space not in (SPACE_DN, SPACE_DN_ABOVE_BLACK):
        raise DomainError(f"pack space must be a DN space, got {space!r}")
    return PackedImage(channels=split_rggb(frame.data), space=space, **_meta_kwargs(frame))


def split_rggb(mosaic: np.ndarray) -> np.ndarray:
    """Split a (2H, 2W) Bayer mosaic into 4 RGGB planes (4, H, W); inverse of
    :func:`interleave_rggb`."""
    m = np.asarray(mosaic)
    if m.ndim != 2 or m.shape[0] % 2 or m.shape[1] % 2:
        raise DimensionError(f"expected an even-sized 2-D mosaic, got {m.shape}")
    return np.stack([m[0::2, 0::2], m[0::2, 1::2], m[1::2, 0::2], m[1::2, 1::2]])


def interleave_rggb(channels: np.ndarray) -> np.ndarray:
    """Reassemble 4 RGGB planes (4, H, W) into a (2H, 2W) Bayer mosaic."""
    ch = np.asarray(channels)
    if ch.ndim != 3 or ch.shape[0] != 4:
        raise DimensionError(f"expected (4, H, W) planes, got {ch.shape}")
    _, h, w = ch.shape
    mosaic = np.empty((2 * h, 2 * w), dtype=ch.dtype)
    mosaic[0::2, 0::2] = ch[0]
    mosaic[0::2, 1::2] = ch[1]
    mosaic[1::2, 0::2] = ch[2]
    mosaic[1::2, 1::2] = ch[3]
    return mosaic


def unpack_rggb(img: PackedImage) -> RawFrame:
    """Exact inverse of :func:`pack_rggb`; metadata is copied verbatim."""
    if img.space == SPACE_NORMALIZED:
        raise DomainError("unpack_rggb expects DN-space data; denormalize first")
    return RawFrame(data=interleave_rggb(img.channels), **_meta_kwargs(img))


def normalize(img: PackedImage, clip_hi: float = 1.0) -> PackedImage:
    """Map DN planes to [0, clip_hi] using per-channel black and white levels.

    out[c] = clamp((in[c] - black[c]) / (white - black[c]), 0, clip_hi).
    For ``dn_above_black`` input the subtraction is already done and only
    the scaling applies.
    """
    if img.space == SPACE_NORMALIZED:
        raise DomainError("input is already normalized")
    black = img.black_level
    span = img.white_level - black
    if np.any(span <= 0):
        raise ProfileError(f"white_level {img.white_level} must exceed black levels {black}")
    ch = img.channels.astype(np.float64)
    if img.space == SPACE_DN:
        ch = ch - black[:, None, None]
    out = np.clip(ch / span[:, None, None], 0.0, clip_hi)
    return replace(img, channels=out, space=SPACE_NORMALIZED, clip_hi=float(clip_hi))


def denormalize(img: PackedImage) -> PackedImage:
    """Map normalized planes back to DN: out[c] = in[c]*(white - black[c]) + black[c].

    No re-clipping is applied; clipping already happened at normalize time.
    """
    if img.space != SPACE_NORMALIZED:
        raise DomainError("denormalize expects normalized input")
    black = img.black_level
    span = img.white_level - black
    if np.any(span <= 0):
        raise ProfileError(f"white_level {img.white_level} must exceed black levels {black}")
    out = img.channels.astype(np.float64) * span[:, None, None] + black[:, None, None]
    return replace(img, channels=out, space=SPACE_DN)


def center_crop(img: PackedImage, w: int, h: int) -> PackedImage:
    """Center-crop all 4 planes to w x h (plane pixels), floor-rounded offset."""
    ph, pw = img.plane_height, img.plane_width
    if w < 1 or h < 1 or w > pw or h > ph:
        raise DimensionError(f"crop {w}x{h} does not fit planes {pw}x{ph}")
    x0 = (pw - w) // 2
    y0 = (ph - h) // 2
    return replace(img, channels=img.channels[:, y0 : y0 + h, x0 : x0 + w])


def crop_frame(frame: RawFrame, roi: Roi) -> RawFrame:
    """Crop a mosaic frame to an even-aligned ROI (CFA phase preserved)."""
    if roi.x0 + roi.w > frame.width or roi.y0 + roi.h > frame.height:
        raise DimensionError(
            f"roi {roi} does not fit frame {frame.width}x{frame.height}"
        )
    data = frame.data[roi.y0 : roi.y0 + roi.h, roi.x0 : roi.x0 + roi.w]
    return replace(frame, data=data)


# ---------------------------------------------------------------------------
# RAWB container
#
# Line 1 is a UTF-8 JSON header terminated by '\n'; the remainder is a
# row-major little-endian payload.  width/height are per-channel dims, so
# the payload always holds width*height*channels elements.  For
# layout="rggb" the planes are concatenated in R, Gr, Gb, B order; for
# layout="rgb" in R, G, B order.
# ---------------------------------------------------------------------------


def _dtype_tag(arr: np.ndarray) -> str:
    if arr.dtype == np.uint16:
        return "u16"
    if arr.dtype == np.float32:
        return "f32"
    raise FormatError(
        f"RAWB stores u16 or f32 payloads only; cast {arr.dtype} explicitly first"
    )


def _write_rawb(path, header: dict, payload: np.ndarray) -> None:
    blob = json.dumps(header).encode("utf-8") + b"\n"
    blob += np.ascontiguousarray(payload, dtype=_RAWB_DTYPES[header["dtype"]]).tobytes()
    Path(path).write_bytes(blob)


def _read_rawb(path) -> tuple[dict, np.ndarray]:
    blob = Path(path).read_bytes()
    nl = blob.find(b"\n")
    if nl < 0:
        raise FormatError(f"{path}: missing header line")
    try:
        header = json.loads(blob[:nl].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict) or header.get("magic") != _RAWB_MAGIC:
        raise FormatError(f"{path}: bad magic, not a RAWB file")
    dtype = _RAWB_DTYPES.get(header.get("dtype"))
    if dtype is None:
        raise FormatError(f"{path}: unknown dtype {header.get('dtype')!r}")
    try:
        w, h, c = int(header["width"]), int(header["height"]), int(header["channels"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: incomplete header ({exc})") from exc
    expected = w * h * c * dtype.itemsize
    payload = blob[nl + 1 :]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}"
        )
    data = np.frombuffer(payload, dtype=dtype)
    return header, data.reshape(c, h, w) if c > 1 else data.reshape(h, w)


def _level_header(obj) -> dict:
    return {
        "black_level": [float(b) for b in obj.black_level],
        "white_level": float(obj.white_level),
        "camera_id": obj.camera_id,
        "iso": int(obj.iso),
        "exposure_s": obj.exposure_s,
    }


def write_frame(frame: RawFrame, path) -> None:
    """Write a mosaic frame to a RAWB container (lossless for u16/f32 data)."""
    header = {
        "magic": _RAWB_MAGIC,
        "width": frame.width,
        "height": frame.height,
        "channels": 1,
        "dtype": _dtype_tag(np.asarray(frame.data)),
        "layout": "mosaic",
        "space": SPACE_DN,
        **_level_header(frame),
        "clip_hi": 1.0,
    }
    _write_rawb(path, header, frame.data)


def read_frame(path) -> RawFrame:
    """Read a mosaic RAWB file back into a RawFrame (bit-exact payload); an
    error raised by RawFrame's checks gets the path in front of its message."""
    header, data = _read_rawb(path)
    if header.get("layout") != "mosaic" or int(header["channels"]) != 1:
        raise FormatError(f"{path}: not a single-channel mosaic RAWB file")
    try:
        return RawFrame(
            data=data,
            black_level=np.asarray(header["black_level"], dtype=np.float64),
            white_level=float(header["white_level"]),
            camera_id=header.get("camera_id", ""),
            iso=int(header.get("iso", 0)),
            exposure_s=header.get("exposure_s"),
        )
    except (DimensionError, DomainError, ProfileError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def write_packed(img: PackedImage, path) -> None:
    """Write a 4-plane RGGB image to a RAWB container (planes concatenated)."""
    header = {
        "magic": _RAWB_MAGIC,
        "width": img.plane_width,
        "height": img.plane_height,
        "channels": 4,
        "dtype": _dtype_tag(np.asarray(img.channels)),
        "layout": "rggb",
        "space": img.space,
        **_level_header(img),
        "clip_hi": float(img.clip_hi),
    }
    _write_rawb(path, header, img.channels)


def read_packed(path) -> PackedImage:
    header, data = _read_rawb(path)
    if header.get("layout") != "rggb" or int(header["channels"]) != 4:
        raise FormatError(f"{path}: not a 4-channel RGGB RAWB file")
    return PackedImage(
        channels=data,
        space=header.get("space", SPACE_DN),
        black_level=np.asarray(header["black_level"], dtype=np.float64),
        white_level=float(header["white_level"]),
        camera_id=header.get("camera_id", ""),
        iso=int(header.get("iso", 0)),
        exposure_s=header.get("exposure_s"),
        clip_hi=float(header.get("clip_hi", 1.0)),
    )


def write_rgb(rgb: np.ndarray, path, extra: dict | None = None) -> None:
    """Write an (H, W, 3) float image as a 3-channel f32 RAWB container.

    ``extra`` lets callers record processing parameters (e.g. the ISP
    configuration) in the header; readers ignore unknown keys.
    """
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise DimensionError(f"expected (H, W, 3), got {rgb.shape}")
    header = {
        "magic": _RAWB_MAGIC,
        "width": rgb.shape[1],
        "height": rgb.shape[0],
        "channels": 3,
        "dtype": "f32",
        "layout": "rgb",
        "space": "srgb",
    }
    if extra:
        header.update(extra)
    planes = np.moveaxis(rgb.astype(np.float32), -1, 0)
    _write_rawb(path, header, planes)


def read_rgb(path) -> np.ndarray:
    header, data = _read_rawb(path)
    if header.get("layout") != "rgb" or int(header["channels"]) != 3:
        raise FormatError(f"{path}: not a 3-channel RGB RAWB file")
    return np.moveaxis(data, 0, -1)
