"""Bayer RAW data model: RGGB packing, normalization, cropping, and RAWB file I/O.

A mosaic frame (``RawFrame``) is the on-disk unit: a single-channel Bayer
array in digital numbers (DN) plus the metadata needed to interpret it
(black/white levels, camera, ISO).  A ``PackedImage`` is the working
representation: four half-resolution planes in R, Gr, Gb, B order with a
value-space tag telling whether the data are raw DN, DN above black, or
normalized to [0, clip_hi].  The CFA is RGGB by definition; there is no
pattern field to get wrong.  ``normalize`` takes a mosaic as well as
planes, and a crop is taken on the mosaic with ``crop_frame``.

Every number the package takes, from a caller or a file, passes one of two
rules: ``_check_number`` (a Python or numpy int or float, never a bool or a
string) or ``_check_int`` (such an int only, >= a minimum).  Text passes
``_check_string`` (a string, never a number or None), and a named option (a
value space, a dtype, a phase, a metric, a mode ...) ``_check_choice`` (a
string from its one list); anything else raises the site's own error, as
does a JSON object read with a key outside its list (``_check_keys``).  Both
image types enforce one rule when built (including by
``dataclasses.replace``): 0 <= black < white, white finite, ``camera_id`` a
string, and float data finite (mosaics also >= 0).  Functions taking them
therefore do not repeat the checks, and the RAWB readers only put the file's
path in front of an error.

All arithmetic is done in float64; storage is u16 (DN) or f32.  Every
operation is pure and returns new arrays, so values are safe to share
between threads.

Whole-image passes that would push megabytes of float64 temporaries through
memory (SSIM, the ISP, the PPM encoder) walk their output in bands of
``_BAND_ROWS`` rows with ``_row_bands``, so the temporaries of one band stay
cache-sized.  The denoiser, the ISP, SSIM and PSNR also split one image
into independent tasks (denoiser cores, ISP row bands, SSIM row bands,
leaves of PSNR's pairwise sum), each writing its own part of the output,
and synthesis draws each training patch as a task with its own random
stream.  ``_map`` alone decides how many threads such tasks run on (see its
docstring), so the bytes do not depend on the CPU count and no caller
names it.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, DomainError, FormatError, ProfileError

SPACE_DN = "dn"
SPACE_DN_ABOVE_BLACK = "dn_above_black"
SPACE_NORMALIZED = "normalized"

_RAWB_MAGIC = "RAWB1"
_RAWB_DTYPES = {"u16": np.dtype("<u2"), "f32": np.dtype("<f4")}
_RAWB_CHANNELS = {"mosaic": 1, "rggb": 4, "rgb": 3}
# Output rows per band.  SSIM measured equal at 64 and 128 rows on 1024²
# planes; run_isp on four ~600² planes (2-vCPU host, median of 8
# alternations, three processes) took 165-181 ms at 64 rows against 160-191
# at 32, 173-207 at 16 and 160-181 at 128, so the smaller buffers of 64
# rows cost nothing.  Even, so that a band of ISP output rows is a whole
# number of plane rows.
_BAND_ROWS = 64


# The CPUs this process may run on, which ``taskset`` or a cpuset limits:
# the most threads ``_map`` runs.  The output bytes do not depend on it.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity mask on this platform
    _WORKERS = os.cpu_count() or 1

# ``task`` is set on a thread while it runs ``_map``'s items
_in_map = threading.local()


def _map(fn, items) -> list:
    """``[fn(x) for x in items]``, in input order; the package's one pool path.

    The calls run on ``min(_WORKERS, len(items))`` threads: the caller's and
    ones started and joined inside this call, so no thread outlives it and
    the process never runs more threads than it has CPUs.  Each thread takes
    the next item not yet taken; once a call has failed no new one starts,
    and the first exception in input order reaches the caller.  Called from
    one of those calls, it runs its own items inline, so pools never nest.
    The calls must not depend on each other's order: each should write only
    its own part of any shared output, so the result does not depend on
    ``_WORKERS``.
    """
    items = list(items)
    n = min(_WORKERS, len(items))
    if n <= 1 or getattr(_in_map, "task", False):
        return [fn(x) for x in items]
    results, errors = [None] * len(items), {}
    lock = threading.Lock()
    todo = iter(range(len(items)))

    def drain():
        _in_map.task = True
        try:
            while True:
                with lock:
                    i = None if errors else next(todo, None)
                if i is None:
                    return
                try:
                    results[i] = fn(items[i])
                except BaseException as exc:
                    with lock:
                        errors[i] = exc
        finally:
            _in_map.task = False

    helpers = [threading.Thread(target=drain) for _ in range(n - 1)]
    for thread in helpers:
        thread.start()
    try:
        drain()
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def _as_black_level(black_level) -> np.ndarray:
    """Broadcast a scalar black level to the 4 CFA positions (R, Gr, Gb, B);
    a scalar, or each element of a list or tuple, must be a number."""
    if not isinstance(black_level, np.ndarray):
        for b in black_level if isinstance(black_level, (list, tuple)) else (black_level,):
            _check_number("black_level", b)
    arr = np.asarray(black_level, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(4, float(arr))
    if arr.shape != (4,):
        raise ProfileError(f"black_level must be a scalar or 4 values, got shape {arr.shape}")
    return arr


# Capture metadata shared by RawFrame and PackedImage, in RAWB header order.
_META = ("black_level", "white_level", "camera_id", "iso", "exposure_s")


def _check_number(name, value):
    """The number rule: a Python or numpy int or float, never a bool, a string
    or None.  Returns it; otherwise raises TypeError naming the setting."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return value


def _check_int(name, value, *, minimum, error) -> int:
    """The integer rule: a Python or numpy int, never a bool, >= ``minimum``.
    Returns it as an int; otherwise raises ``error`` naming the setting."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_finite(name, value, *, positive, error) -> float:
    """The rule for one numeric setting: a number (``_check_number``), finite
    and > 0 (``positive``) or >= 0.  Returns it as a float; otherwise raises
    ``error`` naming the setting and value."""
    if not (np.isfinite(_check_number(name, value)) and (value > 0 if positive else value >= 0)):
        raise error(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")
    return float(value)


def _check_string(name, value) -> str:
    """The text rule: a string, never a number or None to coerce.  Returns
    it; otherwise raises TypeError naming the setting."""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {value!r}")
    return value


def _check_choice(name, value, choices, *, error) -> str:
    """The choice rule: a string equal to one of ``choices``.  Returns it;
    otherwise raises ``error`` naming the setting and the choices."""
    if not (isinstance(value, str) and value in choices):
        raise error(f"{name} must be one of {tuple(choices)}, got {value!r}")
    return value


def _check_keys(where, doc, keys, *, error) -> None:
    """The rule of the JSON objects the package reads: ``doc`` is an object
    with no key outside ``keys``, so a misspelt key is no field left at its
    default.  Otherwise raises ``error`` naming ``where``."""
    if not isinstance(doc, dict):
        raise error(f"{where}: expected a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise error(f"{where}: unknown keys {unknown}")


def _read_json(path, *, error):
    """The one JSON file reader: a file that is not UTF-8 JSON raises ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise error(f"{path}: unreadable JSON ({exc})") from exc


def _check_iso(name, value) -> int:
    """The ISO rule of images and synthesis: a finite whole number >= 0.
    Returns it as an int; otherwise raises DomainError naming the setting."""
    if _check_finite(name, value, positive=False, error=DomainError) % 1:
        raise DomainError(f"{name} must be a whole number, got {value}")
    return int(value)


def _check_levels(black_level, white_level) -> tuple[np.ndarray, float]:
    """The level rule of images and sensor profiles: 0 <= black < white, with
    white finite.  Returns the levels as a float64 4-vector and a float."""
    black = _as_black_level(black_level)
    white = _check_finite("white_level", white_level, positive=True, error=ProfileError)
    if not np.all((black >= 0) & (black < white)):
        raise ProfileError(
            f"black_level must satisfy 0 <= black < white, got {black} vs white={white}"
        )
    return black, white


def _check_clip_hi(clip_hi) -> float:
    """The normalized-range rule of images and synthesis: a finite clip_hi > 0."""
    return _check_finite("clip_hi", clip_hi, positive=True, error=DomainError)


def _check_image(img, data: np.ndarray, nonnegative: bool) -> None:
    """The one image-level rule of RawFrame and PackedImage: the levels pass
    ``_check_levels``, ``camera_id`` is a string, the ISO passes
    ``_check_iso``, ``exposure_s`` is None or finite and >= 0, and float data
    are finite (and >= 0 when ``nonnegative``).  Stores the checked levels,
    the ISO as an int and a numpy ``exposure_s`` as its Python number."""
    black, white = _check_levels(img.black_level, img.white_level)
    _check_string("camera_id", img.camera_id)
    iso = _check_iso("iso", img.iso)
    if img.exposure_s is not None:
        _check_finite("exposure_s", img.exposure_s, positive=False, error=DomainError)
        if isinstance(img.exposure_s, np.generic):
            object.__setattr__(img, "exposure_s", img.exposure_s.item())
    if data.dtype.kind == "f":
        if not np.isfinite(data).all():
            raise DomainError("data must be finite")
        if nonnegative and np.min(data) < 0:
            raise DomainError("mosaic data must be >= 0")
    object.__setattr__(img, "black_level", black)
    object.__setattr__(img, "white_level", white)
    object.__setattr__(img, "iso", iso)


def _check_space(where: str, *spaces: str, **images: PackedImage) -> None:
    """The value-space precondition: each of ``images``, keyed by argument
    name, is in one of ``spaces``; otherwise DomainError names ``where``, the
    argument and its space."""
    for name, img in images.items():
        if img.space not in spaces:
            raise DomainError(f"{where} expects {' or '.join(spaces)} images, got {name} in "
                              f"space {img.space!r}")


@dataclass(frozen=True, eq=False)
class RawFrame:
    """Single-channel RGGB Bayer mosaic with capture metadata.

    The mosaic must have even dimensions so a whole number of 2x2 CFA
    periods fits.  Data are DN-valued (finite, >= 0), stored as uint16 or float32.
    """

    data: np.ndarray
    black_level: np.ndarray
    white_level: float
    camera_id: str = ""
    iso: int = 0
    exposure_s: float | None = None

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 2:
            raise DimensionError(f"mosaic must be 2-D, got ndim={data.ndim}")
        h, w = data.shape
        if h % 2 or w % 2 or h == 0 or w == 0:
            raise DimensionError(f"mosaic dims must be even and non-zero, got {h}x{w}")
        _check_image(self, data, nonnegative=True)
        object.__setattr__(self, "data", data)

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
    [0, clip_hi], a finite clip_hi > 0).  Float planes must be finite.
    Metadata mirrors the source RawFrame.
    """

    channels: np.ndarray
    space: str
    black_level: np.ndarray
    white_level: float
    camera_id: str = ""
    iso: int = 0
    exposure_s: float | None = None
    clip_hi: float = 1.0

    def __post_init__(self):
        ch = np.asarray(self.channels)
        if ch.ndim != 3 or ch.shape[0] != 4:
            raise DimensionError(f"channels must have shape (4, H, W), got {ch.shape}")
        _check_choice("space", self.space, (SPACE_DN, SPACE_DN_ABOVE_BLACK, SPACE_NORMALIZED),
                      error=DomainError)
        object.__setattr__(self, "clip_hi", _check_clip_hi(self.clip_hi))
        _check_image(self, ch, nonnegative=False)
        object.__setattr__(self, "channels", ch)

    @property
    def plane_height(self) -> int:
        return self.channels.shape[1]

    @property
    def plane_width(self) -> int:
        return self.channels.shape[2]


@dataclass(frozen=True)
class Roi:
    """Mosaic-domain rectangle with even offsets/extents (preserves CFA phase).

    The fields pass ``_check_int`` and are stored as ints."""

    x0: int
    y0: int
    w: int
    h: int

    def __post_init__(self):
        for name in ("x0", "y0", "w", "h"):
            v = _check_int(f"Roi.{name}", getattr(self, name), minimum=0, error=DimensionError)
            if v % 2:
                raise DimensionError(f"Roi.{name} must be even, got {v}")
            object.__setattr__(self, name, v)
        if self.w == 0 or self.h == 0:
            raise DimensionError("Roi extents must be non-zero")


def _meta_kwargs(img) -> dict:
    return {name: getattr(img, name) for name in _META}


def pack_rggb(frame: RawFrame) -> PackedImage:
    """Split a Bayer mosaic into 4 half-resolution DN planes (R, Gr, Gb, B).

    channels[R][i][j] = data[2i][2j], Gr = data[2i][2j+1],
    Gb = data[2i+1][2j], B = data[2i+1][2j+1].  Packing never subtracts black.
    """
    return PackedImage(channels=split_rggb(frame.data), space=SPACE_DN, **_meta_kwargs(frame))


def _rggb_views(mosaic: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four CFA phases of an even-sized mosaic as strided (H, W) views,
    in R, Gr, Gb, B order; the only place the phases are sliced."""
    return mosaic[0::2, 0::2], mosaic[0::2, 1::2], mosaic[1::2, 0::2], mosaic[1::2, 1::2]


def split_rggb(mosaic: np.ndarray) -> np.ndarray:
    """Split a (2H, 2W) Bayer mosaic into 4 RGGB planes (4, H, W); inverse of
    :func:`interleave_rggb`."""
    m = np.asarray(mosaic)
    if m.ndim != 2 or m.shape[0] % 2 or m.shape[1] % 2:
        raise DimensionError(f"expected an even-sized 2-D mosaic, got {m.shape}")
    return np.stack(_rggb_views(m))


def interleave_rggb(channels: np.ndarray) -> np.ndarray:
    """Reassemble 4 RGGB planes (4, H, W) into a (2H, 2W) Bayer mosaic."""
    ch = np.asarray(channels)
    if ch.ndim != 3 or ch.shape[0] != 4:
        raise DimensionError(f"expected (4, H, W) planes, got {ch.shape}")
    _, h, w = ch.shape
    mosaic = np.empty((2 * h, 2 * w), dtype=ch.dtype)
    for view, plane in zip(_rggb_views(mosaic), ch):
        view[...] = plane
    return mosaic


def _row_bands(n_rows: int):
    """Yield (r0, r1) per band of ``_BAND_ROWS`` rows covering [0, n_rows)
    in order; the last band is the remainder."""
    for r0 in range(0, n_rows, _BAND_ROWS):
        yield r0, min(r0 + _BAND_ROWS, n_rows)


def unpack_rggb(img: PackedImage) -> RawFrame:
    """Exact inverse of :func:`pack_rggb`; metadata is copied verbatim."""
    _check_space("unpack_rggb", SPACE_DN, SPACE_DN_ABOVE_BLACK, img=img)
    return RawFrame(data=interleave_rggb(img.channels), **_meta_kwargs(img))


def _normalize_rows(rows: np.ndarray, black, span, clip_hi: float, out) -> np.ndarray:
    """Rows of one CFA plane normalized with ``normalize``'s steps, its one copy
    of them: cast to float64 removing ``black`` into ``out`` (a new array if
    None), divide by ``span``, clip to [0, clip_hi].  The steps are
    pointwise, so rows taken from a mosaic's CFA view equal, bit for bit, the
    same rows of the normalized planes."""
    out = np.subtract(rows, black, out=out, dtype=np.float64)
    out /= span
    np.clip(out, 0.0, clip_hi, out=out)
    return out


def normalize(img: RawFrame | PackedImage, clip_hi: float = 1.0) -> PackedImage:
    """Map DN planes to [0, clip_hi] using per-channel black and white levels.

    out[c] = clamp((in[c] - black[c]) / (white - black[c]), 0, clip_hi).
    For ``dn_above_black`` input the subtraction is already done and only
    the scaling applies.  A RawFrame's CFA views are cast straight into the
    float64 planes, with the bytes of ``normalize(pack_rggb(frame))``.
    """
    clip_hi = _check_clip_hi(clip_hi)
    black = img.black_level
    if isinstance(img, RawFrame):
        src, shape = _rggb_views(img.data), (4, img.height // 2, img.width // 2)
    else:
        _check_space("normalize", SPACE_DN, SPACE_DN_ABOVE_BLACK, img=img)
        src, shape = img.channels, img.channels.shape
        if img.space == SPACE_DN_ABOVE_BLACK:
            black = np.zeros(4)  # x - 0.0 is x bit for bit, -0.0 included
    out = np.empty(shape)
    span = img.white_level - img.black_level
    for plane, view, b, s in zip(out, src, black, span):
        _normalize_rows(view, b, s, clip_hi, out=plane)
    return PackedImage(channels=out, space=SPACE_NORMALIZED, clip_hi=clip_hi,
                       **_meta_kwargs(img))


def denormalize(img: PackedImage) -> PackedImage:
    """Map normalized planes back to DN: out[c] = in[c]*(white - black[c]) + black[c].

    No re-clipping is applied; clipping already happened at normalize time.
    """
    _check_space("denormalize", SPACE_NORMALIZED, img=img)
    black = img.black_level
    span = img.white_level - black
    out = np.multiply(img.channels, span[:, None, None], dtype=np.float64)
    out += black[:, None, None]
    return replace(img, channels=out, space=SPACE_DN)


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


def _write_rawb(path, layout: str, space: str, payload: np.ndarray, fields: dict) -> None:
    """Write a (H, W) or (C, H, W) payload under the one RAWB header: the
    fixed keys, then ``fields`` in their order (a field may override a key)."""
    tag = _dtype_tag(payload)
    header = {
        "magic": _RAWB_MAGIC,
        "width": payload.shape[-1],
        "height": payload.shape[-2],
        "channels": _RAWB_CHANNELS[layout],
        "dtype": tag,
        "layout": layout,
        "space": space,
        **fields,
    }
    # encoded and converted before the file is opened, so a failure leaves no
    # file; the array's own buffer is written, not a bytes copy of it
    line = json.dumps(header).encode("utf-8") + b"\n"
    data = np.ascontiguousarray(payload, dtype=_RAWB_DTYPES[tag])
    with open(path, "wb") as fh:
        fh.write(line)
        fh.write(data)


def _read_rawb(path, *layouts: str) -> tuple[dict, np.ndarray]:
    """Read a RAWB file whose layout is one of ``layouts``; the payload comes
    back as (H, W) for a mosaic and (C, H, W) otherwise.  The payload is read
    straight into a new (aligned) array, not through a copy of the file's
    bytes, and the array is returned read-only."""
    with open(path, "rb") as f:
        line = f.readline()
        payload = os.fstat(f.fileno()).st_size - len(line)
    if not line.endswith(b"\n"):
        raise FormatError(f"{path}: missing header line")
    try:
        header = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict) or header.get("magic") != _RAWB_MAGIC:
        raise FormatError(f"{path}: bad magic, not a RAWB file")
    tag = _check_choice(f"{path}: dtype", header.get("dtype"), _RAWB_DTYPES, error=FormatError)
    w, h, c = (_check_int(f"{path}: {key}", header.get(key), minimum=0, error=FormatError)
               for key in ("width", "height", "channels"))
    layout = header.get("layout")
    if layout not in layouts or c != _RAWB_CHANNELS[layout]:
        wanted = " or ".join(f"{name} ({_RAWB_CHANNELS[name]} ch)" for name in layouts)
        raise FormatError(f"{path}: layout {layout!r} with {c} channels, expected {wanted}")
    expected = w * h * c * _RAWB_DTYPES[tag].itemsize
    if payload != expected:
        raise FormatError(
            f"{path}: payload is {payload} bytes, header implies {expected}"
        )
    data = np.fromfile(path, dtype=_RAWB_DTYPES[tag], count=w * h * c, offset=len(line))
    data.flags.writeable = False
    return header, data.reshape(h, w) if layout == "mosaic" else data.reshape(c, h, w)


def _image_fields(img) -> dict:
    return {**_meta_kwargs(img), "black_level": img.black_level.tolist()}


def _read_image(path, *layouts: str) -> RawFrame | PackedImage:
    """The one parse of the image metadata: a mosaic file gives a RawFrame, an
    RGGB file a PackedImage.  An error from the image's checks gets the path
    in front of its message."""
    header, data = _read_rawb(path, *layouts)
    meta = {name: header[name] for name in _META if name in header}
    try:
        if header["layout"] == "mosaic":
            return RawFrame(data=data, **meta)
        return PackedImage(channels=data, space=header.get("space", SPACE_DN),
                           clip_hi=header.get("clip_hi", 1.0), **meta)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad image metadata ({exc})") from exc
    except (DimensionError, DomainError, ProfileError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def write_frame(frame: RawFrame, path) -> None:
    """Write a mosaic frame to a RAWB container (lossless for u16/f32 data)."""
    _write_rawb(path, "mosaic", SPACE_DN, frame.data, {**_image_fields(frame), "clip_hi": 1.0})


def read_frame(path) -> RawFrame:
    """Read a mosaic RAWB file back into a RawFrame (bit-exact payload); an
    error raised by RawFrame's checks gets the path in front of its message."""
    return _read_image(path, "mosaic")


def write_packed(img: PackedImage, path) -> None:
    """Write a 4-plane RGGB image to a RAWB container (planes concatenated)."""
    fields = {**_image_fields(img), "clip_hi": float(img.clip_hi)}
    _write_rawb(path, "rggb", img.space, img.channels, fields)


def read_packed(path) -> PackedImage:
    """Read a 4-plane RGGB RAWB file (bit-exact payload); an error from the
    image's checks (e.g. a non-finite value) gets the path in front."""
    return _read_image(path, "rggb")


def write_rgb(rgb: np.ndarray, path, extra: dict | None = None) -> None:
    """Write an (H, W, 3) float image as a 3-channel f32 RAWB container.

    ``extra`` lets callers record processing parameters (e.g. the ISP
    configuration) in the header; readers ignore unknown keys.
    """
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise DimensionError(f"expected (H, W, 3), got {rgb.shape}")
    planes = np.moveaxis(rgb.astype(np.float32), -1, 0)
    _write_rawb(path, "rgb", "srgb", planes, extra or {})


def read_rgb(path) -> np.ndarray:
    return np.moveaxis(_read_rawb(path, "rgb")[1], 0, -1)
