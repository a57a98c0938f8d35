"""Sensor profile estimation from dark frames and photon-transfer statistics.

A ``SensorProfile`` bundles everything the synthesis and denoising stages
need about one camera: per-ISO noise parameters (system gain K, pixel read
noise, row/banding noise) and a library of corrected dark residuals sampled
as real signal-independent noise.  The residuals are held as the float32
RGGB images that ``save_profile`` writes to RAWB sidecar files and
``load_profile`` reads, so a save changes no profile; ``SensorProfile``
checks them.  The dark-shading map (mean dark frame) that makes them is
not stored.

Estimators follow plain sample statistics with (n-1) denominators.  Row
(banding) noise is measured from per-row means after removing each frame's
own mean, so a constant per-frame offset contaminates neither the band nor
the pixel estimate.  ``estimate_dark_shading`` and ``correct_dark_frame``
return float64 arrays; only the residuals a profile stores are float32.

``build_profile`` runs each ISO's work as ``core._map`` tasks on every CPU
the process may use, and its bytes and sigmas do not depend on how many
there are.  The shading map is made in row bands, one task each: a band
of frame 0 cast to float64, each later frame's rows added in order, then
one divide by n.  Those are, per element, the adds of
``np.stack(...).mean(axis=0)`` in its order, so the map has the stack's
bits without the (n, H, W) stack.  Then each dark is one task: it makes
the dark's float64 residual mosaic, its float32 RGGB library image and its
band means, and writes its band-mean-removed pixels into its own slot of
one preallocated buffer, which holds the values, in order, of the raveled
per-frame parts that ``estimate_read_noise`` once concatenated.  The sums
whose bits depend on their order (the pooled band means' std and the two
reductions over the whole buffer) stay single serial calls, so both sigmas
keep their bits as well.  The ISOs run one after another, so one ISO's
buffer is held at a time.  ``save_profile`` and ``load_profile`` write and
read each sidecar file as a task too.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .core import (
    PackedImage,
    RawFrame,
    Roi,
    SPACE_DN_ABOVE_BLACK,
    _check_choice,
    _check_finite,
    _check_iso,
    _check_keys,
    _check_levels,
    _check_space,
    _check_string,
    _map,
    _meta_kwargs,
    _row_bands,
    crop_frame,
    interleave_rggb,
    read_packed,
    split_rggb,
    write_packed,
)
from .errors import (
    CalibrationWarning,
    DimensionError,
    DomainError,
    InsufficientData,
    ProfileError,
)

_BAND_AXES = ("row", "col")


@dataclass(frozen=True)
class NoiseParams:
    """Per-ISO noise model: gain K (DN/e-), read/row sigmas (DN), quant step
    (DN), each stored as the float ``core._check_finite`` returns."""

    K: float
    sigma_read: float
    sigma_row: float
    quant_step: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "K", _check_finite("system gain K", self.K, positive=True,
                                                    error=ProfileError))
        # effective_pg_params squares these
        for name in ("sigma_read", "sigma_row", "quant_step"):
            value = _check_finite(name, getattr(self, name), positive=False, error=ProfileError)
            if not np.isfinite(value * value):
                raise ProfileError(f"{name} must have a finite square, got {value}")
            object.__setattr__(self, name, value)


@dataclass
class SensorProfile:
    """Calibrated per-camera noise description across ISO settings.

    Its images are its sidecars, in memory as in the saved RAWB files:
    ``dark_library[iso]`` holds corrected dark residuals
    (``dn_above_black``, zero mean); an ISO may carry an explicitly empty
    library when only parametric synthesis is wanted.

    The sidecar rule, checked however a profile is made (``build_profile``,
    ``load_profile``, the constructor or ``dataclasses.replace``): each image
    is a ``dn_above_black`` PackedImage, tagged with the profile's
    ``camera_id`` and the entry's ISO, that ISO has NoiseParams, and the
    planes are float32 and ``effective_roi`` halved.  A broken rule is a
    ProfileError naming the ISO and the entry.  The levels obey the image
    rule 0 <= black < white and are stored as in RawFrame: a float64
    4-vector and a float.
    """

    camera_id: str
    black_level: np.ndarray
    white_level: float
    effective_roi: Roi
    iso_params: dict[int, NoiseParams] = field(default_factory=dict)
    dark_library: dict[int, list[PackedImage]] = field(default_factory=dict)

    def __post_init__(self):
        self.black_level, self.white_level = _check_levels(self.black_level, self.white_level)
        planes = (self.effective_roi.h // 2, self.effective_roi.w // 2)
        sidecars = [(iso, k, img) for iso, images in self.dark_library.items()
                    for k, img in enumerate(images)]
        for iso, k, img in sidecars:
            try:
                self.params_for(iso)
                if not isinstance(img, PackedImage):
                    raise ProfileError(f"expected a PackedImage, got {type(img).__name__}")
                _check_space("the profile", SPACE_DN_ABOVE_BLACK, sidecar=img)
                if (img.camera_id, img.iso) != (self.camera_id, iso):
                    raise ProfileError(f"tagged camera {img.camera_id!r} ISO {img.iso}, "
                                       f"expected camera {self.camera_id!r} ISO {iso}")
                if img.channels.shape[1:] != planes or img.channels.dtype != np.float32:
                    raise ProfileError(
                        f"{img.channels.dtype} planes of {img.plane_height}x{img.plane_width}, "
                        f"expected float32 planes of {planes[0]}x{planes[1]} "
                        "(effective_roi halved)")
            except (DomainError, ProfileError) as exc:
                raise ProfileError(f"ISO {iso}: dark_library[{k}]: {exc}") from exc

    def params_for(self, iso: int) -> NoiseParams:
        try:
            return self.iso_params[iso]
        except KeyError:
            raise ProfileError(
                f"ISO {iso} not in profile (available: {sorted(self.iso_params)})"
            ) from None


def estimate_dark_shading(darks: list[RawFrame], roi: Roi) -> np.ndarray:
    """Per-pixel mean of >= 2 dark frames over the ROI, at mosaic resolution.

    The result includes the black pedestal: subtracting it from a dark
    frame removes both the spatial dark-current pattern and the black
    level in one step.  Each row band of ``core._row_bands`` is one
    ``core._map`` task.
    """
    if len(darks) < 2:
        raise InsufficientData(f"need >= 2 dark frames, got {len(darks)}")
    first = darks[0]
    for d in darks[1:]:
        if d.data.shape != first.data.shape:
            raise ProfileError("dark frames have mixed dimensions")
        if d.iso != first.iso or d.camera_id != first.camera_id:
            raise ProfileError("dark frames mix ISO or camera")
    frames = [crop_frame(d, roi).data for d in darks]
    total = np.empty(frames[0].shape)

    def band(rows):
        # mean(axis=0) of the float64 stack, without the stack: per element
        # the same adds in the same order (frame 0, then each later frame),
        # then one divide by n
        r0, r1 = rows
        part = total[r0:r1]
        part[...] = frames[0][r0:r1]
        for data in frames[1:]:
            part += data[r0:r1]
        part /= len(frames)

    _map(band, _row_bands(len(total)))
    return total


def correct_dark_frame(dark: RawFrame, shading: np.ndarray) -> PackedImage:
    """Subtract the shading mosaic (black pedestal included) and pack to RGGB.

    The result is the frame's signal-independent noise residual, zero-mean
    per pixel over the library, in float64 (a profile stores it as float32).
    """
    return PackedImage(channels=split_rggb(_dark_residual(dark, shading)),
                       space=SPACE_DN_ABOVE_BLACK, **_meta_kwargs(dark))


def _dark_residual(dark: RawFrame, shading: np.ndarray) -> np.ndarray:
    """The float64 mosaic ``dark - shading`` (a new C-ordered array)."""
    shading = np.asarray(shading, dtype=np.float64)
    if dark.data.shape != shading.shape:
        raise DimensionError(
            f"dark {dark.data.shape} does not match shading {shading.shape}"
        )
    return np.subtract(dark.data, shading, dtype=np.float64, order="C")


def _library_residual(dark: RawFrame, roi: Roi, shading: np.ndarray, camera_id: str):
    """``dark``'s float64 residual mosaic over ``roi`` and its library image:
    the float32 RGGB split, tagged ``camera_id``."""
    dark = crop_frame(dark, roi)
    mosaic = _dark_residual(dark, shading)
    return mosaic, PackedImage(channels=split_rggb(mosaic.astype(np.float32)),
                               space=SPACE_DN_ABOVE_BLACK,
                               **{**_meta_kwargs(dark), "camera_id": camera_id})


def estimate_read_noise(
    residuals: list[PackedImage], band_axis: str = "row"
) -> tuple[float, float]:
    """Split residual noise into pixel-wise and band-wise components.

    Returns (sigma_read, sigma_row), both in DN.  sigma_row is the sample
    std of per-band means (mosaic domain, pooled over frames, each frame's
    own mean removed first); sigma_read is the sample std of the residual
    after subtracting each band's mean.  ``band_axis`` selects the readout
    direction: "row" bands share a mosaic row, "col" a mosaic column.
    """
    if not residuals:
        raise InsufficientData("need at least one residual frame")
    _check_choice("band_axis", band_axis, _BAND_AXES, error=ValueError)
    sigma_read, sigma_row, _ = _read_noise_stats(
        residuals, lambda r: (np.asarray(interleave_rggb(r.channels), dtype=np.float64), None),
        [r.channels.size for r in residuals], band_axis)
    return sigma_read, sigma_row


def _read_noise_stats(items: list, residual, sizes: list[int], band_axis: str):
    """(sigma_read, sigma_row, kept) of the items' residual mosaics.

    ``residual(item)`` returns the item's C-ordered float64 residual mosaic,
    of ``sizes[k]`` values for item k, and a value to keep (``kept`` lists
    them in input order).  Each item is one ``core._map`` task: it makes its
    mosaic, takes its band means and writes its band-mean-removed pixels
    into its own slot of one buffer, which holds what concatenating the
    frames' raveled parts would; only the workers' mosaics are held at once.
    The sums whose bits depend on their order stay single serial calls in
    input order: ``np.std`` of the concatenated band means and the two
    ``np.add.reduce`` calls over the whole buffer.  The buffer is private,
    so ``np.std(pixels, ddof=1)``'s own steps (numpy's ``_var``: sum for
    the mean, subtract, square, sum, divide by n - 1, square root) run on it
    in place, the elementwise subtract and square as one task per slot: the
    same arithmetic in the same order, without a second buffer."""
    stops = np.cumsum(sizes).tolist()
    starts = [0, *stops[:-1]]
    n_pixels = stops[-1]
    pixels = np.empty(n_pixels)

    def remove_band_means(k):
        mosaic, kept = residual(items[k])
        bands = mosaic.T if band_axis == "col" else mosaic
        means = bands.mean(axis=1)
        np.subtract(bands, means[:, None], out=pixels[starts[k]:stops[k]].reshape(bands.shape))
        return means - means.mean(), kept

    done = _map(remove_band_means, range(len(items)))
    sigma_row = float(np.std(np.concatenate([means for means, _ in done]), ddof=1))
    mean = np.add.reduce(pixels, keepdims=True)
    np.true_divide(mean, n_pixels, out=mean)

    def centre_and_square(k):
        part = pixels[starts[k]:stops[k]]
        part -= mean
        np.square(part, out=part)

    _map(centre_and_square, range(len(items)))
    sigma_read = float(np.sqrt(np.add.reduce(pixels) / (n_pixels - 1)))
    return sigma_read, sigma_row, [kept for _, kept in done]


def estimate_system_gain(points: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares photon-transfer fit: variance = K * mean + sigma2_floor.

    ``points`` are (mean DN above black, variance DN^2) pairs from flat
    exposures.  Returns (K, sigma2_floor).  A non-positive slope is
    returned as-is but flagged with a CalibrationWarning.
    """
    if len(points) < 2:
        raise InsufficientData(f"need >= 2 photon-transfer points, got {len(points)}")
    means = np.asarray([p[0] for p in points], dtype=np.float64)
    variances = np.asarray([p[1] for p in points], dtype=np.float64)
    dm = means - means.mean()
    denom = np.dot(dm, dm)
    if denom == 0:
        raise InsufficientData("photon-transfer points need >= 2 distinct means")
    k = float(np.dot(dm, variances - variances.mean()) / denom)
    floor = float(variances.mean() - k * means.mean())
    if k <= 0:
        warnings.warn(
            f"photon-transfer fit gave non-positive gain K={k:g}", CalibrationWarning
        )
    return k, floor


def build_profile(
    camera_id: str,
    isos: list[int],
    darks_by_iso: dict[int, list[RawFrame]],
    ptc_points_by_iso: dict[int, list[tuple[float, float]]] | None = None,
    provided_gains: dict[int, float] | None = None,
    roi: Roi | None = None,
    band_axis: str = "row",
) -> SensorProfile:
    """Assemble a SensorProfile from dark frames plus gains.

    Gains come from ``provided_gains`` verbatim when present (the normal
    case: the dataset ships calibrated values), otherwise from a
    photon-transfer fit of ``ptc_points_by_iso``.  Every ISO keeps the
    default quantization step of NoiseParams (1 DN).  Without ``roi`` the
    whole frames are calibrated, so every ISO's darks must have the first
    ISO's size.  Each ISO's darks must carry that ISO, and every dark the
    first dark's camera and levels: ``camera_id`` names the profile, it
    does not let one profile mix cameras.  All of this, and each ISO's gain
    (finite and > 0), is checked before any frame is calibrated.
    """
    if not isos:
        raise InsufficientData("need at least one ISO setting to calibrate")
    _check_choice("band_axis", band_axis, _BAND_AXES, error=ValueError)
    provided_gains = provided_gains or {}
    ptc_points_by_iso = ptc_points_by_iso or {}
    gains: dict[int, float] = {}
    ref: RawFrame | None = None
    for iso in isos:
        darks = darks_by_iso.get(iso)
        if not darks:
            raise ProfileError(f"no dark frames supplied for ISO {iso}")
        other = sorted({d.iso for d in darks} - {iso})
        if other:
            raise ProfileError(f"ISO {iso} darks include frames of ISO {other[0]}")
        if ref is None:
            ref = darks[0]
        elif roi is None and darks[0].data.shape != ref.data.shape:
            raise ProfileError(
                f"ISO {iso} darks are {darks[0].width}x{darks[0].height} but ISO {isos[0]} "
                f"darks are {ref.width}x{ref.height}; pass an roi to calibrate a common region"
            )
        for k, dark in enumerate(darks):
            for name in ("camera_id", "black_level", "white_level"):
                got, want = np.asarray(getattr(dark, name)), np.asarray(getattr(ref, name))
                if not np.array_equal(got, want):
                    raise ProfileError(
                        f"ISO {iso} dark {k} has {name} {got.tolist()!r} but ISO {isos[0]} "
                        f"dark 0 has {want.tolist()!r}; calibrate one camera's darks at a time")
        if iso in provided_gains:
            gain = provided_gains[iso]
        elif iso in ptc_points_by_iso:
            gain, _ = estimate_system_gain(ptc_points_by_iso[iso])
        else:
            raise ProfileError(f"ISO {iso}: no gain provided and no PTC points to fit")
        gains[iso] = _check_finite(f"ISO {iso}: system gain K", gain, positive=True,
                                   error=ProfileError)
    assert ref is not None
    if roi is None:
        roi = Roi(0, 0, ref.width, ref.height)
    iso_params: dict[int, NoiseParams] = {}
    libraries: dict[int, list[PackedImage]] = {}
    for iso in isos:
        darks = darks_by_iso[iso]
        shading = estimate_dark_shading(darks, roi)
        sigma_read, sigma_row, libraries[iso] = _read_noise_stats(
            darks, partial(_library_residual, roi=roi, shading=shading, camera_id=camera_id),
            [roi.w * roi.h] * len(darks), band_axis)
        iso_params[iso] = NoiseParams(K=gains[iso], sigma_read=sigma_read, sigma_row=sigma_row)
    return SensorProfile(
        camera_id=camera_id,
        black_level=ref.black_level,
        white_level=ref.white_level,
        effective_roi=roi,
        iso_params=iso_params,
        dark_library=libraries,
    )


def save_profile(profile: SensorProfile, json_path) -> None:
    """Serialize a profile to JSON with its images written, as they are, to
    f32 RAWB sidecar files next to it, each file as one ``core._map`` task;
    scalar fields round-trip exactly through JSON."""
    json_path = Path(json_path)
    out_dir = json_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = json_path.stem
    isos_doc, sidecars = {}, []
    for iso, params in sorted(profile.iso_params.items()):
        lib_names = []
        for k, res in enumerate(profile.dark_library.get(iso, [])):
            name = f"{stem}_iso{iso}_dark{k:03d}.rawb"
            sidecars.append((res, out_dir / name))
            lib_names.append(name)
        isos_doc[str(iso)] = {**asdict(params), "dark_library": lib_names}
    _map(lambda sidecar: write_packed(*sidecar), sidecars)
    doc = {
        "camera_id": profile.camera_id,
        "black_level": [float(b) for b in profile.black_level],
        "white_level": float(profile.white_level),
        "effective_roi": asdict(profile.effective_roi),
        "isos": isos_doc,
    }
    json_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


# the keys save_profile writes, the only ones load_profile takes
_PROFILE_KEYS = ("camera_id", "black_level", "white_level", "effective_roi", "isos")
_ENTRY_KEYS = (*(f.name for f in fields(NoiseParams)), "dark_library")


def _library_names(iso: int, entry) -> list[str]:
    """An ``isos`` entry's library file names, once its keys are checked."""
    _check_keys(f"ISO {iso}", entry, _ENTRY_KEYS, error=TypeError)  # "malformed profile"
    names = entry.get("dark_library", [])
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ProfileError(f"ISO {iso}: dark_library must be a list of file names, got {names!r}")
    return names


def load_profile(json_path) -> SensorProfile:
    """Load a profile saved by :func:`save_profile`; a missing, unknown
    (``core._check_keys``) or malformed field raises ProfileError naming the
    file.  The levels and noise parameters must be JSON numbers,
    ``camera_id`` and the sidecar paths strings, the ROI fields integers and
    the ISO keys ISOs (``_check_iso``).  A sidecar that breaks its image
    checks or SensorProfile's rule fails so too."""
    json_path = Path(json_path)
    try:
        doc = json.loads(json_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ProfileError(f"{json_path}: unreadable profile JSON ({exc})") from exc
    _check_keys(json_path, doc, _PROFILE_KEYS, error=ProfileError)
    base = json_path.parent
    try:
        isos = {_check_iso("isos key", int(iso)): entry for iso, entry in doc["isos"].items()}
        libraries = {iso: _library_names(iso, entry) for iso, entry in isos.items()}
        scalars = {
            "camera_id": _check_string("camera_id", doc["camera_id"]),
            "black_level": doc["black_level"],
            "white_level": doc["white_level"],
            "effective_roi": Roi(**doc["effective_roi"]),
            "iso_params": {
                iso: NoiseParams(**{f.name: entry[f.name]
                                    for f in fields(NoiseParams) if f.name in entry})
                for iso, entry in isos.items()
            },
        }
        # the fields fail before any file is read; then every sidecar is one
        # task, each ISO's library in turn, so the first failure in that
        # order is the one raised
        names = [name for library in libraries.values() for name in library]
        images = iter(_map(read_packed, [base / name for name in names]))
        return SensorProfile(**scalars, dark_library={iso: [next(images) for _ in library]
                                                      for iso, library in libraries.items()})
    except KeyError as exc:
        raise ProfileError(f"{json_path}: missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ProfileError(f"{json_path}: malformed profile ({exc})") from exc
    except (DimensionError, DomainError, ProfileError) as exc:
        raise ProfileError(f"{json_path}: {exc}") from exc
