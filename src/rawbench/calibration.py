"""Sensor profile estimation from dark frames and photon-transfer statistics.

A ``SensorProfile`` bundles everything the synthesis and denoising stages
need about one camera: per-ISO noise parameters (system gain K, pixel read
noise, row/banding noise) and a library of corrected dark residuals sampled
as real signal-independent noise.  The residuals are held as the float32
RGGB images that ``save_profile`` writes to RAWB sidecar files and
``load_profile`` reads, so a save changes no profile; ``SensorProfile``
checks them.  The dark-shading map (mean dark frame) that makes them is
not stored.

There is one calibration path, ``build_profile``: each dark's residual is
the dark minus the shading map of its own ISO's darks.  Estimators follow
plain sample statistics with (n-1) denominators.  Row (banding) noise is
measured from per-row means after removing each frame's own mean, so a
constant per-frame offset contaminates neither the band nor the pixel
estimate.  The shading map (``_dark_shading``) and the residuals are
float64; only the residuals a profile stores are float32.

Each input is checked once, before any work: ``build_profile`` checks
every ISO's darks (``_check_darks``, the one dark-set rule) and gain
before it calibrates a frame, and ``SensorProfile`` holds the one profile
rule, however a profile is made.

``build_profile`` runs each ISO's work as ``core._map`` tasks on every CPU
the process may use: the shading map's row bands, then each dark's
residual, library image and band means (``_read_noise_stats``).  The sums
whose bits depend on their order stay serial, so its bytes and sigmas do
not depend on the CPU count.
The ISOs run one after another, so one ISO's buffer is held at a time.
``save_profile`` and ``load_profile`` write and read each sidecar file as
a task too.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
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
    _read_json,
    _row_bands,
    crop_frame,
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

    The profile rule, checked however a profile is made (``build_profile``,
    ``load_profile``, the constructor or ``dataclasses.replace``), so that
    ``load_profile`` takes what ``save_profile`` writes: ``camera_id`` is a
    string, ``effective_roi`` a Roi, each ``iso_params`` key an ISO
    (``core._check_iso``, stored as an int) with NoiseParams, the levels
    pass the image rule (stored as in RawFrame), and each sidecar image is
    a ``dn_above_black`` PackedImage tagged with the profile's camera and
    its entry's ISO, with float32 planes of ``effective_roi`` halved.  A
    broken rule is a ProfileError naming the ISO and any sidecar entry.
    """

    camera_id: str
    black_level: np.ndarray
    white_level: float
    effective_roi: Roi
    iso_params: dict[int, NoiseParams] = field(default_factory=dict)
    dark_library: dict[int, list[PackedImage]] = field(default_factory=dict)

    def __post_init__(self):
        self.black_level, self.white_level = _check_levels(self.black_level, self.white_level)
        where, iso_params = "", {}
        try:
            _check_string("camera_id", self.camera_id)
            if not isinstance(self.effective_roi, Roi):
                raise TypeError(f"effective_roi must be a Roi, got {self.effective_roi!r}")
            for iso, params in self.iso_params.items():
                where = f"ISO {iso!r}: "
                if not isinstance(params, NoiseParams):
                    raise TypeError(f"expected NoiseParams, got {type(params).__name__}")
                iso_params[_check_iso("isos key", iso)] = params
            self.iso_params = iso_params
            planes = (self.effective_roi.h // 2, self.effective_roi.w // 2)
            for iso, k, img in [(iso, k, img) for iso, images in self.dark_library.items()
                                for k, img in enumerate(images)]:
                where = f"ISO {iso}: dark_library[{k}]: "
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
        except (DomainError, ProfileError, TypeError) as exc:
            raise ProfileError(f"{where}{exc}") from exc

    def params_for(self, iso: int) -> NoiseParams:
        try:
            return self.iso_params[iso]
        except KeyError:
            raise ProfileError(
                f"ISO {iso} not in profile (available: {sorted(self.iso_params)})"
            ) from None


def _check_darks(iso, darks: list[RawFrame], ref: RawFrame | None, roi: Roi | None) -> None:
    """The dark-set rule, on metadata only: >= 2 darks, each of ISO ``iso``
    with ``ref``'s camera and levels, of one size (``ref``'s when there is
    no ``roi``) that ``roi`` fits.  Each error names ``iso``."""
    if len(darks) < 2:
        raise InsufficientData(f"ISO {iso}: need >= 2 dark frames, got {len(darks)}")
    other = sorted({d.iso for d in darks} - {iso})
    if other:
        raise ProfileError(f"ISO {iso} darks include frames of ISO {other[0]}")
    first = darks[0]
    for k, dark in enumerate(darks):
        for name in ("camera_id", "black_level", "white_level"):
            if not np.array_equal(getattr(dark, name), getattr(ref, name)):
                got, want = (np.asarray(getattr(f, name)).tolist() for f in (dark, ref))
                raise ProfileError(
                    f"ISO {iso} dark {k} has {name} {got!r} but ISO {ref.iso} dark 0 has "
                    f"{want!r}; calibrate one camera's darks at a time")
        if dark.data.shape != first.data.shape:
            raise ProfileError(f"ISO {iso} darks have mixed dimensions: dark {k} is "
                               f"{dark.width}x{dark.height}, dark 0 {first.width}x{first.height}")
    if roi is None and first.data.shape != ref.data.shape:
        raise ProfileError(
            f"ISO {iso} darks are {first.width}x{first.height} but ISO {ref.iso} darks are "
            f"{ref.width}x{ref.height}; pass an roi to calibrate a common region")
    if roi is not None and (roi.x0 + roi.w > first.width or roi.y0 + roi.h > first.height):
        raise DimensionError(
            f"ISO {iso}: roi {roi} does not fit darks of {first.width}x{first.height}")


def _dark_shading(darks: list[RawFrame], roi: Roi) -> np.ndarray:
    """Per-pixel mean of dark frames over the ROI, at mosaic resolution.

    The darks have passed ``_check_darks`` in ``build_profile``.  The
    result includes the black pedestal: subtracting it from a dark frame
    removes both the spatial dark-current pattern and the black level in
    one step.  Each row band is one ``core._map`` task.
    """
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


def _library_residual(dark: RawFrame, roi: Roi, shading: np.ndarray, camera_id: str):
    """``dark``'s float64 residual mosaic over ``roi`` (a new C-ordered array,
    ``dark - shading``; ``_check_darks`` has matched their shapes) and its
    library image: the float32 RGGB split, tagged ``camera_id``."""
    dark = crop_frame(dark, roi)
    mosaic = np.subtract(dark.data, shading, dtype=np.float64, order="C")
    return mosaic, PackedImage(channels=split_rggb(mosaic.astype(np.float32)),
                               space=SPACE_DN_ABOVE_BLACK,
                               **{**_meta_kwargs(dark), "camera_id": camera_id})


def _read_noise_stats(darks: list[RawFrame], roi: Roi, shading: np.ndarray, camera_id: str,
                      band_axis: str):
    """(sigma_read, sigma_row, library) of the darks' residuals over ``roi``.

    sigma_row is the sample std of per-band means (mosaic domain, pooled
    over frames, each frame's own mean removed first); sigma_read is the
    sample std of the residuals after subtracting each band's mean.  A
    "row" band shares a mosaic row, a "col" band a mosaic column.

    Each dark is one ``core._map`` task: it makes its residual mosaic and
    library image (``_library_residual``), takes its band means and writes
    its band-mean-removed pixels into its own ``roi.w * roi.h`` slot of one
    buffer, which holds what concatenating the frames' raveled parts would;
    only the workers' mosaics are held at once.  The sums whose bits depend
    on their order stay single serial calls in input order: ``np.std`` of
    the concatenated band means and the two ``np.add.reduce`` calls over
    the whole buffer.  The buffer is private, so ``np.std(pixels, ddof=1)``'s
    own steps (numpy's ``_var``: sum for the mean, subtract, square, sum,
    divide by n - 1, square root) run on it in place, the elementwise
    subtract and square as one task per slot: the same arithmetic in the
    same order, without a second buffer."""
    pixels = np.empty(len(darks) * roi.w * roi.h)
    slots = pixels.reshape(len(darks), -1)  # slots[k] is dark k's part, a view

    def remove_band_means(k):
        mosaic, image = _library_residual(darks[k], roi, shading, camera_id)
        bands = mosaic.T if band_axis == "col" else mosaic
        means = bands.mean(axis=1)
        np.subtract(bands, means[:, None], out=slots[k].reshape(bands.shape))
        return means - means.mean(), image

    done = _map(remove_band_means, range(len(darks)))
    sigma_row = float(np.std(np.concatenate([means for means, _ in done]), ddof=1))
    mean = np.add.reduce(pixels, keepdims=True)
    np.true_divide(mean, pixels.size, out=mean)

    def centre_and_square(k):
        part = slots[k]
        part -= mean
        np.square(part, out=part)

    _map(centre_and_square, range(len(darks)))
    sigma_read = float(np.sqrt(np.add.reduce(pixels) / (pixels.size - 1)))
    return sigma_read, sigma_row, [image for _, image in done]


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
    default quantization step of NoiseParams (1 DN).  Before any frame is
    calibrated, ``camera_id`` must be a string, and each ISO's darks pass
    ``_check_darks`` against the first ISO's dark 0 (without ``roi``, the
    whole frames of that size are calibrated) and its gain is finite and
    > 0, each failure naming the ISO: ``camera_id`` names the profile, it
    does not let one profile mix cameras.

    Each ISO's sigmas are measured on residuals from the mean of the same
    N darks, which shrinks them by sqrt((N-1)/N) against the sensor's
    (0.71 at N = 2, 0.87 at N = 4, 0.94 at N = 8); they are stored as
    measured, without a correction.
    """
    if not isos:
        raise InsufficientData("need at least one ISO setting to calibrate")
    _check_choice("band_axis", band_axis, _BAND_AXES, error=ValueError)
    _check_string("camera_id", camera_id)
    provided_gains = provided_gains or {}
    ptc_points_by_iso = ptc_points_by_iso or {}
    gains: dict[int, float] = {}
    ref = None
    for iso in isos:
        darks = darks_by_iso.get(iso)
        if not darks:
            raise ProfileError(f"no dark frames supplied for ISO {iso}")
        ref = ref or darks[0]
        _check_darks(iso, darks, ref, roi)
        if iso in provided_gains:
            gain = provided_gains[iso]
        elif iso in ptc_points_by_iso:
            gain, _ = estimate_system_gain(ptc_points_by_iso[iso])
        else:
            raise ProfileError(f"ISO {iso}: no gain provided and no PTC points to fit")
        gains[iso] = _check_finite(f"ISO {iso}: system gain K", gain, positive=True,
                                   error=ProfileError)
    if roi is None:
        roi = Roi(0, 0, ref.width, ref.height)
    iso_params: dict[int, NoiseParams] = {}
    libraries: dict[int, list[PackedImage]] = {}
    for iso in isos:
        darks = darks_by_iso[iso]
        shading = _dark_shading(darks, roi)
        sigma_read, sigma_row, libraries[iso] = _read_noise_stats(darks, roi, shading, camera_id,
                                                                  band_axis)
        iso_params[iso] = NoiseParams(K=gains[iso], sigma_read=sigma_read, sigma_row=sigma_row)
    return SensorProfile(camera_id=camera_id, black_level=ref.black_level,
                         white_level=ref.white_level, effective_roi=roi,
                         iso_params=iso_params, dark_library=libraries)


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
    file.  The fields build the profile first, so they pass NoiseParams',
    Roi's and SensorProfile's rules before any file is read; then each
    sidecar must pass its image checks and the sidecar rule."""
    json_path = Path(json_path)
    doc = _read_json(json_path, error=ProfileError)
    _check_keys(json_path, doc, _PROFILE_KEYS, error=ProfileError)
    try:
        isos = {int(iso): entry for iso, entry in doc["isos"].items()}
        if list(map(str, isos)) != list(doc["isos"]):  # "0800" would replace ISO 800, not fail
            raise ProfileError(f"isos keys must be plain whole numbers, got {list(doc['isos'])}")
        libraries = {iso: _library_names(iso, entry) for iso, entry in isos.items()}
        profile = SensorProfile(
            camera_id=doc["camera_id"], black_level=doc["black_level"],
            white_level=doc["white_level"], effective_roi=Roi(**doc["effective_roi"]),
            iso_params={iso: NoiseParams(**{k: v for k, v in entry.items() if k != "dark_library"})
                        for iso, entry in isos.items()})
        # every sidecar is one task, each ISO's library in turn, so the
        # first failure in that order is the one raised
        names = [name for library in libraries.values() for name in library]
        images = iter(_map(read_packed, [json_path.parent / name for name in names]))
        return replace(profile, dark_library={iso: [next(images) for _ in library]
                                              for iso, library in libraries.items()})
    except KeyError as exc:
        raise ProfileError(f"{json_path}: missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ProfileError(f"{json_path}: malformed profile ({exc})") from exc
    except (DimensionError, DomainError, ProfileError) as exc:
        raise ProfileError(f"{json_path}: {exc}") from exc
