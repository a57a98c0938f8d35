"""Sensor profile estimation from dark frames and photon-transfer statistics.

A ``SensorProfile`` bundles everything the synthesis and denoising stages
need about one camera: per-ISO noise parameters (system gain K, pixel read
noise, row/banding noise), the dark-shading map (mean dark frame, black
pedestal included), and a library of corrected dark residuals sampled as
real signal-independent noise.

Estimators follow plain sample statistics with (n-1) denominators.  Row
(banding) noise is measured from per-row means after removing each frame's
own mean, so a constant per-frame offset contaminates neither the band nor
the pixel estimate.
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
    SPACE_DN,
    SPACE_DN_ABOVE_BLACK,
    _check_levels,
    _meta_kwargs,
    crop_frame,
    interleave_rggb,
    read_packed,
    split_rggb,
    write_packed,
)
from .errors import (
    CalibrationWarning,
    DimensionError,
    InsufficientData,
    ProfileError,
)


@dataclass(frozen=True)
class NoiseParams:
    """Per-ISO noise model: gain K (DN/e-), read/row sigmas (DN), quant step (DN)."""

    K: float
    sigma_read: float
    sigma_row: float
    quant_step: float = 1.0

    def __post_init__(self):
        if not self.K > 0:
            raise ProfileError(f"system gain must be > 0, got {self.K}")
        if self.sigma_read < 0 or self.sigma_row < 0 or self.quant_step < 0:
            raise ProfileError("noise sigmas and quant_step must be >= 0")


@dataclass
class SensorProfile:
    """Calibrated per-camera noise description across ISO settings.

    ``dark_library`` holds corrected dark residuals (packed, DN above
    black, zero mean); an ISO may carry an explicitly empty library when
    only parametric synthesis is wanted.  The levels obey the image rule
    0 <= black < white and are stored as in RawFrame: a float64 4-vector
    and a float.
    """

    camera_id: str
    black_level: np.ndarray
    white_level: float
    effective_roi: Roi
    iso_params: dict[int, NoiseParams] = field(default_factory=dict)
    dark_shading: dict[int, np.ndarray] = field(default_factory=dict)
    dark_library: dict[int, list[PackedImage]] = field(default_factory=dict)

    def __post_init__(self):
        self.black_level, self.white_level = _check_levels(self.black_level, self.white_level)

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
    level in one step.
    """
    if len(darks) < 2:
        raise InsufficientData(f"need >= 2 dark frames, got {len(darks)}")
    first = darks[0]
    for d in darks[1:]:
        if d.data.shape != first.data.shape:
            raise ProfileError("dark frames have mixed dimensions")
        if d.iso != first.iso or d.camera_id != first.camera_id:
            raise ProfileError("dark frames mix ISO or camera")
    stack = np.stack([crop_frame(d, roi).data.astype(np.float64) for d in darks])
    return stack.mean(axis=0)


def correct_dark_frame(dark: RawFrame, shading: np.ndarray) -> PackedImage:
    """Subtract the shading map (black pedestal included) and pack to RGGB.

    The result is the frame's signal-independent noise residual, zero-mean
    per pixel over the library.
    """
    shading = np.asarray(shading, dtype=np.float64)
    if dark.data.shape != shading.shape:
        raise DimensionError(
            f"dark {dark.data.shape} does not match shading {shading.shape}"
        )
    return PackedImage(
        channels=split_rggb(dark.data.astype(np.float64) - shading),
        space=SPACE_DN_ABOVE_BLACK,
        **_meta_kwargs(dark),
    )


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
    if band_axis not in ("row", "col"):
        raise ValueError(f"band_axis must be 'row' or 'col', got {band_axis!r}")
    band_means = []
    pixel_parts = []
    for res in residuals:
        mosaic = interleave_rggb(res.channels).astype(np.float64)
        if band_axis == "col":
            mosaic = mosaic.T
        means = mosaic.mean(axis=1)
        band_means.append(means - means.mean())
        pixel_parts.append((mosaic - means[:, None]).ravel())
    sigma_row = float(np.std(np.concatenate(band_means), ddof=1))
    sigma_read = float(np.std(np.concatenate(pixel_parts), ddof=1))
    return sigma_read, sigma_row


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


def laplacian_variance(plane: np.ndarray) -> float:
    """Variance of the 4-neighbor Laplacian over the valid interior.

    Sharpness/quality score used to drop the blurriest fraction of a clean
    image pool; a constant or linear-ramp plane scores exactly 0.
    """
    p = np.asarray(plane, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] < 3 or p.shape[1] < 3:
        raise DimensionError(f"plane must be at least 3x3, got {p.shape}")
    lap = (
        p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * p[1:-1, 1:-1]
    )
    return float(np.var(lap))


def filter_by_sharpness(planes: list[np.ndarray], drop_fraction: float = 0.2) -> list[int]:
    """Indices of planes kept after dropping the lowest-Laplacian-variance fraction."""
    if not 0 <= drop_fraction < 1:
        raise ValueError(f"drop_fraction must be in [0, 1), got {drop_fraction}")
    scores = [laplacian_variance(p) for p in planes]
    n_drop = int(len(planes) * drop_fraction)
    order = sorted(range(len(planes)), key=lambda i: (scores[i], i))
    dropped = set(order[:n_drop])
    return [i for i in range(len(planes)) if i not in dropped]


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
    default quantization step of NoiseParams (1 DN).
    """
    if not isos:
        raise InsufficientData("need at least one ISO setting to calibrate")
    provided_gains = provided_gains or {}
    ptc_points_by_iso = ptc_points_by_iso or {}
    iso_params: dict[int, NoiseParams] = {}
    shading_maps: dict[int, np.ndarray] = {}
    libraries: dict[int, list[PackedImage]] = {}
    ref: RawFrame | None = None
    for iso in isos:
        darks = darks_by_iso.get(iso)
        if not darks:
            raise ProfileError(f"no dark frames supplied for ISO {iso}")
        if ref is None:
            ref = darks[0]
            if roi is None:
                roi = Roi(0, 0, ref.width, ref.height)
        shading = estimate_dark_shading(darks, roi)
        residuals = [correct_dark_frame(crop_frame(d, roi), shading) for d in darks]
        sigma_read, sigma_row = estimate_read_noise(residuals, band_axis=band_axis)
        if iso in provided_gains:
            gain = float(provided_gains[iso])
        elif iso in ptc_points_by_iso:
            gain, _ = estimate_system_gain(ptc_points_by_iso[iso])
        else:
            raise ProfileError(f"ISO {iso}: no gain provided and no PTC points to fit")
        iso_params[iso] = NoiseParams(K=gain, sigma_read=sigma_read, sigma_row=sigma_row)
        shading_maps[iso] = shading
        libraries[iso] = residuals
    assert ref is not None and roi is not None
    return SensorProfile(
        camera_id=camera_id,
        black_level=ref.black_level,
        white_level=ref.white_level,
        effective_roi=roi,
        iso_params=iso_params,
        dark_shading=shading_maps,
        dark_library=libraries,
    )


def save_profile(profile: SensorProfile, json_path) -> None:
    """Serialize a profile to JSON with RAWB sidecar files next to it.

    Shading maps and dark residuals are stored as f32 RAWB containers;
    scalar fields round-trip exactly through JSON.
    """
    json_path = Path(json_path)
    out_dir = json_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = json_path.stem
    isos_doc = {}
    for iso, params in sorted(profile.iso_params.items()):
        shading_name = f"{stem}_iso{iso}_shading.rawb"
        shading = profile.dark_shading.get(iso)
        if shading is not None:
            shading_img = PackedImage(
                channels=split_rggb(shading).astype(np.float32),
                space=SPACE_DN,
                black_level=profile.black_level,
                white_level=profile.white_level,
                camera_id=profile.camera_id,
                iso=iso,
            )
            write_packed(shading_img, out_dir / shading_name)
        lib_names = []
        for k, res in enumerate(profile.dark_library.get(iso, [])):
            name = f"{stem}_iso{iso}_dark{k:03d}.rawb"
            write_packed(replace(res, channels=res.channels.astype(np.float32)), out_dir / name)
            lib_names.append(name)
        isos_doc[str(iso)] = {
            **asdict(params),
            "dark_shading_path": shading_name if shading is not None else None,
            "dark_library": lib_names,
        }
    doc = {
        "camera_id": profile.camera_id,
        "black_level": [float(b) for b in profile.black_level],
        "white_level": float(profile.white_level),
        "effective_roi": asdict(profile.effective_roi),
        "isos": isos_doc,
    }
    json_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_profile(json_path) -> SensorProfile:
    """Load a profile saved by :func:`save_profile`; a missing or malformed
    field raises ProfileError naming the file."""
    json_path = Path(json_path)
    try:
        doc = json.loads(json_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ProfileError(f"{json_path}: unreadable profile JSON ({exc})") from exc
    try:
        isos = {int(iso): entry for iso, entry in doc["isos"].items()}
        profile = SensorProfile(
            camera_id=doc["camera_id"],
            black_level=np.asarray(doc["black_level"], dtype=np.float64),
            white_level=float(doc["white_level"]),
            effective_roi=Roi(**doc["effective_roi"]),
            iso_params={
                iso: NoiseParams(**{f.name: float(entry[f.name]) for f in fields(NoiseParams)
                                    if f.name in entry})
                for iso, entry in isos.items()
            },
        )
    except KeyError as exc:
        raise ProfileError(f"{json_path}: missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ProfileError(f"{json_path}: malformed profile ({exc})") from exc
    except (DimensionError, ProfileError) as exc:
        raise type(exc)(f"{json_path}: {exc}") from exc
    base = json_path.parent
    for iso, entry in isos.items():
        if entry.get("dark_shading_path"):
            img = read_packed(base / entry["dark_shading_path"])
            profile.dark_shading[iso] = interleave_rggb(img.channels).astype(np.float64)
        names = entry.get("dark_library", [])
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ProfileError(
                f"{json_path}: ISO {iso}: dark_library must be a list of file names, "
                f"got {names!r}"
            )
        profile.dark_library[iso] = [read_packed(base / name) for name in names]
    return profile
