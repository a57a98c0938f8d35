"""Noisy/clean training-pair synthesis from clean RGGB images and a sensor profile.

The signal path follows the ratio paradigm: a normalized clean value c at
digital gain g corresponds to c*(white-black)/(g*K) photo-electrons, so the
brightness-aligned ground truth of the synthesized noisy image is the clean
image itself.  Shot noise is sampled exactly (Poisson) below a fixed
electron mean and via a rounded Gaussian above it.

Signal-independent noise comes from one of three sources:

* ``parametric``  - Gaussian pixel noise + Gaussian row (banding) noise +
  uniform quantization dither, per the profile's NoiseParams, which alone
  switch them: a zero sigma or quant step draws nothing;
* ``dark_sample`` - a random crop of a real corrected dark residual from
  the profile's library;
* ``hybrid``      - per image, a Bernoulli(rho) pick between the two, which
  keeps the spatial correlation of real dark noise intact in the samples
  that use it.

All randomness is driven by counter-derived streams: each patch of a batch
draws from its own stream and is a task that ``core._map`` runs on
``core._WORKERS`` threads, so batches are bit-identical regardless of
execution order or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import product

import numpy as np

from . import core
from .calibration import NoiseParams, SensorProfile
from .core import (
    PackedImage,
    RawFrame,
    SPACE_NORMALIZED,
    _check_clip_hi,
    _check_finite,
    _check_iso,
    normalize,
)
from .errors import DimensionError, DomainError, ProfileError

_MODES = ("parametric", "dark_sample", "hybrid")
# Electron mean from which shot noise is a rounded Gaussian, not a Poisson draw.
_GAUSS_THRESHOLD = 30.0


@dataclass(frozen=True, kw_only=True)
class _NoiseKnobs:
    """Noise source and output range shared by SynthConfig and BatchConfig
    (the sensor profile alone decides which noise components are drawn)."""

    mode: str = "parametric"
    hybrid_rho: float = 0.5
    clip_hi: float = 1.0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if _check_finite("hybrid_rho", self.hybrid_rho, positive=False, error=DomainError) > 1:
            raise DomainError(f"hybrid_rho must be in [0, 1], got {self.hybrid_rho}")
        _check_clip_hi(self.clip_hi)


@dataclass(frozen=True, kw_only=True)
class SynthConfig(_NoiseKnobs):
    """One synthesis draw: ISO/dgain point, noise source, output range."""

    iso: int
    dgain: float
    seed: int = 0

    def __post_init__(self):
        _check_iso("iso", self.iso)
        _check_finite("dgain", self.dgain, positive=True, error=DomainError)
        # SeedSequence takes integers only: 3.0 or NaN would fail there, later
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise DomainError(f"seed must be an integer >= 0, got {self.seed!r}")
        super().__post_init__()


def sample_shot(
    clean: np.ndarray,
    span: np.ndarray,
    params: NoiseParams,
    dgain: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample shot noise: DN_above_black = Poisson(e) * K with e = c*span/(dgain*K).

    ``clean`` holds normalized planes, and ``span`` broadcasts white - black
    to them.  Poisson counts are drawn exactly below ``_GAUSS_THRESHOLD``
    electrons and approximated by round(N(e, e)) clamped at zero above it.
    """
    c = np.asarray(clean, dtype=np.float64)
    if np.min(c) < 0:
        raise DomainError("clean image must be >= 0")
    electrons = c * span / (dgain * params.K)
    counts = np.empty_like(electrons)
    small = electrons < _GAUSS_THRESHOLD
    counts[small] = rng.poisson(electrons[small])
    big = ~small
    if np.any(big):
        e_big = electrons[big]
        counts[big] = np.maximum(np.rint(rng.normal(e_big, np.sqrt(e_big))), 0.0)
    return counts * params.K


def sample_parametric_read(
    shape: tuple[int, int, int],
    params: NoiseParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Signal-independent DN residual for a packed (4, H, W) shape.

    Pixel noise is N(0, sigma_read^2); banding is N(0, sigma_row^2) shared
    along each mosaic row (even rows feed the R/Gr planes, odd rows Gb/B);
    quantization is uniform dither over one quant step.  ``params`` switches
    them: a component whose sigma (or quant step) is zero draws nothing from
    ``rng`` and contributes exactly zero.
    """
    if len(shape) != 3 or shape[0] != 4:
        raise DimensionError(f"expected a packed (4, H, W) shape, got {shape}")
    _, h, w = shape
    res = np.zeros(shape, dtype=np.float64)
    if params.sigma_read > 0:
        res += rng.normal(0.0, params.sigma_read, shape)
    if params.sigma_row > 0:
        offsets = rng.normal(0.0, params.sigma_row, 2 * h)
        res[:2] += offsets[0::2, None]
        res[2:] += offsets[1::2, None]
    if params.quant_step > 0:
        half = params.quant_step / 2.0
        res += rng.uniform(-half, half, shape)
    return res


def sample_dark_patch(
    profile: SensorProfile,
    iso: int,
    shape: tuple[int, int, int],
    rng: np.random.Generator,
) -> np.ndarray:
    """Random crop of a random corrected dark residual from the ISO's library.

    Crop offsets are drawn in the packed domain, so the patch is always
    even-aligned on the mosaic and keeps CFA phase.
    """
    library = profile.dark_library.get(iso)
    if not library:
        raise ProfileError(f"dark library for ISO {iso} is empty")
    if len(shape) != 3 or shape[0] != 4:
        raise DimensionError(f"expected a packed (4, H, W) shape, got {shape}")
    _, h, w = shape
    idx = int(rng.integers(len(library)))
    planes = library[idx].channels
    lib_h, lib_w = planes.shape[1], planes.shape[2]
    if h > lib_h or w > lib_w:
        raise DimensionError(
            f"patch {h}x{w} larger than library frame {lib_h}x{lib_w}"
        )
    y0 = int(rng.integers(lib_h - h + 1))
    x0 = int(rng.integers(lib_w - w + 1))
    return planes[:, y0 : y0 + h, x0 : x0 + w].astype(np.float64)


def _rng_streams(seed: int) -> tuple[np.random.Generator, ...]:
    # Independent substreams for shot / signal-independent noise / branch
    # selection keep hybrid_rho=0 bit-identical to parametric mode and
    # rho=1 to dark_sample mode under the same seed.
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.default_rng(c) for c in children)


def synthesize_noisy(
    clean_norm: PackedImage,
    profile: SensorProfile,
    cfg: SynthConfig,
    clip: bool = True,
) -> PackedImage:
    """Full noisy-image synthesis for one clean patch.

    noisy = clamp(signal_norm + dgain * residual_DN / (white - black), 0, clip_hi)
    where signal_norm is the shot-noise draw mapped back to normalized units.
    ``clip=False`` skips the final clamp, exposing the pre-clip field for
    moment checks.
    """
    if clean_norm.space != SPACE_NORMALIZED:
        raise DomainError("synthesize_noisy expects a normalized clean image")
    params = profile.params_for(cfg.iso)
    shot_rng, noise_rng, select_rng = _rng_streams(cfg.seed)
    span = (profile.white_level - profile.black_level)[:, None, None]
    shape = clean_norm.channels.shape
    # a dgain that passes its own check can still overflow the electron or
    # residual terms; that must fail, not clip to a plausible 0/clip_hi patch
    try:
        with np.errstate(over="raise", invalid="raise"):
            shot = sample_shot(clean_norm.channels, span, params, cfg.dgain, shot_rng)
            signal_norm = cfg.dgain * shot / span
            if cfg.mode == "hybrid":
                use_dark = bool(select_rng.random() < cfg.hybrid_rho)
            else:
                use_dark = cfg.mode == "dark_sample"
            if use_dark:
                residual = sample_dark_patch(profile, cfg.iso, shape, noise_rng)
            else:
                residual = sample_parametric_read(shape, params, noise_rng)
            noisy = signal_norm + cfg.dgain * residual / span
    except FloatingPointError as exc:
        raise DomainError(
            f"dgain {cfg.dgain} at ISO {cfg.iso} overflows the synthesized image ({exc})"
        ) from exc
    if clip:
        noisy = np.clip(noisy, 0.0, cfg.clip_hi)
    return replace(
        clean_norm,
        channels=noisy,
        black_level=profile.black_level,
        white_level=profile.white_level,
        camera_id=profile.camera_id,
        iso=cfg.iso,
        clip_hi=cfg.clip_hi,
    )


@dataclass(frozen=True, kw_only=True)
class BatchConfig(_NoiseKnobs):
    """Preset ranges a training batch samples ISO/dgain points from.

    Exactly one of ``dgain_choices`` (discrete presets, e.g. the paired
    scenes' {100, 200}) or ``dgain_range`` (continuous uniform, e.g. the
    in-the-wild (10, 100)) must be given.
    """

    iso_choices: tuple[int, ...]
    dgain_choices: tuple[float, ...] | None = None
    dgain_range: tuple[float, float] | None = None

    def __post_init__(self):
        super().__post_init__()
        if not self.iso_choices:
            raise DomainError("iso_choices must be non-empty")
        for iso in self.iso_choices:
            _check_iso("iso_choices", iso)
        if (self.dgain_choices is None) == (self.dgain_range is None):
            raise DomainError("set exactly one of dgain_choices / dgain_range")
        name = "dgain_choices" if self.dgain_range is None else "dgain_range"
        dgains = getattr(self, name)
        if not len(dgains):
            raise DomainError(f"{name} must be non-empty")
        for dgain in dgains:
            _check_finite(name, dgain, positive=True, error=DomainError)
        if self.dgain_range is not None and not (len(dgains) == 2 and dgains[0] <= dgains[1]):
            raise DomainError(f"dgain_range must be (lo, hi) with lo <= hi, got {dgains}")


def make_pair_batch(
    clean_frames: list[RawFrame],
    profile: SensorProfile,
    sampler: BatchConfig,
    patch: int,
    patches_per_image: int,
    master_seed: int,
) -> list[tuple[PackedImage, PackedImage]]:
    """Draw (noisy, clean) patch pairs from clean mosaic frames.

    ``patch`` is the packed-plane side length (a 512 patch is a 512x512x4
    tensor).  Every frame is normalized and checked to fit the patch, in
    input order, before any patch is drawn, so a bad frame fails the call
    even when an earlier frame's patches would fail too.  Per-patch
    randomness is derived from
    SeedSequence(master_seed, spawn_key=(image_index, patch_index)), so the
    output is independent of execution order: each patch is a task that
    ``core._map`` runs on ``core._WORKERS`` threads, and the pairs come back
    in (image, patch) order.
    """
    if patch <= 0 or patch % 2:
        raise DimensionError(f"patch side must be even and > 0, got {patch}")
    if patches_per_image < 1:
        raise DomainError(f"patches_per_image must be >= 1, got {patches_per_image}")
    for iso in sampler.iso_choices:
        profile.params_for(iso)
    knobs = {f.name: getattr(sampler, f.name) for f in fields(_NoiseKnobs)}
    packed = []
    for i, frame in enumerate(clean_frames):
        planes = normalize(frame, clip_hi=sampler.clip_hi)
        h, w = planes.plane_height, planes.plane_width
        if patch > h or patch > w:
            raise DimensionError(
                f"patch {patch} does not fit image planes {h}x{w} (image {i})"
            )
        packed.append(planes)

    def draw(ij):
        planes = packed[ij[0]]
        h, w = planes.plane_height, planes.plane_width
        rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=ij))
        iso = int(sampler.iso_choices[rng.integers(len(sampler.iso_choices))])
        if sampler.dgain_choices is not None:
            dgain = float(sampler.dgain_choices[rng.integers(len(sampler.dgain_choices))])
        else:
            lo, hi = sampler.dgain_range
            dgain = float(rng.uniform(lo, hi))
        y0 = int(rng.integers(h - patch + 1))
        x0 = int(rng.integers(w - patch + 1))
        clean_patch = replace(
            planes,
            channels=planes.channels[:, y0 : y0 + patch, x0 : x0 + patch],
        )
        seed = int(rng.integers(np.iinfo(np.int64).max))
        cfg = SynthConfig(iso=iso, dgain=dgain, seed=seed, **knobs)
        return synthesize_noisy(clean_patch, profile, cfg), clean_patch

    return core._map(draw, product(range(len(packed)), range(patches_per_image)), core._WORKERS)
