"""Physics-based noisy/clean pair synthesis and its moment law.

Synthesizes low-light noise on a flat field and verifies that the
empirical mean and variance match the analytic Poisson-Gaussian
prediction, then shows the parametric / dark-sample / hybrid modes.
"""

from dataclasses import replace

import numpy as np

from rawbench import NoiseParams, PackedImage, SensorProfile, Roi
from rawbench.calibration import correct_dark_frame
from rawbench.core import RawFrame, SPACE_NORMALIZED
from rawbench.synth import BatchConfig, SynthConfig, make_pair_batch, synthesize_noisy

rng = np.random.default_rng(0)
BLACK = np.full(4, 512.0)
WHITE = 16383.0
SPAN = WHITE - 512.0

profile = SensorProfile(
    camera_id="demo-cam", black_level=BLACK, white_level=WHITE,
    effective_roi=Roi(0, 0, 128, 128),
    iso_params={800: NoiseParams(K=0.8, sigma_read=4.0, sigma_row=2.0, quant_step=1.0)},
    dark_library={800: []},
)

clean_v, dgain = 0.25, 100.0
clean = PackedImage(channels=np.full((4, 400, 400), clean_v), space=SPACE_NORMALIZED,
                    black_level=BLACK, white_level=WHITE)
noisy = synthesize_noisy(clean, profile, SynthConfig(iso=800, dgain=dgain, seed=1),
                         clip=False)

mu_dn = clean_v * SPAN / dgain
p = profile.iso_params[800]
pred_var = dgain**2 * (p.K * mu_dn + p.sigma_read**2 + p.sigma_row**2
                       + p.quant_step**2 / 12) / SPAN**2
print(f"brightness alignment: mean {noisy.channels.mean():.5f} vs clean {clean_v}")
print(f"variance law: empirical {noisy.channels.var():.3e} vs predicted {pred_var:.3e}")

# Hybrid mode: per image, real dark patches replace the parametric draw with
# probability rho.  Give the profile a one-frame library to sample from: a
# float32 residual of the profile's camera, over an ROI the size of the dark.
dark = RawFrame(data=(512.0 + rng.normal(0, 4, (800, 800))).clip(0),
                black_level=BLACK, white_level=WHITE, camera_id="demo-cam", iso=800)
residual = correct_dark_frame(dark, np.full((800, 800), 512.0))
residual = replace(residual, channels=residual.channels.astype(np.float32))
profile = replace(profile, effective_roi=Roi(0, 0, 800, 800), dark_library={800: [residual]})

for mode, rho in (("parametric", 0.0), ("dark_sample", 0.0), ("hybrid", 0.5)):
    cfg = SynthConfig(iso=800, dgain=dgain, mode=mode, hybrid_rho=rho, seed=7)
    out = synthesize_noisy(clean, profile, cfg)
    print(f"mode={mode:12s} output std {out.channels.std():.5f}")

# Training batches: per-patch ISO/dgain presets, deterministic in the master
# seed regardless of execution order.
frames = [RawFrame(data=rng.integers(512, 16000, (128, 128)).astype(np.uint16),
                   black_level=BLACK, white_level=WHITE, iso=800) for _ in range(2)]
sampler = BatchConfig(iso_choices=(800,), dgain_range=(10.0, 100.0), mode="hybrid")
pairs = make_pair_batch(frames, profile, sampler, patch=32, patches_per_image=8,
                        master_seed=123)
print(f"\nbatch: {len(pairs)} (noisy, clean) pairs of {pairs[0][0].channels.shape}")
again = make_pair_batch(frames, profile, sampler, patch=32, patches_per_image=8,
                        master_seed=123)
identical = all(np.array_equal(a[0].channels, b[0].channels) for a, b in zip(pairs, again))
print("re-run with the same master seed is bit-identical:", identical)
