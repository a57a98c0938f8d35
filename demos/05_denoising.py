"""The classical baseline denoiser on a synthetic low-light scene.

Pipeline: stabilize the noise (GAT), slide an 8x8 DCT with a hard
threshold, invert the transform.  On a smooth chart at dgain 100 this
recovers double-digit dB over the noisy input.
"""

import time

import numpy as np

from rawbench import NoiseParams, PackedImage, Roi, SensorProfile, psnr, ssim
from rawbench.core import SPACE_NORMALIZED
from rawbench.denoise import DenoiseConfig, denoise_raw, effective_pg_params
from rawbench.synth import SynthConfig, synthesize_noisy

BLACK = np.full(4, 512.0)
WHITE = 16383.0

profile = SensorProfile(
    camera_id="demo-cam", black_level=BLACK, white_level=WHITE,
    effective_roi=Roi(0, 0, 256, 256),
    iso_params={800: NoiseParams(K=0.8, sigma_read=4.0, sigma_row=0.0, quant_step=0.0)},
    dark_shading={}, dark_library={800: []},
)

side = 256
yy, xx = np.meshgrid(np.linspace(0, 1, side), np.linspace(0, 1, side), indexing="ij")
chart = 0.08 + 0.4 * (0.5 + 0.5 * np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy))
clean = PackedImage(channels=np.stack([chart] * 4), space=SPACE_NORMALIZED,
                    black_level=BLACK, white_level=WHITE, iso=800)

noisy = synthesize_noisy(clean, profile,
                         SynthConfig(iso=800, dgain=100.0, row=False, quant=False, seed=3))
pg = effective_pg_params(profile.iso_params[800], dgain=100.0)
print(f"effective DN-domain parameters after dgain: K'={pg.K:.1f}, sigma'={pg.sigma:.1f}")

for transform in ("gat", "ksigma"):
    t0 = time.perf_counter()
    den = denoise_raw(noisy, pg, DenoiseConfig(transform=transform))
    dt = time.perf_counter() - t0
    print(f"{transform:7s}: PSNR {psnr(noisy, clean):.2f} -> {psnr(den, clean):.2f} dB, "
          f"SSIM {ssim(noisy, clean):.4f} -> {ssim(den, clean):.4f}  ({dt:.2f}s)")

# kSigma normalizes the data to a variance-equals-mean mapping rather than to
# unit variance, so the fixed unit threshold barely fires there; it exists for
# pipelines trained on that mapping.  GAT is the right choice for this
# classical thresholding denoiser.
#
# Each 256x256 plane above was shrunk in cores of at most 224 pixels.  Cores
# start on multiples of the block period and carry a one-period halo, so the
# result is exactly that of a single pass; the cores only bound the working
# set, and there is no setting for them.
