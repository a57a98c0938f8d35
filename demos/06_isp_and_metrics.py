"""Rendering RAW to sRGB and scoring in the RAW domain.

The ISP doubles the packed resolution (4 x H x W -> 2H x 2W x 3), while
PSNR/SSIM are computed directly on the Bayer tensors with the benchmark's
center-crop protocol.
"""

import tempfile
from pathlib import Path

import numpy as np

from rawbench import RawFrame, evaluate_pair, normalize
from rawbench.isp import IspConfig, run_isp, srgb_gamma, write_ppm16

rng = np.random.default_rng(0)

# A color-cast flat field: strong red deficit, blue excess.
mosaic = np.empty((32, 32))
mosaic[0::2, 0::2] = 2000.0   # R sites
mosaic[0::2, 1::2] = 6000.0   # Gr
mosaic[1::2, 0::2] = 6000.0   # Gb
mosaic[1::2, 1::2] = 9000.0   # B
frame = RawFrame(data=mosaic + 512, black_level=512.0, white_level=16383.0,
                 camera_id="demo-cam", iso=800)
img = normalize(frame)

rgb_raw = run_isp(img, IspConfig(wb=(1.0, 1.0, 1.0), gamma="none"))
rgb_wb = run_isp(img, IspConfig(wb="gray_world", gamma="none"))
print("mean RGB without white balance:", rgb_raw.reshape(-1, 3).mean(axis=0).round(4))
print("mean RGB with gray-world WB:   ", rgb_wb.reshape(-1, 3).mean(axis=0).round(4))
print("output shape:", rgb_wb.shape, "(double the packed plane size, 3 channels)")
print("sRGB gamma at 18% gray:", float(srgb_gamma(0.18)).__round__(4))

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "render.ppm"
    write_ppm16(run_isp(img), out)
    print("wrote 16-bit PPM:", out.stat().st_size, "bytes")

# RAW-domain metrics with the benchmark crop protocol (512 in dev phase).
gt = rng.integers(2000, 14000, (1100, 1100)).astype(np.uint16)
pred = np.clip(gt + rng.normal(0, 120, gt.shape), 0, 16383).astype(np.uint16)
res = evaluate_pair(
    RawFrame(data=pred, black_level=512.0, white_level=16383.0, iso=800),
    RawFrame(data=gt, black_level=512.0, white_level=16383.0, iso=800),
    phase="dev",
)
print(f"\nevaluate_pair (dev phase, centre 512x512 of each plane): PSNR {res.psnr:.2f} dB, "
      f"SSIM {res.ssim:.4f}")
