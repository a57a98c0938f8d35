"""Sensor calibration from synthetic dark frames and photon-transfer flats.

Generates darks with known shading, banding, and read noise, then runs the
full estimation chain and compares against the ground truth.
"""

import tempfile
from pathlib import Path

import numpy as np

from rawbench import (
    RawFrame,
    Roi,
    build_profile,
    estimate_system_gain,
    load_profile,
    save_profile,
)

rng = np.random.default_rng(0)
TRUE = {"sigma_read": 5.0, "sigma_row": 2.0, "K": 0.8}

# Dark shading: black pedestal plus a slow spatial wave (dark current).
yy, xx = np.mgrid[0:256, 0:256]
shading = 512.0 + 4.0 * np.sin(yy / 40.0) * np.cos(xx / 55.0)

darks = []
for _ in range(16):
    noise = rng.normal(0, TRUE["sigma_row"], 256)[:, None] \
        + rng.normal(0, TRUE["sigma_read"], (256, 256))
    darks.append(RawFrame(data=(shading + noise).clip(0), black_level=512.0,
                          white_level=16383.0, camera_id="demo-cam", iso=800))

profile = build_profile("demo-cam", [800], {800: darks},
                        provided_gains={800: TRUE["K"]}, roi=Roi(0, 0, 256, 256))
params = profile.iso_params[800]
print(f"sigma_read: estimated {params.sigma_read:.3f} vs true {TRUE['sigma_read']}")
print(f"sigma_row:  estimated {params.sigma_row:.3f} vs true {TRUE['sigma_row']}")
print(f"dark library holds {len(profile.dark_library[800])} corrected residuals")

# Photon-transfer curve: variance vs mean of flat exposures is a line with
# slope K.  Here the flats are ideal Poisson draws.
points = []
for electrons in np.linspace(50, 4000, 10):
    flat = TRUE["K"] * rng.poisson(electrons, 200_000)
    points.append((float(flat.mean()), float(flat.var())))
K_est, floor = estimate_system_gain(points)
print(f"\nphoton-transfer fit: K = {K_est:.4f} (true {TRUE['K']}), floor = {floor:.2f} DN^2")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "profile.json"
    save_profile(profile, path)
    reloaded = load_profile(path)
    print(f"\nprofile JSON round trip: K preserved exactly ->",
          reloaded.iso_params[800].K == params.K)
    print("sidecar files written:", len(list(Path(tmp).glob("*.rawb"))))
