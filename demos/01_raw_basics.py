"""Bayer RAW fundamentals: packing, normalization, cropping, RAWB files.

Walks a tiny mosaic through the core data model and shows that every
step is exactly invertible.
"""

import tempfile
from pathlib import Path

import numpy as np

from rawbench import (
    RawFrame,
    Roi,
    crop_frame,
    denormalize,
    normalize,
    pack_rggb,
    read_frame,
    unpack_rggb,
    write_frame,
)

# A 6x6 mosaic with a recognizable gradient, 14-bit levels.
data = (512 + np.arange(36).reshape(6, 6) * 400).astype(np.uint16)
frame = RawFrame(data=data, black_level=512.0, white_level=16383.0,
                 camera_id="demo-cam", iso=800)
print("mosaic:\n", frame.data)

packed = pack_rggb(frame)
print("\nR plane (every (2i, 2j) site):\n", packed.channels[0])
print("B plane (every (2i+1, 2j+1) site):\n", packed.channels[3])

restored = unpack_rggb(packed)
print("\npack -> unpack reproduces the mosaic:",
      np.array_equal(restored.data, frame.data))

norm = normalize(packed)
print("\nnormalized range: [%.4f, %.4f]" % (norm.channels.min(), norm.channels.max()))
back = denormalize(norm)
print("normalize -> denormalize max error:",
      float(np.abs(back.channels - packed.channels).max()))

# Crops are taken on the mosaic at even offsets, so the CFA phase is kept:
# the centred 2x2 of the 3x3 planes starts at the floor-rounded offset
# (3 - 2) // 2 = 0, which is mosaic offset 0.
side = 2
y0, x0 = (packed.plane_height - side) // 2, (packed.plane_width - side) // 2
crop = normalize(crop_frame(frame, Roi(x0=2 * x0, y0=2 * y0, w=2 * side, h=2 * side)))
print("\ncenter crop to 2x2 planes, R plane:\n", crop.channels[0])
print("equals the normalized planes' center crop:",
      np.array_equal(crop.channels, norm.channels[:, y0 : y0 + side, x0 : x0 + side]))

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "frame.rawb"
    write_frame(frame, path)
    again = read_frame(path)
    print("\nRAWB round trip bit-exact:",
          again.data.tobytes() == frame.data.tobytes(),
          f"({path.stat().st_size} bytes on disk)")
