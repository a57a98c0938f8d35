"""Shared fixtures: benchmark leaderboard rows, tiny frame builders."""

from dataclasses import replace

import numpy as np
import pytest

from rawbench import denoise
from rawbench.calibration import NoiseParams, SensorProfile
from rawbench.core import RawFrame, Roi
from rawbench.ranking import MetricRecord

# Published benchmark rows: team -> (psnr, ssim, lpips, arniqa, topiq),
# plus the printed fidelity/perceptual positions used as ground truth.
TABLE1 = {
    "MR-CAS": (41.90, 0.9633, 0.2314, 0.4615, 0.2584),
    "IPIU-LAB": (41.59, 0.9621, 0.2426, 0.4698, 0.2619),
    "VMCL-ISP": (41.15, 0.9585, 0.2443, 0.4631, 0.2671),
    "HIT-IIL": (41.52, 0.9605, 0.2295, 0.4374, 0.2540),
    "DIPLab": (41.23, 0.9592, 0.2182, 0.4227, 0.2567),
    "MSA-Net": (41.13, 0.9596, 0.2523, 0.4680, 0.2576),
    "MS-Unet": (40.82, 0.9581, 0.2506, 0.4684, 0.2463),
}
FIDELITY_POSITIONS = {
    "MR-CAS": 1, "IPIU-LAB": 2, "HIT-IIL": 3, "DIPLab": 4,
    "MSA-Net": 5, "VMCL-ISP": 6, "MS-Unet": 7,
}
PERCEPTUAL_POSITIONS = {
    "IPIU-LAB": 1, "VMCL-ISP": 2, "MR-CAS": 3, "DIPLab": 4,
    "MSA-Net": 5, "HIT-IIL": 6, "MS-Unet": 7,
}


@pytest.fixture
def table1_records():
    return [
        MetricRecord(team=t, psnr=v[0], ssim=v[1], lpips=v[2], arniqa=v[3], topiq=v[4])
        for t, v in TABLE1.items()
    ]


BLACK = np.full(4, 512.0)
WHITE = 16383.0


def make_frame(data, iso=800, camera="camA", black=None, white=WHITE):
    return RawFrame(
        data=np.asarray(data),
        black_level=BLACK if black is None else black,
        white_level=white,
        camera_id=camera,
        iso=iso,
    )


def make_profile(K=0.8, sigma_read=4.0, sigma_row=2.0, quant_step=1.0, isos=(800,)):
    return SensorProfile(
        camera_id="camA",
        black_level=BLACK,
        white_level=WHITE,
        effective_roi=Roi(0, 0, 64, 64),
        iso_params={
            iso: NoiseParams(K=K, sigma_read=sigma_read, sigma_row=sigma_row, quant_step=quant_step)
            for iso in isos
        },
        dark_library={iso: [] for iso in isos},
    )


def with_library(profile, library):
    """``profile`` with the dark library ``library`` ({iso: residual images}):
    each image cast to float32, as a profile holds it, and the ROI set to the
    one its planes cover."""
    first = next(img for images in library.values() for img in images)
    return replace(profile, effective_roi=Roi(0, 0, 2 * first.plane_width, 2 * first.plane_height),
                   dark_library={iso: [replace(img, channels=img.channels.astype(np.float32))
                                       for img in images] for iso, images in library.items()})


def patch_core(monkeypatch, core):
    """Make ``denoise_raw`` work in cores of side ``core`` (``denoise._CORE``).

    Returns a list that gets the shape of every patch ``dct8_shrink`` sees,
    so a test can see the patch bite: a core of side ``step`` (``core``
    rounded down to the 8-pixel period) gives patches of at most
    ``step + 16`` per side, one per channel and core."""
    shapes = []
    shrink = denoise.dct8_shrink

    def recording_shrink(plane, *args):
        shapes.append(plane.shape)
        return shrink(plane, *args)

    monkeypatch.setattr(denoise, "_CORE", core)
    monkeypatch.setattr(denoise, "dct8_shrink", recording_shrink)
    return shapes


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if "test_acceptance" in report.nodeid and report.when == "call":
        name = report.nodeid.split("::")[-1]
        print(f"\nACCEPTANCE {name}: {'PASS' if report.passed else 'FAIL'}")
