"""Shared fixtures: benchmark leaderboard rows, tiny frame builders."""

import numpy as np
import pytest

from rawbench import denoise
from rawbench.calibration import NoiseParams, SensorProfile
from rawbench.core import RawFrame, Roi
from rawbench.denoise import _denoise_cores
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
        dark_shading={},
        dark_library={iso: [] for iso in isos},
    )


def patch_core(monkeypatch, core):
    """Make ``denoise_raw`` work in cores of side ``core``.  Returns a list
    that gets the core side once per call, so a test can see the patch bite."""
    calls = []

    def cores(*args):
        calls.append(core)
        return _denoise_cores(*args, core=core)

    monkeypatch.setattr(denoise, "_denoise_cores", cores)
    return calls


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if "test_acceptance" in report.nodeid and report.when == "call":
        name = report.nodeid.split("::")[-1]
        print(f"\nACCEPTANCE {name}: {'PASS' if report.passed else 'FAIL'}")
