"""The challenge protocol's fixed values are constants, not arguments.

SSIM's window and constants, PSNR's peak, the ISP's (identity) color
matrix, the denoiser's block step, the MAC convention, the profile's
quantization step and the synthesis noise components each have one value.
Passing one of the keywords that used to change them is a TypeError, so a
caller cannot score, render, budget or synthesize off-protocol by accident.
"""

import numpy as np
import pytest

from rawbench import budget, calibration, denoise, isp, metrics, synth
from rawbench.core import PackedImage, SPACE_NORMALIZED

from conftest import BLACK, WHITE, make_frame


def _img():
    return PackedImage(channels=np.full((4, 12, 12), 0.5), space=SPACE_NORMALIZED,
                       black_level=BLACK, white_level=WHITE)


def _profile(kw):
    rng = np.random.default_rng(0)
    darks = {800: [make_frame(rng.normal(512.0, 3.0, (8, 8))) for _ in range(2)]}
    return calibration.build_profile("camA", [800], darks, provided_gains={800: 0.8}, **kw)


REMOVED = {
    "ssim-window": (lambda kw: metrics.ssim(_img(), _img(), **kw), "window", 7),
    "psnr-peak": (lambda kw: metrics.psnr(_img(), _img(), **kw), "peak", 2.0),
    "srgb_gamma-strict": (lambda kw: isp.srgb_gamma(0.5, **kw), "strict", True),
    "IspConfig-ccm": (lambda kw: isp.IspConfig(**kw), "ccm", np.eye(3)),
    "DenoiseConfig-stride": (lambda kw: denoise.DenoiseConfig(**kw), "stride", 4),
    "dct8_shrink-stride": (lambda kw: denoise.dct8_shrink(np.ones((8, 8)), 1.0, **kw),
                           "stride", 4),
    "count_macs-flops": (lambda kw: budget.count_macs([budget.LayerSpec("conv2d", 4, 4)], **kw),
                         "flops", True),
    "build_profile-quant_step": (_profile, "quant_step", 1.0),
    "SynthConfig-frame_sigma": (lambda kw: synth.SynthConfig(iso=800, dgain=1.0, **kw),
                                "frame_sigma", 0.0),
}


@pytest.mark.parametrize("call, name, value", REMOVED.values(), ids=REMOVED.keys())
def test_removed_keyword_is_a_type_error(call, name, value):
    call({})  # the same call without the keyword is valid
    with pytest.raises(TypeError, match=name):
        call({name: value})
