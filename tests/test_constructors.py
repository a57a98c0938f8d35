"""Every public constructor rejects a non-finite number in any numeric field.

Numeric settings go through one rule (``core._check_finite``, and the ISO
rule ``core._check_iso`` built on it), so NaN, inf or -inf in a scalar, in
one element of a tuple of settings or in one element of an image's float
data raises a ``RawBenchError`` instead of becoming a plausible wrong
number later.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rawbench.budget import LayerSpec
from rawbench.calibration import NoiseParams
from rawbench.core import PackedImage, RawFrame, Roi, SPACE_NORMALIZED
from rawbench.denoise import DenoiseConfig
from rawbench.errors import DomainError, RawBenchError
from rawbench.isp import IspConfig
from rawbench.synth import BatchConfig, SynthConfig
from rawbench.transforms import PgParams

# One valid call per constructor; every value that is not a string is a
# numeric field (scalars, tuples of settings, float image data).
VALID = [
    (RawFrame, dict(data=np.zeros((2, 4), np.float32), black_level=[0.0, 1.0, 2.0, 3.0],
                    white_level=100.0, iso=800, exposure_s=0.01)),
    (PackedImage, dict(channels=np.zeros((4, 2, 2)), space=SPACE_NORMALIZED,
                       black_level=[0.0] * 4, white_level=100.0, iso=800, exposure_s=0.01,
                       clip_hi=1.0)),
    (Roi, dict(x0=0, y0=2, w=2, h=4)),
    (PgParams, dict(K=1.0, sigma=1.0)),
    (NoiseParams, dict(K=1.0, sigma_read=1.0, sigma_row=1.0, quant_step=1.0)),
    (SynthConfig, dict(iso=800, dgain=1.0, seed=0, hybrid_rho=0.5, clip_hi=1.0)),
    (BatchConfig, dict(iso_choices=(800, 1600), dgain_choices=(1.0, 2.0), hybrid_rho=0.5,
                       clip_hi=1.0)),
    (BatchConfig, dict(iso_choices=(800,), dgain_range=(1.0, 2.0))),
    (DenoiseConfig, dict(transform="none", threshold_mult=3.0, sigma_dn=1.0)),
    (IspConfig, dict(wb=(1.0, 2.0, 1.5))),
    (LayerSpec, dict(kind="conv2d", in_ch=4, out_ch=8, kernel=3, stride=1, period_n=2)),
]
CASES = {}
for ctor, kwargs in VALID:
    for name, value in kwargs.items():
        if not isinstance(value, str):
            CASES.setdefault(f"{ctor.__name__}-{name}", (ctor, kwargs, name))


def _frame(**meta):
    return RawFrame(data=np.zeros((2, 2), np.uint16), black_level=0.0, white_level=100.0, **meta)


def _with_bad(value, bad, where):
    """``value`` with ``bad`` in its place, or at one element of a sequence or array."""
    if isinstance(value, np.ndarray):
        value = value.copy()
        value.flat[where % value.size] = bad
        return value
    if isinstance(value, (tuple, list)):
        items = list(value)
        items[where % len(items)] = bad
        return type(value)(items)
    return bad


@pytest.mark.parametrize("ctor, kwargs, name", CASES.values(), ids=CASES.keys())
@settings(max_examples=12, deadline=None)
@given(bad=st.sampled_from([np.nan, np.inf, -np.inf]), where=st.integers(0, 15))
def test_non_finite_numeric_field_raises(ctor, kwargs, name, bad, where):
    ctor(**kwargs)  # the call is valid as given
    with pytest.raises(RawBenchError):
        ctor(**{**kwargs, name: _with_bad(kwargs[name], bad, where)})


@pytest.mark.parametrize("iso", [800.5, -1, -0.5])
def test_iso_must_be_a_whole_number_at_least_zero(iso):
    with pytest.raises(DomainError, match="iso"):
        _frame(iso=iso)
    with pytest.raises(DomainError, match="iso"):
        SynthConfig(iso=iso, dgain=1.0)
    with pytest.raises(DomainError, match="iso_choices"):
        BatchConfig(iso_choices=(800, iso), dgain_choices=(1.0,))


def test_iso_is_stored_as_an_int():
    for iso in (800.0, np.int64(800), np.float32(800)):
        frame = _frame(iso=iso)
        assert type(frame.iso) is int and frame.iso == 800


@pytest.mark.parametrize("seed", [-1, 3.0, "7", None])
def test_synth_seed_must_be_an_integer_at_least_zero(seed):
    with pytest.raises(DomainError, match="seed"):
        SynthConfig(iso=800, dgain=1.0, seed=seed)


def test_exposure_may_be_zero_or_absent():
    assert _frame(exposure_s=0.0).exposure_s == 0.0
    assert _frame().exposure_s is None
    with pytest.raises(DomainError, match="exposure_s"):
        _frame(exposure_s=-1.0)
