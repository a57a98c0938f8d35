"""The challenge protocol's fixed values are constants, not arguments.

SSIM's window and constants, PSNR's peak, the ISP's (identity) color
matrix, the denoiser's block step, the MAC convention, the profile's
quantization step and the synthesis noise components each have one value
(the components are the sensor profile's to switch).  Packing always tags
DN, the rank table always ranks exactly its complete categories, and the
RGGB phase order is sliced in one place.
Passing one of the keywords that used to change them is a TypeError, so a
caller cannot score, render, budget or synthesize off-protocol by accident.
Each concept has one source: budget totals come from ``build_report``, the
denoiser's core side from ``denoise._CORE`` and the scoring phases from
``metrics._CROP_SIDES``, and the package's count of settable values is
pinned.
"""

import argparse
import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import rawbench
from rawbench import budget, calibration, cli, core, denoise, harness, isp, metrics, ranking, synth
from rawbench.calibration import NoiseParams
from rawbench.core import PackedImage, SPACE_DN_ABOVE_BLACK, SPACE_NORMALIZED, pack_rggb

from conftest import BLACK, WHITE, make_frame


def _img():
    return PackedImage(channels=np.full((4, 12, 12), 0.5), space=SPACE_NORMALIZED,
                       black_level=BLACK, white_level=WHITE)


def _profile(kw):
    rng = np.random.default_rng(0)
    darks = {800: [make_frame(rng.normal(512.0, 3.0, (8, 8))) for _ in range(2)]}
    return calibration.build_profile("camA", [800], darks, provided_gains={800: 0.8}, **kw)


_TOGGLES = ("shot", "read", "row", "quant")

REMOVED = {
    "ssim-window": (lambda kw: metrics.ssim(_img(), _img(), **kw), "window", 7),
    "psnr-peak": (lambda kw: metrics.psnr(_img(), _img(), **kw), "peak", 2.0),
    "srgb_gamma-strict": (lambda kw: isp.srgb_gamma(0.5, **kw), "strict", True),
    "IspConfig-ccm": (lambda kw: isp.IspConfig(**kw), "ccm", np.eye(3)),
    "DenoiseConfig-stride": (lambda kw: denoise.DenoiseConfig(**kw), "stride", 4),
    "dct8_shrink-stride": (lambda kw: denoise.dct8_shrink(np.ones((8, 8)), 1.0, **kw),
                           "stride", 4),
    "build_report-flops": (lambda kw: budget.build_report([budget.LayerSpec("conv2d", 4, 4)], **kw),
                           "flops", True),
    "build_profile-quant_step": (_profile, "quant_step", 1.0),
    "SynthConfig-frame_sigma": (lambda kw: synth.SynthConfig(iso=800, dgain=1.0, **kw),
                                "frame_sigma", 0.0),
    **{f"SynthConfig-{name}": (lambda kw: synth.SynthConfig(iso=800, dgain=1.0, **kw),
                               name, False)
       for name in _TOGGLES},
    **{f"BatchConfig-{name}": (lambda kw: synth.BatchConfig(iso_choices=(800,),
                                                            dgain_choices=(1.0,), **kw),
                               name, False)
       for name in _TOGGLES},
    "sample_parametric_read-knobs": (
        lambda kw: synth.sample_parametric_read((4, 2, 2), NoiseParams(1.0, 1.0, 1.0, 1.0),
                                                np.random.default_rng(0), **kw),
        "knobs", None),
    "pack_rggb-space": (lambda kw: pack_rggb(make_frame(np.zeros((4, 4))), **kw),
                        "space", SPACE_DN_ABOVE_BLACK),
    "final_table-categories": (
        lambda kw: ranking.final_table([ranking.MetricRecord("solo", psnr=40.0)], **kw),
        "categories", ("overall",)),
}


@pytest.mark.parametrize("call, name, value", REMOVED.values(), ids=REMOVED.keys())
def test_removed_keyword_is_a_type_error(call, name, value):
    call({})  # the same call without the keyword is valid
    with pytest.raises(TypeError, match=name):
        call({name: value})


_CFA_SLICE_PAIR = re.compile(r"\[\s*[01]::2\s*,\s*[01]::2\s*\]")


def test_cfa_phases_are_sliced_only_in_rggb_views():
    # one code path for the RGGB phase order: every split, interleave and
    # normalization of a mosaic goes through core._rggb_views
    package = Path(rawbench.__file__).parent
    hits = {path.name: len(_CFA_SLICE_PAIR.findall(path.read_text(encoding="utf-8")))
            for path in package.glob("*.py")}
    assert len(_CFA_SLICE_PAIR.findall(inspect.getsource(core._rggb_views))) == 4
    assert {name: n for name, n in hits.items() if n} == {"core.py": 4}


def test_center_crop_is_gone():
    # the crop protocol crops the mosaic (core.crop_frame)
    assert not hasattr(rawbench, "center_crop")
    assert not hasattr(core, "center_crop")
    assert not hasattr(metrics, "center_crop") and not hasattr(metrics, "pack_rggb")


PACKAGE = Path(rawbench.__file__).parent


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_settable_value_count():
    # Function parameters with a default plus dataclass fields with a default,
    # over the package's modules.  A class's fields are counted in its own
    # body only, so fields a dataclass inherits are counted once, in the base.
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
    assert count == 63


def test_second_paths_are_gone():
    # budget totals come only from build_report; the core side only from _CORE
    for module, name in ((budget, "count_params"), (budget, "count_macs"),
                         (rawbench, "count_params"), (rawbench, "count_macs"),
                         (denoise, "_denoise_cores")):
        assert not hasattr(module, name), name


def test_load_manifest_takes_no_profile(tmp_path):
    # scoring needs no sensor profile, and harness imports nothing from calibration
    path = tmp_path / "m.json"
    path.write_text('{"phase": "final", "entries": []}')
    assert harness.load_manifest(path).phase == "final"
    with pytest.raises(TypeError, match="profile"):
        harness.load_manifest(path, profile=None)
    tree = ast.parse(inspect.getsource(harness))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "calibration" not in imported


def test_phase_list_is_written_once():
    # the crop table's keys are the phases: every list of them derives from it
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            items = node.keys if isinstance(node, ast.Dict) else getattr(node, "elts", ())
            if isinstance(node, (ast.Dict, ast.Tuple, ast.List, ast.Set)) and {"dev", "final"} <= {
                    item.value for item in items if isinstance(item, ast.Constant)}:
                hits.append(path.name)
    assert hits == ["metrics.py"]
    assert harness._PHASES == tuple(metrics._CROP_SIDES) == ("dev", "final")
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    phase = next(a for a in sub.choices["eval"]._actions if a.dest == "phase")
    assert tuple(phase.choices) == harness._PHASES
