"""The challenge protocol's fixed values are constants, not arguments.

SSIM's window and constants, PSNR's peak, the ISP's (identity) color
matrix, the denoiser's block step, the MAC convention, the profile's
quantization step and the synthesis noise components each have one value
(the components are the sensor profile's to switch).  Packing always tags
DN, the rank table always ranks exactly its complete categories, and the
RGGB phase order is sliced in one place.
Passing one of the keywords that used to change them is a TypeError, so a
caller cannot score, render, budget or synthesize off-protocol by accident.
Each concept has one source: budget totals come from ``build_report``, read
noise and library residuals from ``calibration.build_profile``, the
denoiser's core side from ``denoise._CORE`` and the scoring phases from
``metrics._CROP_SIDES``, the thread count from ``core._map``, the
value-space precondition from ``core._check_space`` and the check of a named
option from ``core._check_choice``.  The package's count of settable values
is pinned, no module imports a name it never uses, and a sensor profile's
images are set only through its constructor, where the sidecar rule runs.
"""

import argparse
import ast
import csv
import inspect
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rawbench
from rawbench import budget, calibration, cli, core, denoise, harness, isp, metrics, ranking, synth
from rawbench.calibration import NoiseParams
from rawbench.core import PackedImage, SPACE_DN, SPACE_DN_ABOVE_BLACK, SPACE_NORMALIZED, pack_rggb
from rawbench.errors import DataError, DomainError, FormatError, ManifestError, SpecError
from rawbench.transforms import PgParams

from conftest import BLACK, WHITE, make_frame, make_profile


def _img():
    return PackedImage(channels=np.full((4, 12, 12), 0.5), space=SPACE_NORMALIZED,
                       black_level=BLACK, white_level=WHITE)


def _profile(kw):
    rng = np.random.default_rng(0)
    darks = {800: [make_frame(rng.normal(512.0, 3.0, (8, 8))) for _ in range(2)]}
    return calibration.build_profile("camA", [800], darks, provided_gains={800: 0.8}, **kw)


def _empty_manifest(kw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        path.write_text('{"phase": "final", "entries": []}')
        return harness.load_manifest(path, **kw)


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
    # a profile stores no dark-shading map: nothing read it
    "SensorProfile-dark_shading": (
        lambda kw: calibration.SensorProfile("camA", BLACK, WHITE, core.Roi(0, 0, 8, 8), **kw),
        "dark_shading", {}),
    "replace-SensorProfile-dark_shading": (lambda kw: replace(make_profile(), **kw),
                                           "dark_shading", {}),
    # score_pairs checks every ground truth, so a manifest needs no eager check
    "load_manifest-strict": (_empty_manifest, "strict", True),
    # synthesis always clamps to [0, clip_hi]: only moment-law tests skipped it
    "synthesize_noisy-clip": (lambda kw: synth.synthesize_noisy(
        _img(), make_profile(), synth.SynthConfig(iso=800, dgain=1.0), **kw), "clip", False),
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
    assert count == 57


def test_second_paths_are_gone():
    # budget totals come only from build_report; the core side only from
    # _CORE; the ISP demosaics the planes, never a rebuilt mosaic; read
    # noise and library residuals come only from build_profile
    for module, name in ((budget, "count_params"), (budget, "count_macs"),
                         (rawbench, "count_params"), (rawbench, "count_macs"),
                         (denoise, "_denoise_cores"), (isp, "_demosaic_bilinear"),
                         (isp, "interleave_rggb"),
                         (calibration, "correct_dark_frame"), (rawbench, "correct_dark_frame"),
                         (calibration, "estimate_read_noise"), (rawbench, "estimate_read_noise"),
                         (calibration, "estimate_dark_shading"),
                         (rawbench, "estimate_dark_shading")):
        assert not hasattr(module, name), name


def test_profile_images_are_set_only_through_the_constructor():
    # the sidecar rule runs in SensorProfile's constructor: no code in the
    # package, the tests or the demos writes into a profile's image dicts
    root = PACKAGE.parents[1]
    hits = []
    for path in sorted([*PACKAGE.glob("*.py"), *(root / "tests").glob("*.py"),
                        *(root / "demos").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                       else [])
            hits += [f"{path.name}:{node.lineno}" for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Attribute)
                     and n.value.attr == "dark_library"]
    assert hits == []


# a frame's fields that the dark-set rule compares between darks
_DARK_FIELDS = {"camera_id", "black_level", "white_level"}


def _reads_a_frame_field(node) -> bool:
    """``node`` reads a frame's camera, levels or ``.data.shape`` (a
    ``getattr`` reads a field by name), other than the profile's own."""
    for n in ast.walk(node):
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "getattr":
            return True
        if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) != "self" and (
                n.attr in _DARK_FIELDS or (n.attr == "shape" and isinstance(n.value, ast.Attribute)
                                           and n.value.attr == "data")):
            return True
    return False


def test_only_check_darks_compares_darks():
    # one dark-set rule: in calibration no other function compares one
    # frame's camera, levels or size with another frame's
    hits = set()
    for func in ast.walk(ast.parse(inspect.getsource(calibration))):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "array_equal":
                sides = node.args
            else:
                continue
            if sum(map(_reads_a_frame_field, sides)) >= 2:
                hits.add(func.name)
    assert hits == {"_check_darks"}


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


def _literal_sites(words):
    """The modules holding a literal tuple, list, set or dict (by its keys)
    with every one of ``words``, once per literal."""
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            items = node.keys if isinstance(node, ast.Dict) else getattr(node, "elts", ())
            if isinstance(node, (ast.Dict, ast.Tuple, ast.List, ast.Set)) and set(words) <= {
                    item.value for item in items if isinstance(item, ast.Constant)}:
                hits.append(path.name)
    return hits


def _cli_choices(command, dest):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return tuple(next(a for a in sub.choices[command]._actions if a.dest == dest).choices)


def test_phase_list_is_written_once():
    # the crop table's keys are the phases: every list of them derives from it
    assert _literal_sites(("dev", "final")) == ["metrics.py"]
    assert harness._PHASES == tuple(metrics._CROP_SIDES) == ("dev", "final")
    assert _cli_choices("eval", "phase") == harness._PHASES


def test_protocol_choices_are_written_once():
    # each list of choices is one literal, and the CLI and the checks share it
    assert _literal_sites(denoise._TRANSFORMS) == ["denoise.py"]
    assert _cli_choices("denoise", "transform") == denoise._TRANSFORMS
    assert _literal_sites(isp._GAMMAS) == ["isp.py"]
    assert _cli_choices("isp", "gamma") == isp._GAMMAS
    assert _literal_sites(calibration._BAND_AXES) == ["calibration.py"]
    assert _cli_choices("calibrate", "band_axis") == calibration._BAND_AXES
    assert _literal_sites(ranking.METRIC_DIRECTIONS) == ["ranking.py"]
    assert ranking.ALL_METRICS == tuple(ranking.METRIC_DIRECTIONS)
    # load_model_spec takes LayerSpec's own field names
    assert _literal_sites(("kind", "bias")) == []


def test_core_alone_sets_threads_and_checks_spaces():
    # the CPU count is read by core and by score_pairs' rule only, a _map
    # call states only its function and items, and only core raises on a
    # wrong .space (the other modules call core._check_space)
    workers, map_arities, space_raises = set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if "_WORKERS" in text:
            workers.add(path.name)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and "_map" in (getattr(node.func, "id", None),
                                                         getattr(node.func, "attr", None)):
                map_arities.add(len(node.args) + len(node.keywords))
            if isinstance(node, ast.If) and any(
                    isinstance(n, ast.Attribute) and n.attr == "space" for n in ast.walk(node.test)
            ) and any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt)):
                space_raises.add(path.name)
    assert workers == {"core.py", "harness.py"}
    assert map_arities == {2}
    assert space_raises == {"core.py"}


def _names_int(node) -> bool:
    return any((isinstance(n, ast.Name) and n.id == "int")
               or (isinstance(n, ast.Attribute) and n.attr == "integer") for n in ast.walk(node))


def test_core_alone_tests_for_integers():
    # the integer rule is core._check_int: outside core no isinstance or
    # type(...) is test names int or np.integer (float tests for NaN and
    # bool tests for flags are no integer rules)
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                tested = node.args[1:]
            elif isinstance(node, ast.Compare) and isinstance(node.left, ast.Call) and getattr(
                    node.left.func, "id", None) == "type":
                tested = node.comparators
            else:
                continue
            if any(map(_names_int, tested)):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


def test_core_alone_tests_for_choices():
    # the choice rule is core._check_choice: outside core no if statement
    # that raises tests a value with "not in" ("kind" not in entry, a
    # string literal on the left, asks whether a key is present)
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.If) and any(
                    isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))):
                continue
            hits += [f"{path.name}:{test.lineno}" for test in ast.walk(node.test)
                     if isinstance(test, ast.Compare)
                     and any(isinstance(op, ast.NotIn) for op in test.ops)
                     and not (isinstance(test.left, ast.Constant)
                              and isinstance(test.left.value, str))]
    assert hits == []


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py is exempt: its imports are the package's public names
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


_NORMALIZED = _img()
_DN = (SPACE_DN, SPACE_DN_ABOVE_BLACK)
# each function that takes images in some value spaces only: (call on an
# image, its argument's name, the spaces it takes)
SPACE_SITES = {
    "normalize": (core.normalize, "img", _DN),
    "denormalize": (core.denormalize, "img", (SPACE_NORMALIZED,)),
    "unpack_rggb": (core.unpack_rggb, "img", _DN),
    "psnr": (lambda img: metrics.psnr(img, _NORMALIZED), "pred", (SPACE_NORMALIZED,)),
    "ssim": (lambda img: metrics.ssim(img, _NORMALIZED), "pred", (SPACE_NORMALIZED,)),
    "denoise_raw": (lambda img: denoise.denoise_raw(img, PgParams(K=0.8, sigma=4.0)),
                    "noisy_norm", (SPACE_NORMALIZED,)),
    "run_isp": (isp.run_isp, "img", (SPACE_NORMALIZED,)),
    "synthesize_noisy": (lambda img: synth.synthesize_noisy(
        img, make_profile(), synth.SynthConfig(iso=800, dgain=1.0)), "clean_norm",
        (SPACE_NORMALIZED,)),
}


@pytest.mark.parametrize("where", sorted(SPACE_SITES))
def test_value_space_sites_name_the_space_they_got(where):
    call, arg, spaces = SPACE_SITES[where]
    for space in {SPACE_DN, SPACE_DN_ABOVE_BLACK, SPACE_NORMALIZED} - set(spaces):
        message = f"{where} expects {' or '.join(spaces)} images, got {arg} in space {space!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            call(replace(_NORMALIZED, space=space))


# a file holds JSON, so a numpy array reaches one as a list
def _rawb_with_dtype(dtype, tmp_path):
    path = tmp_path / "img.rawb"
    core.write_packed(replace(_img(), channels=np.ones((4, 2, 2), np.float32)), path)
    header, payload = path.read_bytes().split(b"\n", 1)
    doc = {**json.loads(header), "dtype": dtype}
    path.write_bytes(json.dumps(doc, default=np.ndarray.tolist).encode() + b"\n" + payload)
    return core.read_packed(path)


def _manifest(tmp_path, phase="dev", scene_type="paired"):
    entry = {"image_id": "a", "scene_type": scene_type, "iso": 800, "noisy_path": "n.rawb",
             "gt_path": "g.rawb"}
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"phase": phase, "entries": [entry]}, default=np.ndarray.tolist))
    return harness.load_manifest(path)


def _external_metric(metric, tmp_path):
    # a CSV cell is text: each value reaches it as the text csv writes for it
    path = tmp_path / "ext.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([("team", "metric", "value"), ("t", metric, "1.0")])
    return harness.ingest_external_scores(path)


# each setting that takes one of a list of strings: (call with a value, the
# setting's name, the error the site raises)
CHOICE_SITES = {
    "PackedImage.space": (lambda v, tmp: replace(_img(), space=v), "space", DomainError),
    "RAWB dtype": (_rawb_with_dtype, "dtype", FormatError),
    "IspConfig.wb": (lambda v, tmp: isp.IspConfig(wb=v), "wb", DomainError),
    "IspConfig.gamma": (lambda v, tmp: isp.IspConfig(gamma=v), "gamma", DomainError),
    "SynthConfig.mode": (lambda v, tmp: synth.SynthConfig(iso=800, dgain=1.0, mode=v), "mode",
                         DomainError),
    "DenoiseConfig.transform": (lambda v, tmp: denoise.DenoiseConfig(transform=v), "transform",
                                DomainError),
    "LayerSpec.kind": (lambda v, tmp: budget.LayerSpec(v), "kind", SpecError),
    "MetricRecord.get": (lambda v, tmp: ranking.MetricRecord("a").get(v), "metric", DataError),
    "rank_metric": (lambda v, tmp: ranking.rank_metric([("a", 1.0)], v), "direction", DataError),
    "manifest phase": (lambda v, tmp: _manifest(tmp, phase=v), "phase", ManifestError),
    "manifest scene_type": (lambda v, tmp: _manifest(tmp, scene_type=v), "scene_type",
                            ManifestError),
    "external metric": (_external_metric, "metric", DataError),
    "prepare_reference": (lambda v, tmp: metrics.prepare_reference(
        make_frame(np.zeros((32, 32))), v), "phase", ValueError),
    "build_profile": (lambda v, tmp: calibration.build_profile(
        "camA", [800], {}, provided_gains={800: 1.0}, band_axis=v), "band_axis", ValueError),
}


@pytest.mark.parametrize("value", ["bogus", None, ["bogus"], np.array(["bogus", "bogus"])],
                         ids=["string", "none", "list", "array"])
@pytest.mark.parametrize("where", CHOICE_SITES)
def test_choice_sites_raise_their_own_error(tmp_path, where, value):
    # a list used to fail as an unhashable dict key and an array as an
    # ambiguous truth value, not with the site's error
    call, name, error = CHOICE_SITES[where]
    if where == "IspConfig.wb" and isinstance(value, (list, np.ndarray)):
        name, error = "wb gain", TypeError  # a sequence is fixed gains: the number rule
    with pytest.raises(error, match=rf"(^|: ){re.escape(name)} must be"):
        call(value, tmp_path)
