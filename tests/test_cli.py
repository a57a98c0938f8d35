import hashlib
import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rawbench import core
from rawbench.calibration import load_profile
from rawbench.cli import build_parser, main
from rawbench.core import (
    PackedImage,
    RawFrame,
    SPACE_NORMALIZED,
    pack_rggb,
    read_frame,
    read_packed,
    write_frame,
    write_packed,
)
from rawbench.isp import read_ppm16

from conftest import make_frame


@pytest.fixture
def workspace(tmp_path):
    """Dark frames for two ISOs plus one clean frame, all on disk."""
    rng = np.random.default_rng(0)
    for iso in (800, 1600):
        d = tmp_path / "darks" / str(iso)
        d.mkdir(parents=True)
        for k in range(4):
            dark = make_frame(
                rng.normal(512.0, 2.0 + iso / 800.0, (64, 64)).clip(0).astype(np.float32),
                iso=iso,
            )
            write_frame(dark, d / f"dark{k}.rawb")
    clean_dir = tmp_path / "clean"
    clean_dir.mkdir()
    ramp = np.linspace(2000, 12000, 64 * 64).reshape(64, 64).astype(np.uint16)
    write_frame(make_frame(ramp), clean_dir / "scene.rawb")
    return tmp_path


def test_full_pipeline(workspace, capsys):
    profile = workspace / "profile.json"
    rc = main(["calibrate", "--darks", str(workspace / "darks"), "--camera-id", "camA",
               "--gains", "800=0.8,1600=1.6", "--out", str(profile)])
    assert rc == 0
    doc = json.loads(profile.read_text())
    assert set(doc["isos"]) == {"800", "1600"}
    assert doc["isos"]["800"]["K"] == 0.8

    out_pairs = workspace / "pairs"
    rc = main(["synth", "--profile", str(profile), "--clean", str(workspace / "clean"),
               "--out", str(out_pairs), "--iso-set", "800,1600", "--dgain-set", "100,200",
               "--mode", "hybrid", "--rho", "0.5", "--patch", "16", "--per-image", "2",
               "--seed", "7"])
    assert rc == 0
    noisy_files = sorted(out_pairs.glob("*_noisy.rawb"))
    assert len(noisy_files) == 2
    noisy_img = read_packed(noisy_files[0])
    assert noisy_img.channels.shape == (4, 16, 16)

    den = workspace / "den.rawb"
    rc = main(["denoise", "--in", str(workspace / "clean" / "scene.rawb"),
               "--profile", str(profile), "--iso", "800", "--dgain", "100",
               "--transform", "gat", "--out", str(den)])
    assert rc == 0
    assert read_frame(den).data.shape == (64, 64)

    ppm = workspace / "img.ppm"
    rc = main(["isp", "--in", str(den), "--out", str(ppm), "--wb", "gray-world",
               "--gamma", "srgb"])
    assert rc == 0
    rgb = read_ppm16(ppm)
    assert rgb.shape == (64, 64, 3)


def test_synth_rerun_byte_identical(workspace):
    profile = workspace / "profile.json"
    assert main(["calibrate", "--darks", str(workspace / "darks"), "--camera-id", "camA",
                 "--gains", "800=0.8,1600=1.6", "--out", str(profile)]) == 0
    outs = []
    for name in ("run1", "run2"):
        out = workspace / name
        assert main(["synth", "--profile", str(profile), "--clean", str(workspace / "clean"),
                     "--out", str(out), "--iso-set", "800", "--dgain-set", "100",
                     "--mode", "parametric", "--patch", "16", "--per-image", "3",
                     "--seed", "42"]) == 0
        outs.append(out)
    files1 = sorted(outs[0].iterdir())
    files2 = sorted(outs[1].iterdir())
    assert [f.name for f in files1] == [f.name for f in files2]
    for a, b in zip(files1, files2):
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("flags, what", [
    (["--clip-hi", "0"], "clip_hi"),
    (["--clip-hi", "-1"], "clip_hi"),
    (["--clip-hi", "nan"], "clip_hi"),
    (["--dgain-range=-5:0"], "dgain"),
    (["--dgain-range", "20:10"], "dgain_range"),
    (["--dgain-set", "100,0"], "dgain"),
])
def test_synth_rejects_bad_sampler_before_reading_anything(tmp_path, capsys, flags, what):
    # neither the profile nor the clean directory exists: the sampler is checked first
    out = tmp_path / "pairs"
    rc = main(["synth", "--profile", str(tmp_path / "none.json"), "--clean",
               str(tmp_path / "none"), "--out", str(out), *flags])
    assert rc == 2
    assert what in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, what", [
    ("denoise", ["--threshold", "nan"], "threshold_mult must be finite"),
    ("denoise", ["--threshold", "inf"], "threshold_mult must be finite"),
    ("denoise", ["--transform", "none", "--sigma-dn", "inf"], "sigma_dn must be finite"),
    ("isp", ["--wb", "nan,1,1"], "wb gain must be finite"),
    ("isp", ["--wb", "1,inf,1"], "wb gain must be finite"),
    ("denoise", ["--transform", "none"], 'transform="none" requires sigma_dn'),
])
def test_non_finite_setting_exits_2_before_reading_anything(tmp_path, capsys, command, flags,
                                                            what):
    # neither the profile nor the input exists: the settings are checked first
    out = tmp_path / "out.rawb"
    args = [command, "--in", str(tmp_path / "none.rawb"), "--out", str(out), *flags]
    if command == "denoise":
        args += ["--profile", str(tmp_path / "none.json"), "--iso", "800", "--dgain", "10"]
    assert main(args) == 2
    assert what in capsys.readouterr().err
    assert not out.exists()


def test_synth_rejects_zero_patches_per_image(workspace, capsys):
    profile = workspace / "profile.json"
    assert main(["calibrate", "--darks", str(workspace / "darks"), "--camera-id", "camA",
                 "--gains", "800=0.8,1600=1.6", "--out", str(profile)]) == 0
    out = workspace / "pairs"
    rc = main(["synth", "--profile", str(profile), "--clean", str(workspace / "clean"),
               "--out", str(out), "--iso-set", "800", "--patch", "16", "--per-image", "0"])
    assert rc == 2
    assert "patches_per_image" in capsys.readouterr().err
    assert not out.exists()


def test_eval_and_rank(workspace, tmp_path):
    rng = np.random.default_rng(1)
    gt_dir = tmp_path / "gt"
    pred_dir = tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    data = rng.integers(2000, 14000, (1024, 1024)).astype(np.uint16)
    write_frame(make_frame(data), gt_dir / "a.rawb")
    write_frame(make_frame(data), pred_dir / "a.rawb")
    out_csv = tmp_path / "metrics.csv"
    rc = main(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir), "--phase", "dev",
               "--out", str(out_csv)])
    assert rc == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "image_id,camera,iso,dgain,psnr_db,ssim"
    assert "inf" in lines[1]

    scores = tmp_path / "scores.csv"
    scores.write_text(
        "team,psnr,ssim,lpips,arniqa,topiq\n"
        "one,41.0,0.96,0.22,0.45,0.26\n"
        "two,40.0,0.95,0.25,0.44,0.25\n"
    )
    rank_out = tmp_path / "rank.csv"
    rc = main(["rank", "--scores", str(scores), "--out", str(rank_out)])
    assert rc == 0
    rows = rank_out.read_text().splitlines()
    assert rows[1].startswith("one,1.0")


def test_budget_exit_codes(tmp_path):
    ok_model = tmp_path / "ok.json"
    ok_model.write_text(json.dumps([
        {"kind": "bgc", "in_ch": 4, "out_ch": 16, "kernel": 5},
        {"kind": "conv2d", "in_ch": 16, "out_ch": 4, "kernel": 3},
    ]))
    assert main(["budget", "--model", str(ok_model)]) == 0

    fat_model = tmp_path / "fat.json"
    fat_model.write_text(json.dumps([
        {"kind": "conv2d", "in_ch": 4, "out_ch": 4096, "kernel": 31},
    ]))
    assert main(["budget", "--model", str(fat_model)]) == 1


def test_bench_subcommand(workspace, tmp_path):
    rng = np.random.default_rng(2)
    data = rng.integers(2000, 14000, (1024, 1024)).astype(np.uint16)
    (tmp_path / "gt").mkdir()
    write_frame(make_frame(data), tmp_path / "gt" / "img1.rawb")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "phase": "dev",
        "entries": [{"image_id": "img1", "camera": "camA", "scene_type": "paired",
                     "iso": 800, "dgain": 100, "noisy_path": "gt/img1.rawb",
                     "gt_path": "gt/img1.rawb"}],
    }))
    pred_root = tmp_path / "preds"
    (pred_root / "solo").mkdir(parents=True)
    write_frame(make_frame(data), pred_root / "solo" / "img1.rawb")
    out_dir = tmp_path / "out"
    rc = main(["bench", "--manifest", str(manifest), "--pred-root", str(pred_root),
               "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "scores.csv").exists()
    assert (out_dir / "ranktable.csv").exists()
    assert (out_dir / "per_image.csv").exists()


def test_validation_error_exit_code(tmp_path):
    bad_manifest = tmp_path / "m.json"
    bad_manifest.write_text(json.dumps({"phase": "nope", "entries": []}))
    rc = main(["bench", "--manifest", str(bad_manifest), "--pred-root", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("doc", [[], {"phase": "dev", "entries": 5}, {"entries": [5]}],
                         ids=["list", "entries-int", "entry-int"])
def test_bench_malformed_manifest_exits_2(tmp_path, capsys, doc):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    assert main(["bench", "--manifest", str(manifest), "--pred-root", str(tmp_path)]) == 2
    assert f"{manifest}: " in capsys.readouterr().err


def test_bench_manifest_with_infinite_iso_exits_2(tmp_path, capsys):
    # json.dumps writes the ISO as Infinity, which used to end in an
    # OverflowError traceback (exit 1)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"phase": "dev", "entries": [
        {"image_id": "img1", "scene_type": "paired", "iso": float("inf"),
         "noisy_path": "n.rawb", "gt_path": "g.rawb"}]}))
    assert main(["bench", "--manifest", str(manifest), "--pred-root", str(tmp_path)]) == 2
    assert f"{manifest}: entry 0: iso must be finite" in capsys.readouterr().err


def test_bench_manifest_with_numeric_gt_path_exits_2(tmp_path, capsys):
    # a numeric gt_path used to end in a TypeError traceback from
    # Manifest.resolve (exit 1, the budget-failure code)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"phase": "dev", "entries": [
        {"image_id": "img1", "scene_type": "paired", "iso": 800,
         "noisy_path": "n.rawb", "gt_path": 5}]}))
    assert main(["bench", "--manifest", str(manifest), "--pred-root", str(tmp_path)]) == 2
    assert f"{manifest}: entry 0: gt_path must be a string, got 5" in capsys.readouterr().err


@pytest.mark.parametrize("text, where, what", [
    ("name,psnr,ssim\none,41.0,0.96\n", 1, "missing column(s) team"),
    ("# scores\nteam,psnr,ssim\none,41.0,0.96\ntwo,abc,0.95\n", 4,
     "column 'psnr': cannot read 'abc' as float"),
    ("team,psnr,ssim\none,41.0,0.96\ntwo,nan,0.95\n", 3, "column 'psnr': NaN value"),
    ("team,psnr\none,41.0\n# again\none,40.0\n", 4, "duplicate team 'one'"),
    ("team,psnr\none,41.0\ntwo,40.0,0.95\n", 3, "more cells than the 2 header columns"),
    ("# scores\nteam,psnr\n", None, "no team rows after the header"),
], ids=["no-team-column", "non-numeric", "nan", "duplicate-team", "long-row", "no-rows"])
def test_rank_bad_scores_csv_names_file_and_line(tmp_path, capsys, text, where, what):
    scores = tmp_path / "scores.csv"
    scores.write_text(text)
    assert main(["rank", "--scores", str(scores), "--out", str(tmp_path / "rank.csv")]) == 2
    named = f"{scores}:{where}" if where is not None else f"{scores}"  # the file, or file:line
    assert f"{named}: {what}" in capsys.readouterr().err


@pytest.mark.parametrize("text, where, what", [
    ("iso,mean\n800,100.0\n", 1, "missing column(s) variance"),
    ("iso,mean,variance\n800,100.0,80.0\n800,200.0,\n", 3,
     "column 'variance': cannot read '' as float"),
], ids=["no-variance-column", "empty-value"])
def test_calibrate_bad_ptc_csv_names_file_and_line(workspace, capsys, text, where, what):
    ptc = workspace / "ptc.csv"
    ptc.write_text(text)
    rc = main(["calibrate", "--darks", str(workspace / "darks"), "--ptc-csv", str(ptc),
               "--out", str(workspace / "profile.json")])
    assert rc == 2
    assert f"{ptc}:{where}: {what}" in capsys.readouterr().err


@pytest.mark.parametrize("camera_id", [[], ["--camera-id", "camA"]], ids=["no-id", "id"])
def test_calibrate_without_dark_frames_exits_3(tmp_path, capsys, camera_id):
    (tmp_path / "darks" / "800").mkdir(parents=True)
    rc = main(["calibrate", "--darks", str(tmp_path / "darks"), *camera_id,
               "--gains", "800=0.8", "--out", str(tmp_path / "profile.json")])
    assert rc == 3
    assert "no .rawb dark frames" in capsys.readouterr().err


def test_calibrate_names_a_subdirectory_that_is_no_iso(workspace, capsys):
    notes = workspace / "darks" / "notes"
    notes.mkdir()
    rc = main(["calibrate", "--darks", str(workspace / "darks"), "--gains", "800=0.8,1600=1.6",
               "--out", str(workspace / "profile.json")])
    assert rc == 2
    assert f"{notes}: subdirectory name is not an integer ISO" in capsys.readouterr().err
    assert not (workspace / "profile.json").exists()


def test_calibrate_darks_of_another_iso_exit_2(workspace, capsys):
    # ISO-1600 darks filed under 800 would give ISO 800 their noise
    darks = workspace / "darks"
    (darks / "800").rename(workspace / "darks800")
    (darks / "1600").rename(darks / "800")
    rc = main(["calibrate", "--darks", str(darks), "--gains", "800=0.8",
               "--out", str(workspace / "profile.json")])
    assert rc == 2
    assert "ISO 800 darks include frames of ISO 1600" in capsys.readouterr().err
    assert not (workspace / "profile.json").exists()


def test_calibrate_darks_of_another_camera_exit_2(workspace, capsys):
    # --camera-id names the profile; it does not let one profile mix cameras
    dark = workspace / "darks" / "1600" / "dark2.rawb"
    write_frame(replace(read_frame(dark), camera_id="camB"), dark)
    rc = main(["calibrate", "--darks", str(workspace / "darks"), "--camera-id", "camA",
               "--gains", "800=0.8,1600=1.6", "--out", str(workspace / "profile.json")])
    assert rc == 2
    assert "ISO 1600 dark 2 has camera_id 'camB' but ISO 800 dark 0 has 'camA'" in \
        capsys.readouterr().err
    assert not (workspace / "profile.json").exists()


@pytest.mark.parametrize("gain, shown", [("-1", "-1.0"), ("0", "0.0"), ("nan", "nan")])
def test_calibrate_names_the_iso_of_a_bad_gain(workspace, capsys, gain, shown):
    rc = main(["calibrate", "--darks", str(workspace / "darks"), "--gains", f"800=0.8,1600={gain}",
               "--out", str(workspace / "profile.json")])
    assert rc == 2
    assert f"ISO 1600: system gain K must be finite and > 0, got {shown}" in \
        capsys.readouterr().err
    assert not (workspace / "profile.json").exists()


def test_calibrate_names_a_negative_iso_subdirectory(workspace, capsys):
    negative = workspace / "darks" / "-5"
    (workspace / "darks" / "800").rename(negative)
    rc = main(["calibrate", "--darks", str(workspace / "darks"), "--gains", "1600=1.6",
               "--out", str(workspace / "profile.json")])
    assert rc == 2
    assert f"{negative}: ISO must be finite and >= 0, got -5" in capsys.readouterr().err
    assert not (workspace / "profile.json").exists()


def test_calibrate_from_ptc_csv(workspace):
    ptc = workspace / "ptc.csv"
    ptc.write_text("iso,mean,variance\n"
                   + "".join(f"{iso},{m},{k * m + 4.0}\n" for iso, k in ((800, 0.8), (1600, 1.6))
                             for m in (100.0, 400.0, 900.0)))
    profile = workspace / "profile.json"
    assert main(["calibrate", "--darks", str(workspace / "darks"), "--ptc-csv", str(ptc),
                 "--out", str(profile)]) == 0
    doc = json.loads(profile.read_text())
    assert doc["isos"]["800"]["K"] == pytest.approx(0.8)
    assert doc["isos"]["1600"]["K"] == pytest.approx(1.6)


def test_calibrate_camera_id_tags_every_sidecar(tmp_path):
    # darks tagged "" calibrated as camera X: every sidecar takes the
    # profile's id, so the profile loads (the library once kept the darks' "")
    rng = np.random.default_rng(3)
    (tmp_path / "darks" / "800").mkdir(parents=True)
    for k in range(3):
        write_frame(make_frame(rng.normal(512.0, 3.0, (16, 16)).clip(0).astype(np.float32),
                               camera=""), tmp_path / "darks" / "800" / f"dark{k}.rawb")
    profile = tmp_path / "profile" / "prof.json"
    assert main(["calibrate", "--darks", str(tmp_path / "darks"), "--camera-id", "X",
                 "--gains", "800=0.8", "--out", str(profile)]) == 0
    loaded = load_profile(profile)
    assert loaded.camera_id == "X"
    sidecars = sorted(profile.parent.glob("*.rawb"))
    assert len(sidecars) == 3
    assert {read_packed(p).camera_id for p in sidecars} == {"X"}


def test_missing_data_exit_code(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"phase": "dev", "entries": []}))
    rc = main(["bench", "--manifest", str(manifest), "--pred-root", str(tmp_path / "nothing")])
    assert rc in (2, 3)
    (tmp_path / "empty").mkdir()
    rc = main(["bench", "--manifest", str(manifest), "--pred-root", str(tmp_path / "empty")])
    assert rc == 3


def test_eval_csv_golden_digest(tmp_path):
    # Digest of the eval CSV on a fixed input; any change to a value or to
    # the formatting shows here.
    rng = np.random.default_rng(5)
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    gt = rng.integers(2000, 14000, (1040, 1040)).astype(np.uint16)
    noisy = np.clip(gt + rng.normal(0, 80, gt.shape), 0, 16383)
    write_frame(make_frame(gt), gt_dir / "a.rawb")
    write_frame(make_frame(noisy.astype(np.uint16)), pred_dir / "a.rawb")
    write_frame(make_frame(gt, iso=1600), gt_dir / "b.rawb")
    write_frame(make_frame(noisy.astype(np.float32), iso=1600), pred_dir / "b.rawb")
    out_csv = tmp_path / "metrics.csv"
    assert main(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(out_csv)]) == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == (
        "fcee412642e4ea98e7ef89ffe447b5eb3eb50fbae5e97e0e8c7b6b35381ef8c8"
    )


def test_budget_negative_input_dimension_exits_2(tmp_path):
    # -512 rows used to give -152 GMacs, which passed the < 150 G gate.
    model = tmp_path / "m.json"
    model.write_text(json.dumps({
        "layers": [{"kind": "conv2d", "in_ch": 4, "out_ch": 1200, "kernel": 11}],
        "input": [1, 4, -512, 512],
    }))
    assert main(["budget", "--model", str(model)]) == 2


@pytest.mark.parametrize("spec", [
    {"layers": [{"kind": "conv2d", "in_ch": 4, "out_ch": 8, "kernel": 3}],
     "input": [1, 4, "512", 512]},
    {"layers": [{"kind": "conv2d", "in_ch": 4, "out_ch": 8, "kernel": 3}],
     "input": [1, 4, 512.0, 512]},
    [{"kind": "conv2d", "in_ch": 4, "out_ch": "8", "kernel": 3}],
], ids=["string-dim", "float-dim", "string-out-ch"])
def test_budget_spec_types_exit_2(tmp_path, capsys, spec):
    model = tmp_path / "typed.json"
    model.write_text(json.dumps(spec))
    assert main(["budget", "--model", str(model)]) == 2
    assert "typed.json" in capsys.readouterr().err


@pytest.mark.parametrize("layers, message", [
    ([{"kind": "conv2d", "in_ch": 0}], "layer 0: in_ch must be an integer >= 1, got 0"),
    ([{"kind": "conv2d", "in_ch": 4, "out_ch": 8, "kernel": 3},
      {"kind": "depthwise", "in_ch": 8, "out_ch": 16}], "layer 1: depthwise requires in_ch"),
], ids=["in-ch-0", "depthwise-widens"])
def test_budget_bad_layer_names_file_and_layer(tmp_path, capsys, layers, message):
    # LayerSpec's own checks used to reach the CLI without the file or layer
    model = tmp_path / "layers.json"
    model.write_text(json.dumps(layers))
    assert main(["budget", "--model", str(model)]) == 2
    assert f"{model}: {message}" in capsys.readouterr().err


def test_budget_string_ensemble_exits_2(tmp_path, capsys):
    # "false" used to count as an ensemble: FAIL and exit 1 for a tiny model.
    model = tmp_path / "tiny.json"
    model.write_text(json.dumps({
        "layers": [{"kind": "conv2d", "in_ch": 4, "out_ch": 8, "kernel": 3}],
        "ensemble": "false",
    }))
    assert main(["budget", "--model", str(model)]) == 2
    assert "tiny.json" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["drop-isos", "drop-K"])
def test_denoise_with_broken_profile_exits_2(workspace, tmp_path, capsys, damage):
    profile = tmp_path / "profile.json"
    assert main(["calibrate", "--darks", str(workspace / "darks"), "--camera-id", "camA",
                 "--gains", "800=0.8,1600=1.6", "--out", str(profile)]) == 0
    doc = json.loads(profile.read_text())
    if damage == "drop-isos":
        del doc["isos"]
    else:
        del doc["isos"]["800"]["K"]
    profile.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["denoise", "--in", str(workspace / "clean" / "scene.rawb"), "--profile", str(profile),
               "--iso", "800", "--dgain", "10", "--out", str(tmp_path / "den.rawb")])
    assert rc == 2
    assert f"{profile}: " in capsys.readouterr().err


def test_isp_rejects_non_rawb_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "scene.ppm"
    bad.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    assert main(["isp", "--in", str(bad), "--out", str(tmp_path / "o.ppm")]) == 2
    assert "scene.ppm" in capsys.readouterr().err


def test_isp_rejects_nan_packed_input(tmp_path, capsys):
    path = tmp_path / "den.rawb"
    img = PackedImage(channels=np.full((4, 4, 4), 0.25, dtype=np.float32), space=SPACE_NORMALIZED,
                      black_level=512.0, white_level=16383.0)
    write_packed(img, path)
    blob = bytearray(path.read_bytes())
    blob[-4:] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(blob))
    out = tmp_path / "o.ppm"
    assert main(["isp", "--in", str(path), "--out", str(out)]) == 2
    assert f"{path}: " in capsys.readouterr().err
    assert not out.exists()


def test_isp_infinite_gray_world_gain_exits_2(tmp_path, capsys, monkeypatch):
    # RAWB payloads are u16 or f32, whose channel-mean ratios stay finite, so
    # the float64 image reaches the subcommand through its reader
    ch = np.full((4, 4, 4), 0.25)
    ch[0] = 5e-324
    img = PackedImage(channels=ch, space=SPACE_NORMALIZED, black_level=512.0,
                      white_level=16383.0)
    monkeypatch.setattr(core, "_read_image", lambda path, *layouts: img)
    out = tmp_path / "o.ppm"
    assert main(["isp", "--in", str(tmp_path / "in.rawb"), "--out", str(out)]) == 2
    assert "gray-world R gain must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("meta", [
    {"iso": float("inf")}, {"iso": float("nan")}, {"iso": 800.5}, {"iso": -1},
    {"exposure_s": float("nan")}, {"exposure_s": -1},
], ids=["iso-inf", "iso-nan", "iso-fraction", "iso-negative", "exposure-nan", "exposure-negative"])
def test_isp_rejects_bad_capture_metadata(tmp_path, capsys, meta):
    # an infinite ISO used to end in an OverflowError traceback (exit 1), 800.5
    # was stored as 800, and a NaN exposure was accepted and written back
    path = tmp_path / "meta.rawb"
    write_frame(make_frame(np.full((4, 4), 600, dtype=np.uint16)), path)
    header, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps({**json.loads(header), **meta}).encode() + b"\n" + payload)
    out = tmp_path / "o.ppm"
    assert main(["isp", "--in", str(path), "--out", str(out)]) == 2
    assert f"{path}: " in capsys.readouterr().err
    assert not out.exists()


def test_isp_renders_a_mosaic_as_its_packed_rggb_file(tmp_path):
    frame = make_frame(np.arange(192, dtype=np.uint16).reshape(12, 16) * 80 + 600)
    write_frame(frame, tmp_path / "m.rawb")
    write_packed(pack_rggb(frame), tmp_path / "p.rawb")
    outs = []
    for name in ("m", "p"):
        outs.append(tmp_path / f"{name}.ppm")
        assert main(["isp", "--in", str(tmp_path / f"{name}.rawb"), "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def _isp_inputs(tmp_path):
    rng = np.random.default_rng(11)
    u16 = RawFrame(data=rng.integers(0, 16383, (24, 20)).astype(np.uint16),
                   black_level=[512.0] * 4, white_level=16383.0, camera_id="camA", iso=800)
    f32 = RawFrame(data=rng.uniform(0, 16383, (24, 20)).astype(np.float32),
                   black_level=[512.0, 511.5, 512.25, 513.0], white_level=16383.0, iso=1600)
    dn = pack_rggb(RawFrame(data=rng.integers(0, 4095, (20, 24)).astype(np.uint16),
                            black_level=[64.0, 60.0, 62.0, 66.0], white_level=4095.0))
    norm = PackedImage(channels=np.random.default_rng(12).uniform(0, 1, (4, 10, 12))
                       .astype(np.float32), space=SPACE_NORMALIZED, black_level=512.0,
                       white_level=16383.0)
    write_frame(u16, tmp_path / "u16.rawb")
    write_frame(f32, tmp_path / "f32.rawb")
    write_packed(dn, tmp_path / "dn.rawb")
    write_packed(norm, tmp_path / "normalized.rawb")


# SHA-256 of `rawbench isp` output per input file: (RAWB rgb at --wb 2,1,1.5
# --gamma none, PPM at the defaults).
ISP_PINS = {
    "u16": ("57ac4c907e079b6ad69b471cfc4d505f7fa8a50f92dfe5542d4c6e9d960ae94e",
            "b46ada9353b638b2739440ddeb56e5c85ffdc0c9ae2b135c20ff09bd821a7fa3"),
    "f32": ("c5026418354081925294789430b132deaaeb6925c4e7c0784e79f698de3db0c9",
            "5158b8c44f112adb01322f01707df0df03cf2f11e944833ae858a2ef88e11843"),
    "dn": ("73cc4ab5abdfa78a3beb62990254a2c3004b85cd33f76f8eb937e4436b8901bd",
           "2105899c550cd1d7853a081d93decad95503c7157d5a1cee8a5376b22a27f0c0"),
    "normalized": ("13d3942162c092e571c5a776ef50fe08502bd66922c7a696212ffc7c7bc8cff9",
                   "a9d4f76d3792949e9676d34e83f8f10f829c609fe9f3a1d42688aa98b3682d9a"),
}


@pytest.mark.parametrize("name", sorted(ISP_PINS))
def test_isp_output_pinned(tmp_path, name):
    _isp_inputs(tmp_path)
    digests = []
    for suffix, flags in ((".rawb", ["--wb", "2,1,1.5", "--gamma", "none"]), (".ppm", [])):
        out = tmp_path / f"out{suffix}"
        assert main(["isp", "--in", str(tmp_path / f"{name}.rawb"), "--out", str(out), *flags]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert tuple(digests) == ISP_PINS[name]


def test_eval_misaligned_crop_names_the_file(tmp_path, capsys):
    rng = np.random.default_rng(6)
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    gt = rng.integers(2000, 14000, (1040, 1040)).astype(np.uint16)
    write_frame(make_frame(gt), gt_dir / "a.rawb")
    write_frame(make_frame(gt[8:-8, 8:-8]), pred_dir / "a.rawb")
    assert main(["eval", "--pred", str(pred_dir), "--gt", str(gt_dir),
                 "--out", str(tmp_path / "m.csv")]) == 2
    assert "a.rawb: prediction mosaic" in capsys.readouterr().err


REQUIRED_ARGS = {
    "calibrate": ["--darks", "d", "--out", "o"],
    "synth": ["--profile", "p", "--clean", "c", "--out", "o"],
    "denoise": ["--in", "i", "--profile", "p", "--iso", "800", "--out", "o"],
    "isp": ["--in", "i", "--out", "o"],
    "eval": ["--pred", "p", "--gt", "g", "--out", "o"],
    "rank": ["--scores", "s", "--out", "o"],
    "budget": ["--model", "m"],
    "bench": ["--manifest", "m", "--pred-root", "r"],
}
OWNED_FLAGS = {("synth", "--seed"), ("bench", "--threads"), ("bench", "--strict")}


@pytest.mark.parametrize("command", sorted(REQUIRED_ARGS))
@pytest.mark.parametrize("flag", [["--seed", "3"], ["--threads", "2"], ["--strict"]])
def test_run_flags_only_where_used(command, flag):
    argv = [command, *REQUIRED_ARGS[command], *flag]
    if (command, flag[0]) in OWNED_FLAGS:
        build_parser().parse_args(argv)
    else:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("bad", ["0", "-4", "two"])
def test_bench_threads_below_one_exits_2(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(["bench", *REQUIRED_ARGS["bench"], "--threads", bad])
    assert exc.value.code == 2
    assert f"argument --threads: expected an integer >= 1, got {bad!r}" in capsys.readouterr().err


def test_denoise_tiling_flags_removed():
    for flag in ("--tile", "--overlap"):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["denoise", *REQUIRED_ARGS["denoise"], flag, "64"])
        assert exc.value.code == 2


FLAG_CASES = [
    ("calibrate", "--gains", "800=0.8,1600=1.6", ((800, 0.8), (1600, 1.6)), "800", "iso=gain,..."),
    ("calibrate", "--roi", "0,2,64,60", (0, 2, 64, 60), "1,2", "x0,y0,w,h"),
    ("synth", "--iso-set", "800,1600", (800, 1600), "800,abc", "iso,iso,..."),
    ("synth", "--dgain-set", "100,200", (100.0, 200.0), "100,", "dgain,dgain,..."),
    ("synth", "--dgain-range", "10:100", (10.0, 100.0), "10", "lo:hi"),
    ("isp", "--wb", "2,1,1.5", ("2,1,1.5", (2.0, 1.0, 1.5)), "2,1", "'gray-world' or r,g,b gains"),
    ("budget", "--input", "1,4,256,256", (1, 4, 256, 256), "1,4,512", "n,c,h,w"),
]


@pytest.mark.parametrize("command, flag, good, parsed, bad, form", FLAG_CASES,
                         ids=[case[1] for case in FLAG_CASES])
def test_flag_value_parsed_or_named_in_error(capsys, command, flag, good, parsed, bad, form):
    dest = flag[2:].replace("-", "_")
    args = build_parser().parse_args([command, *REQUIRED_ARGS[command], flag, good])
    assert getattr(args, dest) == parsed
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, *REQUIRED_ARGS[command], flag, bad])
    assert exc.value.code == 2
    assert f"argument {flag}: expected {form}, got {bad!r}" in capsys.readouterr().err


def test_isp_header_records_wb_as_typed(tmp_path):
    src = tmp_path / "scene.rawb"
    write_frame(make_frame(np.full((8, 8), 4000, np.uint16)), src)
    out = tmp_path / "img.rawb"
    assert main(["isp", "--in", str(src), "--out", str(out), "--wb", "2,1,1.5"]) == 0
    header = json.loads(out.read_bytes().split(b"\n", 1)[0])
    assert header["isp"]["wb"] == "2,1,1.5"


def test_readme_command_line_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```\n(.*?)```", readme, re.S).group(1)
    commands = block.replace("\\\n", " ").splitlines()
    assert len(commands) == len(REQUIRED_ARGS)
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "rawbench"
        build_parser().parse_args(argv[1:])
