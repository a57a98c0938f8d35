import json

import numpy as np
import pytest

from rawbench.core import write_frame
from rawbench.errors import DataError, DimensionError, DomainError, ManifestError, MissingDataError
from rawbench.harness import (
    ingest_external_scores,
    load_manifest,
    run_benchmark,
)

from conftest import TABLE1, FIDELITY_POSITIONS, PERCEPTUAL_POSITIONS, make_frame, make_profile


def write_manifest(path, entries, phase="dev"):
    path.write_text(json.dumps({"phase": phase, "entries": entries}))
    return path


class TestLoadManifest:
    def _entry(self, **kw):
        base = {"image_id": "img1", "camera": "camA", "scene_type": "paired",
                "iso": 800, "dgain": 100, "noisy_path": "n.rawb", "gt_path": "g.rawb"}
        base.update(kw)
        return base

    def test_minimal_paired(self, tmp_path):
        m = load_manifest(write_manifest(tmp_path / "m.json", [self._entry()]))
        assert m.phase == "dev" and len(m.entries) == 1
        assert m.entries[0].gt_path == "g.rawb"

    def test_wild_with_gt_warns(self, tmp_path):
        entry = self._entry(scene_type="wild")
        with pytest.warns(UserWarning):
            m = load_manifest(write_manifest(tmp_path / "m.json", [entry]))
        assert m.entries[0].scene_type == "wild"

    def test_duplicate_id_rejected(self, tmp_path):
        p = write_manifest(tmp_path / "m.json", [self._entry(), self._entry()])
        with pytest.raises(ManifestError, match="entry 1"):
            load_manifest(p)

    def test_paired_without_gt_rejected(self, tmp_path):
        entry = self._entry()
        del entry["gt_path"]
        with pytest.raises(ManifestError):
            load_manifest(write_manifest(tmp_path / "m.json", [entry]))

    def test_unknown_iso_with_profile(self, tmp_path):
        p = write_manifest(tmp_path / "m.json", [self._entry(iso=640)])
        with pytest.raises(ManifestError, match="ISO 640"):
            load_manifest(p, profile=make_profile())

    def test_strict_missing_files(self, tmp_path):
        p = write_manifest(tmp_path / "m.json", [self._entry()])
        with pytest.raises(ManifestError, match="does not exist"):
            load_manifest(p, strict=True)

    def test_strict_resolves_relative_and_absolute_paths(self, tmp_path):
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "n.rawb").write_bytes(b"")
        (tmp_path / "g.rawb").write_bytes(b"")
        entry = self._entry(noisy_path="data/n.rawb", gt_path=str(tmp_path / "g.rawb"))
        m = load_manifest(write_manifest(tmp_path / "m.json", [entry]), strict=True)
        assert m.resolve(m.entries[0].noisy_path) == tmp_path / "data" / "n.rawb"
        assert m.resolve(m.entries[0].gt_path) == tmp_path / "g.rawb"
        (tmp_path / "g.rawb").unlink()
        with pytest.raises(ManifestError, match="g.rawb does not exist"):
            load_manifest(tmp_path / "m.json", strict=True)

    def test_bad_phase(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"phase": "warmup", "entries": []}))
        with pytest.raises(ManifestError):
            load_manifest(p)


class TestExternalScores:
    def test_table1_loads_35_entries(self, tmp_path):
        p = tmp_path / "ext.csv"
        lines = ["team,metric,value"]
        for team, vals in TABLE1.items():
            for metric, v in zip(("psnr", "ssim", "lpips", "arniqa", "topiq"), vals):
                lines.append(f"{team},{metric},{v}")
        p.write_text("\n".join(lines))
        scores = ingest_external_scores(p)
        assert len(scores) == 35
        assert scores[("MR-CAS", "psnr")] == 41.90

    def test_empty_file(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_text("")
        assert ingest_external_scores(p) == {}

    def test_unknown_metric(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_text("team,metric,value\nX,sharpness,1.0\n")
        with pytest.raises(DataError, match="sharpness"):
            ingest_external_scores(p)

    def test_non_numeric_value_with_line(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_text("team,metric,value\nX,lpips,abc\n")
        with pytest.raises(DataError, match=":2"):
            ingest_external_scores(p)

    def test_override_warns(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_text("team,metric,value\nX,lpips,0.5\nX,lpips,0.4\n")
        with pytest.warns(UserWarning):
            scores = ingest_external_scores(p)
        assert scores[("X", "lpips")] == 0.4


def _setup_benchmark(tmp_path, teams=("alpha",), noisy_sigma=None):
    """One paired entry; each team predicts gt (or gt + noise for 'beta')."""
    rng = np.random.default_rng(0)
    gt_data = rng.integers(2000, 14000, (1024, 1024)).astype(np.uint16)
    gt = make_frame(gt_data)
    (tmp_path / "gt").mkdir(exist_ok=True)
    write_frame(gt, tmp_path / "gt" / "img1.rawb")
    manifest = write_manifest(
        tmp_path / "manifest.json",
        [{"image_id": "img1", "camera": "camA", "scene_type": "paired", "iso": 800,
          "dgain": 100, "noisy_path": "gt/img1.rawb", "gt_path": "gt/img1.rawb"}],
    )
    pred_root = tmp_path / "preds"
    for team in teams:
        (pred_root / team).mkdir(parents=True)
        if noisy_sigma and team == "beta":
            noisy = np.clip(gt_data.astype(np.float64) + rng.normal(0, noisy_sigma, gt_data.shape),
                            0, 16383).astype(np.uint16)
            write_frame(make_frame(noisy), pred_root / team / "img1.rawb")
        else:
            write_frame(gt, pred_root / team / "img1.rawb")
    return manifest, pred_root


class TestRunBenchmark:
    def test_single_team_perfect(self, tmp_path):
        manifest_path, pred_root = _setup_benchmark(tmp_path)
        manifest = load_manifest(manifest_path)
        scores_path, rank_path = run_benchmark(manifest, pred_root, out_dir=tmp_path / "out")
        scores = scores_path.read_text()
        assert "inf" in scores and "1.0" in scores
        rank = rank_path.read_text().splitlines()
        assert "alpha" in rank[1]
        assert rank[1].split(",")[1:3] == ["1.0", "1.0"]  # psnr/ssim ranks

    def test_two_teams_ordering(self, tmp_path):
        manifest_path, pred_root = _setup_benchmark(tmp_path, teams=("alpha", "beta"),
                                                    noisy_sigma=100.0)
        manifest = load_manifest(manifest_path)
        _, rank_path = run_benchmark(manifest, pred_root, out_dir=tmp_path / "out")
        rows = rank_path.read_text().splitlines()
        header = rows[0].split(",")
        pos_col = header.index("pos_fidelity")
        positions = {r.split(",")[0]: int(r.split(",")[pos_col]) for r in rows[1:]}
        assert positions == {"alpha": 1, "beta": 2}

    def test_table1_injected_reproduces_positions(self, tmp_path):
        # no paired entries: ranking comes purely from external scores
        manifest = load_manifest(write_manifest(tmp_path / "m.json", []))
        pred_root = tmp_path / "preds"
        for team in TABLE1:
            (pred_root / team).mkdir(parents=True)
        ext = tmp_path / "ext.csv"
        lines = ["team,metric,value"]
        for team, vals in TABLE1.items():
            for metric, v in zip(("psnr", "ssim", "lpips", "arniqa", "topiq"), vals):
                lines.append(f"{team},{metric},{v}")
        ext.write_text("\n".join(lines))
        _, rank_path = run_benchmark(manifest, pred_root, external_scores_path=ext,
                                     out_dir=tmp_path / "out")
        rows = rank_path.read_text().splitlines()
        header = rows[0].split(",")
        fid_col = header.index("pos_fidelity")
        perc_col = header.index("pos_perceptual")
        fid = {r.split(",")[0]: int(r.split(",")[fid_col]) for r in rows[1:]}
        perc = {r.split(",")[0]: int(r.split(",")[perc_col]) for r in rows[1:]}
        assert fid == FIDELITY_POSITIONS
        assert perc == PERCEPTUAL_POSITIONS

    def test_rerun_byte_identical(self, tmp_path):
        manifest_path, pred_root = _setup_benchmark(tmp_path, teams=("alpha", "beta"),
                                                    noisy_sigma=60.0)
        manifest = load_manifest(manifest_path)
        s1, r1 = run_benchmark(manifest, pred_root, out_dir=tmp_path / "out1")
        s2, r2 = run_benchmark(manifest, pred_root, out_dir=tmp_path / "out2", threads=4)
        assert s1.read_bytes() == s2.read_bytes()
        assert r1.read_bytes() == r2.read_bytes()

    def test_aggregation_order_independent(self, tmp_path):
        rng = np.random.default_rng(3)
        (tmp_path / "gt").mkdir()
        pred_root = tmp_path / "preds"
        (pred_root / "alpha").mkdir(parents=True)
        entries = []
        for i in range(3):
            gt_data = rng.integers(2000, 14000, (1024, 1024)).astype(np.uint16)
            write_frame(make_frame(gt_data), tmp_path / "gt" / f"img{i}.rawb")
            noisy = np.clip(gt_data + rng.normal(0, 50 + 30 * i, gt_data.shape),
                            0, 16383).astype(np.uint16)
            write_frame(make_frame(noisy), pred_root / "alpha" / f"img{i}.rawb")
            entries.append({"image_id": f"img{i}", "camera": "camA",
                            "scene_type": "paired", "iso": 800, "dgain": 100,
                            "noisy_path": f"gt/img{i}.rawb", "gt_path": f"gt/img{i}.rawb"})
        m_fwd = load_manifest(write_manifest(tmp_path / "fwd.json", entries))
        m_rev = load_manifest(write_manifest(tmp_path / "rev.json", entries[::-1]))
        s_fwd, _ = run_benchmark(m_fwd, pred_root, out_dir=tmp_path / "o1")
        s_rev, _ = run_benchmark(m_rev, pred_root, out_dir=tmp_path / "o2")
        assert s_fwd.read_bytes() == s_rev.read_bytes()

    def test_missing_predictions_all_listed(self, tmp_path):
        manifest_path, pred_root = _setup_benchmark(tmp_path, teams=("alpha", "beta"))
        for team in ("alpha", "beta"):
            (pred_root / team / "img1.rawb").unlink()
        manifest = load_manifest(manifest_path)
        with pytest.raises(MissingDataError) as err:
            run_benchmark(manifest, pred_root, out_dir=tmp_path / "out")
        assert "alpha/img1" in str(err.value) and "beta/img1" in str(err.value)


@pytest.mark.parametrize("ext_rows", [[], ["alpha,psnr,41.0", "alpha,ssim,0.96"]])
def test_team_without_metrics_listed_unranked(tmp_path, ext_rows):
    # Without a paired entry a team that has no external score has no metric
    # at all: no category is complete and the rank table lists every team.
    manifest = load_manifest(write_manifest(tmp_path / "m.json", [
        {"image_id": "w1", "camera": "camA", "scene_type": "wild", "iso": 800,
         "dgain": 10, "noisy_path": "w1.rawb"}]))
    pred_root = tmp_path / "preds"
    for team in ("alpha", "beta"):
        (pred_root / team).mkdir(parents=True)
        write_frame(make_frame(np.zeros((4, 4), np.uint16)), pred_root / team / "w1.rawb")
    ext = tmp_path / "ext.csv"
    ext.write_text("\n".join(["team,metric,value", *ext_rows]))
    scores_path, rank_path = run_benchmark(manifest, pred_root, external_scores_path=ext,
                                           out_dir=tmp_path / "out")
    alpha = b"alpha,41.0,0.96,,,\r\n" if ext_rows else b"alpha,,,,,\r\n"
    assert scores_path.read_bytes() == (
        b"# aggregation=mean_per_image phase=dev\n"
        b"team,psnr,ssim,lpips,arniqa,topiq\r\n" + alpha + b"beta,,,,,\r\n"
    )
    assert rank_path.read_bytes() == b"team\r\nalpha\r\nbeta\r\n"
    assert (tmp_path / "out" / "per_image.csv").read_bytes() == (
        b"team,image_id,camera,iso,dgain,psnr_db,ssim\r\n"
    )


def test_nan_prediction_names_the_file(tmp_path):
    manifest_path, pred_root = _setup_benchmark(tmp_path, teams=("alpha", "beta"))
    bad = pred_root / "beta" / "img1.rawb"
    data = np.full((1024, 1024), 3000.0, dtype=np.float32)
    data[500, 500] = np.nan
    write_frame(make_frame(np.zeros_like(data)), bad)
    blob = bytearray(bad.read_bytes())
    blob[len(blob) - data.nbytes:] = data.tobytes()  # RawFrame itself refuses NaN
    bad.write_bytes(bytes(blob))
    with pytest.raises(DomainError) as err:
        run_benchmark(load_manifest(manifest_path), pred_root, out_dir=tmp_path / "out")
    assert str(bad) in str(err.value)


def test_misaligned_crop_names_team_and_image(tmp_path):
    # A prediction cropped differently from its ground truth used to score a
    # plausible PSNR on unrelated pixels.
    rng = np.random.default_rng(4)
    (tmp_path / "gt").mkdir()
    gt = rng.integers(2000, 14000, (2200, 2200)).astype(np.uint16)
    write_frame(make_frame(gt), tmp_path / "gt" / "img1.rawb")
    (tmp_path / "preds" / "alpha").mkdir(parents=True)
    write_frame(make_frame(gt[60:-60, 60:-60]), tmp_path / "preds" / "alpha" / "img1.rawb")
    manifest = load_manifest(write_manifest(tmp_path / "m.json", [
        {"image_id": "img1", "camera": "camA", "scene_type": "paired", "iso": 800,
         "dgain": 100, "noisy_path": "gt/img1.rawb", "gt_path": "gt/img1.rawb"}], phase="final"))
    with pytest.raises(DimensionError, match="^alpha/img1: prediction mosaic"):
        run_benchmark(manifest, tmp_path / "preds", out_dir=tmp_path / "out")
