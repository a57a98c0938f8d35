import hashlib
import json
import re
import threading

import numpy as np
import pytest

from rawbench import core, harness
from rawbench.cli import main
from rawbench.core import read_frame, write_frame
from rawbench.errors import DataError, DimensionError, DomainError, ManifestError, MissingDataError
from rawbench.harness import (
    ingest_external_scores,
    load_manifest,
    run_benchmark,
    score_pairs,
)
from rawbench.metrics import evaluate_pair

from conftest import (
    FIDELITY_POSITIONS, PERCEPTUAL_POSITIONS, TABLE1, WHITE, make_frame,
)


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

    @pytest.mark.parametrize("field, value, match", [
        ("iso", float("inf"), "iso must be finite and >= 0, got inf"),
        ("iso", 800.7, "iso must be a whole number, got 800.7"),
        ("iso", -5, "iso must be finite and >= 0, got -5"),
        ("iso", "800", "iso must be a number, got '800'"),
        ("dgain", float("nan"), "dgain must be finite and > 0, got nan"),
        ("dgain", -3, "dgain must be finite and > 0, got -3"),
        ("dgain", True, "dgain must be a number, got True"),
    ], ids=["iso-inf", "iso-fraction", "iso-negative", "iso-string", "dgain-nan",
            "dgain-negative", "dgain-bool"])
    def test_bad_iso_or_dgain_names_entry_and_field(self, tmp_path, field, value, match):
        # an infinite ISO used to raise a bare OverflowError, 800.7 was stored
        # as 800, and a NaN or negative dgain was kept
        entries = [self._entry(), self._entry(image_id="img2", **{field: value})]
        with pytest.raises(ManifestError, match=re.escape(f"m.json: entry 1: {match}")):
            load_manifest(write_manifest(tmp_path / "m.json", entries))

    @pytest.mark.parametrize("field, value", [
        ("image_id", None), ("image_id", 7), ("noisy_path", None), ("noisy_path", 3),
        ("gt_path", 5), ("camera", None), ("scene_type", None),
    ])
    def test_text_fields_must_be_json_strings(self, tmp_path, field, value):
        # a null image_id or noisy_path used to load as 'None', and a numeric
        # gt_path failed later in Manifest.resolve with a bare TypeError;
        # scene_type is a choice, so its rule names the choices
        bad = self._entry(image_id="img2")
        bad[field] = value
        rule = "be one of ('paired', 'wild')" if field == "scene_type" else "be a string"
        message = f"m.json: entry 1: {field} must {rule}, got {value!r}"
        with pytest.raises(ManifestError, match=re.escape(message)):
            load_manifest(write_manifest(tmp_path / "m.json", [self._entry(), bad]))

    def test_camera_may_be_absent_and_gt_path_null(self, tmp_path):
        entry = self._entry(scene_type="wild", gt_path=None)
        del entry["camera"]
        m = load_manifest(write_manifest(tmp_path / "m.json", [entry]))
        assert (m.entries[0].camera, m.entries[0].gt_path) == ("", None)

    def test_whole_float_iso_and_int_dgain_are_read_as_numbers(self, tmp_path):
        m = load_manifest(write_manifest(tmp_path / "m.json", [self._entry(iso=800.0, dgain=100)]))
        assert (m.entries[0].iso, m.entries[0].dgain) == (800, 100.0)
        assert type(m.entries[0].iso) is int and type(m.entries[0].dgain) is float

    def test_bad_phase(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"phase": "warmup", "entries": []}))
        with pytest.raises(ManifestError):
            load_manifest(p)

    @pytest.mark.parametrize("doc, match", [
        ([], "expected a JSON object, got list"),
        ({"phase": "dev", "entries": 5}, "'entries' must be a list, got int"),
        ({"phase": "dev", "entries": {"image_id": "img1"}}, "'entries' must be a list, got dict"),
        # an entry of 5 used to end in an AttributeError from raw.get
        ({"phase": "dev", "entries": [5]}, "entry 0: expected a JSON object, got int"),
        ({"phase": "dev", "entries": [[]]}, "entry 0: expected a JSON object, got list"),
        # "phsae" loaded as phase dev, so a final-phase run was scored at the dev crop
        ({"phsae": "final", "entries": []}, "unknown keys ['phsae']"),
        # "dgian" loaded as dgain 1.0, which per_image.csv then recorded
        ({"entries": [{"image_id": "img1", "scene_type": "wild", "iso": 800, "dgian": 200,
                       "noisy_path": "n.rawb"}]}, "entry 0: unknown keys ['dgian']"),
    ], ids=["list", "entries-int", "entries-dict", "entry-int", "entry-list", "unknown-key",
            "unknown-entry-key"])
    def test_malformed_top_level_names_the_file(self, tmp_path, doc, match):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match=re.escape(f"m.json: {match}")):
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

    def test_missing_header_names_line_1(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_text("X,lpips,0.5\n")
        with pytest.raises(DataError, match=r"ext.csv:1: missing column\(s\) team, metric, value"):
            ingest_external_scores(p)

    def test_comment_lines_skipped(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_text("# from the IQA tool\nteam,metric,value\n# run 2\nX,lpips,0.5\nX,topiq,abc\n")
        with pytest.raises(DataError, match="ext.csv:5: column 'value'"):
            ingest_external_scores(p)
        p.write_text("# from the IQA tool\nteam,metric,value\n# run 2\nX,lpips,0.5\n")
        assert ingest_external_scores(p) == {("X", "lpips"): 0.5}

    def test_nan_value_with_line(self, tmp_path):
        p = tmp_path / "ext.csv"
        p.write_text("team,metric,value\nX,lpips,0.5\nX,topiq,nan\n")
        with pytest.raises(DataError, match="ext.csv:3: column 'value': NaN value"):
            ingest_external_scores(p)


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


COMPLETE_EXT_ROWS = [
    f"{team},{metric},{value}"
    for team, values in (("alpha", ("inf", 0.96, 0.2, 0.5, 0.3)),
                         ("beta", (40.0, 0.95, 0.25, 0.45, 0.25)))
    for metric, value in zip(("psnr", "ssim", "lpips", "arniqa", "topiq"), values)
]


@pytest.mark.parametrize("ext_rows", [
    [], ["alpha,psnr,41.0", "alpha,ssim,0.96"], COMPLETE_EXT_ROWS,
])
def test_team_without_metrics_listed_unranked(tmp_path, ext_rows):
    # Without a paired entry a team that has no external score has no metric
    # at all: no category is complete and the rank table lists every team.
    # Complete or not, `rawbench rank` on the scores.csv that the run wrote
    # reproduces its rank table byte for byte.
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
    if ext_rows is COMPLETE_EXT_ROWS:
        rows = b"alpha,inf,0.96,0.2,0.5,0.3\r\nbeta,40.0,0.95,0.25,0.45,0.25\r\n"
        ranks = (
            b"team,rank_arniqa,rank_lpips,rank_psnr,rank_ssim,rank_topiq,score_fidelity,"
            b"score_overall,score_perceptual,pos_fidelity,pos_overall,pos_perceptual\r\n"
            b"alpha,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1,1,1\r\n"
            b"beta,2.0,2.0,2.0,2.0,2.0,2.0,2.0,2.0,2,2,2\r\n"
        )
    else:
        alpha = b"alpha,41.0,0.96,,,\r\n" if ext_rows else b"alpha,,,,,\r\n"
        rows = alpha + b"beta,,,,,\r\n"
        ranks = b"team\r\nalpha\r\nbeta\r\n"
    assert scores_path.read_bytes() == (
        b"# aggregation=mean_per_image phase=dev\n"
        b"team,psnr,ssim,lpips,arniqa,topiq\r\n" + rows
    )
    assert rank_path.read_bytes() == ranks
    assert (tmp_path / "out" / "per_image.csv").read_bytes() == (
        b"team,image_id,camera,iso,dgain,psnr_db,ssim\r\n"
    )
    rank_out = tmp_path / "rank.csv"
    assert main(["rank", "--scores", str(scores_path), "--out", str(rank_out)]) == 0
    assert rank_out.read_bytes() == ranks


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


def _final_phase_fixture(root):
    """2 teams x 2 paired final-phase images + 1 wild image, seeded: ``alpha``
    predicts u16 with noise, ``beta`` f32 with noise and one ISO mismatch."""
    rng = np.random.default_rng(2026)
    (root / "gt").mkdir()
    entries = []
    for image_id, (h, w) in (("p0", (2052, 2068)), ("p1", (2060, 2050))):
        yy, xx = np.mgrid[0:h, 0:w]
        clean = (4000 + 3000 * np.sin(xx / 37.0) * np.cos(yy / 23.0)
                 + rng.normal(0, 300, (h, w)))
        gt = np.clip(np.rint(clean), 0, WHITE).astype(np.uint16)
        write_frame(make_frame(gt), root / "gt" / f"{image_id}.rawb")
        for team, sigma, dtype in (("alpha", 40.0, np.uint16), ("beta", 90.0, np.float32)):
            (root / "preds" / team).mkdir(parents=True, exist_ok=True)
            pred = np.clip(gt + rng.normal(0, sigma, gt.shape), 0, WHITE)
            pred = np.rint(pred).astype(dtype) if dtype == np.uint16 else pred.astype(dtype)
            iso = 1600 if (team, image_id) == ("beta", "p1") else 800
            write_frame(make_frame(pred, iso=iso), root / "preds" / team / f"{image_id}.rawb")
        entries.append({"image_id": image_id, "camera": "camA", "scene_type": "paired",
                        "iso": 800, "dgain": 100, "noisy_path": f"gt/{image_id}.rawb",
                        "gt_path": f"gt/{image_id}.rawb"})
    entries.append({"image_id": "w0", "camera": "camA", "scene_type": "wild", "iso": 800,
                    "dgain": 50, "noisy_path": "w0.rawb"})
    for team in ("alpha", "beta"):
        write_frame(make_frame(np.full((64, 64), 900, np.uint16)),
                    root / "preds" / team / "w0.rawb")
    ext = root / "ext.csv"
    ext.write_text("team,metric,value\nalpha,lpips,0.25\nbeta,lpips,0.21\n"
                   "alpha,arniqa,0.44\nbeta,arniqa,0.47\nalpha,topiq,0.26\nbeta,topiq,0.25\n")
    return write_manifest(root / "m.json", entries, phase="final"), root / "preds", ext


# SHA-256 of the three CSVs of the final-phase fixture: a scoring change
# that moves any bit of a score, a rank or the row order changes them.
FINAL_PHASE_DIGESTS = {
    "scores.csv": "653dda1299de805b6527e0453c911a4e8efd1e75f53c4bb447f49dd61c802913",
    "per_image.csv": "c1d885a1b5c0355e6c22204abfd18eaa6ebe89004ce67c88be549c08114d3f42",
    "ranktable.csv": "864c6a03f30b56b4b57d8409f466681c999c37d44d2e3473e19bfe805885caf6",
}


@pytest.mark.parametrize("threads", [1, 2])
def test_final_phase_csvs_byte_identical(tmp_path, threads):
    manifest_path, pred_root, ext = _final_phase_fixture(tmp_path)
    with pytest.warns(UserWarning, match="metadata mismatch"):
        run_benchmark(load_manifest(manifest_path), pred_root, external_scores_path=ext,
                      out_dir=tmp_path / "out", threads=threads)
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in FINAL_PHASE_DIGESTS}
    assert digests == FINAL_PHASE_DIGESTS


class TestScorePairs:
    def _pairs(self, tmp_path):
        """3 predictions x 2 ground truths, interleaved: a/g0, a/g1, b/g0, ..."""
        rng = np.random.default_rng(5)
        pairs = []
        for g in range(2):
            gt = rng.integers(2000, 14000, (1040, 1036)).astype(np.uint16)
            write_frame(make_frame(gt), tmp_path / f"g{g}.rawb")
            for t in "abc":
                noisy = np.clip(gt + rng.normal(0, 30 + 40 * (t > "a"), gt.shape), 0, WHITE)
                iso = 1600 if (t, g) == ("c", 1) else 800
                write_frame(make_frame(noisy.astype(np.float32), iso=iso),
                            tmp_path / f"{t}{g}.rawb")
        return [(f"{t}/g{g}", tmp_path / f"{t}{g}.rawb", tmp_path / f"g{g}.rawb")
                for t in "abc" for g in range(2)]

    def test_each_gt_read_once_rows_in_input_order(self, tmp_path, monkeypatch):
        pairs = self._pairs(tmp_path)
        with pytest.warns(UserWarning, match="metadata mismatch"):
            expect = [evaluate_pair(read_frame(p), read_frame(g), "dev") for _, p, g in pairs]
        reads = []

        def counting_read(path):
            reads.append(path)
            return read_frame(path)

        monkeypatch.setattr(harness, "read_frame", counting_read)
        with pytest.warns(UserWarning, match="metadata mismatch"):
            rows = score_pairs(pairs, "dev")
        assert sorted(map(str, reads)) == sorted({str(p) for _, *paths in pairs for p in paths})
        assert [res for _, _, res in rows] == expect
        assert [iso for _, iso, _ in rows] == [800, 800, 800, 800, 800, 1600]
        with pytest.warns(UserWarning, match="metadata mismatch"):
            assert score_pairs(pairs, "dev", threads=2) == rows

    def test_gt_groups_overlap_at_two_threads(self, tmp_path, monkeypatch):
        # One prediction per GT on two CPUs: the two groups must be in flight
        # together, or the barrier on the GT reads times out.
        monkeypatch.setattr(core, "_WORKERS", 2)
        pairs = [p for p in self._pairs(tmp_path) if p[0].startswith("a/")]
        barrier = threading.Barrier(2, timeout=10)

        def gt_read_waits(path):
            if path.name.startswith("g"):
                barrier.wait()
            return read_frame(path)

        rows = score_pairs(pairs, "dev")
        monkeypatch.setattr(harness, "read_frame", gt_read_waits)
        assert score_pairs(pairs, "dev", threads=2) == rows

    def test_gt_too_small_names_the_gt_file(self, tmp_path):
        small = make_frame(np.full((512, 512), 3000, dtype=np.uint16))
        write_frame(small, tmp_path / "g.rawb")
        write_frame(small, tmp_path / "p.rawb")
        with pytest.raises(DimensionError, match=r"g\.rawb: crop 512x512 does not fit"):
            score_pairs([("alpha/img", tmp_path / "p.rawb", tmp_path / "g.rawb")], "dev")

    def test_empty(self):
        assert score_pairs([], "final") == []

    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match=f"threads must be an integer >= 1, got {threads}"):
            score_pairs([], "dev", threads=threads)

    @pytest.mark.parametrize("threads", [float("nan"), 2.5, True, "2"])
    def test_threads_that_are_no_int_rejected(self, threads):
        # a NaN count passed ``< 1`` and gave a pool that never started a
        # thread, so scoring hung
        message = f"threads must be an integer >= 1, got {threads!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            score_pairs([], "dev", threads=threads)


def test_threads_may_be_a_numpy_integer(tmp_path):
    # np.int64(2) used to be refused while Roi took numpy integers
    assert score_pairs([], "dev", threads=np.int64(2)) == []
    manifest_path, pred_root = _setup_benchmark(tmp_path)
    paths = run_benchmark(load_manifest(manifest_path), pred_root, out_dir=tmp_path / "np",
                          threads=np.int64(2))
    want = run_benchmark(load_manifest(manifest_path), pred_root, out_dir=tmp_path / "int",
                         threads=2)
    assert [p.read_bytes() for p in paths] == [p.read_bytes() for p in want]


@pytest.mark.parametrize("threads", [0, -4])
def test_run_benchmark_threads_below_one_rejected(tmp_path, threads):
    manifest_path, pred_root = _setup_benchmark(tmp_path)
    with pytest.raises(ValueError, match=f"threads must be an integer >= 1, got {threads}"):
        run_benchmark(load_manifest(manifest_path), pred_root, out_dir=tmp_path / "out",
                      threads=threads)
    assert not (tmp_path / "out").exists()
