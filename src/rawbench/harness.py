"""Dataset manifests, batch evaluation, external-score ingestion, CSV outputs.

A manifest lists the benchmark images (paired indoor scenes with ground
truth, in-the-wild scenes without).  ``run_benchmark`` evaluates every
team's predictions on the paired entries, merges externally computed
perceptual scores (LPIPS/ARNIQA/TOPIQ come from deep IQA tools, supplied
as a CSV), and emits deterministic per-image, per-team, and rank-table
CSVs.  Per-team aggregation is the arithmetic mean over images, computed
with exact summation so entry order never changes a reported value.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .calibration import SensorProfile
from .core import read_frame
from .errors import DataError, DimensionError, ManifestError, MissingDataError
from .metrics import evaluate_pair, prepare_reference
from .ranking import (
    ALL_METRICS,
    MetricRecord,
    RankTable,
    complete_categories,
    final_table,
)

_SCENE_TYPES = ("paired", "wild")
_PHASES = ("dev", "final")


@dataclass(frozen=True)
class ManifestEntry:
    image_id: str
    camera: str
    scene_type: str
    iso: int
    dgain: float
    noisy_path: str
    gt_path: str | None = None


@dataclass(frozen=True)
class Manifest:
    phase: str
    entries: tuple[ManifestEntry, ...]
    base_dir: str = "."

    def paired(self) -> list[ManifestEntry]:
        return [e for e in self.entries if e.scene_type == "paired"]

    def resolve(self, rel_path: str) -> Path:
        p = Path(rel_path)
        return p if p.is_absolute() else Path(self.base_dir) / p


def load_manifest(path, profile: SensorProfile | None = None, strict: bool = False) -> Manifest:
    """Parse and validate a manifest JSON file.

    With ``strict=True`` every referenced file must already exist; with a
    profile, entry ISOs must be among its calibrated settings.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ManifestError(f"{path}: unreadable JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    raw_entries = doc.get("entries", [])
    if not isinstance(raw_entries, list):
        raise ManifestError(f"{path}: 'entries' must be a list, got {type(raw_entries).__name__}")
    phase = doc.get("phase", "dev")
    if phase not in _PHASES:
        raise ManifestError(f"{path}: phase must be one of {_PHASES}, got {phase!r}")
    manifest = Manifest(phase=phase, entries=(), base_dir=str(path.parent))
    entries = []
    seen_ids = set()
    for i, raw in enumerate(raw_entries):
        where = f"{path}: entry {i}"
        try:
            entry = ManifestEntry(
                image_id=str(raw["image_id"]),
                camera=str(raw.get("camera", "")),
                scene_type=str(raw["scene_type"]),
                iso=int(raw["iso"]),
                dgain=float(raw.get("dgain", 1.0)),
                noisy_path=str(raw["noisy_path"]),
                gt_path=raw.get("gt_path"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"{where}: {exc}") from exc
        if entry.scene_type not in _SCENE_TYPES:
            raise ManifestError(f"{where}: scene_type must be one of {_SCENE_TYPES}")
        if entry.image_id in seen_ids:
            raise ManifestError(f"{where}: duplicate image_id {entry.image_id!r}")
        seen_ids.add(entry.image_id)
        if entry.scene_type == "paired" and not entry.gt_path:
            raise ManifestError(f"{where}: paired entry needs gt_path")
        if entry.scene_type == "wild" and entry.gt_path:
            warnings.warn(f"{where}: gt_path on a wild entry is ignored")
        if profile is not None and entry.iso not in profile.iso_params:
            raise ManifestError(
                f"{where}: ISO {entry.iso} not in profile "
                f"(available: {sorted(profile.iso_params)})"
            )
        if strict:
            for p in (entry.noisy_path, entry.gt_path):
                if p and not manifest.resolve(p).exists():
                    raise ManifestError(f"{where}: referenced file {p} does not exist")
        entries.append(entry)
    return replace(manifest, entries=tuple(entries))


def ingest_external_scores(path) -> dict[tuple[str, str], float]:
    """Read a team,metric,value CSV into a {(team, metric): value} map.

    Metric names must be one of the five challenge metrics; later rows
    override earlier ones with a warning.  An empty file yields an empty map.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    scores: dict[tuple[str, str], float] = {}
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        return scores
    start = 1 if [c.strip().lower() for c in rows[0]] == ["team", "metric", "value"] else 0
    for lineno, row in enumerate(rows[start:], start=start + 1):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 3:
            raise DataError(f"{path}:{lineno}: expected team,metric,value")
        team, metric, value = (c.strip() for c in row)
        metric = metric.lower()
        if metric not in ALL_METRICS:
            raise DataError(f"{path}:{lineno}: unknown metric {metric!r}")
        try:
            v = float(value)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric value {value!r}") from None
        if math.isnan(v):
            raise DataError(f"{path}:{lineno}: NaN value")
        key = (team, metric)
        if key in scores:
            warnings.warn(f"{path}:{lineno}: duplicate {team}/{metric}, overriding")
        scores[key] = v
    return scores


def _fmt(v: float | None) -> str:
    if v is None:
        return ""
    return repr(float(v))


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def score_pairs(pairs, phase: str, threads: int = 1) -> list[tuple]:
    """Read and score (label, pred_path, gt_path) triples into (pred camera_id,
    pred iso, EvalResult), returned in input order.

    The triples are scored in groups sharing a ground truth: a group reads
    and prepares its GT once (``metrics.prepare_reference``), scores its
    predictions against it and releases it when it ends.  With
    ``threads > 1`` whole groups run in parallel, so at most ``threads``
    references are held at once.  A shape mismatch names the label, a GT too
    small for the crop names the GT file.
    """
    pairs = list(pairs)
    groups: dict[object, list[int]] = {}
    for i, (_, _, gt_path) in enumerate(pairs):
        groups.setdefault(gt_path, []).append(i)

    def score_one(ref, i):
        label, pred_path, _ = pairs[i]
        pred = read_frame(pred_path)
        try:
            res = evaluate_pair(pred, ref, phase)
        except DimensionError as exc:
            raise DimensionError(f"{label}: {exc}") from exc
        return pred.camera_id, pred.iso, res

    def score_group(gt_path, members):
        gt = read_frame(gt_path)
        try:
            ref = prepare_reference(gt, phase)
        except DimensionError as exc:
            raise DimensionError(f"{gt_path}: {exc}") from exc
        del gt  # only the reference is needed from here
        return [score_one(ref, i) for i in members]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(score_group, groups.keys(), groups.values()))
    else:
        done = [score_group(*group) for group in groups.items()]
    results: list[tuple] = [()] * len(pairs)
    for members, rows in zip(groups.values(), done):
        for i, row in zip(members, rows):
            results[i] = row
    return results


def write_per_image(path, key_columns: tuple[str, ...], rows) -> None:
    """Per-image CSV; each row is its key values, camera, iso, dgain, then an EvalResult."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*key_columns, "camera", "iso", "dgain", "psnr_db", "ssim"])
        for *values, res in rows:
            writer.writerow([*values, _fmt(res.psnr), _fmt(res.ssim)])


def run_benchmark(
    manifest: Manifest,
    pred_root,
    external_scores_path=None,
    out_dir=".",
    threads: int = 1,
) -> tuple[Path, Path]:
    """Evaluate all teams under ``pred_root`` and write scores + rank table.

    ``pred_root`` contains one subdirectory per team holding
    ``<image_id>.rawb`` predictions.  Paired entries are scored with the
    crop protocol; perceptual metrics come from the external CSV.  Missing
    predictions are all reported at once before aborting.  Returns the
    paths of scores.csv and ranktable.csv.
    """
    pred_root = Path(pred_root)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    teams = sorted(p.name for p in pred_root.iterdir() if p.is_dir())
    if not teams:
        raise MissingDataError(f"{pred_root}: no team subdirectories found")
    paired = manifest.paired()

    missing = []
    for team in teams:
        for entry in manifest.entries:
            if not (pred_root / team / f"{entry.image_id}.rawb").exists():
                missing.append(f"{team}/{entry.image_id}")
    if missing:
        raise MissingDataError(
            f"missing predictions for {len(missing)} entries: {', '.join(missing)}"
        )

    jobs = [(team, entry) for team in teams for entry in paired]
    pairs = [
        (f"{t}/{e.image_id}", pred_root / t / f"{e.image_id}.rawb", manifest.resolve(e.gt_path))
        for t, e in jobs
    ]
    per_image_rows = [
        (team, entry.image_id, entry.camera, entry.iso, entry.dgain, res)
        for (team, entry), (_, _, res) in zip(jobs, score_pairs(pairs, manifest.phase, threads))
    ]
    computed: dict[str, dict[str, float]] = {t: {} for t in teams}
    for team in teams:
        team_res = [row[-1] for row in per_image_rows if row[0] == team]
        if team_res:
            computed[team]["psnr"] = _mean([r.psnr for r in team_res])
            computed[team]["ssim"] = _mean([r.ssim for r in team_res])

    external = ingest_external_scores(external_scores_path) if external_scores_path else {}
    merged: dict[str, dict[str, float]] = {t: dict(computed[t]) for t in teams}
    for (team, metric), value in sorted(external.items()):
        if team not in merged:
            merged[team] = {}
        if metric in merged[team]:
            warnings.warn(
                f"external {metric} for {team!r} overrides the computed value"
            )
        merged[team][metric] = value
    all_teams = sorted(merged)

    records = [
        MetricRecord(team=t, **{m: merged[t].get(m) for m in ALL_METRICS})
        for t in all_teams
        if merged[t]
    ]
    if len(records) == len(all_teams):
        table = final_table(records, complete_categories(records))
    else:
        # A team with no metric at all (only possible when the manifest has
        # no paired entry) completes no category: list every team, rank none.
        table = RankTable(teams=tuple(all_teams))

    scores_path = out_dir / "scores.csv"
    with open(scores_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# aggregation=mean_per_image phase={manifest.phase}\n")
        writer = csv.writer(fh)
        writer.writerow(["team", *ALL_METRICS])
        for t in all_teams:
            writer.writerow([t, *[_fmt(merged[t].get(m)) for m in ALL_METRICS]])

    write_per_image(out_dir / "per_image.csv", ("team", "image_id"), per_image_rows)

    ranktable_path = out_dir / "ranktable.csv"
    write_ranktable(table, ranktable_path)
    return scores_path, ranktable_path


def write_ranktable(table: RankTable, path) -> None:
    """Serialize a RankTable to CSV (per-metric ranks, scores, positions)."""
    metrics = sorted(table.metric_ranks)
    categories = sorted(table.positions)
    sort_cat = "overall" if "overall" in categories else (categories[0] if categories else None)
    teams = list(table.teams)
    if sort_cat:
        teams.sort(key=lambda t: (table.positions[sort_cat][t], t))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["team"]
            + [f"rank_{m}" for m in metrics]
            + [f"score_{c}" for c in categories]
            + [f"pos_{c}" for c in categories]
        )
        for t in teams:
            writer.writerow(
                [t]
                + [_fmt(table.metric_ranks[m][t]) for m in metrics]
                + [_fmt(table.scores[c][t]) for c in categories]
                + [table.positions[c][t] for c in categories]
            )
