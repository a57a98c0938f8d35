"""Dataset manifests, batch evaluation, score CSVs in and out.

A manifest lists the benchmark images (paired indoor scenes with ground
truth, in-the-wild scenes without) under one scoring phase, which is a key
of the crop protocol's table ``metrics._CROP_SIDES``; scoring needs no
sensor profile, so entry ISOs are recorded, not checked against one.
``run_benchmark`` evaluates every team's predictions on the paired
entries, merges externally computed perceptual scores (LPIPS/ARNIQA/TOPIQ
come from deep IQA tools, supplied as a CSV), and emits deterministic
per-image, per-team, and rank-table CSVs.  Per-team aggregation is the
arithmetic mean over images, computed with exact summation so entry order
never changes a reported value.

Every CSV the package reads (external scores, ``rawbench rank``'s wide
scores, ``calibrate --ptc-csv``) goes through ``_read_csv``/``_csv_value``:
a header row, ``#`` lines skipped, and a malformed row or a NaN value is a
DataError naming ``file:line``.  The rank table is ``ranking.final_table``
of one record per team, which ranks only the categories every team
completes: a team with no metric at all is listed but ranked in no
category, so ``rawbench rank`` on the ``scores.csv`` written here
reproduces ``ranktable.csv`` byte for byte.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

from . import core
from .core import (_check_choice, _check_finite, _check_int, _check_iso, _check_keys,
                   _check_string, _map, _read_json, read_frame)
from .errors import DataError, DimensionError, DomainError, ManifestError, MissingDataError
from .metrics import _CROP_SIDES, evaluate_pair, prepare_reference
from .ranking import ALL_METRICS, MetricRecord, RankTable, final_table

_SCENE_TYPES = ("paired", "wild")
_PHASES = tuple(_CROP_SIDES)


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


def load_manifest(path) -> Manifest:
    """Parse and validate a manifest JSON file.

    The phase must be one of the crop protocol's (``metrics._CROP_SIDES``).
    Entry fields must have their JSON types: numbers for ``iso`` and
    ``dgain``, strings for the rest (``camera`` may be absent, ``gt_path``
    absent or null), and no key may lie outside them (``core._check_keys``).
    No referenced file is opened (``score_pairs`` checks the ground truths).
    """
    path = Path(path)
    doc = _read_json(path, error=ManifestError)
    _check_keys(path, doc, ("phase", "entries"), error=ManifestError)
    raw_entries = doc.get("entries", [])
    if not isinstance(raw_entries, list):
        raise ManifestError(f"{path}: 'entries' must be a list, got {type(raw_entries).__name__}")
    phase = doc.get("phase", "dev")
    _check_choice(f"{path}: phase", phase, _PHASES, error=ManifestError)
    entries = []
    seen_ids = set()
    for i, raw in enumerate(raw_entries):
        where = f"{path}: entry {i}"
        _check_keys(where, raw, [f.name for f in fields(ManifestEntry)], error=ManifestError)
        try:
            gt_path = raw.get("gt_path")
            entry = ManifestEntry(
                image_id=_check_string("image_id", raw["image_id"]),
                camera=_check_string("camera", raw.get("camera", "")),
                scene_type=_check_choice("scene_type", raw["scene_type"], _SCENE_TYPES,
                                         error=ValueError),
                iso=_check_iso("iso", raw["iso"]),
                dgain=_check_finite("dgain", raw.get("dgain", 1.0), positive=True,
                                    error=DomainError),
                noisy_path=_check_string("noisy_path", raw["noisy_path"]),
                gt_path=None if gt_path is None else _check_string("gt_path", gt_path),
            )
        except (KeyError, TypeError, ValueError, DomainError) as exc:
            raise ManifestError(f"{where}: {exc}") from exc
        if entry.image_id in seen_ids:
            raise ManifestError(f"{where}: duplicate image_id {entry.image_id!r}")
        seen_ids.add(entry.image_id)
        if entry.scene_type == "paired" and not entry.gt_path:
            raise ManifestError(f"{where}: paired entry needs gt_path")
        if entry.scene_type == "wild" and entry.gt_path:
            warnings.warn(f"{where}: gt_path on a wild entry is ignored")
        entries.append(entry)
    return Manifest(phase=phase, entries=tuple(entries), base_dir=str(path.parent))


def _read_csv(path, required: tuple[str, ...]):
    """Yield (where, row) per data row of a CSV file with a header row.

    Lines starting with ``#`` are skipped, and ``where`` is the row's
    ``file:line`` in the file as written.  A header without one of the
    ``required`` columns, a row with more cells than the header and a row
    with no cell for a required column raise DataError.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        numbered = [(n, line) for n, line in enumerate(fh, 1) if not line.startswith("#")]
    reader = csv.DictReader(line for _, line in numbered)
    missing = [c for c in required if c not in (reader.fieldnames or ())]
    if missing:
        header_line = numbered[0][0] if numbered else 1
        raise DataError(f"{path}:{header_line}: missing column(s) {', '.join(missing)}")
    for row in reader:
        where = f"{path}:{numbered[reader.line_num - 1][0]}"
        if None in row:
            raise DataError(f"{where}: more cells than the {len(reader.fieldnames)} header columns")
        short = [c for c in required if row[c] is None]
        if short:
            raise DataError(f"{where}: no cell for column(s) {', '.join(short)}")
        yield where, row


def _csv_value(where: str, row: dict, name: str, convert):
    """``convert(row[name])``, or DataError naming ``where`` and the column.

    NaN is rejected; +-inf is a value (PSNR is inf for identical images).
    """
    try:
        value = convert(row[name])
    except (TypeError, ValueError):
        raise DataError(
            f"{where}: column {name!r}: cannot read {row[name]!r} as {convert.__name__}"
        ) from None
    if isinstance(value, float) and math.isnan(value):
        raise DataError(f"{where}: column {name!r}: NaN value")
    return value


def ingest_external_scores(path) -> dict[tuple[str, str], float]:
    """Read a team,metric,value CSV into a {(team, metric): value} map.

    The file starts with that header row; metric names must be one of the
    five challenge metrics, and later rows override earlier ones with a
    warning.  An empty file yields an empty map.
    """
    scores: dict[tuple[str, str], float] = {}
    if Path(path).stat().st_size == 0:
        return scores
    for where, row in _read_csv(path, ("team", "metric", "value")):
        team = row["team"].strip()
        metric = _check_choice(f"{where}: metric", row["metric"].strip().lower(), ALL_METRICS,
                               error=DataError)
        value = _csv_value(where, row, "value", float)
        if (team, metric) in scores:
            warnings.warn(f"{where}: duplicate {team}/{metric}, overriding")
        scores[team, metric] = value
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
    predictions against it and releases it when it ends.  ``threads``
    bounds the number of ground truths scored, and held in memory, at once:
    the groups are ``core._map`` tasks, each scoring SSIM inline, only when
    ``min(threads, groups)`` reaches the CPU count (``core._WORKERS``), and
    otherwise run one at a time with each image's SSIM on every CPU.
    A shape mismatch names the label, a GT too small for the crop names the
    GT file.  ``threads`` that is not an integer >= 1 raises ValueError.
    Before any file is read, every distinct ground truth must exist: one
    MissingDataError names each missing one, in first-appearance order.
    """
    _check_int("threads", threads, minimum=1, error=ValueError)
    pairs = list(pairs)
    groups: dict[object, list[int]] = {}
    for i, (_, _, gt_path) in enumerate(pairs):
        groups.setdefault(gt_path, []).append(i)
    missing = [str(gt_path) for gt_path in groups if not Path(gt_path).exists()]
    if missing:
        raise MissingDataError(f"missing ground truth: {', '.join(missing)}")

    def score_one(ref, i):
        label, pred_path, _ = pairs[i]
        pred = read_frame(pred_path)
        try:
            res = evaluate_pair(pred, ref, phase)
        except DimensionError as exc:
            raise DimensionError(f"{label}: {exc}") from exc
        return pred.camera_id, pred.iso, res

    def score_group(group):
        gt_path, members = group
        gt = read_frame(gt_path)
        try:
            ref = prepare_reference(gt, phase)
        except DimensionError as exc:
            raise DimensionError(f"{gt_path}: {exc}") from exc
        del gt  # only the reference is needed from here
        return [score_one(ref, i) for i in members]

    # Groups in parallel against one group's SSIM bands and PSNR leaves on
    # every CPU: on the final-phase bench round (2 GTs x 4 teams, 2-vCPU
    # host) threads=2 was 0.92-1.10x as fast as threads=1 in two sets of
    # five in-process alternating pairs, medians 1.02 and 1.05.  Fewer
    # groups than CPUs would leave idle CPUs the bands use.
    if min(threads, len(groups)) >= core._WORKERS:
        done = _map(score_group, groups.items())
    else:
        done = [score_group(group) for group in groups.items()]
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
    predictions, then missing ground truths, are named all at once before
    any pair is scored.  Returns the paths of scores.csv and ranktable.csv.
    ``threads`` bounds the number of ground truths scored at once (see
    ``score_pairs``); one that is not an integer >= 1 raises ValueError
    before any file is touched.
    """
    _check_int("threads", threads, minimum=1, error=ValueError)
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
    merged: dict[str, dict[str, float]] = {t: {} for t in teams}
    for team in teams:
        team_res = [row[-1] for row in per_image_rows if row[0] == team]
        if team_res:
            merged[team]["psnr"] = _mean([r.psnr for r in team_res])
            merged[team]["ssim"] = _mean([r.ssim for r in team_res])

    external = ingest_external_scores(external_scores_path) if external_scores_path else {}
    for (team, metric), value in sorted(external.items()):
        if metric in merged.setdefault(team, {}):
            warnings.warn(
                f"external {metric} for {team!r} overrides the computed value"
            )
        merged[team][metric] = value
    all_teams = sorted(merged)
    records = [
        MetricRecord(team=t, **{m: merged[t].get(m) for m in ALL_METRICS}) for t in all_teams
    ]
    table = final_table(records)

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
