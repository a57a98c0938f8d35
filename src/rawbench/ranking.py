"""Challenge scoring engine: per-metric ranks, category scores, tie-breaks.

Teams are first ranked independently for each metric (fractional average
ranks on exact ties, so rank sums stay at n(n+1)/2).  Average ranking
scores are then computed in three categories -- overall (all five
metrics), fidelity (PSNR, SSIM) and perceptual (LPIPS, ARNIQA, TOPIQ) --
and lower is better.  Teams with equal category scores are ordered by a
majority vote over that category's metrics: whoever wins strictly more
pairwise metric comparisons places first.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

from .errors import DataError

METRIC_DIRECTIONS = {
    "psnr": "up",
    "ssim": "up",
    "lpips": "down",
    "arniqa": "up",
    "topiq": "up",
}
ALL_METRICS = ("psnr", "ssim", "lpips", "arniqa", "topiq")
CATEGORY_METRICS = {
    "overall": ALL_METRICS,
    "fidelity": ("psnr", "ssim"),
    "perceptual": ("lpips", "arniqa", "topiq"),
}


@dataclass(frozen=True)
class MetricRecord:
    """One team's metric values; a metric absent from a category blocks that category."""

    team: str
    psnr: float | None = None
    ssim: float | None = None
    lpips: float | None = None
    arniqa: float | None = None
    topiq: float | None = None

    def __post_init__(self):
        if all(getattr(self, m) is None for m in ALL_METRICS):
            raise DataError(f"team {self.team!r} has no metrics at all")

    def get(self, metric: str) -> float | None:
        if metric not in METRIC_DIRECTIONS:
            raise DataError(f"unknown metric {metric!r}")
        return getattr(self, metric)


@dataclass(frozen=True)
class RankTable:
    teams: tuple[str, ...]
    metric_ranks: dict[str, dict[str, float]] = field(default_factory=dict)
    scores: dict[str, dict[str, float]] = field(default_factory=dict)
    positions: dict[str, dict[str, int]] = field(default_factory=dict)


def rank_metric(values: list[tuple[str, float]], direction: str) -> list[tuple[str, float]]:
    """Rank (team, value) entries 1..n per direction; exact ties share the
    fractional average of their positions.  Returned in input order."""
    if not values:
        raise DataError("cannot rank an empty list")
    if direction not in ("up", "down"):
        raise DataError(f"direction must be 'up' or 'down', got {direction!r}")
    for team, v in values:
        if isinstance(v, float) and math.isnan(v):
            raise DataError(f"NaN metric value for team {team!r}")
    better = (lambda v: -v) if direction == "up" else (lambda v: v)
    order = sorted(range(len(values)), key=lambda i: better(values[i][1]))
    ranks = [0.0] * len(values)
    pos = 0
    while pos < len(order):
        end = pos
        while end + 1 < len(order) and values[order[end + 1]][1] == values[order[pos]][1]:
            end += 1
        avg = (pos + 1 + end + 1) / 2.0
        for k in range(pos, end + 1):
            ranks[order[k]] = avg
        pos = end + 1
    return [(team, ranks[i]) for i, (team, _) in enumerate(values)]


def _metric_rank_map(records: list[MetricRecord], metric: str) -> dict[str, float]:
    entries = []
    for r in records:
        v = r.get(metric)
        if v is None:
            raise DataError(f"team {r.team!r} is missing metric {metric!r}")
        entries.append((r.team, float(v)))
    return dict(rank_metric(entries, METRIC_DIRECTIONS[metric]))


def complete_categories(records: list[MetricRecord]) -> tuple[str, ...]:
    """Categories in which every record has every metric; only these are ranked."""
    return tuple(
        cat
        for cat, metric_set in CATEGORY_METRICS.items()
        if all(r.get(m) is not None for r in records for m in metric_set)
    )


def category_scores(
    records: list[MetricRecord],
    categories: tuple[str, ...] = ("overall", "fidelity", "perceptual"),
) -> dict[str, dict[str, float]]:
    """Average ranking score per team for each requested category (lower is better)."""
    return _ranks_and_scores(records, categories)[1]


def _ranks_and_scores(records: list[MetricRecord], categories: tuple[str, ...]):
    """Rank maps of the metrics the categories use, and the category scores."""
    needed = sorted({m for cat in categories for m in CATEGORY_METRICS[cat]})
    rank_maps = {m: _metric_rank_map(records, m) for m in needed}
    out: dict[str, dict[str, float]] = {}
    for r in records:
        out[r.team] = {
            cat: sum(rank_maps[m][r.team] for m in CATEGORY_METRICS[cat])
            / len(CATEGORY_METRICS[cat])
            for cat in categories
        }
    return rank_maps, out


def majority_tiebreak(
    team_a: str,
    team_b: str,
    records: list[MetricRecord],
    metric_set: tuple[str, ...] = ALL_METRICS,
) -> tuple[str, str]:
    """Order two tied teams by who wins strictly more pairwise metric comparisons.

    An exact pairwise tie falls back to lexicographic team order with a
    warning, so tables stay deterministic.
    """
    by_team = {r.team: r for r in records}
    try:
        rec_a, rec_b = by_team[team_a], by_team[team_b]
    except KeyError as exc:
        raise DataError(f"unknown team {exc.args[0]!r}") from None
    wins_a = wins_b = 0
    for metric in metric_set:
        va, vb = rec_a.get(metric), rec_b.get(metric)
        if va is None or vb is None:
            missing = team_a if va is None else team_b
            raise DataError(f"team {missing!r} is missing metric {metric!r}")
        if va == vb:
            continue
        better_a = va > vb if METRIC_DIRECTIONS[metric] == "up" else va < vb
        if better_a:
            wins_a += 1
        else:
            wins_b += 1
    if wins_a > wins_b:
        return team_a, team_b
    if wins_b > wins_a:
        return team_b, team_a
    warnings.warn(
        f"exact pairwise tie between {team_a!r} and {team_b!r}; "
        "falling back to lexicographic order"
    )
    return (team_a, team_b) if team_a <= team_b else (team_b, team_a)


def final_table(
    records: list[MetricRecord],
    categories: tuple[str, ...] = ("overall", "fidelity", "perceptual"),
) -> RankTable:
    """Per-metric ranks, category average scores, and final category positions.

    Positions are by ascending average score; equal scores are resolved by
    the majority rule over the category's own metric set.
    """
    if not records:
        raise DataError("no records to rank")
    teams = tuple(r.team for r in records)
    if len(set(teams)) != len(teams):
        raise DataError("duplicate team names in records")
    metric_ranks, scores = _ranks_and_scores(records, categories)
    positions: dict[str, dict[str, int]] = {cat: {} for cat in categories}
    for cat in categories:
        metric_set = CATEGORY_METRICS[cat]

        def cmp(a: str, b: str, _cat=cat, _set=metric_set) -> int:
            sa, sb = scores[a][_cat], scores[b][_cat]
            if sa != sb:
                return -1 if sa < sb else 1
            first, _ = majority_tiebreak(a, b, records, _set)
            return -1 if first == a else 1

        ordered = sorted(teams, key=functools.cmp_to_key(cmp))
        for i, team in enumerate(ordered, start=1):
            positions[cat][team] = i
    return RankTable(
        teams=teams,
        metric_ranks=metric_ranks,
        scores={cat: {t: scores[t][cat] for t in teams} for cat in categories},
        positions=positions,
    )
