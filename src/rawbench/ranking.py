"""Challenge scoring engine: per-metric ranks, category scores, tie-breaks.

``final_table`` is the one way from metric records to a ``RankTable``.  It
ranks exactly the complete categories -- overall (all five metrics),
fidelity (PSNR, SSIM) and perceptual (LPIPS, ARNIQA, TOPIQ) -- in which
every record has every metric; a team missing a metric is still listed,
and a category it leaves incomplete is not ranked.  Teams are first
ranked independently for each metric those categories use (fractional
average ranks on exact ties, so rank sums stay at n(n+1)/2).  Average
ranking scores are then computed per category, and lower is better.
Teams with equal category scores are ordered by a majority vote over that
category's metrics: whoever wins strictly more pairwise metric
comparisons places first.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

from .core import _check_choice
from .errors import DataError

_DIRECTIONS = ("up", "down")

METRIC_DIRECTIONS = {
    "psnr": "up",
    "ssim": "up",
    "lpips": "down",
    "arniqa": "up",
    "topiq": "up",
}
ALL_METRICS = tuple(METRIC_DIRECTIONS)
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

    def get(self, metric: str) -> float | None:
        return getattr(self, _check_choice("metric", metric, ALL_METRICS, error=DataError))


@dataclass(frozen=True)
class RankTable:
    teams: tuple[str, ...]
    metric_ranks: dict[str, dict[str, float]]
    scores: dict[str, dict[str, float]]
    positions: dict[str, dict[str, int]]


def rank_metric(values: list[tuple[str, float]], direction: str) -> list[tuple[str, float]]:
    """Rank (team, value) entries 1..n per direction, in input order: a rank
    is the number of values strictly better plus (the number equal, itself
    included, + 1) / 2, so exact ties share the average of their positions."""
    if not values:
        raise DataError("cannot rank an empty list")
    _check_choice("direction", direction, _DIRECTIONS, error=DataError)
    for team, v in values:
        if isinstance(v, float) and math.isnan(v):
            raise DataError(f"NaN metric value for team {team!r}")
    vals = [v for _, v in values]
    beats = (lambda w, v: w > v) if direction == "up" else (lambda w, v: w < v)
    return [(team, sum(1 for w in vals if beats(w, v)) + (vals.count(v) + 1) / 2)
            for team, v in values]


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


def _by_score_then_majority(scores: dict[str, float], records: list[MetricRecord],
                            metric_set: tuple[str, ...], a: str, b: str) -> int:
    """Comparator of one category's positions: the lower average score
    first, equal scores by :func:`majority_tiebreak` over ``metric_set``."""
    sa, sb = scores[a], scores[b]
    if sa != sb:
        return -1 if sa < sb else 1
    first, _ = majority_tiebreak(a, b, records, metric_set)
    return -1 if first == a else 1


def final_table(records: list[MetricRecord]) -> RankTable:
    """Per-metric ranks, category average scores, and final category positions
    of the categories in which every record has every metric.

    Positions are by ascending average score; equal scores are resolved by
    the majority rule over the category's own metric set.
    """
    if not records:
        raise DataError("no records to rank")
    teams = tuple(r.team for r in records)
    if len(set(teams)) != len(teams):
        raise DataError("duplicate team names in records")
    categories = [
        cat
        for cat, metric_set in CATEGORY_METRICS.items()
        if all(r.get(m) is not None for r in records for m in metric_set)
    ]
    metric_ranks = {
        m: dict(rank_metric([(r.team, float(r.get(m))) for r in records], METRIC_DIRECTIONS[m]))
        for m in sorted({m for cat in categories for m in CATEGORY_METRICS[cat]})
    }
    scores: dict[str, dict[str, float]] = {}
    positions: dict[str, dict[str, int]] = {}
    for cat in categories:
        metric_set = CATEGORY_METRICS[cat]
        scores[cat] = {
            t: sum(metric_ranks[m][t] for m in metric_set) / len(metric_set) for t in teams
        }

        cmp = functools.partial(_by_score_then_majority, scores[cat], records, metric_set)
        ordered = sorted(teams, key=functools.cmp_to_key(cmp))
        positions[cat] = {team: i for i, team in enumerate(ordered, start=1)}
    return RankTable(teams=teams, metric_ranks=metric_ranks, scores=scores, positions=positions)
