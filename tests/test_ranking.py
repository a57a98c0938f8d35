import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rawbench.errors import DataError
from rawbench.harness import write_ranktable
from rawbench.ranking import (
    ALL_METRICS,
    CATEGORY_METRICS,
    MetricRecord,
    final_table,
    majority_tiebreak,
    rank_metric,
)

from conftest import FIDELITY_POSITIONS, PERCEPTUAL_POSITIONS, TABLE1


class TestRankMetric:
    def test_psnr_column(self):
        entries = [(t, v[0]) for t, v in TABLE1.items()]
        ranks = dict(rank_metric(entries, "up"))
        assert ranks == {"MR-CAS": 1, "IPIU-LAB": 2, "HIT-IIL": 3, "DIPLab": 4,
                         "VMCL-ISP": 5, "MSA-Net": 6, "MS-Unet": 7}

    def test_lpips_column_lower_better(self):
        entries = [(t, v[2]) for t, v in TABLE1.items()]
        ranks = dict(rank_metric(entries, "down"))
        assert ranks == {"DIPLab": 1, "HIT-IIL": 2, "MR-CAS": 3, "IPIU-LAB": 4,
                         "VMCL-ISP": 5, "MS-Unet": 6, "MSA-Net": 7}

    def test_all_equal_fractional(self):
        ranks = rank_metric([("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)], "up")
        assert all(r == 2.5 for _, r in ranks)

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            rank_metric([("a", float("nan"))], "up")

    def test_infinite_sentinel_ranks_first(self):
        ranks = dict(rank_metric([("a", math.inf), ("b", 40.0)], "up"))
        assert ranks["a"] == 1 and ranks["b"] == 2

    def test_rank_sum_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            vals = rng.choice([1.0, 2.0, 3.0, 2.0, 5.0], n)
            ranks = rank_metric([(f"t{i}", float(v)) for i, v in enumerate(vals)], "up")
            assert math.fsum(r for _, r in ranks) == pytest.approx(n * (n + 1) / 2)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0, 1, 9)
        base = rank_metric([(f"t{i}", float(v)) for i, v in enumerate(vals)], "up")
        warped = rank_metric([(f"t{i}", float(np.exp(3 * v))) for i, v in enumerate(vals)], "up")
        assert base == warped


class TestCategoryScores:
    def test_fidelity_values(self, table1_records):
        scores = final_table(table1_records).scores
        expect = {"MR-CAS": 1.0, "IPIU-LAB": 2.0, "HIT-IIL": 3.0, "DIPLab": 4.5,
                  "MSA-Net": 5.0, "VMCL-ISP": 5.5, "MS-Unet": 7.0}
        for team, val in expect.items():
            assert scores["fidelity"][team] == pytest.approx(val)

    def test_perceptual_values(self, table1_records):
        scores = final_table(table1_records).scores
        expect = {"IPIU-LAB": 7 / 3, "VMCL-ISP": 10 / 3, "MR-CAS": 11 / 3,
                  "DIPLab": 13 / 3, "HIT-IIL": 14 / 3, "MSA-Net": 14 / 3, "MS-Unet": 5.0}
        for team, val in expect.items():
            assert scores["perceptual"][team] == pytest.approx(val)

    def test_single_team(self):
        rec = MetricRecord(team="solo", psnr=40.0, ssim=0.9, lpips=0.2, arniqa=0.4, topiq=0.3)
        scores = final_table([rec]).scores
        assert scores == {"overall": {"solo": 1.0}, "fidelity": {"solo": 1.0},
                          "perceptual": {"solo": 1.0}}

    def test_incomplete_category_not_ranked_team_still_listed(self, table1_records):
        records = table1_records[:2] + [MetricRecord(team="incomplete", psnr=40.0, ssim=0.9)]
        table = final_table(records)
        assert table.teams == ("MR-CAS", "IPIU-LAB", "incomplete")
        assert list(table.positions) == list(table.scores) == ["fidelity"]
        assert sorted(table.metric_ranks) == ["psnr", "ssim"]
        assert table.positions["fidelity"]["incomplete"] == 3


class TestMajorityTiebreak:
    def test_three_of_five(self, table1_records):
        first, second = majority_tiebreak("MR-CAS", "IPIU-LAB", table1_records)
        assert (first, second) == ("MR-CAS", "IPIU-LAB")

    def test_perceptual_pair(self, table1_records):
        first, second = majority_tiebreak("HIT-IIL", "MSA-Net", table1_records,
                                          ("lpips", "arniqa", "topiq"))
        assert (first, second) == ("MSA-Net", "HIT-IIL")

    def test_antisymmetric(self, table1_records):
        a = majority_tiebreak("DIPLab", "VMCL-ISP", table1_records)
        b = majority_tiebreak("VMCL-ISP", "DIPLab", table1_records)
        assert a == b

    def test_identical_records_lexicographic(self):
        recs = [MetricRecord(team=t, psnr=40.0, ssim=0.9, lpips=0.2, arniqa=0.4, topiq=0.3)
                for t in ("zeta", "alpha")]
        with pytest.warns(UserWarning):
            first, second = majority_tiebreak("zeta", "alpha", recs)
        assert (first, second) == ("alpha", "zeta")


class TestFinalTable:
    def test_fidelity_positions(self, table1_records):
        table = final_table(table1_records)
        assert table.positions["fidelity"] == FIDELITY_POSITIONS

    def test_perceptual_positions_with_tiebreak(self, table1_records):
        table = final_table(table1_records)
        assert table.positions["perceptual"] == PERCEPTUAL_POSITIONS

    def test_overall_scores_recomputed(self, table1_records):
        table = final_table(table1_records)
        expect = {"IPIU-LAB": 2.2, "MR-CAS": 2.6, "HIT-IIL": 4.0, "VMCL-ISP": 4.2,
                  "DIPLab": 4.4, "MSA-Net": 4.8, "MS-Unet": 5.8}
        for team, score in expect.items():
            assert table.scores["overall"][team] == pytest.approx(score, abs=1e-12)

    def test_team_deletion_preserves_relative_order(self, table1_records):
        # Holds whenever the deletion creates no new score tie.  A new tie is
        # legitimately re-resolved by the majority rule (e.g. dropping
        # IPIU-LAB ties DIPLab/MSA-Net at 11/3 and the majority vote flips
        # them), so tied sub-tables are excluded here.
        full = final_table(table1_records)
        checked = 0
        with pytest.warns(UserWarning, match="exact pairwise tie") as caught:
            for drop in range(len(table1_records)):
                remaining = [r for i, r in enumerate(table1_records) if i != drop]
                sub = final_table(remaining)
                for cat in ("fidelity", "perceptual"):
                    sub_scores = [sub.scores[cat][r.team] for r in remaining]
                    full_scores = [full.scores[cat][r.team] for r in remaining]
                    if (len(set(sub_scores)) < len(sub_scores)
                            or len(set(full_scores)) < len(full_scores)):
                        continue
                    full_order = sorted((r.team for r in remaining),
                                        key=lambda t: full.positions[cat][t])
                    sub_order = sorted((r.team for r in remaining),
                                       key=lambda t: sub.positions[cat][t])
                    assert full_order == sub_order
                    checked += 1
        assert checked >= 6  # the property is actually exercised
        # two sub-tables hit an exact pairwise tie, resolved by name
        assert sorted(str(w.message) for w in caught) == [
            f"exact pairwise tie between 'MSA-Net' and {other!r}; "
            "falling back to lexicographic order"
            for other in ("DIPLab", "VMCL-ISP")
        ]

    def test_duplicate_teams_rejected(self, table1_records):
        with pytest.raises(DataError):
            final_table(table1_records + [table1_records[0]])

    def test_lower_score_never_ranks_worse(self, table1_records):
        table = final_table(table1_records)
        for cat in ("overall", "fidelity", "perceptual"):
            teams = sorted(table.positions[cat], key=lambda t: table.positions[cat][t])
            scores = [table.scores[cat][t] for t in teams]
            assert scores == sorted(scores)


# metrics left out of a record (a None hole) block every category that uses them
HOLES = [(), ("psnr",), ("lpips", "topiq"), ("psnr", "arniqa")]


class TestFinalTableProperties:
    @pytest.mark.filterwarnings("ignore:exact pairwise tie")
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 7), holes=st.sampled_from(HOLES))
    def test_permutation_invariant_and_scores_match(self, data, n, holes):
        # values from a small set, so exact ties and tie-breaks are common
        rows = data.draw(st.lists(st.tuples(*[st.sampled_from([1.0, 2.0, 3.0])] * 5),
                                  min_size=n, max_size=n))
        records = [MetricRecord(f"t{i}", *row) for i, row in enumerate(rows)]
        holed = data.draw(st.integers(0, n - 1))
        records[holed] = MetricRecord(records[holed].team,
                                      **{m: None if m in holes else records[holed].get(m)
                                         for m in ALL_METRICS})
        order = data.draw(st.permutations(range(n)))
        table = final_table(records)
        shuffled = final_table([records[i] for i in order])
        assert shuffled.metric_ranks == table.metric_ranks
        assert shuffled.scores == table.scores
        categories = [cat for cat, ms in CATEGORY_METRICS.items() if not set(ms) & set(holes)]
        assert list(table.positions) == list(table.scores) == categories
        for cat in categories:
            ms = CATEGORY_METRICS[cat]
            assert table.scores[cat] == {
                r.team: sum(table.metric_ranks[m][r.team] for m in ms) / len(ms)
                for r in records
            }
            by_score = {}
            for team, score in table.scores[cat].items():
                by_score.setdefault(score, []).append(team)
            for tied in by_score.values():
                # a tie of two is settled by one symmetric comparison; three or
                # more may form a majority cycle, so only their places are fixed
                place = [table.positions[cat][t] for t in tied]
                shuffled_place = [shuffled.positions[cat][t] for t in tied]
                if len(tied) <= 2:
                    assert shuffled_place == place
                else:
                    assert sorted(shuffled_place) == sorted(place)


    @pytest.mark.filterwarnings("ignore:exact pairwise tie")
    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(st.tuples(*[st.sampled_from([0.5, 1.0, 2.0, math.inf])] * 5),
                         min_size=1, max_size=9))
    def test_rank_sums_per_metric(self, rows):
        # fractional ranks of a tie are multiples of 1/2, so the sum is exact
        records = [MetricRecord(f"t{i}", *row) for i, row in enumerate(rows)]
        table = final_table(records)
        n = len(records)
        assert sorted(table.metric_ranks) == sorted(("psnr", "ssim", "lpips", "arniqa", "topiq"))
        for ranks in table.metric_ranks.values():
            assert sorted(ranks) == sorted(table.teams)
            assert math.fsum(ranks.values()) == n * (n + 1) / 2


class TestCompleteCategories:
    def test_all_metrics_complete_every_category(self, table1_records):
        assert list(final_table(table1_records).positions) == ["overall", "fidelity",
                                                               "perceptual"]

    def test_one_missing_metric_blocks_its_categories(self, table1_records):
        partial = [MetricRecord(team="X", psnr=40.0, ssim=0.9, lpips=0.2, arniqa=0.4)]
        assert list(final_table(table1_records + partial).positions) == ["fidelity"]
        perceptual_only = [MetricRecord(team="Y", lpips=0.2, arniqa=0.4, topiq=0.3)]
        assert list(final_table(perceptual_only).positions) == ["perceptual"]


def _table1():
    return [MetricRecord(t, *v) for t, v in TABLE1.items()]


def _ties(*pairs):
    return [f"exact pairwise tie between {a!r} and {b!r}; falling back to lexicographic order"
            for a, b in pairs]


# Rank-table CSV bytes (write_ranktable) recorded before final_table chose its
# own categories, when callers passed complete_categories(records) to it, and
# the lexicographic fallbacks in the order the comparison sort makes them.
PINNED_TABLES = {
    "table1": (_table1(), [],
               "78905bd2cae215bd3185f0fe3f385094979d468f99fef4e31fa1cbd8e095fa25"),
    "table1-no-topiq": (
        _table1() + [MetricRecord("NoTopiq", 41.0, 0.96, 0.24, 0.45)],
        _ties(("NoTopiq", "MSA-Net")),
        "523ea537fcdc8273b1d503b27c3706df7d5335501288382ccd68253469ba27e5"),
    "perceptual-only": (
        [MetricRecord(t, lpips=v[2], arniqa=v[3], topiq=v[4]) for t, v in TABLE1.items()], [],
        "2406b56e74c263737f6e41acc780cf7480188a063b1511d349be1d29693b5261"),
    "tie-heavy": (
        [MetricRecord("zeta", 40.0, 0.9, 0.2, 0.4, 0.3),
         MetricRecord("alpha", 40.0, 0.9, 0.2, 0.4, 0.3),
         MetricRecord("p", 3.0, 1.0, 2.0, 2.0, 1.0),
         MetricRecord("q", 1.0, 3.0, 1.0, 1.0, 2.0),
         MetricRecord("r", 2.0, 2.0, 3.0, 3.0, 3.0)],
        _ties(("alpha", "zeta"), ("alpha", "zeta"), ("p", "alpha"), ("p", "zeta"),
              ("p", "alpha"), ("q", "p"), ("q", "zeta"), ("r", "q"), ("r", "zeta"),
              ("alpha", "zeta")),
        "c27f9db3d10d33d114bb424df3be70571c016ec8a5ac4f0e39b9857a40710e40"),
    "table1-empty-team": (
        _table1() + [MetricRecord("Empty")], [],
        "c1eee444040a5be57cf678d644db2e272d28f1d7e7cfe9c63977cec4d90b78fc"),
}


@pytest.mark.parametrize("records, fallbacks, digest", PINNED_TABLES.values(),
                         ids=PINNED_TABLES.keys())
def test_pinned_ranktable_bytes(records, fallbacks, digest, tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = final_table(records)
    assert [str(w.message) for w in caught] == fallbacks
    write_ranktable(table, tmp_path / "ranktable.csv")
    assert hashlib.sha256((tmp_path / "ranktable.csv").read_bytes()).hexdigest() == digest
