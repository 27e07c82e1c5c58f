from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qatrigger.evaluation import (
    ScoredGroup,
    top_candidate,
    triggering_report,
    tune_threshold,
)

from oracles import looped_map_mrr, tune_threshold_exhaustive


def group(qid, *candidates):
    return ScoredGroup(qid, tuple(candidates))


def map_of(g):
    return triggering_report([g], 0.0).map_value


def mrr_of(g):
    return triggering_report([g], 0.0).mrr_value


class TestAveragePrecision:
    def test_single_positive_candidate(self):
        assert map_of(group("q", ("c", 0.3, 1))) == 1.0

    def test_positives_at_ranks_one_and_three(self):
        g = group("q", ("a", 0.9, 1), ("b", 0.5, 0), ("c", 0.1, 1))
        assert map_of(g) == pytest.approx((1 / 1 + 2 / 3) / 2)

    def test_all_negative_returns_none(self):
        # A group with no positive has no AP: it is left out of MAP.
        g = group("q", ("a", 0.9, 0), ("b", 0.5, 0))
        assert triggering_report([g], 0.0).questions_answerable == 0
        assert triggering_report([g, group("p", ("a", 0.5, 0), ("b", 0.1, 1))], 0.0).map_value == 0.5

    def test_score_ties_keep_corpus_order(self):
        g = group("q", ("a", 0.5, 0), ("b", 0.5, 1))
        assert map_of(g) == 0.5


class TestReciprocalRank:
    def test_first_ranked_positive(self):
        assert mrr_of(group("q", ("a", 0.9, 1), ("b", 0.5, 0))) == 1.0

    def test_first_positive_at_rank_four(self):
        g = group(
            "q",
            ("a", 0.9, 0), ("b", 0.8, 0), ("c", 0.7, 0), ("d", 0.6, 1),
        )
        assert mrr_of(g) == 0.25

    def test_all_negative_returns_none(self):
        # A group with no positive has no RR: it is left out of MRR.
        g = group("q", ("a", 0.9, 0))
        assert triggering_report([g], 0.0).questions_answerable == 0
        assert triggering_report([g, group("p", ("a", 0.9, 0), ("b", 0.1, 1))], 0.0).mrr_value == 0.5


class TestTopCandidate:
    def test_max_score_wins(self):
        g = group("q", ("a", 0.1, 0), ("b", 0.9, 1), ("c", 0.5, 0))
        assert top_candidate(g)[0] == "b"

    def test_ties_break_by_corpus_order(self):
        g = group("q", ("a", 0.9, 0), ("b", 0.9, 1))
        assert top_candidate(g)[0] == "a"


class TestTriggeringReport:
    def test_single_correct_trigger(self):
        g = group("q", ("a", 0.9, 1), ("b", 0.1, 0))
        report = triggering_report([g], threshold=0.5)
        assert (report.precision, report.recall, report.f1) == (100.0, 100.0, 100.0)

    def test_four_group_hand_fixture(self):
        groups = [
            group("q1", ("a", 0.9, 1), ("b", 0.2, 0)),   # correct trigger
            group("q2", ("a", 0.8, 0), ("b", 0.3, 1)),   # wrong trigger (top is negative)
            group("q3", ("a", 0.1, 0), ("b", 0.05, 0)),  # unanswerable, below threshold
            group("q4", ("a", 0.2, 0)),                  # unanswerable, below threshold
        ]
        report = triggering_report(groups, threshold=0.5)
        assert report.questions_total == 4
        assert report.questions_answerable == 2
        assert report.questions_triggered == 2
        assert report.triggers_correct == 1
        assert (report.precision, report.recall, report.f1) == (50.0, 50.0, 50.0)

    def test_strict_inequality_at_threshold(self):
        g = group("q", ("a", 0.5, 1))
        assert triggering_report([g], threshold=0.5).questions_triggered == 0
        assert triggering_report([g], threshold=0.4999).questions_triggered == 1

    def test_nothing_triggered_gives_zero_precision(self):
        g = group("q", ("a", 0.1, 1))
        report = triggering_report([g], threshold=2.0)
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0

    def test_map_mrr_only_over_answerable(self):
        groups = [
            group("q1", ("a", 0.9, 1), ("b", 0.5, 0)),
            group("q2", ("a", 0.9, 0)),  # unanswerable, excluded from MAP/MRR
        ]
        report = triggering_report(groups, threshold=2.0)
        assert report.map_value == 1.0
        assert report.mrr_value == 1.0

    def test_ten_group_fixture_exact_rational_values(self):
        # Dyadic scores and counts keep every expected value exactly
        # representable, so the comparison against Fractions is exact.
        groups = [
            group("q01", ("a", 0.9, 1), ("b", 0.5, 0)),               # AP 1, RR 1, trigger correct
            group("q02", ("a", 0.8, 0), ("b", 0.7, 1)),               # AP 1/2, RR 1/2, trigger wrong
            group("q03", ("a", 0.9, 1), ("b", 0.6, 0), ("c", 0.1, 0)),# AP 1, RR 1, trigger correct
            group("q04", ("a", 0.7, 0), ("b", 0.6, 0), ("c", 0.5, 1)),# AP 1/3? -> choose dyadic: rank 4 impossible; use rank 4
            group("q05", ("a", 0.9, 1), ("b", 0.8, 1)),               # AP 1, RR 1, trigger correct
            group("q06", ("a", 0.3, 1)),                              # below threshold: miss
            group("q07", ("a", 0.9, 0), ("b", 0.2, 0)),               # unanswerable, false trigger
            group("q08", ("a", 0.1, 0)),                              # unanswerable, quiet
            group("q09", ("a", 0.8, 0), ("b", 0.7, 0), ("c", 0.6, 0), ("d", 0.5, 1)),  # AP,RR 1/4
            group("q10", ("a", 0.9, 1), ("b", 0.4, 0)),               # trigger correct
        ]
        # Make q04's positive sit at rank 4 so AP = RR = 1/4 (dyadic).
        groups[3] = group(
            "q04", ("a", 0.7, 0), ("b", 0.6, 0), ("c", 0.55, 0), ("d", 0.5, 1)
        )
        report = triggering_report(groups, threshold=0.45)

        answerable = [g for g in groups if g.answerable]
        assert len(answerable) == 8
        expected_map = Fraction(1, 1) + Fraction(1, 2) + Fraction(1, 1) + Fraction(1, 4)
        expected_map += Fraction(1, 1) + Fraction(1, 1) + Fraction(1, 4) + Fraction(1, 1)
        expected_map /= 8
        expected_mrr = expected_map  # same per-group values in this fixture
        assert report.map_value == float(expected_map)
        assert report.mrr_value == float(expected_mrr)

        # triggered: q01..q05, q07, q09, q10 (tops 0.9, 0.8, 0.9, 0.7, 0.9, 0.9, 0.8, 0.9)
        # correct: q01, q03, q05, q10
        assert report.questions_triggered == 8
        assert report.triggers_correct == 4
        expected_p = Fraction(4, 8) * 100
        expected_r = Fraction(4, 8) * 100
        assert report.precision == float(expected_p)
        assert report.recall == float(expected_r)
        expected_f = 2 * expected_p * expected_r / (expected_p + expected_r)
        assert report.f1 == float(expected_f)


    def test_map_mrr_equal_two_sort_loops_bitwise(self):
        # repr tells every float apart; random_groups ties and near-ties scores.
        rng = np.random.default_rng(71)
        for _ in range(1500):
            groups = random_groups(rng)
            report = triggering_report(groups, 0.0)
            assert repr((report.map_value, report.mrr_value)) == repr(looped_map_mrr(groups))


class TestTuneThreshold:
    def test_separable_scores_reach_perfect_f1(self):
        groups = [
            group("q1", ("a", 0.9, 1)),
            group("q2", ("a", 0.8, 1)),
            group("q3", ("a", 0.2, 0)),
        ]
        threshold, best = tune_threshold(groups)
        assert best == 100.0
        assert 0.2 <= threshold < 0.8
        # smallest optimal threshold: the first midpoint inside the gap
        assert threshold == pytest.approx((0.2 + 0.8) / 2)

    def test_all_tops_incorrect_best_is_zero_triggering_nothing(self):
        groups = [
            group("q1", ("a", 0.9, 0), ("b", 0.1, 1)),
            group("q2", ("a", 0.8, 0), ("b", 0.2, 1)),
        ]
        threshold, best = tune_threshold(groups)
        assert best == 0.0
        report = triggering_report(groups, threshold)
        assert report.questions_triggered == 0

    def test_matches_exhaustive_sweep(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            groups = []
            for q in range(6):
                candidates = []
                for c in range(int(rng.integers(1, 4))):
                    candidates.append(
                        (f"c{c}", float(rng.integers(0, 8)) / 8.0, int(rng.random() < 0.4))
                    )
                groups.append(group(f"q{q}", *candidates))
            if not any(g.answerable for g in groups):
                continue
            threshold, best = tune_threshold(groups)
            # exhaustive oracle: every top score +- epsilon
            tops = {top_candidate(g)[1] for g in groups}
            probes = [t - 1e-9 for t in tops] + [t + 1e-9 for t in tops]
            probes += [min(tops) - 1.0, max(tops) + 1.0]
            oracle_best = max(triggering_report(groups, p).f1 for p in probes)
            assert best == pytest.approx(oracle_best, abs=1e-9)
            assert triggering_report(groups, threshold).f1 == pytest.approx(best)

    def test_no_answerable_group_is_an_error(self):
        with pytest.raises(ValueError):
            tune_threshold([group("q", ("a", 0.5, 0))])

    def test_equals_exhaustive_oracle_exactly(self):
        rng = np.random.default_rng(67)
        kinds = Counter()
        for _ in range(2400):
            groups = random_groups(rng)
            if not any(g.answerable for g in groups):
                kinds["unanswerable"] += 1
                with pytest.raises(ValueError):
                    tune_threshold(groups)
                with pytest.raises(ValueError):
                    tune_threshold_exhaustive(groups)
                continue
            assert tune_threshold(groups) == tune_threshold_exhaustive(groups)
            tops = sorted({top_candidate(g)[1] for g in groups})
            if len(tops) == 1:
                kinds["single top"] += 1
            if len(tops) < len(groups):
                kinds["tied tops"] += 1
            if any((a + b) / 2.0 == b for a, b in zip(tops, tops[1:])):
                kinds["midpoint rounds up"] += 1
            if not any(top_candidate(g)[2] == 1 for g in groups):
                kinds["no correct top"] += 1
        assert min(kinds[k] for k in KINDS) >= 20, kinds

    def test_adjacent_floats_midpoint_equals_upper_score(self):
        low = 0.3
        high = float(np.nextafter(low, 1.0))
        assert (low + high) / 2.0 == high
        groups = [group("q1", ("a", high, 1)), group("q2", ("a", low, 0))]
        # The midpoint is `high` itself, so it triggers nothing: only the
        # sentinel below `low` triggers q1.  A sweep that counted tops by the
        # candidate's position would report F 100 at a threshold giving F 0.
        assert tune_threshold(groups) == (low - 1.0, 2 * 50.0 * 100.0 / 150.0)
        assert triggering_report(groups, (low + high) / 2.0).questions_triggered == 0
        assert tune_threshold(groups) == tune_threshold_exhaustive(groups)


KINDS = ("unanswerable", "single top", "tied tops", "midpoint rounds up", "no correct top")


def random_groups(rng):
    """1-8 groups of 1-4 candidates, with scores drawn so that tops tie,
    collapse to one value, or sit one ulp apart."""
    style = int(rng.integers(0, 4))
    if style == 3:
        # Chains of adjacent floats: some midpoints round onto the upper end.
        base = float(rng.choice([0.3, 0.5, 1e-300, -0.7]))
        pool = [base]
        for _ in range(3):
            pool.append(float(np.nextafter(pool[-1], np.inf)))
    groups = []
    for q in range(int(rng.integers(1, 9))):
        n = int(rng.integers(1, 5))
        if style == 0:
            scores = [float(rng.integers(0, 4)) / 4.0 for _ in range(n)]
        elif style == 1:
            scores = [0.25] * n
        elif style == 2:
            scores = [float(rng.random()) for _ in range(n)]
        else:
            scores = [pool[int(rng.integers(0, len(pool)))] for _ in range(n)]
        labels = [int(rng.random() < 0.4) for _ in range(n)]
        if rng.random() < 0.3:
            # Gold answers only below the top candidate.
            top = max(range(n), key=lambda i: (scores[i], -i))
            labels[top] = 0
        candidates = [(f"c{c}", s, y) for c, (s, y) in enumerate(zip(scores, labels))]
        groups.append(group(f"q{q}", *candidates))
    return groups


class TestInvariances:
    def test_monotone_transform_leaves_metrics_unchanged(self):
        rng = np.random.default_rng(59)
        groups = []
        for q in range(8):
            candidates = [
                (f"c{c}", float(rng.random()), int(rng.random() < 0.4))
                for c in range(int(rng.integers(1, 5)))
            ]
            groups.append(group(f"q{q}", *candidates))
        # scaling by a power of two is exact, so score comparisons are identical
        transformed = [
            ScoredGroup(
                g.question_id,
                tuple((cid, 4.0 * score, label) for cid, score, label in g.candidates),
            )
            for g in groups
        ]
        base = triggering_report(groups, 0.5)
        moved = triggering_report(transformed, 4.0 * 0.5)
        assert base == moved

    def test_raising_threshold_never_triggers_more(self):
        rng = np.random.default_rng(61)
        groups = [
            group(
                f"q{q}",
                *[
                    (f"c{c}", float(rng.random()), int(rng.random() < 0.3))
                    for c in range(int(rng.integers(1, 4)))
                ],
            )
            for q in range(10)
        ]
        previous = None
        for threshold in np.linspace(-0.1, 1.1, 13):
            triggered = triggering_report(groups, float(threshold)).questions_triggered
            if previous is not None:
                assert triggered <= previous
            previous = triggered
