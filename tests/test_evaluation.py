from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qatrigger.evaluation import QuestionIndex, triggering_report, tune_threshold

from oracles import (
    looped_map_mrr,
    looped_triggering,
    question_groups,
    tune_threshold_exhaustive,
)


def group(qid, *candidates):
    """One question: its id and its (candidate_id, score, label) rows."""
    return qid, candidates


def as_file(groups):
    """The (question_id, candidate_id, label) rows and the scores of a file
    that lists the groups' rows one question after another."""
    rows = [(qid, cid, label) for qid, candidates in groups for cid, _, label in candidates]
    scores = [score for _, candidates in groups for _, score, _ in candidates]
    return rows, scores


def indexed(groups):
    rows, scores = as_file(groups)
    return QuestionIndex.build(rows), scores


def evaluate(groups, threshold):
    return triggering_report(*indexed(groups), threshold)


def evaluate_file(rows, scores, threshold):
    return triggering_report(QuestionIndex.build(rows), scores, threshold)


def tune(groups):
    return tune_threshold(*indexed(groups))


def map_of(g):
    return evaluate([g], 0.0).map_value


def mrr_of(g):
    return evaluate([g], 0.0).mrr_value


def tops(rows, scores):
    """Each question's highest score, by the oracles' own grouping."""
    return [max(score for score, _ in g) for g in question_groups(rows, scores)]


class TestAveragePrecision:
    def test_single_positive_candidate(self):
        assert map_of(group("q", ("c", 0.3, 1))) == 1.0

    def test_positives_at_ranks_one_and_three(self):
        g = group("q", ("a", 0.9, 1), ("b", 0.5, 0), ("c", 0.1, 1))
        assert map_of(g) == pytest.approx((1 / 1 + 2 / 3) / 2)

    def test_all_negative_returns_none(self):
        # A group with no positive has no AP: it is left out of MAP.
        g = group("q", ("a", 0.9, 0), ("b", 0.5, 0))
        assert evaluate([g], 0.0).questions_answerable == 0
        assert evaluate([g, group("p", ("a", 0.5, 0), ("b", 0.1, 1))], 0.0).map_value == 0.5

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
        assert evaluate([g], 0.0).questions_answerable == 0
        assert evaluate([g, group("p", ("a", 0.9, 0), ("b", 0.1, 1))], 0.0).mrr_value == 0.5


class TestTopCandidate:
    # The trigger is correct exactly when the top candidate is the one positive.
    def test_max_score_wins(self):
        g = group("q", ("a", 0.1, 0), ("b", 0.9, 1), ("c", 0.5, 0))
        assert evaluate([g], 0.0).triggers_correct == 1

    def test_ties_break_by_corpus_order(self):
        assert evaluate([group("q", ("a", 0.9, 0), ("b", 0.9, 1))], 0.0).triggers_correct == 0
        assert evaluate([group("q", ("a", 0.9, 1), ("b", 0.9, 0))], 0.0).triggers_correct == 1

    def test_signed_zeros_tie_and_keep_corpus_order(self):
        g = group("q", ("a", -0.0, 0), ("b", 0.0, 1))
        assert evaluate([g], -1.0).triggers_correct == 0
        assert mrr_of(g) == 0.5


class TestQuestionIndex:
    def test_interleaved_questions_keep_first_appearance_order(self):
        rows = [
            ("q2", "a", 0), ("q1", "a", 1), ("q2", "b", 1), ("q3", "a", 0), ("q1", "b", 0),
        ]
        index = QuestionIndex.build(rows)
        assert index.order == (0, 2, 1, 4, 3)
        assert index.spans == ((0, 2), (2, 4), (4, 5))
        assert index.labels == (0, 1, 1, 0, 0)
        assert index.positives == ((1,), (0,), ())
        assert index.answerable == 2

    def test_interleaved_file_reads_each_score_from_its_row(self):
        rows = [("q1", "a", 0), ("q2", "a", 1), ("q1", "b", 1), ("q2", "b", 0)]
        report = triggering_report(QuestionIndex.build(rows), [0.2, 0.1, 0.9, 0.8], 0.5)
        assert (report.map_value, report.questions_triggered, report.triggers_correct) == (
            0.75, 2, 1
        )

    def test_one_score_per_row_is_required(self):
        index = QuestionIndex.build([("q", "a", 1), ("q", "b", 0)])
        for scores in ([0.5], [0.5, 0.25, 0.125]):
            with pytest.raises(ValueError, match="expected 2 scores, one per row"):
                triggering_report(index, scores, 0.0)
            with pytest.raises(ValueError, match="expected 2 scores, one per row"):
                tune_threshold(index, scores)

    def test_empty_file_reports_zeros(self):
        report = triggering_report(QuestionIndex.build([]), [], 0.0)
        assert report.questions_total == report.questions_answerable == 0
        assert (report.map_value, report.mrr_value, report.f1) == (0.0, 0.0, 0.0)

    def test_one_index_serves_every_score_column(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            rows, scores = random_file(rng)
            index = QuestionIndex.build(rows)
            for column in (scores, [-s for s in scores], [1.0] * len(scores), scores):
                report = triggering_report(index, column, 0.0)
                assert report.f1 == looped_triggering(rows, column, 0.0)["f1"]
                assert (report.map_value, report.mrr_value) == looped_map_mrr(rows, column)


class TestTriggeringReport:
    def test_single_correct_trigger(self):
        g = group("q", ("a", 0.9, 1), ("b", 0.1, 0))
        report = evaluate([g], threshold=0.5)
        assert (report.precision, report.recall, report.f1) == (100.0, 100.0, 100.0)

    def test_four_group_hand_fixture(self):
        groups = [
            group("q1", ("a", 0.9, 1), ("b", 0.2, 0)),   # correct trigger
            group("q2", ("a", 0.8, 0), ("b", 0.3, 1)),   # wrong trigger (top is negative)
            group("q3", ("a", 0.1, 0), ("b", 0.05, 0)),  # unanswerable, below threshold
            group("q4", ("a", 0.2, 0)),                  # unanswerable, below threshold
        ]
        report = evaluate(groups, threshold=0.5)
        assert report.questions_total == 4
        assert report.questions_answerable == 2
        assert report.questions_triggered == 2
        assert report.triggers_correct == 1
        assert (report.precision, report.recall, report.f1) == (50.0, 50.0, 50.0)

    def test_strict_inequality_at_threshold(self):
        g = group("q", ("a", 0.5, 1))
        assert evaluate([g], threshold=0.5).questions_triggered == 0
        assert evaluate([g], threshold=0.4999).questions_triggered == 1

    def test_nothing_triggered_gives_zero_precision(self):
        g = group("q", ("a", 0.1, 1))
        report = evaluate([g], threshold=2.0)
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0

    def test_map_mrr_only_over_answerable(self):
        groups = [
            group("q1", ("a", 0.9, 1), ("b", 0.5, 0)),
            group("q2", ("a", 0.9, 0)),  # unanswerable, excluded from MAP/MRR
        ]
        report = evaluate(groups, threshold=2.0)
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
        report = evaluate(groups, threshold=0.45)

        answerable = [g for g in groups if any(label == 1 for _, _, label in g[1])]
        assert len(answerable) == report.questions_answerable == 8
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
        # repr tells every float apart; random_file ties and near-ties scores.
        rng = np.random.default_rng(71)
        for _ in range(1500):
            rows, scores = random_file(rng)
            report = evaluate_file(rows, scores, 0.0)
            assert repr((report.map_value, report.mrr_value)) == repr(looped_map_mrr(rows, scores))

    def test_equals_looped_oracles_on_random_files(self):
        rng = np.random.default_rng(73)
        kinds = Counter()
        for _ in range(1500):
            rows, scores = random_file(rng)
            kinds.update(file_kinds(rows, scores))
            index = QuestionIndex.build(rows)
            top_scores = tops(rows, scores)
            for threshold in [-1.0, 0.0, *top_scores, *(t - 1e-9 for t in top_scores)]:
                report = triggering_report(index, scores, threshold)
                got = {key: getattr(report, key) for key in ORACLE_FIELDS}
                assert repr(got) == repr(looped_triggering(rows, scores, threshold))
                assert repr((report.map_value, report.mrr_value)) == repr(
                    looped_map_mrr(rows, scores)
                )
        assert min(kinds[k] for k in FILE_KINDS) >= 20, kinds


ORACLE_FIELDS = (
    "questions_total", "questions_answerable", "questions_triggered", "triggers_correct",
    "precision", "recall", "f1",
)


class TestTuneThreshold:
    def test_separable_scores_reach_perfect_f1(self):
        groups = [
            group("q1", ("a", 0.9, 1)),
            group("q2", ("a", 0.8, 1)),
            group("q3", ("a", 0.2, 0)),
        ]
        threshold, best = tune(groups)
        assert best == 100.0
        assert 0.2 <= threshold < 0.8
        # smallest optimal threshold: the first midpoint inside the gap
        assert threshold == pytest.approx((0.2 + 0.8) / 2)

    def test_all_tops_incorrect_best_is_zero_triggering_nothing(self):
        groups = [
            group("q1", ("a", 0.9, 0), ("b", 0.1, 1)),
            group("q2", ("a", 0.8, 0), ("b", 0.2, 1)),
        ]
        threshold, best = tune(groups)
        assert best == 0.0
        report = evaluate(groups, threshold)
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
            rows, scores = as_file(groups)
            if not any(label == 1 for _, _, label in rows):
                continue
            threshold, best = tune(groups)
            # exhaustive oracle: every top score +- epsilon
            top_scores = set(tops(rows, scores))
            probes = [t - 1e-9 for t in top_scores] + [t + 1e-9 for t in top_scores]
            probes += [min(top_scores) - 1.0, max(top_scores) + 1.0]
            oracle_best = max(looped_triggering(rows, scores, p)["f1"] for p in probes)
            assert best == pytest.approx(oracle_best, abs=1e-9)
            assert evaluate(groups, threshold).f1 == pytest.approx(best)

    def test_no_answerable_group_is_an_error(self):
        with pytest.raises(ValueError):
            tune([group("q", ("a", 0.5, 0))])

    def test_equals_exhaustive_oracle_exactly(self):
        # repr tells 0.0 from -0.0, so a threshold of the wrong sign fails.
        rng = np.random.default_rng(67)
        kinds = Counter()
        for _ in range(2400):
            rows, scores = random_file(rng)
            kinds.update(file_kinds(rows, scores))
            index = QuestionIndex.build(rows)
            if not index.answerable:
                kinds["unanswerable"] += 1
                with pytest.raises(ValueError):
                    tune_threshold(index, scores)
                with pytest.raises(ValueError):
                    tune_threshold_exhaustive(rows, scores)
                continue
            expected = tune_threshold_exhaustive(rows, scores)
            assert repr(tune_threshold(index, scores)) == repr(expected)
            top_scores = sorted(set(tops(rows, scores)))
            if len(top_scores) == 1:
                kinds["single top"] += 1
            if len(top_scores) < len(index.spans):
                kinds["tied tops"] += 1
            if any((a + b) / 2.0 == b for a, b in zip(top_scores, top_scores[1:])):
                kinds["midpoint rounds up"] += 1
            if expected[1] == 0.0:
                kinds["no correct top"] += 1
        assert min(kinds[k] for k in KINDS + FILE_KINDS) >= 20, kinds

    def test_adjacent_floats_midpoint_equals_upper_score(self):
        low = 0.3
        high = float(np.nextafter(low, 1.0))
        assert (low + high) / 2.0 == high
        groups = [group("q1", ("a", high, 1)), group("q2", ("a", low, 0))]
        # The midpoint is `high` itself, so it triggers nothing: only the
        # sentinel below `low` triggers q1.  A sweep that counted tops by the
        # candidate's position would report F 100 at a threshold giving F 0.
        assert tune(groups) == (low - 1.0, 2 * 50.0 * 100.0 / 150.0)
        assert evaluate(groups, (low + high) / 2.0).questions_triggered == 0
        assert tune(groups) == tune_threshold_exhaustive(*as_file(groups))


KINDS = ("unanswerable", "single top", "tied tops", "midpoint rounds up", "no correct top")
FILE_KINDS = ("interleaved", "signed zeros", "one candidate", "unanswerable question")


def file_kinds(rows, scores):
    """The shapes a random file holds, named as in FILE_KINDS."""
    qids = [qid for qid, _, _ in rows]
    runs = sum(1 for i, qid in enumerate(qids) if i == 0 or qid != qids[i - 1])
    groups = question_groups(rows, scores)
    found = set()
    if runs > len(groups):
        found.add("interleaved")
    if any(repr(s) == "-0.0" for s in scores) and any(repr(s) == "0.0" for s in scores):
        found.add("signed zeros")
    if any(len(g) == 1 for g in groups):
        found.add("one candidate")
    if any(all(label == 0 for _, label in g) for g in groups):
        found.add("unanswerable question")
    return found


def random_file(rng):
    """The rows and scores of a file of 1-8 questions of 1-4 candidates,
    with scores drawn so that tops tie, collapse to one value, sit one ulp
    apart or are zeros of either sign; in some files the questions' rows
    are interleaved."""
    style = int(rng.integers(0, 5))
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
        elif style == 3:
            scores = [pool[int(rng.integers(0, len(pool)))] for _ in range(n)]
        else:
            scores = [float(rng.choice([0.0, -0.0, 0.5, -0.5])) for _ in range(n)]
        labels = [int(rng.random() < 0.4) for _ in range(n)]
        if rng.random() < 0.3:
            # Gold answers only below the top candidate.
            top = max(range(n), key=lambda i: (scores[i], -i))
            labels[top] = 0
        candidates = [(f"c{c}", s, y) for c, (s, y) in enumerate(zip(scores, labels))]
        groups.append(group(f"q{q}", *candidates))
    rows, scores = as_file(groups)
    if rng.random() < 0.4:
        # Interleave: each question's rows keep their order, questions mix.
        order = sorted(range(len(rows)), key=lambda i: (rng.random(), i))
        rows, scores = [rows[i] for i in order], [scores[i] for i in order]
    return rows, scores


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
        index, scores = indexed(groups)
        # scaling by a power of two is exact, so score comparisons are identical
        base = triggering_report(index, scores, 0.5)
        moved = triggering_report(index, [4.0 * score for score in scores], 4.0 * 0.5)
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
            triggered = evaluate(groups, float(threshold)).questions_triggered
            if previous is not None:
                assert triggered <= previous
            previous = triggered
