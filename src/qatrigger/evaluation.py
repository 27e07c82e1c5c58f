"""Answer-selection and answer-triggering metrics.

MAP and MRR come from the 1-based ranks of each answerable question's
positives, counted with no sort: they give both its average precision and
its reciprocal rank, and each is averaged over answerable questions only.
Triggering looks at each question's highest-scoring candidate: the question
is triggered when that score strictly exceeds the threshold, and the trigger
is correct when the selected candidate is gold positive.  Precision, recall,
and F-score are reported as percentages at the question level.

A file's rows are grouped by question once, in a QuestionIndex; each metric
then takes that index and one score per row, so the model's column and every
baseline column are read in one pass each, with no per-candidate objects.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence


@dataclass(frozen=True)
class QuestionIndex:
    """The rows of one scored file, (question_id, candidate_id, label) each,
    grouped by question once for every score column of that file.

    `order` lists the row indices question by question: questions in the
    order of their first row, and each question's rows in file order.
    `spans[q]` is question q's (start, end) in that order, `labels` the
    rows' labels in that order, and `positives[q]` the offsets within
    question q's span of its gold rows.
    """

    order: tuple[int, ...]
    spans: tuple[tuple[int, int], ...]
    labels: tuple[int, ...]
    positives: tuple[tuple[int, ...], ...]
    answerable: int

    @classmethod
    def build(cls, rows: Sequence[tuple[str, str, int]]) -> QuestionIndex:
        grouped: dict[str, list[int]] = {}
        for i, (qid, _, _) in enumerate(rows):
            grouped.setdefault(qid, []).append(i)
        order = tuple(i for members in grouped.values() for i in members)
        labels = tuple(rows[i][2] for i in order)
        spans, positives, start = [], [], 0
        for members in grouped.values():
            end = start + len(members)
            spans.append((start, end))
            positives.append(tuple(j - start for j in range(start, end) if labels[j] == 1))
            start = end
        return cls(order, tuple(spans), labels, tuple(positives), sum(map(bool, positives)))

    def questions(self, scores: Sequence[float]) -> Iterator[tuple[list[float], tuple[int, ...]]]:
        """Each question's scores in file order, with the offsets of its
        positives; `scores` holds one score per row, in file order."""
        if len(scores) != len(self.order):
            raise ValueError(f"expected {len(self.order)} scores, one per row, got {len(scores)}")
        scores = [scores[i] for i in self.order]
        return ((scores[a:b], offsets) for (a, b), offsets in zip(self.spans, self.positives))


@dataclass(frozen=True)
class EvalReport:
    map_value: float
    mrr_value: float
    precision: float
    recall: float
    f1: float
    questions_total: int
    questions_answerable: int
    questions_triggered: int
    triggers_correct: int

    def as_text(self) -> str:
        return (
            f"questions: {self.questions_total} total, "
            f"{self.questions_answerable} answerable, "
            f"{self.questions_triggered} triggered, "
            f"{self.triggers_correct} correct\n"
            f"MAP: {self.map_value:.4f}  MRR: {self.mrr_value:.4f}\n"
            f"Precision: {self.precision:.2f}%  Recall: {self.recall:.2f}%  "
            f"F-score: {self.f1:.2f}%"
        )

    def as_kv(self) -> str:
        return (
            f"map={self.map_value!r}\n"
            f"mrr={self.mrr_value!r}\n"
            f"precision={self.precision!r}\n"
            f"recall={self.recall!r}\n"
            f"f1={self.f1!r}\n"
            f"questions_total={self.questions_total}\n"
            f"questions_answerable={self.questions_answerable}\n"
            f"questions_triggered={self.questions_triggered}\n"
            f"triggers_correct={self.triggers_correct}"
        )


def _prf(correct: int, triggered: int, answerable: int) -> tuple[float, float, float]:
    """Question-level precision, recall and F-score as percentages."""
    precision = 100.0 * correct / triggered if triggered else 0.0
    recall = 100.0 * correct / answerable if answerable else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _rank(scores: list[float], offset: int) -> int:
    """1-based rank of the row at `offset` when the scores are sorted from
    high to low and ties keep file order."""
    score = scores[offset]
    return 1 + sum(map(score.__lt__, scores)) + sum(map(score.__eq__, scores[:offset]))


def triggering_report(
    index: QuestionIndex, scores: Sequence[float], threshold: float
) -> EvalReport:
    """Question-level triggering metrics plus MAP/MRR over answerable
    questions, from one score per row of the indexed file.  A question's
    top candidate is its first highest-scoring row, i.e. its row of rank 1."""
    triggered = 0
    correct = 0
    ap_values: list[float] = []
    rr_values: list[float] = []
    for group, positives in index.questions(scores):
        ranks = sorted(_rank(group, offset) for offset in positives)
        if ranks:
            ap_values.append(sum(i / rank for i, rank in enumerate(ranks, 1)) / len(ranks))
            rr_values.append(1.0 / ranks[0])
        if max(group) > threshold:
            triggered += 1
            if ranks and ranks[0] == 1:
                correct += 1
    answerable = index.answerable
    precision, recall, f1 = _prf(correct, triggered, answerable)
    return EvalReport(
        map_value=sum(ap_values) / answerable if answerable else 0.0,
        mrr_value=sum(rr_values) / answerable if answerable else 0.0,
        precision=precision,
        recall=recall,
        f1=f1,
        questions_total=len(index.spans),
        questions_answerable=answerable,
        questions_triggered=triggered,
        triggers_correct=correct,
    )


def tune_threshold(index: QuestionIndex, scores: Sequence[float]) -> tuple[float, float]:
    """Best triggering threshold on a development file, from one score per
    row of the indexed file.

    Candidate thresholds are the midpoints between consecutive distinct
    top-candidate scores plus one sentinel below the minimum (trigger all)
    and one at the maximum (trigger none, since triggering is strict).
    Returns (threshold, best F-score); ties prefer the smallest threshold,
    except that a best F-score of zero falls back to triggering nothing.
    One sort, then one bisection per candidate: a midpoint of adjacent floats
    can round onto the upper score, so counts never come from its position.
    """
    answerable = index.answerable
    if not answerable:
        raise ValueError("threshold tuning needs at least one answerable group")
    # (top score, whether the first row holding it is gold) per question
    tops = []
    for group, positives in index.questions(scores):
        top = max(group)
        tops.append((top, group.index(top) in positives))
    ranked = sorted(tops, key=lambda t: t[0])
    scores = [score for score, _ in ranked]
    correct_upto = list(accumulate((hit for _, hit in ranked), initial=0))
    distinct = sorted(set(scores))
    candidates = [distinct[0] - 1.0]
    candidates += [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]
    candidates.append(distinct[-1])
    best_threshold = candidates[0]
    best_f1 = -1.0
    for threshold in candidates:
        cut = bisect_right(scores, threshold)
        f1 = _prf(correct_upto[-1] - correct_upto[cut], len(scores) - cut, answerable)[2]
        if f1 > best_f1:
            best_f1 = f1
            best_threshold = threshold
    if best_f1 == 0.0:
        return candidates[-1], 0.0
    return best_threshold, best_f1
