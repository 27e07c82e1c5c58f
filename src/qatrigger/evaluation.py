"""Answer-selection and answer-triggering metrics.

MAP and MRR come from one ranking of each answerable question's candidates:
the 1-based ranks of its positives give both its average precision and its
reciprocal rank, and each is averaged over answerable questions only.
Triggering looks at each question's highest-scoring candidate: the question
is triggered when that score strictly exceeds the threshold, and the trigger
is correct when the selected candidate is gold positive.  Precision, recall,
and F-score are reported as percentages at the question level.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate


@dataclass(frozen=True)
class ScoredGroup:
    """Candidates of one question as (candidate_id, score, gold_label) in corpus order."""

    question_id: str
    candidates: tuple[tuple[str, float, int], ...]

    @cached_property
    def answerable(self) -> bool:
        return any(label == 1 for _, _, label in self.candidates)


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


def _ranked(group: ScoredGroup) -> list[tuple[str, float, int]]:
    # Stable sort: equal scores keep corpus order.
    return sorted(group.candidates, key=lambda c: -c[1])


def top_candidate(group: ScoredGroup) -> tuple[str, float, int]:
    """Highest-scoring candidate; ties go to the earliest in corpus order."""
    best = group.candidates[0]
    for candidate in group.candidates[1:]:
        if candidate[1] > best[1]:
            best = candidate
    return best


def _prf(correct: int, triggered: int, answerable: int) -> tuple[float, float, float]:
    """Question-level precision, recall and F-score as percentages."""
    precision = 100.0 * correct / triggered if triggered else 0.0
    recall = 100.0 * correct / answerable if answerable else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def triggering_report(groups: list[ScoredGroup], threshold: float) -> EvalReport:
    """Question-level triggering metrics plus MAP/MRR over answerable groups."""
    answerable = 0
    triggered = 0
    correct = 0
    ap_values: list[float] = []
    rr_values: list[float] = []
    for group in groups:
        if group.answerable:
            answerable += 1
            ranks = [rank for rank, (_, _, label) in enumerate(_ranked(group), 1) if label == 1]
            ap_values.append(sum(i / rank for i, rank in enumerate(ranks, 1)) / len(ranks))
            rr_values.append(1.0 / ranks[0])
        _, score, label = top_candidate(group)
        if score > threshold:
            triggered += 1
            if label == 1:
                correct += 1
    precision, recall, f1 = _prf(correct, triggered, answerable)
    return EvalReport(
        map_value=sum(ap_values) / answerable if answerable else 0.0,
        mrr_value=sum(rr_values) / answerable if answerable else 0.0,
        precision=precision,
        recall=recall,
        f1=f1,
        questions_total=len(groups),
        questions_answerable=answerable,
        questions_triggered=triggered,
        triggers_correct=correct,
    )


def tune_threshold(groups: list[ScoredGroup]) -> tuple[float, float]:
    """Best triggering threshold on development groups.

    Candidate thresholds are the midpoints between consecutive distinct
    top-candidate scores plus one sentinel below the minimum (trigger all)
    and one at the maximum (trigger none, since triggering is strict).
    Returns (threshold, best F-score); ties prefer the smallest threshold,
    except that a best F-score of zero falls back to triggering nothing.
    One sort, then one bisection per candidate: a midpoint of adjacent floats
    can round onto the upper score, so counts never come from its position.
    """
    answerable = sum(g.answerable for g in groups)
    if not answerable:
        raise ValueError("threshold tuning needs at least one answerable group")
    ranked = sorted((top_candidate(g) for g in groups), key=lambda c: c[1])
    scores = [score for _, score, _ in ranked]
    correct_upto = list(accumulate((label == 1 for _, _, label in ranked), initial=0))
    tops = sorted(set(scores))
    candidates = [tops[0] - 1.0]
    candidates += [(a + b) / 2.0 for a, b in zip(tops, tops[1:])]
    candidates.append(tops[-1])
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
