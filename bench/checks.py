"""Correctness gates for the benchmark, independent of the qatrigger code.

Every output of a stage is read back with the benchmark's own parsers and
checked against what the generator knows (pair order, gold labels, split
sizes) and against independent recomputations: triggering metrics from the
model's scores, and the optimality of each tuned threshold by a
sort-and-sweep over top-candidate scores.  Each function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

BOUNDED = {  # feature -> closed range its values must lie in
    "ged": (0.0, 1.0), "sim_word": (0.0, 1.0), "sim_pair": (0.0, 1.0),
    "sim_triplet": (0.0, 1.0), "rel_cov": (0.0, 1.0), "graph_cov_ans": (0.0, 1.0),
    "graph_cov_ques": (0.0, 1.0), "vocab_cov": (0.0, 1.0), "ngram": (0.0, 1.0),
    "semvec": (-1.0 - 1e-12, 1.0 + 1e-12), "ext_score": (0.0, 1.0),
}
TOLERANCE = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_features(path: Path) -> tuple[list[str], list[tuple[str, str, int]], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    keys, values = [], []
    for line in lines[1:]:
        columns = line.split("\t")
        keys.append((columns[0], columns[1], int(columns[2])))
        values.append([float(v) for v in columns[3:]])
    return header, keys, np.asarray(values, dtype=float).reshape(len(keys), len(header) - 3)


def check_features(
    path: Path, manifest: tuple[str, ...], gold: list[tuple[str, str, int]],
    scores: dict[tuple[str, str], float] | None,
) -> list[str]:
    header, keys, values = read_features(path)
    problems = []
    if header != ["question_id", "candidate_id", "gold_label", *manifest]:
        problems.append(f"{path.name}: header {header}")
    if keys != gold:
        problems.append(f"{path.name}: rows differ from the corpus pairs")
    if not np.all(np.isfinite(values)):
        problems.append(f"{path.name}: non-finite feature values")
    for column, name in enumerate(manifest):
        low, high = BOUNDED.get(name, (-math.inf, math.inf))
        if values.size and not np.all((values[:, column] >= low) & (values[:, column] <= high)):
            problems.append(f"{path.name}: {name} outside [{low}, {high}]")
    if scores is not None and "ext_score" in manifest and keys == gold:
        column = manifest.index("ext_score")
        if any(values[i, column] != scores[(q, c)] for i, (q, c, _) in enumerate(keys)):
            problems.append(f"{path.name}: ext_score differs from the score file")
    return problems


def read_gold(path: Path) -> list[tuple[str, str, int]]:
    """(question_id, candidate_id, label) rows of a WikiQA TSV with a header."""
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    return [(r[0], r[4], int(r[6])) for r in rows]


def read_scores(path: Path) -> dict[tuple[str, str], float]:
    scores = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        qid, cid, value = line.split("\t")
        scores[(qid, cid)] = float(value)
    return scores


def check_df_table(path: Path, n_docs: int) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != f"N\t{n_docs}":
        return [f"{path.name}: first line should be N<TAB>{n_docs}"]
    counts = [int(line.rsplit("\t", 1)[1]) for line in lines[1:]]
    keys = [line.rsplit("\t", 1)[0] for line in lines[1:]]
    if not counts or not all(1 <= c <= n_docs for c in counts) or keys != sorted(set(keys)):
        return [f"{path.name}: counts out of range, keys unsorted, or table empty"]
    return []


def read_model(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "version 1" or not lines[-1].startswith("BIAS\t"):
        raise ValueError(f"{path.name}: not a version 1 model file")
    rows = [line.split("\t") for line in lines[2:-1]]
    return {
        "threshold": float(lines[1]),
        "names": tuple(r[0] for r in rows),
        "weights": np.asarray([float(r[1]) for r in rows]),
        "means": np.asarray([float(r[2]) for r in rows]),
        "stds": np.asarray([float(r[3]) for r in rows]),
        "bias": float(lines[-1].split("\t")[1]),
    }


def check_model(path: Path, manifest: tuple[str, ...], threshold: float) -> list[str]:
    try:
        model = read_model(path)
    except (ValueError, IndexError) as exc:
        return [f"{path.name}: {exc}"]
    problems = []
    if model["names"] != manifest:
        problems.append(f"{path.name}: features {model['names']}")
    numbers = np.concatenate([model["weights"], model["means"], model["stds"], [model["bias"]]])
    if not np.all(np.isfinite(numbers)) or np.any(model["stds"] < 0):
        problems.append(f"{path.name}: non-finite parameter or negative std")
    if model["threshold"] != threshold:
        problems.append(f"{path.name}: threshold {model['threshold']!r}, expected {threshold!r}")
    return problems


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def model_scores(model: dict, values: np.ndarray) -> list[float]:
    z = np.zeros_like(values)
    nonzero = model["stds"] > 0
    z[:, nonzero] = (values[:, nonzero] - model["means"][nonzero]) / model["stds"][nonzero]
    return [_sigmoid(float(np.dot(model["weights"], row)) + model["bias"]) for row in z]


def _groups(keys: list[tuple[str, str, int]], scores: list[float]) -> list[list[tuple[float, int]]]:
    grouped: dict[str, list[tuple[float, int]]] = {}
    for (qid, _, label), score in zip(keys, scores):
        grouped.setdefault(qid, []).append((score, label))
    return list(grouped.values())


def triggering(groups: list[list[tuple[float, int]]], threshold: float) -> dict[str, float]:
    """MAP/MRR over answerable questions and question-level P/R/F in percent."""
    ap, rr, triggered, correct, answerable = [], [], 0, 0, 0
    for group in groups:
        ranked = sorted(group, key=lambda c: -c[0])  # stable: ties keep corpus order
        hits = [rank for rank, (_, label) in enumerate(ranked, start=1) if label == 1]
        if hits:
            answerable += 1
            ap.append(sum(i / rank for i, rank in enumerate(hits, start=1)) / len(hits))
            rr.append(1.0 / hits[0])
        top = max(range(len(group)), key=lambda i: (group[i][0], -i))
        if group[top][0] > threshold:
            triggered += 1
            correct += group[top][1]
    precision = 100.0 * correct / triggered if triggered else 0.0
    recall = 100.0 * correct / answerable if answerable else 0.0
    return {
        "map": sum(ap) / answerable if answerable else 0.0,
        "mrr": sum(rr) / answerable if answerable else 0.0,
        "precision": precision,
        "recall": recall,
        "f1": 2 * precision * recall / (precision + recall) if precision + recall else 0.0,
        "questions_total": len(groups),
        "questions_answerable": answerable,
        "questions_triggered": triggered,
        "triggers_correct": correct,
    }


def best_f1(groups: list[list[tuple[float, int]]]) -> float:
    """Highest F-score any threshold reaches, by one sweep over sorted top scores."""
    tops = []
    for group in groups:
        top = max(range(len(group)), key=lambda i: (group[i][0], -i))
        tops.append((group[top][0], group[top][1]))
    answerable = sum(1 for g in groups if any(label for _, label in g))
    tops.sort(key=lambda t: -t[0])
    best, triggered, correct = 0.0, 0, 0
    for i, (score, label) in enumerate(tops):
        triggered += 1
        correct += label
        if i + 1 < len(tops) and tops[i + 1][0] == score:
            continue  # a threshold cannot separate equal scores
        precision, recall = 100.0 * correct / triggered, 100.0 * correct / answerable
        if precision + recall:
            best = max(best, 2 * precision * recall / (precision + recall))
    return best


def parse_report(text: str) -> list[tuple[str, float, dict[str, float]]]:
    """(section name, threshold, key=value metrics) per report section."""
    sections = []
    for line in text.splitlines():
        if line.startswith("== "):
            head = line.strip("= ")
            name, _, rest = head.partition(" (threshold ")
            sections.append((name, float(rest.rstrip(")")), {}))
        elif "=" in line and sections:
            key, _, value = line.partition("=")
            sections[-1][2][key] = float(value)
    return sections


def _compare(where: str, reported: dict[str, float], expected: dict[str, float]) -> list[str]:
    return [
        f"{where}: {key}={reported.get(key)!r}, recomputed {value!r}"
        for key, value in expected.items()
        if key not in reported or abs(reported[key] - value) > TOLERANCE
    ]


def check_tuned(model_path: Path, dev_features: Path) -> list[str]:
    """The tuned threshold must reach the best F-score on the dev split."""
    model = read_model(model_path)
    _, keys, values = read_features(dev_features)
    groups = _groups(keys, model_scores(model, values))
    reached, best = triggering(groups, model["threshold"])["f1"], best_f1(groups)
    if abs(reached - best) > TOLERANCE:
        return [f"tune: threshold {model['threshold']!r} gives F {reached!r}, best is {best!r}"]
    return []


def check_report(
    report_path: Path, model_path: Path, test_features: Path, fixed_thresholds: dict[str, float],
) -> list[str]:
    """Recompute every report section from the model and the test features.

    Baselines without a fixed threshold are tuned on the test split by the
    CLI, so their threshold must reach the best F-score there.
    """
    model = read_model(model_path)
    header, keys, values = read_features(test_features)
    names = header[3:]
    problems = []
    sections = parse_report(report_path.read_text(encoding="utf-8"))
    expected_names = ["model"] + [
        f"baseline {n}" for n in ("bm25", "ngram", "semvec") if n in names
    ]
    if [s[0] for s in sections] != expected_names:
        return [f"report: sections {[s[0] for s in sections]}, expected {expected_names}"]
    for name, threshold, reported in sections:
        baseline = name.removeprefix("baseline ")
        if name == "model":
            if threshold != model["threshold"]:
                problems.append(f"report: model threshold {threshold!r}")
            scores = model_scores(model, values)
        else:
            scores = list(values[:, names.index(baseline)])
        groups = _groups(keys, scores)
        expected = triggering(groups, threshold)
        problems += _compare(f"report {name}", reported, expected)
        if name == "model":
            continue
        if baseline in fixed_thresholds:
            if threshold != fixed_thresholds[baseline]:
                problems.append(f"report {name}: threshold {threshold!r}")
        elif abs(expected["f1"] - best_f1(groups)) > TOLERANCE:
            problems.append(f"report {name}: threshold {threshold!r} is not F-optimal")
    return problems
