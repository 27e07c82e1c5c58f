"""Feature extraction and the logistic-regression trigger model.

A question/answer pair is turned into a fixed-order feature vector (graph
alignment features, lexical baselines, and optionally an external neural
score), and a standardized logistic regression maps the vector to a trigger
probability.  Training is full-batch gradient descent on L2-regularized log
loss, zero-initialized, so identical inputs always give identical models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .baselines import AnswerPool, EmbeddingTable, bm25_score, ngram_score, semantic_similarity, tokenize
from .corpus import QAPair
from .coverage import graph_coverage_features, relation_coverage, vocabulary_coverage
from .depgraph import build_graph
from .errors import ConfigError, IngestionError, parse_number
from .ged import GedConfig, graph_edit_distance
from .graphsim import DfTable, graph_similarity_features

FEATURE_NAMES = (
    "ext_score",
    "ged",
    "sim_word",
    "sim_pair",
    "sim_triplet",
    "rel_cov",
    "graph_cov_ans",
    "graph_cov_ques",
    "vocab_cov",
    "bm25",
    "ngram",
    "semvec",
)

DEFAULT_MANIFEST = (
    "ged",
    "sim_word",
    "sim_pair",
    "sim_triplet",
    "rel_cov",
    "graph_cov_ans",
    "graph_cov_ques",
    "vocab_cov",
)

GRAPH_FEATURES = frozenset(DEFAULT_MANIFEST)

DEFAULT_ALPHAS = (7.0, 5.0, 2.0)
DEFAULT_SUBGRAPH_M = 3


@dataclass
class FeatureResources:
    """Everything extract_features may need, depending on the manifest."""

    ged_config: GedConfig = field(default_factory=GedConfig)
    df_tables: Mapping[str, DfTable] | None = None
    alphas: tuple[float, float, float] = DEFAULT_ALPHAS
    subgraph_m: int = DEFAULT_SUBGRAPH_M
    embeddings: EmbeddingTable | None = None
    scores: Mapping[tuple[str, str], float] | None = None
    pools: Mapping[str, AnswerPool] | None = None
    k1: float = 1.5
    b: float = 0.75
    n_max: int = 3


def extract_features(
    pair: QAPair,
    resources: FeatureResources,
    manifest: Sequence[str] = DEFAULT_MANIFEST,
) -> list[float]:
    """Feature values for one pair, in manifest order.

    Raises ConfigError when an enabled feature's resource is missing; an
    enabled ext_score with no entry for the pair is an error, never imputed.
    """
    unknown = [name for name in manifest if name not in FEATURE_NAMES]
    if unknown:
        raise ConfigError(f"unknown features in manifest: {', '.join(unknown)}")
    if not manifest:
        raise ConfigError("no features enabled")

    needs_graphs = any(name in GRAPH_FEATURES for name in manifest)
    gq = ga = None
    if needs_graphs:
        if not (pair.question.parsed and pair.answer.parsed):
            raise ConfigError(
                f"graph features require dependency parses "
                f"(pair {pair.question_id}/{pair.candidate_id} has none)"
            )
        gq = build_graph(pair.question)
        ga = build_graph(pair.answer)

    cache: dict[str, object] = {}

    def sims() -> tuple[float, float, float]:
        if "sims" not in cache:
            if resources.df_tables is None:
                raise ConfigError("similarity features require DF tables")
            cache["sims"] = graph_similarity_features(
                gq, ga, resources.df_tables, resources.alphas
            )
        return cache["sims"]

    def graph_cov() -> tuple[float, float]:
        if "graph_cov" not in cache:
            cache["graph_cov"] = graph_coverage_features(gq, ga, resources.subgraph_m)
        return cache["graph_cov"]

    def lexical(which: str) -> float:
        if "q_tokens" not in cache:
            cache["q_tokens"] = tokenize(pair.question.text)
            cache["a_tokens"] = tokenize(pair.answer.text)
        q_tokens, a_tokens = cache["q_tokens"], cache["a_tokens"]
        if which == "bm25":
            if resources.pools is None or pair.question_id not in resources.pools:
                raise ConfigError("bm25 requires per-question answer pools")
            return bm25_score(
                q_tokens, a_tokens, resources.pools[pair.question_id],
                resources.k1, resources.b,
            )
        if which == "ngram":
            return ngram_score(q_tokens, a_tokens, resources.n_max)
        if resources.embeddings is None:
            raise ConfigError("semvec requires an embedding table")
        return semantic_similarity(q_tokens, a_tokens, resources.embeddings)

    values = []
    for name in manifest:
        if name == "ext_score":
            if resources.scores is None:
                raise ConfigError("ext_score requires a score file")
            key = (pair.question_id, pair.candidate_id)
            if key not in resources.scores:
                raise ConfigError(
                    f"ext_score missing for pair {key[0]}/{key[1]}"
                )
            values.append(resources.scores[key])
        elif name == "ged":
            values.append(graph_edit_distance(gq, ga, resources.ged_config))
        elif name == "sim_word":
            values.append(sims()[0])
        elif name == "sim_pair":
            values.append(sims()[1])
        elif name == "sim_triplet":
            values.append(sims()[2])
        elif name == "rel_cov":
            values.append(relation_coverage(gq, ga))
        elif name == "graph_cov_ans":
            values.append(graph_cov()[0])
        elif name == "graph_cov_ques":
            values.append(graph_cov()[1])
        elif name == "vocab_cov":
            values.append(vocabulary_coverage(gq, ga))
        else:
            values.append(lexical(name))
    return values


def sigmoid(x: float) -> float:
    """Numerically stable logistic function."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


@dataclass
class TriggerModel:
    feature_names: tuple[str, ...]
    weights: np.ndarray
    bias: float
    means: np.ndarray
    stds: np.ndarray
    threshold: float

    def __post_init__(self) -> None:
        k = len(self.feature_names)
        if not (len(self.weights) == len(self.means) == len(self.stds) == k):
            raise ValueError("model dimensions disagree with feature names")

    def standardize(self, x: Sequence[float] | np.ndarray) -> np.ndarray:
        """Standardize one feature vector or every row of a matrix."""
        raw = np.asarray(x, dtype=float)
        if raw.shape[-1:] != self.weights.shape:
            raise ValueError(
                f"expected {len(self.weights)} features, got {raw.shape}"
            )
        return _standardize(raw, self.means, self.stds)

    def prob(self, x: Sequence[float]) -> float:
        z = self.standardize(x)
        return sigmoid(float(np.dot(self.weights, z)) + self.bias)

    def scores(self, matrix: np.ndarray) -> list[float]:
        """prob of every row; a per-row np.dot and math.exp keep it bitwise
        equal to prob, where `z @ w` or np.exp can differ in the last bit."""
        z = self.standardize(matrix)
        return [sigmoid(float(np.dot(self.weights, row)) + self.bias) for row in z]


def _standardize(x: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """(x - mean) / std over the last axis; constant columns become 0."""
    z = np.zeros_like(x)
    nonzero = stds > 0
    z[..., nonzero] = (x[..., nonzero] - means[nonzero]) / stds[nonzero]
    return z


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.1
    epochs: int = 200
    l2: float = 1e-4


def loss_and_gradient(
    weights: np.ndarray,
    bias: float,
    z: np.ndarray,
    y: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Mean log loss with L2 on the weights, and its analytic gradient."""
    logits = z @ weights + bias
    probs = 1.0 / (1.0 + np.exp(-np.clip(logits, -500, 500)))
    eps = 1e-12
    loss = float(
        -np.mean(y * np.log(probs + eps) + (1 - y) * np.log(1 - probs + eps))
        + 0.5 * l2 * float(np.dot(weights, weights))
    )
    residual = probs - y
    grad_w = z.T @ residual / len(y) + l2 * weights
    grad_b = float(np.mean(residual))
    return loss, grad_w, grad_b


def train(
    vectors: Sequence[Sequence[float]],
    labels: Sequence[int],
    feature_names: Sequence[str],
    hyper: TrainConfig = TrainConfig(),
    threshold: float = 0.14,
) -> TriggerModel:
    """Fit the trigger model by full-batch gradient descent.

    Features are standardized with training-set statistics (constant columns
    are zeroed rather than divided by zero).  Needs at least one example of
    each class.
    """
    x = np.asarray(vectors, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(feature_names):
        raise ValueError("feature matrix does not match feature names")
    if not (np.any(y == 1.0) and np.any(y == 0.0)):
        raise ValueError("training set must contain both classes")

    means = x.mean(axis=0)
    stds = x.std(axis=0)
    z = _standardize(x, means, stds)

    weights = np.zeros(x.shape[1])
    bias = 0.0
    for _ in range(hyper.epochs):
        _, grad_w, grad_b = loss_and_gradient(weights, bias, z, y, hyper.l2)
        weights = weights - hyper.lr * grad_w
        bias = bias - hyper.lr * grad_b
    return TriggerModel(
        feature_names=tuple(feature_names),
        weights=weights,
        bias=bias,
        means=means,
        stds=stds,
        threshold=threshold,
    )


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def save_model(model: TriggerModel, path: str | Path) -> None:
    """Versioned plain-text model file; floats round-trip bit-exactly."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("version 1\n")
        handle.write(f"{_fmt(model.threshold)}\n")
        for i, name in enumerate(model.feature_names):
            handle.write(
                f"{name}\t{_fmt(model.weights[i])}\t{_fmt(model.means[i])}\t"
                f"{_fmt(model.stds[i])}\n"
            )
        handle.write(f"BIAS\t{_fmt(model.bias)}\n")


def load_model(path: str | Path) -> TriggerModel:
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        lines = [
            (lineno, line.rstrip("\r\n"))
            for lineno, line in enumerate(handle, start=1)
            if line.strip()
        ]
    if not lines or lines[0][1] != "version 1":
        raise IngestionError(f"{path}: unsupported model file version")
    if len(lines) < 3:
        raise IngestionError(f"{path}: truncated model file")
    threshold = parse_number(lines[1][1], path, lines[1][0])
    names, weights, means, stds = [], [], [], []
    bias: float | None = None
    for lineno, line in lines[2:]:
        columns = line.split("\t")
        if columns[0] == "BIAS":
            if len(columns) != 2:
                raise IngestionError(f"{path}: line {lineno}: BIAS needs one value")
            bias = parse_number(columns[1], path, lineno)
            continue
        if len(columns) != 4:
            raise IngestionError(f"{path}: malformed model row {line!r}")
        names.append(columns[0])
        weights.append(parse_number(columns[1], path, lineno))
        means.append(parse_number(columns[2], path, lineno))
        stds.append(parse_number(columns[3], path, lineno))
    if bias is None:
        raise IngestionError(f"{path}: missing BIAS row")
    return TriggerModel(
        feature_names=tuple(names),
        weights=np.asarray(weights),
        bias=bias,
        means=np.asarray(means),
        stds=np.asarray(stds),
        threshold=threshold,
    )
