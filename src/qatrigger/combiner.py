"""Feature extraction and the logistic-regression trigger model.

Features are computed for a batch of question groups at a time, from one
table of feature families (graph alignment features, lexical baselines,
and optionally an external neural score).  Each family gives its column
names, whether it reads dependency parses, the resource it requires, and
the columns of the whole batch, one value per candidate.  The graph
families `ged`, `sim_*` and `graph_cov_*` call their per-group function
from `ged`, `graphsim` or `coverage` once per group, which prepares the
question's side once; `rel_cov` and `vocab_cov` call their `coverage`
function once per batch, on the batch's parses, and the lexical families
`bm25`, `ngram` and `semvec` their `baselines` function once per batch, on
the batch's token lists.  No family is scored pair by pair.  The lexical
features read the texts, tokenized on first use, once per batch, and the
graph features the parses.  BM25 takes its pool from the group's own
answers, so `bm25` is the one feature whose value depends on a
candidate's groupmates; no value depends on its batch-mates.  A
standardized logistic regression maps each candidate's manifest-ordered
vector to a trigger probability.  Training minimizes L2-regularized log
loss by Newton's method from zero weights, to a fixed gradient-norm
tolerance, so identical inputs always give identical models."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .baselines import EmbeddingTable, bm25_scores, ngram_scores, semantic_similarities, tokenize
from .corpus import QuestionGroup, Sentence
from .coverage import graph_coverage_features, relation_coverages, vocabulary_coverages
from .errors import ConfigError, IngestionError, check_finite, open_output, open_text, parse_number
from .ged import GedConfig, graph_edit_distances
from .graphsim import DfTable, graph_similarities


@dataclass(frozen=True)
class FeatureResources:
    """Everything extract_features may need, depending on the manifest.  The
    defaults are the published hyperparameters; the CLI's [hyper] reads them.
    Construction checks the hyperparameters' ranges, and the object is frozen,
    so a field changes only through dataclasses.replace, which checks again."""

    ged_config: GedConfig = field(default_factory=GedConfig)
    df_tables: Mapping[str, DfTable] | None = None
    alphas: tuple[float, float, float] = (7.0, 5.0, 2.0)
    subgraph_m: int = 3
    embeddings: EmbeddingTable | None = None
    scores: Mapping[tuple[str, str], float] | None = None
    k1: float = 1.5
    b: float = 0.75
    n_max: int = 3

    def __post_init__(self) -> None:
        if len(self.alphas) != 3:
            raise ValueError(f"alphas must be three values, got {self.alphas!r}")
        check_finite(self, "alphas", "subgraph_m", "k1", "b", "n_max")
        if min(self.alphas) < 0:
            raise ValueError("alphas must be >= 0")
        if self.subgraph_m < 0:
            raise ValueError("subgraph_m must be >= 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")
        if self.k1 < 0 or self.n_max < 1:
            raise ValueError("k1 must be >= 0 and n_max >= 1")
        if self.n_max > 2**53:  # keeps 1 + 2 + ... + n_max a finite float
            raise ValueError("n_max must be at most 2**53")


@dataclass
class _Batch:
    """A run of question groups, each with at least one candidate: their
    pair keys, their texts, tokenized on first read, once per batch, and
    their parses."""

    groups: Sequence[QuestionGroup]

    @cached_property
    def keys(self) -> list[tuple[str, str]]:
        return [(g.question_id, cid) for g in self.groups for cid, _, _ in g.candidates]

    @cached_property
    def tokens(self) -> list[tuple[list[str], list[list[str]]]]:
        """Each group's question tokens and candidate token lists."""
        return [(tokenize(g.question), [tokenize(text) for _, text, _ in g.candidates])
                for g in self.groups]

    @cached_property
    def parses(self) -> list[tuple[Sentence, Sequence[Sentence]]]:
        """Each group's question parse and candidate parses."""
        return [(g.parses[0], g.parses[1:]) for g in self.groups]


def _each_group(score: Callable[[object, Sequence], Sequence], inputs: Iterable) -> list:
    """score(question, candidates) of each group's inputs, concatenated:
    one value or row per candidate of the batch."""
    return [value for question, candidates in inputs for value in score(question, candidates)]


class _Family(NamedTuple):
    """Columns computed together for a whole batch by one function."""

    columns: tuple[str, ...]
    # Whether the family reads dependency parses.
    parses: bool
    # (FeatureResources field that must be set, the error when it is not).
    requires: tuple[str, str] | None
    # The family's columns: one sequence per column, one value per candidate.
    fn: Callable[[_Batch, FeatureResources], Iterable[Sequence[float]]]


_FAMILIES = (
    _Family(("ext_score",), False, ("scores", "ext_score requires a score file"),
            lambda b, res: [[res.scores[key] for key in b.keys]]),
    _Family(("ged",), True, None,
            lambda b, res: [_each_group(
                lambda gq, graphs: graph_edit_distances(gq, graphs, res.ged_config), b.parses)]),
    _Family(("sim_word", "sim_pair", "sim_triplet"), True,
            ("df_tables", "similarity features require DF tables"),
            lambda b, res: zip(*_each_group(
                lambda gq, graphs: graph_similarities(gq, graphs, res.df_tables, res.alphas),
                b.parses))),
    _Family(("rel_cov",), True, None,
            lambda b, res: [relation_coverages(b.parses)]),
    _Family(("graph_cov_ans", "graph_cov_ques"), True, None,
            lambda b, res: zip(*_each_group(
                lambda gq, graphs: graph_coverage_features(gq, graphs, res.subgraph_m),
                b.parses))),
    _Family(("vocab_cov",), True, None,
            lambda b, res: [vocabulary_coverages(b.parses)]),
    _Family(("bm25",), False, None,
            lambda b, res: [bm25_scores(b.tokens, res.k1, res.b)]),
    _Family(("ngram",), False, None,
            lambda b, res: [ngram_scores(b.tokens, res.n_max)]),
    _Family(("semvec",), False, ("embeddings", "semvec requires an embedding table"),
            lambda b, res: [semantic_similarities(b.tokens, res.embeddings)]),
)

FEATURE_NAMES = tuple(name for family in _FAMILIES for name in family.columns)

DEFAULT_MANIFEST = tuple(name for family in _FAMILIES if family.parses for name in family.columns)


def check_manifest(manifest: Sequence[str]) -> None:
    """Raise ConfigError when the manifest names an unknown feature, one twice, or none."""
    unknown = [name for name in manifest if name not in FEATURE_NAMES]
    if unknown:
        raise ConfigError(f"unknown features in manifest: {', '.join(unknown)}")
    twice = [name for name, count in Counter(manifest).items() if count > 1]
    if twice:
        raise ConfigError(f"features named twice in manifest: {', '.join(twice)}")
    if not manifest:
        raise ConfigError("no features enabled")


def reads_parses(manifest: Sequence[str]) -> bool:
    """Whether any of the manifest's features reads dependency parses."""
    return any(f.parses for f in _FAMILIES if any(name in manifest for name in f.columns))


def extract_features(
    groups: Iterable[QuestionGroup],
    resources: FeatureResources,
    manifest: Sequence[str] = DEFAULT_MANIFEST,
) -> list[list[float]]:
    """Feature rows for the candidates of every group, groups in order and
    each group's candidates in order; each row holds the manifest's features
    in manifest order.  A row does not depend on the other groups, so a
    batch gives the rows of its groups one at a time; to featurize one
    group, pass `[group]`.

    The manifest and the resources are checked once per call, and each
    family computes its columns over the whole batch.  Raises ConfigError
    when an enabled feature's resource is missing, a graph feature meets a
    group without parses, or an enabled ext_score has no entry for a pair
    (never imputed); the groups are checked in order, so the first faulty
    pair is the one that featurizing group by group would name.
    """
    check_manifest(manifest)
    families = [f for f in _FAMILIES if any(name in manifest for name in f.columns)]
    for family in families:
        if family.requires and getattr(resources, family.requires[0]) is None:
            raise ConfigError(family.requires[1])
    groups = [group for group in groups if group.candidates]
    graph = reads_parses(manifest)
    scores = resources.scores if "ext_score" in manifest else None
    for group in groups:
        qid = group.question_id
        if graph and group.parses is None:
            first = group.candidates[0][0]
            raise ConfigError(
                f"graph features require dependency parses (pair {qid}/{first} has none)")
        if scores is not None:
            for cid, _, _ in group.candidates:
                if (qid, cid) not in scores:
                    raise ConfigError(f"ext_score missing for pair {qid}/{cid}")
    if not groups:
        return []
    batch = _Batch(groups)
    table = {name: column for family in families
             for name, column in zip(family.columns, family.fn(batch, resources))}
    return list(map(list, zip(*(table[name] for name in manifest))))


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
    # The loss and gradient norm where train() stopped; None for a model
    # read from a file, which does not store them.
    final_loss: float | None = field(default=None, compare=False, repr=False)
    grad_norm: float | None = field(default=None, compare=False, repr=False)

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

    def logits(self, matrix: np.ndarray) -> np.ndarray:
        """w . z + bias of every row; np.vecdot reaches the per-row np.dot
        kernel, so each is bitwise equal to its row's alone, where `z @ w`
        can differ in the last bit."""
        return np.vecdot(self.standardize(matrix), self.weights) + self.bias

    def scores(self, matrix: np.ndarray) -> list[float]:
        """Trigger probability of every row, with math.exp taken per value,
        where np.exp can differ in the last bit."""
        return [sigmoid(v) for v in self.logits(matrix).tolist()]


def _standardize(x: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """(x - mean) / std over the last axis; constant columns become 0."""
    z = np.zeros_like(x)
    nonzero = stds > 0
    z[..., nonzero] = (x[..., nonzero] - means[nonzero]) / stds[nonzero]
    return z


@dataclass(frozen=True)
class TrainConfig:
    """The training loss's L2 strength and a new model's threshold, range-checked."""

    l2: float = 1e-4
    threshold: float = 0.14

    def __post_init__(self) -> None:
        check_finite(self, "l2", "threshold")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")


# Newton's method stops below gradient norm _TOLERANCE or after _MAX_STEPS
# steps, and halves a step that raises the loss at most _MAX_HALVINGS times.
_TOLERANCE = 1e-8
_MAX_STEPS = 50
_MAX_HALVINGS = 30


def _logistic(logits: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(logits, -500, 500)))


def loss_and_gradient(
    weights: np.ndarray,
    bias: float,
    z: np.ndarray,
    y: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Mean log loss with L2 on the weights, and its analytic gradient."""
    probs = _logistic(z @ weights + bias)
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
) -> TriggerModel:
    """Fit the trigger model: minimize loss_and_gradient's loss by Newton's
    method (IRLS) from zero.  Each step solves H s = g by least squares, which
    takes a singular H too: H = X' diag(p(1-p)) X / n + l2 on the weights,
    where X is the standardized matrix (constant columns zeroed) with a ones
    column for the unregularized bias.  Needs both classes, and every
    column's mean and standard deviation must be finite floats.
    """
    x = np.asarray(vectors, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(feature_names):
        raise ValueError("feature matrix does not match feature names")
    if not (np.any(y == 1.0) and np.any(y == 0.0)):
        raise ValueError("training set must contain both classes")

    with np.errstate(over="ignore", invalid="ignore"):
        means = x.mean(axis=0)
        stds = x.std(axis=0)
    overflowed = ~(np.isfinite(means) & np.isfinite(stds))
    if overflowed.any():
        raise ValueError(f"feature column {feature_names[int(np.argmax(overflowed))]!r} "
                         "has a mean or standard deviation that is not a finite number")
    z = _standardize(x, means, stds)

    design = np.hstack([z, np.ones((len(y), 1))])
    ridge = np.diag([hyper.l2] * x.shape[1] + [0.0])
    theta = np.zeros(x.shape[1] + 1)  # the weights, then the bias
    for _ in range(_MAX_STEPS):
        loss, grad_w, grad_b = loss_and_gradient(theta[:-1], float(theta[-1]), z, y, hyper.l2)
        grad = np.append(grad_w, grad_b)
        if np.linalg.norm(grad) < _TOLERANCE:
            break
        p = _logistic(design @ theta)
        hessian = (design.T * (p * (1 - p))) @ design / len(y) + ridge
        step = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        for _ in range(_MAX_HALVINGS):
            new = theta - step
            if loss_and_gradient(new[:-1], float(new[-1]), z, y, hyper.l2)[0] <= loss:
                break
            step = step / 2
        else:  # no step along this direction lowers the loss
            break
        theta = new
    else:  # the step limit ended the loop after a step: its loss is not known yet
        loss, grad_w, grad_b = loss_and_gradient(theta[:-1], float(theta[-1]), z, y, hyper.l2)
        grad = np.append(grad_w, grad_b)
    return TriggerModel(
        feature_names=tuple(feature_names),
        weights=theta[:-1],
        bias=float(theta[-1]),
        means=means,
        stds=stds,
        threshold=hyper.threshold,
        final_loss=loss,
        grad_norm=float(np.linalg.norm(grad)),
    )


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def save_model(model: TriggerModel, path: str | Path) -> None:
    """Versioned plain-text model file; floats round-trip bit-exactly.  It is
    written through errors.open_output, so a failed write keeps the old file."""
    with open_output(path) as handle:
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
    with open_text(path) as handle:
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
        if columns[0] in names or (columns[0] == "BIAS" and bias is not None):
            raise IngestionError(f"{path}: line {lineno}: duplicate {columns[0]} row")
        if columns[0] == "BIAS":
            if len(columns) != 2:
                raise IngestionError(f"{path}: line {lineno}: BIAS needs one value")
            bias = parse_number(columns[1], path, lineno)
            continue
        if len(columns) != 4:
            raise IngestionError(f"{path}: line {lineno}: expected 4 columns, got {len(columns)}")
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
