"""Standalone lexical scorers: BM25, n-gram coverage, and embedding cosine.

These operate on plain token lists (whitespace split, lowercased, punctuation
stripped at token edges); dependency parses are not required.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import IngestionError, parse_number


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace tokens with edge punctuation removed."""
    tokens = []
    for raw in text.lower().split():
        token = raw.strip(string.punctuation)
        if token:
            tokens.append(token)
    return tokens


@dataclass(frozen=True)
class AnswerPool:
    """Per-question candidate statistics shared by every BM25 score."""

    candidates: tuple[tuple[str, ...], ...]
    avgdl: float
    df_in_pool: Counter

    @classmethod
    def build(cls, tokenized_candidates: Sequence[Sequence[str]]) -> "AnswerPool":
        candidates = tuple(tuple(c) for c in tokenized_candidates)
        if not candidates:
            raise ValueError("answer pool must contain at least one candidate")
        avgdl = sum(len(c) for c in candidates) / len(candidates)
        df: Counter = Counter()
        for candidate in candidates:
            df.update(set(candidate))
        return cls(candidates=candidates, avgdl=avgdl, df_in_pool=df)

    @property
    def size(self) -> int:
        return len(self.candidates)


def bm25_idf(pool: AnswerPool, term: str) -> float:
    """ln((N - n + 0.5) / (n + 0.5)); negative for terms in most candidates."""
    n = pool.df_in_pool.get(term, 0)
    return math.log((pool.size - n + 0.5) / (n + 0.5))


def bm25_score(
    question_tokens: Sequence[str],
    answer_tokens: Sequence[str],
    pool: AnswerPool,
    k1: float = 1.5,
    b: float = 0.75,
) -> float:
    """Okapi BM25 of an answer against the question, using pool statistics.

    The sum runs over question token occurrences; terms absent from the
    answer contribute nothing.
    """
    if not question_tokens:
        return 0.0
    tf = Counter(answer_tokens)
    dl = len(answer_tokens)
    length_ratio = dl / pool.avgdl if pool.avgdl > 0 else 0.0
    saturation = k1 * (1.0 - b + b * length_ratio)
    total = 0.0
    for term in question_tokens:
        f = tf.get(term, 0)
        if f == 0:
            continue
        total += bm25_idf(pool, term) * f * (k1 + 1.0) / (f + saturation)
    return total


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def ngram_coverage(
    question_tokens: Sequence[str], answer_tokens: Sequence[str], n: int
) -> float:
    """Clipped common n-gram count over the question's n-gram count."""
    if n < 1:
        raise ValueError("n must be >= 1")
    counts_q = _ngram_counts(question_tokens, n)
    total = sum(counts_q.values())
    if total == 0:
        return 0.0
    counts_a = _ngram_counts(answer_tokens, n)
    common = sum(min(count, counts_a[gram]) for gram, count in counts_q.items())
    return common / total


def ngram_score(
    question_tokens: Sequence[str],
    answer_tokens: Sequence[str],
    n_max: int = 3,
) -> float:
    """Sum of 1..n_max coverages divided by 1 + 2 + ... + n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    coverages = math.fsum(
        ngram_coverage(question_tokens, answer_tokens, n) for n in range(1, n_max + 1)
    )
    return coverages / (n_max * (n_max + 1) / 2)


@dataclass(frozen=True)
class EmbeddingTable:
    dim: int
    vectors: dict[str, np.ndarray]

    def lookup(self, word: str) -> np.ndarray | None:
        vector = self.vectors.get(word)
        if vector is None:
            vector = self.vectors.get(word.lower())
        return vector


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Load a text embedding file: one `word v1 ... vd` line per word.

    A leading `count dim` header line (word2vec text format) is skipped.
    """
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.rstrip("\r\n").split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                    continue
                except ValueError:
                    pass
            word, values = parts[0], parts[1:]
            try:
                vector = np.fromiter(map(float, values), dtype=float, count=len(values))
            except ValueError:
                # Parsing the same fields again raises the named error.
                for v in values:
                    parse_number(v, path, lineno)
            if not np.isfinite(vector).all():
                raise IngestionError(f"{path}: line {lineno}: vector value is not finite")
            if dim is None:
                if len(values) == 0:
                    raise IngestionError(f"{path}: line {lineno}: empty vector")
                dim = len(values)
            elif len(values) != dim:
                raise IngestionError(
                    f"{path}: line {lineno}: expected {dim} dims, got {len(values)}"
                )
            vectors[word] = vector
    if dim is None:
        raise IngestionError(f"{path}: no vectors found")
    return EmbeddingTable(dim=dim, vectors=vectors)


def semantic_vector(
    tokens: Sequence[str], embeddings: EmbeddingTable
) -> np.ndarray | None:
    """Mean of the available word vectors; None when no token has one."""
    found = [embeddings.lookup(t) for t in tokens]
    found = [v for v in found if v is not None]
    if not found:
        return None
    return np.sum(found, axis=0) / len(found)


def semantic_similarity(
    question_tokens: Sequence[str],
    answer_tokens: Sequence[str],
    embeddings: EmbeddingTable,
) -> float:
    """Cosine of the two averaged sentence vectors; 0 when either is undefined."""
    vq = semantic_vector(question_tokens, embeddings)
    va = semantic_vector(answer_tokens, embeddings)
    if vq is None or va is None:
        return 0.0
    norm = float(np.linalg.norm(vq) * np.linalg.norm(va))
    if norm == 0.0:
        return 0.0
    return float(np.dot(vq, va) / norm)
