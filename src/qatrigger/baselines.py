"""Standalone lexical scorers: BM25, n-gram coverage, and embedding cosine.

These operate on plain token lists (whitespace split, lowercased, punctuation
stripped at token edges); dependency parses are not required.  Each scorer
takes a question and its whole group of answers, prepares the question once
and returns one score per answer, in answer order.
"""

from __future__ import annotations

import math
import string
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import IngestionError, open_text, parse_number


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

    size: int
    avgdl: float
    df_in_pool: Counter

    @classmethod
    def build(cls, tokenized_candidates: Sequence[Sequence[str]]) -> "AnswerPool":
        size = len(tokenized_candidates)
        if not size:
            raise ValueError("answer pool must contain at least one candidate")
        avgdl = sum(len(c) for c in tokenized_candidates) / size
        df: Counter = Counter()
        for candidate in tokenized_candidates:
            df.update(set(candidate))
        return cls(size=size, avgdl=avgdl, df_in_pool=df)


def bm25_idf(pool: AnswerPool, term: str) -> float:
    """ln((N - n + 0.5) / (n + 0.5)); negative for terms in most candidates."""
    n = pool.df_in_pool.get(term, 0)
    return math.log((pool.size - n + 0.5) / (n + 0.5))


def bm25_scores(
    question_tokens: Sequence[str],
    answers: Sequence[Sequence[str]],
    pool: AnswerPool,
    k1: float,
    b: float,
) -> list[float]:
    """Okapi BM25 of each answer against the question, using pool statistics.

    The sum runs over question token occurrences; terms absent from the
    answer contribute nothing.  Each distinct question term's idf is
    computed once.
    """
    idf = {term: bm25_idf(pool, term) for term in question_tokens}
    scores = []
    for answer_tokens in answers:
        tf = Counter(answer_tokens)
        length_ratio = len(answer_tokens) / pool.avgdl if pool.avgdl > 0 else 0.0
        saturation = k1 * (1.0 - b + b * length_ratio)
        total = 0.0
        for term in question_tokens:
            f = tf.get(term, 0)
            if f:
                total += idf[term] * f * (k1 + 1.0) / (f + saturation)
        scores.append(total)
    return scores


def _ngrams(tokens: Sequence[str], n: int) -> Iterator[tuple[str, ...]]:
    return zip(*(tokens[i:] for i in range(n)))


def _coverage(counts_q: Counter, total: int, answer_tokens: Sequence[str], n: int) -> float:
    """Clipped common n-gram count over `total`; only the answer's n-grams
    that the question has are counted."""
    if total == 0:
        return 0.0
    counts_a = Counter(filter(counts_q.__contains__, _ngrams(answer_tokens, n)))
    return sum(min(count, counts_q[gram]) for gram, count in counts_a.items()) / total


def ngram_coverage(
    question_tokens: Sequence[str], answer_tokens: Sequence[str], n: int
) -> float:
    """Clipped common n-gram count over the question's n-gram count."""
    if n < 1:
        raise ValueError("n must be >= 1")
    counts_q = Counter(_ngrams(question_tokens, n))
    return _coverage(counts_q, counts_q.total(), answer_tokens, n)


def ngram_scores(
    question_tokens: Sequence[str],
    answers: Sequence[Sequence[str]],
    n_max: int,
) -> list[float]:
    """Sum of each answer's 1..n_max coverages divided by 1 + 2 + ... + n_max;
    the question's n-grams are counted once."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    questions = []
    for n in range(1, n_max + 1):
        counts_q = Counter(_ngrams(question_tokens, n))
        questions.append((n, counts_q, counts_q.total()))
    return [
        math.fsum(_coverage(counts_q, total, answer_tokens, n) for n, counts_q, total in questions)
        / (n_max * (n_max + 1) / 2)
        for answer_tokens in answers
    ]


@dataclass(frozen=True)
class EmbeddingTable:
    """Word vectors as the rows of one (words x dim) matrix."""

    matrix: np.ndarray
    rows: dict[str, int]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def lookup(self, word: str) -> int | None:
        """Row of `word`, else of its lowercase form; None when neither has one."""
        row = self.rows.get(word)
        if row is None:
            row = self.rows.get(word.lower())
        return row


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Load a text embedding file: one `word v1 ... vd` line per word.

    A leading `count dim` header line (word2vec text format) is skipped, and
    a word given twice keeps the row of its first line and its later vector.
    The non-empty lines are counted first, so the vectors are parsed straight
    into one matrix, _CHUNK_LINES lines at a time by numpy's C text reader.
    A chunk that reader rejects is parsed again line by line with float().
    """
    path = Path(path)
    with open_text(path) as handle:
        n_lines = sum(1 for line in handle if not line.isspace())
    rows: dict[str, int] = {}  # word -> number of its last vector line
    n_vectors = 0
    chunk: list[tuple[int, str]] = []  # (line number, vector text)
    matrix: np.ndarray | None = None

    def flush() -> None:
        nonlocal matrix
        dim = None if matrix is None else matrix.shape[1]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                block = np.loadtxt([text for _, text in chunk], comments=None, ndmin=2)
            if block.shape != (len(chunk), dim or block.shape[1]) or not np.isfinite(block).all():
                raise ValueError("a chunk is ragged or not finite")
        except (ValueError, Warning):
            # Only float() names the bad line and takes spellings like 1_0.
            block = _parse_lines(chunk, dim, path)
        if matrix is None:
            matrix = np.empty((n_lines, block.shape[1]))
        matrix[n_vectors - len(chunk) : n_vectors] = block
        chunk.clear()

    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split(None, 1)
            if not parts or (lineno == 1 and _is_header(line)):
                continue
            rows[parts[0]] = n_vectors
            n_vectors += 1
            chunk.append((lineno, parts[1] if len(parts) == 2 else ""))
            if len(chunk) == _CHUNK_LINES:
                flush()
    if chunk:
        flush()
    if matrix is None:
        raise IngestionError(f"{path}: no vectors found")
    if len(rows) == n_vectors:
        return EmbeddingTable(matrix=matrix[:n_vectors], rows=rows)
    # A repeated word keeps the row of its first line and its last vector.
    last = list(rows.values())
    return EmbeddingTable(matrix=matrix[last], rows=dict(zip(rows, range(len(rows)))))


# Lines per np.loadtxt call.  Each chunk's text and parsed block are held
# beside the matrix; 512 lines parsed as fast as 1,024 with less peak memory.
_CHUNK_LINES = 512


def _is_header(line: str) -> bool:
    """Whether `line` is a word2vec `count dim` header: two integers."""
    try:
        _count, _dim = map(int, line.split())
    except ValueError:
        return False
    return True


def _parse_lines(chunk: list[tuple[int, str]], dim: int | None, path: Path) -> np.ndarray:
    """The chunk's vectors parsed one line at a time with float(), `dim`
    values each (None before the first vector); IngestionError names the
    first bad line."""
    block = []
    for lineno, text in chunk:
        values = text.split()
        try:
            vector = [float(v) for v in values]
        except ValueError:
            # Parsing the same fields again raises the named error.
            for v in values:
                parse_number(v, path, lineno)
        if not all(map(math.isfinite, vector)):
            raise IngestionError(f"{path}: line {lineno}: vector value is not finite")
        if dim is None:
            if not values:
                raise IngestionError(f"{path}: line {lineno}: empty vector")
            dim = len(values)
        elif len(values) != dim:
            raise IngestionError(f"{path}: line {lineno}: expected {dim} dims, got {len(values)}")
        block.append(vector)
    return np.array(block)


def semantic_vector(
    tokens: Sequence[str], embeddings: EmbeddingTable
) -> np.ndarray | None:
    """Mean of the available word vectors; None when no token has one."""
    rows = [row for row in map(embeddings.lookup, tokens) if row is not None]
    if not rows:
        return None
    return embeddings.matrix[rows].sum(axis=0) / len(rows)


def semantic_similarities(
    question_tokens: Sequence[str],
    answers: Sequence[Sequence[str]],
    embeddings: EmbeddingTable,
) -> list[float]:
    """Cosine of the question's and each answer's averaged word vectors, 0
    when either is undefined; the question's mean vector and its norm are
    computed once."""
    vq = semantic_vector(question_tokens, embeddings)
    if vq is None:
        return [0.0] * len(answers)
    norm_q = np.linalg.norm(vq)
    scores = []
    for answer_tokens in answers:
        va = semantic_vector(answer_tokens, embeddings)
        norm = 0.0 if va is None else float(norm_q * np.linalg.norm(va))
        scores.append(0.0 if norm == 0.0 else float(np.dot(vq, va) / norm))
    return scores
