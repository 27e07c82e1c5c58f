"""Standalone lexical scorers: BM25, n-gram coverage, and embedding cosine.

These operate on plain token lists (whitespace split, lowercased, punctuation
stripped at token edges); dependency parses are not required.  Each scorer
takes a question and its whole group of answers, prepares the question once
and returns one score per answer, in answer order.  BM25's document pool is
the answers it scores, so its N, avgdl and each term's n come from them.
The n-gram score is the coverage features' clipped overlap,
`coverage.overlap_ratios`, over n-grams.  The embedding cosine looks each
token up exactly as tokenized, with no case folding, and gathers the
question's word vectors with its answers'.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .coverage import overlap_ratios
from .errors import IngestionError, open_text, parse_block


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace tokens with edge punctuation removed."""
    tokens = []
    for raw in text.lower().split():
        token = raw.strip(string.punctuation)
        if token:
            tokens.append(token)
    return tokens


def bm25_scores(
    question_tokens: Sequence[str],
    answers: Sequence[Sequence[str]],
    k1: float,
    b: float,
) -> list[float]:
    """Okapi BM25 of each answer against the question, with the answers as
    the pool: N is their number, avgdl their mean length, and a term's n
    the number of answers that hold it; idf = ln((N - n + 0.5) / (n + 0.5)).

    The sum runs over question token occurrences, in question order; terms
    absent from the answer contribute nothing.  Each distinct question term
    is counted once in each answer's token list, and those counts give both
    its n and its frequencies, so no per-answer Counter is built.
    """
    if not answers:
        return []
    avgdl = sum(map(len, answers)) / len(answers)
    counts = {term: [a.count(term) for a in answers] for term in dict.fromkeys(question_tokens)}
    idf = {}
    for term, column in counts.items():
        absent = column.count(0)  # N - n
        idf[term] = math.log((absent + 0.5) / (len(answers) - absent + 0.5))
    scores = []
    for i, answer_tokens in enumerate(answers):
        length_ratio = len(answer_tokens) / avgdl if avgdl > 0 else 0.0
        saturation = k1 * (1.0 - b + b * length_ratio)
        total = 0.0
        for term in question_tokens:
            f = counts[term][i]
            if f:
                total += idf[term] * f * (k1 + 1.0) / (f + saturation)
        scores.append(total)
    return scores


def _ngrams(tokens: Sequence[str], n: int) -> Iterator[tuple[str, ...]]:
    return zip(*(tokens[i:] for i in range(n)))


def ngram_scores(
    question_tokens: Sequence[str],
    answers: Sequence[Sequence[str]],
    n_max: int,
) -> list[float]:
    """Sum of each answer's 1..n_max n-gram coverages, each the clipped
    overlap of coverage.overlap_ratios, divided by 1 + 2 + ... + n_max.

    An answer n-gram can match only if each of its tokens is a question
    token, so n-grams are built only inside the answer's maximal runs of
    question tokens (a run shorter than n holds none); the n-grams skipped
    would not match.  For the same reason an order longer than the question
    adds exactly 0.0, so only orders up to the question's length are built."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not question_tokens:
        return [0.0] * len(answers)
    vocabulary = set(question_tokens)
    answer_runs = [
        [list(run) for shared, run in groupby(tokens, vocabulary.__contains__) if shared]
        for tokens in answers
    ]
    per_n = [
        overlap_ratios(
            _ngrams(question_tokens, n),
            (
                [gram for run in runs if len(run) >= n for gram in _ngrams(run, n)]
                for runs in answer_runs
            ),
        )
        for n in range(1, min(n_max, len(question_tokens)) + 1)
    ]
    return [math.fsum(ratios) / (n_max * (n_max + 1) / 2) for ratios in zip(*per_n)]


@dataclass(frozen=True)
class EmbeddingTable:
    """Word vectors as the rows of one (words x dim) matrix; `rows` maps each
    word, exactly as spelled in the file, to its row."""

    matrix: np.ndarray
    rows: dict[str, int]


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Load a text embedding file: one `word v1 ... vd` line per word.

    A first non-empty line `count dim` (word2vec text format) is a header:
    `count` must equal the number of vector lines, a repeated word counted
    once per line, and `dim` their width, or IngestionError names the header
    line.  A word given twice keeps the row of its first line and its later
    vector.
    The non-empty lines are counted first, so the vectors are parsed straight
    into one matrix, _CHUNK_LINES lines at a time by numpy's C text reader
    (errors.parse_block).  Only a chunk that reader rejects is parsed again
    line by line with float(), which names the bad line or takes what only
    float() parses, such as `1_0`.
    """
    path = Path(path)
    with open_text(path) as handle:
        filled = ((lineno, line) for lineno, line in enumerate(handle, start=1)
                  if not line.isspace())
        first, first_line = next(filled, (0, ""))  # only this line may be a header
        n_lines = 1 + sum(1 for _ in filled)
    header = _header(first_line)
    rows: dict[str, int] = {}  # word -> number of its last vector line
    n_vectors = 0
    chunk: list[tuple[int, str]] = []  # (line number, vector text)
    matrix: np.ndarray | None = None

    def flush() -> None:
        nonlocal matrix
        dim = None if matrix is None else matrix.shape[1]
        block = parse_block([text for _, text in chunk], dim)
        if block is None:
            block = _parse_lines(chunk, dim, path)
        if matrix is None:
            matrix = np.empty((n_lines, block.shape[1]))
        matrix[n_vectors - len(chunk) : n_vectors] = block
        chunk.clear()

    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split(None, 1)
            if not parts or (lineno == first and header):
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
    # Checked after the vectors parse, so a bad vector line is named first.
    if header and header != (n_vectors, matrix.shape[1]):
        raise IngestionError(
            f"{path}: line {first}: header says {header[0]} vectors of {header[1]} dims, "
            f"file has {n_vectors} of {matrix.shape[1]}"
        )
    if len(rows) == n_vectors:
        return EmbeddingTable(matrix=matrix[:n_vectors], rows=rows)
    # A repeated word keeps the row of its first line and its last vector.
    last = list(rows.values())
    return EmbeddingTable(matrix=matrix[last], rows=dict(zip(rows, range(len(rows)))))


# Lines per np.loadtxt call.  Each chunk's text and parsed block are held
# beside the matrix; 512 lines parsed as fast as 1,024 with less peak memory.
_CHUNK_LINES = 512


def _header(line: str) -> tuple[int, int] | None:
    """(count, dim) when `line` is a word2vec `count dim` header, two
    integers; otherwise None."""
    try:
        count, dim = map(int, line.split())
    except ValueError:
        return None
    return count, dim


def _parse_lines(chunk: list[tuple[int, str]], dim: int | None, path: Path) -> np.ndarray:
    """The chunk's vectors parsed one line at a time with float(), `dim`
    values each (None before the first vector); IngestionError names the
    first bad line."""
    block = []
    for lineno, text in chunk:
        values = text.split()
        vector = []
        for v in values:  # the first bad field, left to right, names the fault
            try:
                vector.append(float(v))
            except ValueError:
                raise IngestionError(f"{path}: line {lineno}: not a number: {v!r}") from None
            if not math.isfinite(vector[-1]):
                raise IngestionError(f"{path}: line {lineno}: vector value is not finite")
        if dim is None:
            if not values:
                raise IngestionError(f"{path}: line {lineno}: empty vector")
            dim = len(values)
        elif len(values) != dim:
            raise IngestionError(f"{path}: line {lineno}: expected {dim} dims, got {len(values)}")
        block.append(vector)
    return np.array(block)


def semantic_similarities(
    question_tokens: Sequence[str],
    answers: Sequence[Sequence[str]],
    embeddings: EmbeddingTable,
) -> list[float]:
    """Cosine of the question's and each answer's averaged word vectors, 0
    when either is undefined.  A token is looked up exactly as given;
    tokenize() has already lowercased it.

    The rows of the question's words and of every answer's words are
    gathered in one index, and each mean is its block's row sum over its
    length.  The dot products and norms of the answers' means come from
    np.vecdot, which reaches the same dot kernel as np.dot and np.linalg.norm
    on one vector, so each value keeps the bits of scoring its answer alone."""
    get = embeddings.rows.get
    flat_rows: list[int] = []
    spans = []  # (start, end) of the question, then of each answer
    for tokens in (question_tokens, *answers):
        start = len(flat_rows)
        flat_rows += [row for row in map(get, tokens) if row is not None]
        spans.append((start, len(flat_rows)))
    (qa, qb), *answer_spans = spans
    found = [(i, a, b) for i, (a, b) in enumerate(answer_spans) if b > a]
    scores = [0.0] * len(answers)
    if qa == qb or not found:
        return scores
    block = embeddings.matrix[flat_rows]
    vq = block[qa:qb].sum(axis=0) / (qb - qa)
    norm_q = np.linalg.norm(vq)
    means = np.array([block[a:b].sum(axis=0) / (b - a) for _, a, b in found])
    dots = np.vecdot(means, vq).tolist()
    norms = (norm_q * np.sqrt(np.vecdot(means, means))).tolist()
    for (i, _, _), dot, norm in zip(found, dots, norms):
        if norm != 0.0:
            scores[i] = dot / norm
    return scores
