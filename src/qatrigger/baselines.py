"""Standalone lexical scorers: BM25, n-gram coverage, and embedding cosine.

These operate on plain token lists (whitespace split, lowercased, punctuation
stripped at token edges); dependency parses are not required.  BM25 and
n-gram coverage take a question and its whole group of answers, prepare the
question once and return one score per answer, in answer order.  BM25's
document pool is the answers it scores, so its N, avgdl and each term's n
come from them.  The n-gram score is the coverage features' clipped overlap,
`coverage.overlap_ratios`, over n-grams.  The embedding cosine takes a batch
of such groups and returns one score per answer of every group: it looks
each token up exactly as tokenized, with no case folding, and sums the word
vectors of all the batch's texts together, one position at a time.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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
    groups: Iterable[tuple[Sequence[str], Sequence[Sequence[str]]]],
    embeddings: EmbeddingTable,
) -> list[float]:
    """Cosine of each question's and each of its answers' averaged word
    vectors, 0 when either is undefined: one score per answer, over every
    (question tokens, answer token lists) group in order.  A token is looked
    up exactly as given; tokenize() has already lowercased it.  A score
    does not depend on the other answers or groups, so one group is scored
    as `semantic_similarities([(question, answers)], table)`.

    The rows of every token of every text are looked up in one
    np.fromiter, and each text's mean is its found rows' sum over their
    count (_means).  Every dot product and squared norm is one np.vecdot,
    which reaches the dot kernel of np.dot and np.linalg.norm, so each
    value keeps the bits of scoring its answer alone.  A pair whose sum,
    dot product or norm overflows, or one of whose squared norms falls
    below _LEAST_SQUARE, where its squares may underflow, is scored again
    by _rescaled_cosine, so scaling the whole table by a power of two
    changes no score while its values stay normal floats."""
    groups = list(groups)
    texts = [tokens for question, answers in groups for tokens in (question, *answers)]
    sizes = np.array([1 + len(answers) for _, answers in groups], dtype=np.intp)
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    looked_up = np.fromiter(
        map(embeddings.rows.get, chain.from_iterable(texts), repeat(-1)),
        dtype=np.intp, count=int(lengths.sum()),
    )
    found = looked_up >= 0
    rows = looked_up[found]
    counts = np.bincount(np.repeat(np.arange(len(texts)), lengths)[found], minlength=len(texts))
    starts = np.cumsum(counts) - counts
    question_of = np.repeat(np.cumsum(sizes) - sizes, sizes)
    is_answer = np.arange(len(texts)) != question_of
    with np.errstate(over="ignore", invalid="ignore"):
        order, means = _means(embeddings.matrix, rows, starts, counts)
        row_of = np.full(len(texts), -1)  # each text's row of `means`, -1 for none
        row_of[order] = np.arange(len(order))
        question_row = row_of[question_of[order]]
        squares = np.vecdot(means, means)
        norms = np.sqrt(squares)
        # Every mean against its question's; a question meets itself.
        dots = np.vecdot(means, means[question_row])
        products = norms[question_row] * norms
    normal = squares >= _LEAST_SQUARE
    paired = is_answer[order] & (question_row >= 0)
    exact = (paired & normal & normal[question_row] & np.isfinite(dots)
             & (products < np.inf))
    scores = np.zeros(len(texts))
    scores[order] = np.divide(dots, products, out=np.zeros(len(order)), where=exact)
    again = order[paired & ~exact]
    for a, q in zip(again.tolist(), question_of[again].tolist()):
        scores[a] = _rescaled_cosine(
            embeddings.matrix[rows[starts[q] : starts[q] + counts[q]]],
            embeddings.matrix[rows[starts[a] : starts[a] + counts[a]]],
        )
    return scores[is_answer].tolist()


# A mean whose squared norm is smaller may have lost bits of its squares to
# underflow: the least normal float times 2**53.
_LEAST_SQUARE = 2.0**-969


def _means(matrix: np.ndarray, rows: np.ndarray, starts: np.ndarray,
           counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, means): the texts with at least one row, stable-sorted by
    row count, longest first, and the mean of each one's rows of `matrix`,
    `rows[starts[t]:starts[t] + counts[t]]` for text t, summed in the order
    of numpy's `sum(axis=0)` over that block.

    numpy sums the rows of a block of two or more columns in a left fold,
    elementwise.  So step j adds row j of every text that has one: the
    longest-first order makes those texts a prefix.  numpy sums a
    one-column block pairwise once it has 8 rows, so a dim-1 table sums
    each text's block alone."""
    order = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    first, n_rows = starts[order], counts[order]
    if matrix.shape[1] == 1:
        means = np.array([matrix[rows[a : a + n]].sum(axis=0)
                          for a, n in zip(first.tolist(), n_rows.tolist())],
                         dtype=float).reshape(-1, 1)
    else:
        means = matrix[rows[first]].astype(float, copy=False)  # an int table sums in floats
        # alive[j]: how many texts have more than j rows.
        alive = np.searchsorted(-n_rows, -np.arange(n_rows.max(initial=0)), side="left")
        for j, n in enumerate(alive[1:].tolist(), start=1):
            means[:n] += matrix[rows[first[:n] + j]]
    means /= n_rows[:, None]
    return order, means


def _rescaled_cosine(question: np.ndarray, answer: np.ndarray) -> float:
    """The cosine of the mean rows of two blocks, each block and each mean
    first scaled by the power of two that brings its largest magnitude into
    [0.5, 1).  So no sum, square or product overflows or underflows to 0,
    and, as a power-of-two scaling is exact, the cosine keeps the bits the
    unscaled vectors give wherever none of their values leaves the normal
    floats."""

    def scaled_mean(block: np.ndarray) -> np.ndarray:
        block = np.ldexp(block, -np.frexp(np.abs(block).max())[1])
        mean = block.sum(axis=0) / len(block)
        return np.ldexp(mean, -np.frexp(np.abs(mean).max())[1])

    q, a = scaled_mean(question), scaled_mean(answer)
    norm = np.sqrt(np.vecdot(q, q)) * np.sqrt(np.vecdot(a, a))
    return float(np.vecdot(a, q) / norm) if norm > 0 else 0.0
