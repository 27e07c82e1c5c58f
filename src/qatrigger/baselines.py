"""Standalone lexical scorers: BM25, n-gram coverage, and embedding cosine.

These operate on plain token lists (whitespace split, lowercased, and
stripped at token edges of ASCII `string.punctuation` only, so that marks
such as “ ” ’ – stay on their tokens); dependency parses are not
required.  Each scorer takes a batch of (question tokens, answer token
lists) groups and returns one score per answer of every group, in order:
`bm25_scores(groups, k1, b)`, `ngram_scores(groups, n_max)` and
`semantic_similarities(groups, table)`; to score one group, pass
`[(question, answers)]`.  BM25's document pool is the group's answers, so
its N, avgdl and each term's n come from them.  The n-gram score sums
clipped overlaps over n-grams, counted for the whole batch at once; at
order 1, over edge signatures or lemmas instead of tokens, it is also the
relation and vocabulary coverage of `coverage`.  BM25 and n-gram coverage
work on integer arrays: _encode maps every token of a batch through its
group's question-term ids, and its _Terms feed the cores _bm25 and _ngram.
The encoding is made once per batch: the public functions each encode
their own groups, and combiner's batch encodes its token groups once for
both families.  The embedding cosine looks each token up exactly as
tokenized, with no case folding, and sums the word vectors of all the
batch's texts together, one position at a time.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import IngestionError, open_text, parse_block


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace tokens with edge ASCII punctuation removed."""
    tokens = []
    for raw in text.lower().split():
        token = raw.strip(string.punctuation)
        if token:
            tokens.append(token)
    return tokens


# A question's items and each answer's: tokens, or for _encode, bm25_scores
# and ngram_scores any hashable values, such as edge signatures (3-tuples).
TokenGroup = tuple[Sequence[Hashable], Sequence[Sequence[Hashable]]]


class _Terms(NamedTuple):
    """The texts of a batch of groups, each group's question and then its
    answers, with each group's distinct question tokens given batch-wide
    integer ids, in order of first occurrence, group by group."""

    # Every token of every text: its group's id for it, or -1 when its
    # group's question lacks it.
    ids: np.ndarray
    lengths: np.ndarray  # tokens per text
    group: np.ndarray  # each text's group
    is_answer: np.ndarray  # whether each text is an answer, not a question
    offsets: np.ndarray  # each group's first id, then the number of ids


def _encode(groups: list[TokenGroup]) -> _Terms:
    """The batch's _Terms; its tokens may be any hashable values."""
    vocabularies = []
    offsets = [0]
    for question, _ in groups:
        terms = dict.fromkeys(question)
        vocabularies.append(dict(zip(terms, range(offsets[-1], offsets[-1] + len(terms)))))
        offsets.append(offsets[-1] + len(terms))
    texts = [tokens for question, answers in groups for tokens in (question, *answers)]
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    ids = np.fromiter(
        chain.from_iterable(map(vocabulary.get, chain(question, *answers), repeat(-1))
                            for vocabulary, (question, answers) in zip(vocabularies, groups)),
        dtype=np.int64, count=int(lengths.sum()),
    )
    sizes = np.array([1 + len(answers) for _, answers in groups], dtype=np.int64)
    is_answer = np.ones(len(texts), dtype=bool)
    is_answer[np.cumsum(sizes) - sizes] = False
    return _Terms(ids, lengths, np.repeat(np.arange(len(groups)), sizes), is_answer,
                  np.array(offsets))


def bm25_scores(groups: Iterable[TokenGroup], k1: float, b: float) -> list[float]:
    """Okapi BM25 of each answer against its question, with the group's
    answers as the pool: one score per answer, over every (question tokens,
    answer token lists) group in order.  N is the group's number of
    answers, avgdl their mean length, and a term's n the number of them
    that hold it; idf = ln((N - n + 0.5) / (n + 0.5)).  The sum runs over
    question token occurrences, in question order, and terms absent from the
    answer contribute nothing."""
    return _bm25(_encode(list(groups)), k1, b)


def _bm25(terms: _Terms, k1: float, b: float) -> list[float]:
    """bm25_scores of an encoded batch.

    Each answer has one cell per distinct term of its question, and one
    bincount gives every cell's f.  n, avgdl and the saturation are whole
    arrays, computed in the operations and order of one answer's loop, and
    each idf is one math.log, taken once per distinct (N - n, N).  The sum
    is a left fold over question positions: step j adds term j's idf * f *
    (k1 + 1) / (f + saturation) to every answer whose question has a
    position j.  Where f is 0 it adds +0.0, which changes no sum that
    starts at +0.0.  So each score keeps the bits of scoring its group
    alone."""
    n_groups = len(terms.offsets) - 1
    answer_group = terms.group[terms.is_answer]
    pool = np.bincount(answer_group, minlength=n_groups)  # N of each group
    vocabulary = np.diff(terms.offsets)  # distinct question terms of each group
    # Answer a's cell for term id x is first_cell[a] + x.
    cell_counts = vocabulary[answer_group]
    first_cell = np.cumsum(cell_counts) - cell_counts - terms.offsets[answer_group]
    text_of = np.repeat(np.arange(len(terms.lengths)), terms.lengths)  # of each token
    answer_of = np.cumsum(terms.is_answer) - 1  # of each text
    shared = (terms.ids >= 0) & terms.is_answer[text_of]
    f = np.bincount(first_cell[answer_of[text_of[shared]]] + terms.ids[shared],
                    minlength=int(cell_counts.sum()))
    cell_answer = np.repeat(np.arange(len(cell_counts)), cell_counts)
    cell_term = np.arange(len(f)) - first_cell[cell_answer]
    held = np.bincount(cell_term[f > 0], minlength=int(terms.offsets[-1]))
    pools = np.repeat(pool, vocabulary)
    keys = list(zip((pools - held).tolist(), pools.tolist()))  # (N - n, N) of each term
    idf_of = {key: math.log((key[0] + 0.5) / (key[1] - key[0] + 0.5)) for key in set(keys)}
    idf = np.fromiter(map(idf_of.__getitem__, keys), dtype=float, count=len(keys))
    lengths = terms.lengths[terms.is_answer]
    avgdl = np.zeros(n_groups)
    np.divide(np.bincount(answer_group, weights=lengths, minlength=n_groups), pool,
              out=avgdl, where=pool > 0)
    length_ratio = np.zeros(len(lengths))
    np.divide(lengths, avgdl[answer_group], out=length_ratio, where=avgdl[answer_group] > 0)
    saturation = k1 * (1.0 - b + b * length_ratio)
    found = np.flatnonzero(f)
    contribution = np.zeros(len(f))
    with np.errstate(over="ignore", invalid="ignore"):
        contribution[found] = (idf[cell_term[found]] * f[found] * (k1 + 1.0)
                               / (f[found] + saturation[cell_answer[found]]))
    # The answers with the longest questions first, so that step j's answers
    # are a prefix; question_start: where each one's question tokens start.
    question_length = terms.lengths[~terms.is_answer][answer_group]
    order = np.argsort(-question_length, kind="stable")
    question_start = (np.cumsum(terms.lengths) - terms.lengths)[~terms.is_answer]
    question_start = question_start[answer_group[order]]
    first_cell = first_cell[order]
    alive = np.searchsorted(-question_length[order], -np.arange(question_length.max(initial=0)))
    total = np.zeros(len(order))
    for j, n in enumerate(alive.tolist()):
        total[:n] += contribution[first_cell[:n] + terms.ids[question_start[:n] + j]]
    scores = np.empty(len(order))
    scores[order] = total
    return scores.tolist()


def ngram_scores(groups: Iterable[TokenGroup], n_max: int) -> list[float]:
    """Sum of each answer's 1..n_max n-gram coverages against its question,
    divided by 1 + 2 + ... + n_max: one score per answer, over every
    (question tokens, answer token lists) group in order.  Order n's
    coverage is the clipped overlap of the answer's n-grams with the
    question's: the sum, over the question's distinct n-grams, of the
    smaller of the two counts, divided by the question's n-gram count, or by
    1 when it has none.  Tokens may be any hashable values."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return _ngram(_encode(list(groups)), n_max)


def _ngram(terms: _Terms, n_max: int) -> list[float]:
    """ngram_scores of an encoded batch, for n_max >= 1.

    An n-gram can match only if each of its tokens is a question token of
    its group, so only those n-grams get ids, and orders run only to the
    longest question of the batch: an order longer than a question adds
    exactly 0.0 to its answers' math.fsum.  Order n's ids come from order
    n - 1's and the next token with one np.unique.  An answer n-gram that
    its question lacks starts no longer n-gram that the question has, so
    it is dropped before the next order.  The counts are exact integers,
    so each coverage is one correctly rounded division, as for one answer."""
    # The length of each answer's question.
    question_length = terms.lengths[~terms.is_answer][terms.group[terms.is_answer]]
    answer_of = np.cumsum(terms.is_answer) - 1  # of each text
    # Each text followed by one -1, so that no n-gram runs past its text.
    stream = np.insert(terms.ids, np.cumsum(terms.lengths), -1)
    text_of = np.repeat(np.arange(len(terms.lengths)), terms.lengths + 1)
    start = np.flatnonzero(stream >= 0)  # where each kept n-gram starts
    gram = stream[start]  # its id
    n_grams = int(terms.offsets[-1])
    orders = min(n_max, int(question_length.max(initial=0)))
    coverages = np.zeros((orders, len(question_length)))
    for n in range(orders):
        if n:
            following = stream[start + n]
            kept = following >= 0
            start = start[kept]
            ids, gram = np.unique(gram[kept] * terms.offsets[-1] + following[kept],
                                  return_inverse=True)
            n_grams = len(ids)
        text = text_of[start]
        in_question = ~terms.is_answer[text]
        question_count = np.bincount(gram[in_question], minlength=n_grams)
        shared = ~in_question & (question_count[gram] > 0)
        keys, counts = np.unique(text[shared] * n_grams + gram[shared], return_counts=True)
        overlap = np.bincount(answer_of[keys // n_grams],
                              weights=np.minimum(counts, question_count[keys % n_grams]),
                              minlength=len(question_length))
        coverages[n] = overlap / np.maximum(question_length - n, 1)
        kept = in_question | shared
        start, gram = start[kept], gram[kept]
    weight = n_max * (n_max + 1) / 2
    return [math.fsum(ratios) / weight for ratios in coverages.T.tolist()]


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


def semantic_similarities(groups: Iterable[TokenGroup], embeddings: EmbeddingTable) -> list[float]:
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
