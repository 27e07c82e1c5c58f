"""TF-IDF weighted similarity between a question's dependency graph and each
of its answers', for a batch of (question parse, answer parses) groups.

Each graph, a Sentence, is rendered as a weighted vector at three
granularities: node lemmas (word), governor|dependent lemma pairs (pair),
and pairs extended with the relation label (triplet); an edge's lemmas are
read by token position from the lemma column.  Weights are tf * idf with
idf = ln((N + 1) / (df + 1)) + 1, entries at or below the level's threshold
are dropped, and similarity is the cosine of the surviving vectors.  idf
depends on a key only through its df, so each DfTable computes it once per
distinct df; a question's vectors and norms are built once per group, and an
answer's weights are summed as they are computed, with no vector built.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Sentence
from .errors import IngestionError, open_output, open_text, parse_number

LEVELS = ("word", "pair", "triplet")


@dataclass(frozen=True)
class DfTable:
    """Document frequencies for one key level over a corpus of N sentences."""

    level: str
    n_docs: int
    df: Mapping[str, int]
    # idf of a key whose document frequency is d, for d = 0 (an unseen key)
    # and every d in `df`: idf depends on nothing else, so each distinct df
    # takes one math.log, and the dict is bounded by the table's size.
    idf_by_df: dict[int, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ValueError(f"unknown level {self.level!r}")
        if self.n_docs < 1:
            raise ValueError("n_docs must be positive")
        if self.n_docs > 2**53:  # keeps (N + 1) / (df + 1) a finite float
            raise ValueError("n_docs must be at most 2**53")
        dfs = set(self.df.values())
        if dfs and (min(dfs) < 1 or max(dfs) > self.n_docs):
            bad = [k for k, v in self.df.items() if v < 1 or v > self.n_docs]
            raise ValueError(f"df out of range for keys: {bad[:3]}")
        n = self.n_docs
        idf = {d: math.log((n + 1) / (d + 1)) + 1.0 for d in dfs | {0}}
        object.__setattr__(self, "idf_by_df", idf)


def extract_keys(graph: Sentence) -> dict[str, Counter[str]]:
    """Multiset of keys of a graph at each level; the edges are derived once
    for both the pair and the triplet level."""
    lemmas = graph.lemmas
    edges = graph.edges
    pairs = [f"{lemmas[gov - 1]}|{lemmas[dep - 1]}" for gov, dep, _ in edges]
    return {
        "word": Counter(lemmas),
        "pair": Counter(pairs),
        "triplet": Counter(f"{pair}|{rel}" for pair, (_, _, rel) in zip(pairs, edges)),
    }


def build_df(sentences: Iterable[Sentence]) -> dict[str, DfTable]:
    """Count each sentence's parse as one document at all three levels."""
    df: dict[str, Counter[str]] = {level: Counter() for level in LEVELS}
    n_docs = 0
    for sentence in sentences:
        n_docs += 1
        for level, keys in extract_keys(sentence).items():
            df[level].update(keys.keys())
    if n_docs == 0:
        raise ValueError("cannot build a DF table from zero sentences")
    return {level: DfTable(level=level, n_docs=n_docs, df=dict(df[level])) for level in LEVELS}


def tfidf_vector(keys: Counter[str], table: DfTable, alpha: float) -> dict[str, float]:
    """tf * idf weights of a key multiset, keeping only weights strictly above alpha."""
    idf, df = table.idf_by_df, table.df.get
    return {key: w for key, tf in keys.items() if (w := tf * idf[df(key, 0)]) > alpha}


def graph_similarities(
    groups: Iterable[tuple[Sentence, Sequence[Sentence]]],
    tables: Mapping[str, DfTable],
    alphas: tuple[float, float, float],
) -> list[tuple[float, float, float]]:
    """(word, pair, triplet) cosine similarities between each answer graph
    and its question's, one row per answer of every group: the cosine over
    the key union of their tfidf_vectors, 0 when either is empty, with every
    sum a math.fsum, which is correctly rounded, so the order of the keys
    cannot change a value.  A question's vectors and norms are built once.
    An answer's norm sums its kept weights' squares, and its dot product
    looks up only the question's keys in its key counts, so it needs no
    vector.  A kept weight is tf * idf >= 1, so only an empty vector has norm 0."""
    levels = [(tables[level], alpha) for level, alpha in zip(LEVELS, alphas)]
    rows = []
    for gq, answers in groups:
        keys_q = extract_keys(gq)
        vectors_q = [tfidf_vector(keys_q[table.level], table, alpha) for table, alpha in levels]
        question = [(vq, math.sqrt(math.fsum([w * w for w in vq.values()]))) for vq in vectors_q]
        for ga in answers:
            keys_a = extract_keys(ga)
            row = []
            for (vq, norm_q), (table, alpha) in zip(question, levels):
                counts, idf, df = keys_a[table.level], table.idf_by_df, table.df.get
                squares = [w * w for key, tf in counts.items()
                           if (w := tf * idf[df(key, 0)]) > alpha]
                if not vq or not squares:
                    row.append(0.0)
                    continue
                dot = math.fsum([
                    wq * w for key, wq in vq.items()
                    if key in counts and (w := counts[key] * idf[df(key, 0)]) > alpha
                ])
                row.append(min(1.0, dot / (norm_q * math.sqrt(math.fsum(squares)))))
            rows.append(tuple(row))
    return rows


def save_df_table(table: DfTable, path: str | Path) -> None:
    """Write `N<TAB>n_docs` then sorted `key<TAB>df` lines; a write that
    fails keeps the file as it was (errors.open_output)."""
    with open_output(path) as handle:
        handle.write(f"N\t{table.n_docs}\n")
        for key in sorted(table.df):
            handle.write(f"{key}\t{table.df[key]}\n")


def load_df_table(path: str | Path, level: str) -> DfTable:
    """Read a DF table written by save_df_table in one pass, keeping the rules
    of tsv_rows in a loop of its own: a blank line is skipped but counted, any
    other line has exactly one tab, and the first non-empty line is
    `N<TAB>n_docs`.  The first line that breaks a rule raises IngestionError
    naming it."""
    path = Path(path)
    df: dict[str, int] = {}
    n_docs: int | None = None
    # Each distinct count text, line end included, is parsed once; int()
    # ignores surrounding whitespace, so the line end cannot change a value.
    values: dict[str, int] = {}
    with open_text(path) as handle:  # CRLF and a lone CR read as LF
        for lineno, line in enumerate(handle, start=1):
            try:
                key, text = line.split("\t")
            except ValueError:  # no tab, or a second one
                if line == "\n":
                    continue
                got = line.count("\t") + 1
                raise IngestionError(
                    f"{path}: line {lineno}: expected 2 columns, got {got}"
                ) from None
            if n_docs is None:  # the first non-empty line
                if key != "N":
                    raise IngestionError(f"{path}: first line must be `N<TAB>n_docs`")
                n_docs = parse_number(text.rstrip("\n"), path, lineno, int)
            elif key in df:
                raise IngestionError(f"{path}: line {lineno}: duplicate key {key!r}")
            else:
                try:
                    df[key] = values[text]
                except KeyError:  # the first line with this count text
                    df[key] = values[text] = parse_number(text.rstrip("\n"), path, lineno, int)
    if n_docs is None:
        raise IngestionError(f"{path}: empty DF table file")
    try:
        return DfTable(level=level, n_docs=n_docs, df=df)
    except ValueError as exc:
        raise IngestionError(f"{path}: {exc}") from exc
