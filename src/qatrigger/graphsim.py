"""TF-IDF weighted similarity between dependency graphs.

Each graph, a parsed Sentence, is rendered as a weighted vector at three
granularities: node lemmas (word), governor|dependent lemma pairs (pair),
and pairs extended with the relation label (triplet); an edge's lemmas are
read by token position from the lemma column.  Weights are tf * idf with
idf = ln((N + 1) / (df + 1)) + 1, entries at or below the level's threshold
are dropped, and similarity is the cosine of the surviving vectors.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Sentence
from .errors import IngestionError, open_text, parse_number

LEVELS = ("word", "pair", "triplet")


@dataclass(frozen=True)
class DfTable:
    """Document frequencies for one key level over a corpus of N sentences."""

    level: str
    n_docs: int
    df: Mapping[str, int]

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ValueError(f"unknown level {self.level!r}")
        if self.n_docs < 1:
            raise ValueError("n_docs must be positive")
        bad = [k for k, v in self.df.items() if v < 1 or v > self.n_docs]
        if bad:
            raise ValueError(f"df out of range for keys: {bad[:3]}")

    def idf(self, key: str) -> float:
        return math.log((self.n_docs + 1) / (self.df.get(key, 0) + 1)) + 1.0


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
    """Count each parsed sentence as one document at all three levels.

    An unparsed sentence raises ValueError rather than count as an empty
    document.
    """
    df: dict[str, Counter[str]] = {level: Counter() for level in LEVELS}
    n_docs = 0
    for sentence in sentences:
        if not sentence.parsed:
            raise ValueError(f"sentence {sentence.sentence_id!r} has no parse")
        n_docs += 1
        for level, keys in extract_keys(sentence).items():
            df[level].update(keys.keys())
    if n_docs == 0:
        raise ValueError("cannot build a DF table from zero sentences")
    return {level: DfTable(level=level, n_docs=n_docs, df=dict(df[level])) for level in LEVELS}


def tfidf_vector(keys: Counter[str], table: DfTable, alpha: float) -> dict[str, float]:
    """tf * idf weights of a key multiset, keeping only weights strictly above alpha."""
    vector: dict[str, float] = {}
    for key, tf in sorted(keys.items()):
        weight = tf * table.idf(key)
        if weight > alpha:
            vector[key] = weight
    return vector


def cosine(v1: Mapping[str, float], v2: Mapping[str, float]) -> float:
    """Cosine over the key union; 0 when either vector is empty."""
    if not v1 or not v2:
        return 0.0
    shared = sorted(v1.keys() & v2.keys())
    dot = math.fsum(v1[k] * v2[k] for k in shared)
    norm1 = math.sqrt(math.fsum(w * w for _, w in sorted(v1.items())))
    norm2 = math.sqrt(math.fsum(w * w for _, w in sorted(v2.items())))
    if norm1 == 0.0 or norm2 == 0.0:
        return 0.0
    return min(1.0, dot / (norm1 * norm2))


def graph_similarity_features(
    gq: Sentence,
    ga: Sentence,
    tables: Mapping[str, DfTable],
    alphas: tuple[float, float, float],
) -> tuple[float, float, float]:
    """(word, pair, triplet) cosine similarities between two graphs."""
    return graph_similarities(gq, [ga], tables, alphas)[0]


def graph_similarities(
    gq: Sentence,
    answers: Sequence[Sentence],
    tables: Mapping[str, DfTable],
    alphas: tuple[float, float, float],
) -> list[tuple[float, float, float]]:
    """graph_similarity_features of each answer graph; the question's TF-IDF
    vectors are built once per level."""
    levels = [(tables[level], alpha) for level, alpha in zip(LEVELS, alphas)]
    keys_q = extract_keys(gq)
    vectors_q = [tfidf_vector(keys_q[table.level], table, alpha) for table, alpha in levels]
    rows = []
    for ga in answers:
        keys_a = extract_keys(ga)
        rows.append(tuple(
            cosine(vq, tfidf_vector(keys_a[table.level], table, alpha))
            for vq, (table, alpha) in zip(vectors_q, levels)
        ))
    return rows


def save_df_table(table: DfTable, path: str | Path) -> None:
    """Write `N<TAB>n_docs` then sorted `key<TAB>df` lines."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"N\t{table.n_docs}\n")
        for key in sorted(table.df):
            handle.write(f"{key}\t{table.df[key]}\n")


def load_df_table(path: str | Path, level: str) -> DfTable:
    path = Path(path)
    df: dict[str, int] = {}
    n_docs: int | None = None
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            columns = line.split("\t")
            if len(columns) != 2:
                raise IngestionError(
                    f"{path}: line {lineno}: expected 2 columns, got {len(columns)}"
                )
            if lineno == 1:
                if columns[0] != "N":
                    raise IngestionError(f"{path}: first line must be `N<TAB>n_docs`")
                n_docs = parse_number(columns[1], path, lineno, int)
                continue
            try:
                df[columns[0]] = int(columns[1])
            except ValueError as exc:
                raise IngestionError(f"{path}: line {lineno}: bad count") from exc
    if n_docs is None:
        raise IngestionError(f"{path}: empty DF table file")
    try:
        return DfTable(level=level, n_docs=n_docs, df=df)
    except ValueError as exc:
        raise IngestionError(f"{path}: {exc}") from exc
