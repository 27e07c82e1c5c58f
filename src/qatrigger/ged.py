"""Normalized graph edit distance between two dependency graphs.

Each graph is a parsed Sentence: token i is a node with lemma `lemmas[i - 1]`
and tag `upos[i - 1]`, and `Sentence.edges` are the edges.  The distance is
the bipartite approximation of Riesen & Bunke (2009): every question node is
either substituted by one answer node or deleted, and every answer node not
substituted is inserted.  Node substitution cost is zero for equal lemmas
(the Sentence lowercases them when it is built) and otherwise a POS-pair
substitute weight; every cost additionally charges the mismatch between the
incident relation multisets of the two nodes, and deleting or inserting a
node charges its incident edges.

The optimum is found as in Serratosa's Fast BP (2014): instead of the
(n+m) x (n+m) matrix with deletion, insertion and epsilon blocks, one n x m
assignment over the reduced costs min(0, sub_ij - del_i - ins_j) selects the
substitutions, and every node left out is deleted or inserted.  The edit cost
is normalized by the cost of deleting one graph entirely and inserting the
other, which bounds the result to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import Sentence
from .errors import IngestionError, open_text, parse_number

UPOS_TAGS = (
    "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
)

# Tags that substitute for each other at reduced cost.
_POS_CLASSES = (
    ("NOUN", "PROPN", "PRON"),
    ("VERB", "AUX"),
    ("ADJ", "ADV"),
)

SAME_TAG_COST = 0.3
SAME_CLASS_COST = 0.5


@dataclass(frozen=True)
class PosCostTable:
    """Symmetric POS-pair substitute weights with a default for unknown pairs."""

    entries: Mapping[tuple[str, str], float]
    default_cost: float = 1.0

    def cost(self, upos_a: str, upos_b: str) -> float:
        value = self.entries.get((upos_a, upos_b))
        if value is None:
            value = self.entries.get((upos_b, upos_a))
        return self.default_cost if value is None else value


def default_pos_table() -> PosCostTable:
    entries = {(tag, tag): SAME_TAG_COST for tag in UPOS_TAGS}
    for group in _POS_CLASSES:
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                entries[(a, b)] = SAME_CLASS_COST
    return PosCostTable(entries=entries, default_cost=1.0)


DEFAULT_POS_TABLE = default_pos_table()


def load_pos_table(path: str | Path) -> PosCostTable:
    """Load `UPOS_A<TAB>UPOS_B<TAB>cost` lines plus one `DEFAULT<TAB>cost` line;
    every cost, the default's included, must lie in [0, 1]."""
    path = Path(path)
    entries: dict[tuple[str, str], float] = {}
    default_cost = 1.0
    saw_default = False
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if not line or line.startswith("#"):
                continue
            columns = line.split("\t")
            is_default = columns[0] == "DEFAULT"
            if is_default and len(columns) != 2:
                raise IngestionError(f"{path}: line {lineno}: DEFAULT needs one cost")
            if not is_default and len(columns) != 3:
                raise IngestionError(
                    f"{path}: line {lineno}: expected 3 columns, got {len(columns)}"
                )
            cost = parse_number(columns[-1], path, lineno)
            if not 0.0 <= cost <= 1.0:
                raise IngestionError(f"{path}: line {lineno}: cost must be in [0, 1]")
            if is_default:
                default_cost, saw_default = cost, True
                continue
            a, b = columns[:2]
            if entries.get((b, a), cost) != cost or entries.get((a, b), cost) != cost:
                raise IngestionError(f"{path}: line {lineno}: asymmetric entry {a}/{b}")
            entries[(a, b)] = cost
    if not saw_default:
        raise IngestionError(f"{path}: missing DEFAULT line")
    return PosCostTable(entries=entries, default_cost=default_cost)


@dataclass(frozen=True)
class GedConfig:
    pos_table: PosCostTable = field(default_factory=default_pos_table)
    edge_weight: float = 0.5
    delete_cost: float = 1.0


def _relation_counts(
    graph: Sentence, edges: Sequence[tuple[int, int, str]], columns: dict[str, int]
) -> np.ndarray:
    """Per node (in token order), the count of each relation on its incident edges."""
    n, width = len(graph.heads), len(columns)
    cells = [(gov - 1) * width + columns[rel] for gov, _, rel in edges]
    cells += [(dep - 1) * width + columns[rel] for _, dep, rel in edges]
    counts = np.bincount(np.asarray(cells, dtype=np.intp), minlength=n * width)
    return counts.reshape(n, width)


def _ids(values: Sequence[str], vocabulary: dict[str, int]) -> np.ndarray:
    """Integer id of each value, adding unseen values to the vocabulary."""
    ids = [vocabulary.setdefault(v, len(vocabulary)) for v in values]
    return np.asarray(ids, dtype=np.intp)


class _QuestionNodes(NamedTuple):
    """The question's half of every cost matrix against it."""

    relations: dict[str, int]  # column of each question relation, in edge order
    counts: np.ndarray  # n x len(relations) incident relation counts
    lemmas: dict[str, int]
    lemma_ids: np.ndarray
    tags: dict[str, int]
    tag_ids: np.ndarray
    deletion: np.ndarray


def _question_nodes(gq: Sentence, config: GedConfig) -> _QuestionNodes:
    edges = gq.edges
    relations: dict[str, int] = {}
    for _, _, rel in edges:
        relations.setdefault(rel, len(relations))
    counts = _relation_counts(gq, edges, relations)
    lemmas: dict[str, int] = {}
    lemma_ids = _ids(gq.lemmas, lemmas)
    tags: dict[str, int] = {}
    tag_ids = _ids(gq.upos, tags)
    deletion = config.delete_cost + config.edge_weight * counts.sum(axis=1)
    return _QuestionNodes(relations, counts, lemmas, lemma_ids, tags, tag_ids, deletion)


def build_cost_matrix(
    gq: Sentence, ga: Sentence, config: GedConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edit costs of a graph pair: (n x m substitutions, n deletions, m insertions).

    A substitution costs 0 for equal lemmas, else the POS substitute weight,
    plus `edge_weight` times half the symmetric difference of the two nodes'
    incident relation multisets.  Deleting or inserting a node costs
    `delete_cost` plus `edge_weight` per incident edge.
    """
    return _answer_costs(_question_nodes(gq, config), ga, config)


def _answer_costs(
    q: _QuestionNodes, ga: Sentence, config: GedConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """build_cost_matrix against a question whose side is already built."""
    edges = ga.edges
    relations = dict(q.relations)
    for _, _, rel in edges:
        relations.setdefault(rel, len(relations))
    counts = _relation_counts(ga, edges, relations)
    # Relations past the question's columns count 0 on every question node.
    width = len(q.relations)
    mismatch = (
        np.abs(q.counts[:, None, :] - counts[None, :, :width]).sum(axis=2)
        + counts[:, width:].sum(axis=1)
    )

    same_lemma = q.lemma_ids[:, None] == np.asarray(
        [q.lemmas.get(lemma, -1) for lemma in ga.lemmas], dtype=np.intp
    )[None, :]
    tags: dict[str, int] = {}
    tag_ids = _ids(ga.upos, tags)
    table = config.pos_table
    pos_cost = np.asarray(
        [[table.cost(a, b) for b in tags] for a in q.tags], dtype=float
    ).reshape(len(q.tags), len(tags))
    node = np.where(same_lemma, 0.0, pos_cost[q.tag_ids[:, None], tag_ids[None, :]])

    substitution = node + config.edge_weight * mismatch / 2.0
    insertion = config.delete_cost + config.edge_weight * counts.sum(axis=1)
    return substitution, q.deletion, insertion


def _shortest_augmenting_paths(cost: list[list[float]], n_cols: int) -> list[int]:
    """Shortest-augmenting-path assignment of a rows <= columns matrix, as row_to_col."""
    n = len(cost)
    inf = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (n_cols + 1)
    col_row = [0] * (n_cols + 1)  # 1-based; 0 means unassigned
    way = [0] * (n_cols + 1)
    for i in range(1, n + 1):
        col_row[0] = i
        j0 = 0
        minv = [inf] * (n_cols + 1)
        used = [False] * (n_cols + 1)
        while True:
            used[j0] = True
            i0 = col_row[j0]
            delta = inf
            j1 = 0
            row = cost[i0 - 1]
            ui0 = u[i0]
            for j in range(1, n_cols + 1):
                if used[j]:
                    continue
                current = row[j - 1] - ui0 - v[j]
                if current < minv[j]:
                    minv[j] = current
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n_cols + 1):
                if used[j]:
                    u[col_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if col_row[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            col_row[j0] = col_row[j1]
            j0 = j1
    row_to_col = [0] * n
    for j in range(1, n_cols + 1):
        if col_row[j]:
            row_to_col[col_row[j] - 1] = j - 1
    return row_to_col


def solve_assignment(
    matrix: np.ndarray | Sequence[Sequence[float]],
) -> tuple[tuple[int, ...], float]:
    """Minimum-cost assignment of a rectangular cost matrix.

    Every row is assigned a distinct column when rows <= columns; with more
    rows than columns every column is assigned a distinct row and the
    unassigned rows map to -1.  Returns (row_to_column assignment, total
    cost); the total is the exact float sum of the selected entries.
    """
    cost = np.asarray(matrix, dtype=float)
    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost = cost.T
    assignment = _shortest_augmenting_paths(cost.tolist(), cost.shape[1])
    total = math.fsum(cost[i, j] for i, j in enumerate(assignment))
    if not transposed:
        return tuple(assignment), total
    row_to_col = [-1] * cost.shape[1]
    for j, i in enumerate(assignment):
        row_to_col[i] = j
    return tuple(row_to_col), total


def graph_edit_distance(
    gq: Sentence, ga: Sentence, config: GedConfig | None = None
) -> float:
    """Assignment-based edit distance, normalized to [0, 1].

    The normalizer is the cost of deleting every question node and inserting
    every answer node, which is itself a feasible edit; identical graphs
    score 0, and an empty question against any answer scores 1.
    """
    return graph_edit_distances(gq, [ga], config)[0]


def graph_edit_distances(
    gq: Sentence, answers: Sequence[Sentence], config: GedConfig | None = None
) -> list[float]:
    """graph_edit_distance of each answer graph; the question's relation
    counts, lemma ids and tag ids are built once."""
    cfg = config or GedConfig()
    question = _question_nodes(gq, cfg)
    return [_distance(question, ga, cfg) for ga in answers]


def _distance(question: _QuestionNodes, ga: Sentence, config: GedConfig) -> float:
    substitution, deletion, insertion = _answer_costs(question, ga, config)
    reduced = np.minimum(0.0, substitution - deletion[:, None] - insertion[None, :])
    assignment, _ = solve_assignment(reduced)
    # Total over the original entries the assignment implies: a pair with a
    # negative reduced cost is substituted, every other node deleted or inserted.
    substituted = [
        (i, j) for i, j in enumerate(assignment) if j >= 0 and reduced[i, j] < 0.0
    ]
    kept_q = {i for i, _ in substituted}
    kept_a = {j for _, j in substituted}
    total = math.fsum(
        [substitution[i, j] for i, j in substituted]
        + [cost for i, cost in enumerate(deletion) if i not in kept_q]
        + [cost for j, cost in enumerate(insertion) if j not in kept_a]
    )
    denominator = math.fsum(deletion) + math.fsum(insertion)
    if denominator <= 0.0:  # two empty graphs, or zero costs
        return 0.0
    return min(1.0, max(0.0, total / denominator))
