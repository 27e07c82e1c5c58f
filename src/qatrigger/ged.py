"""Normalized graph edit distance between a question's dependency graph and
each of its answers'.

Each graph is a Sentence: token i is a node with lemma `lemmas[i - 1]`
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

A question is scored against its whole group of answers at once: every cost
depends on one question node and one answer node only, so one numpy pass
builds the n x sum(m) matrix of all answers side by side, reading POS
weights from one array per PosCostTable, and each answer's columns then go
to the assignment solver on their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Sentence
from .errors import IngestionError, check_finite, parse_number, tsv_rows

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

    @cached_property
    def cost_rows(self) -> tuple[dict[str, int], np.ndarray]:
        """(index of each UPOS tag and each tag the table names, the
        (T+1) x (T+1) array of their `cost`s).  Index T stands for any other
        tag: it costs `default_cost` against every tag, itself included,
        since the table names no pair with it."""
        tags = list(dict.fromkeys([*UPOS_TAGS, *(tag for pair in self.entries for tag in pair)]))
        costs = np.full((len(tags) + 1, len(tags) + 1), self.default_cost, dtype=float)
        costs[:-1, :-1] = [[self.cost(a, b) for b in tags] for a in tags]
        return {tag: i for i, tag in enumerate(tags)}, costs


def default_pos_table() -> PosCostTable:
    entries = {(tag, tag): SAME_TAG_COST for tag in UPOS_TAGS}
    for group in _POS_CLASSES:
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                entries[(a, b)] = SAME_CLASS_COST
    return PosCostTable(entries=entries)


def load_pos_table(path: str | Path) -> PosCostTable:
    """Load `UPOS_A<TAB>UPOS_B<TAB>cost` lines plus one `DEFAULT<TAB>cost` line;
    every cost, the default's included, must lie in [0, 1]."""
    path = Path(path)
    entries: dict[tuple[str, str], float] = {}
    default_cost = 1.0
    saw_default = False
    for lineno, columns in tsv_rows(path):
        if columns[0].startswith("#"):
            continue
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
    """Edit costs of graph_edit_distances; construction checks the ranges."""

    pos_table: PosCostTable = field(default_factory=default_pos_table)
    edge_weight: float = 0.5
    delete_cost: float = 1.0

    def __post_init__(self) -> None:
        check_finite(self, "edge_weight", "delete_cost")
        if self.edge_weight < 0 or self.delete_cost < 0:
            raise ValueError("edge_weight and delete_cost must be >= 0")


def _relation_counts(
    graphs: Sequence[Sentence], columns: dict[str, int]
) -> np.ndarray:
    """Per node of the graphs stacked in order, the count of each relation on
    its incident edges; a relation not yet in `columns` gets the next column."""
    govs: list[int] = []
    deps: list[int] = []
    ids: list[int] = []
    offset = 0
    for graph in graphs:
        edges = graph.edges
        govs += [offset + gov for gov, _, _ in edges]
        deps += [offset + dep for _, dep, _ in edges]
        ids += [columns.setdefault(rel, len(columns)) for _, _, rel in edges]
        offset += len(graph.heads)
    width = len(columns)
    ends = np.asarray(govs + deps, dtype=np.intp) - 1
    cells = ends * width + np.asarray(ids + ids, dtype=np.intp)
    return np.bincount(cells, minlength=offset * width).reshape(offset, width)


def group_cost_matrix(
    gq: Sentence, answers: Sequence[Sentence], config: GedConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Edit costs of the question against every answer, side by side:
    (n x sum(m) substitutions, n deletions, sum(m) insertions, bounds).
    Answer k owns columns bounds[k]:bounds[k + 1].

    A substitution costs 0 for equal lemmas, else the POS substitute weight,
    plus `edge_weight` times half the symmetric difference of the two nodes'
    incident relation multisets.  Deleting or inserting a node costs
    `delete_cost` plus `edge_weight` per incident edge.  Every cost depends
    only on one question node and one answer node, so an answer's slice
    holds the same bits whatever its groupmates.
    """
    bounds = [0]
    for ga in answers:
        bounds.append(bounds[-1] + len(ga.heads))
    # Question relations take the first columns; the rest count 0 on every
    # question node.
    relations: dict[str, int] = {}
    q_counts = _relation_counts([gq], relations)
    width = len(relations)
    a_counts = _relation_counts(answers, relations)
    mismatch = (
        np.abs(q_counts[:, None, :] - a_counts[None, :, :width]).sum(axis=2)
        + a_counts[:, width:].sum(axis=1)
    )

    lemmas: dict[str, int] = {}
    q_lemmas = np.asarray(
        [lemmas.setdefault(lemma, len(lemmas)) for lemma in gq.lemmas], dtype=np.intp
    )
    a_lemmas = np.asarray(
        [lemmas.get(lemma, -1) for ga in answers for lemma in ga.lemmas], dtype=np.intp
    )
    index, pos_costs = config.pos_table.cost_rows
    other = len(index)
    q_tags = np.asarray([index.get(tag, other) for tag in gq.upos], dtype=np.intp)
    a_tags = np.asarray(
        [index.get(tag, other) for ga in answers for tag in ga.upos], dtype=np.intp
    )
    node = np.where(
        q_lemmas[:, None] == a_lemmas[None, :], 0.0, pos_costs[q_tags[:, None], a_tags[None, :]]
    )

    substitution = node + config.edge_weight * mismatch / 2.0
    deletion = config.delete_cost + config.edge_weight * q_counts.sum(axis=1)
    insertion = config.delete_cost + config.edge_weight * a_counts.sum(axis=1)
    return substitution, deletion, insertion, bounds


def _shortest_augmenting_paths(cost: list[list[float]], n_cols: int) -> list[int]:
    """Shortest-augmenting-path assignment of a rows <= columns matrix, as row_to_col.

    Columns are 1-based and column 0 is the virtual start of each row's
    search.  Each step scans the free columns in ascending order and keeps
    the first strict minimum, which fixes the choice among tied optima.
    """
    inf = math.inf
    u = [0.0] * (len(cost) + 1)
    v = [0.0] * (n_cols + 1)
    col_row = [0] * (n_cols + 1)  # 0 means unassigned
    columns = range(1, n_cols + 1)
    for i, row in enumerate(cost, start=1):
        col_row[0] = i
        # The first step, from column 0, reaches every column.
        current = [row[j - 1] - u[i] - v[j] for j in columns]
        delta = min(current)
        j0 = current.index(delta) + 1
        u[i] += delta
        if col_row[j0]:
            way = [0] * (n_cols + 1)
            minv = [inf] + [c - delta for c in current]
            used = [0, j0]
            free = [j for j in columns if j != j0]
            while True:
                i0 = col_row[j0]
                row0 = cost[i0 - 1]
                ui0 = u[i0]
                delta = inf
                j1 = 0
                for j in free:
                    value = row0[j - 1] - ui0 - v[j]
                    if value < minv[j]:
                        minv[j] = value
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
                for j in used:
                    u[col_row[j]] += delta
                    v[j] -= delta
                j0 = j1
                used.append(j0)
                free.remove(j0)
                if col_row[j0] == 0:
                    break
                for j in free:
                    minv[j] -= delta
            while j0:
                j1 = way[j0]
                col_row[j0] = col_row[j1]
                j0 = j1
        else:
            col_row[j0] = i
    row_to_col = [0] * len(cost)
    for j in columns:
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
    rows = cost.tolist()
    assignment = _shortest_augmenting_paths(rows, cost.shape[1])
    total = math.fsum([rows[i][j] for i, j in enumerate(assignment)])
    if not transposed:
        return tuple(assignment), total
    row_to_col = [-1] * cost.shape[1]
    for j, i in enumerate(assignment):
        row_to_col[i] = j
    return tuple(row_to_col), total


def graph_edit_distances(
    gq: Sentence, answers: Sequence[Sentence], config: GedConfig
) -> list[float]:
    """Assignment-based edit distance of each answer graph, normalized to [0, 1].

    The costs come from one group_cost_matrix, and each answer's reduced
    costs go to solve_assignment on their own.  The normalizer is the cost of
    deleting every question node and inserting every answer node, which is
    itself a feasible edit; identical graphs score 0, and an empty question
    against any answer scores 1.
    """
    substitution, deletion, insertion, bounds = group_cost_matrix(gq, answers, config)
    reduced = np.minimum(0.0, substitution - deletion[:, None] - insertion[None, :])
    sub_rows, reduced_rows = substitution.tolist(), reduced.tolist()
    deletion, insertion = deletion.tolist(), insertion.tolist()
    deletion_total = math.fsum(deletion)
    distances = []
    for lo, hi in zip(bounds, bounds[1:]):
        assignment, _ = solve_assignment(reduced[:, lo:hi])
        # Total over the original entries the assignment implies: a pair with
        # a negative reduced cost is substituted, every other node deleted or
        # inserted.
        substituted = [
            (i, lo + j) for i, j in enumerate(assignment)
            if j >= 0 and reduced_rows[i][lo + j] < 0.0
        ]
        kept_q = {i for i, _ in substituted}
        kept_a = {j for _, j in substituted}
        total = math.fsum(
            [sub_rows[i][j] for i, j in substituted]
            + [cost for i, cost in enumerate(deletion) if i not in kept_q]
            + [insertion[j] for j in range(lo, hi) if j not in kept_a]
        )
        denominator = deletion_total + math.fsum(insertion[lo:hi])
        if denominator <= 0.0:  # two empty graphs, or zero costs
            distances.append(0.0)
        else:
            distances.append(min(1.0, max(0.0, total / denominator)))
    return distances
