"""Normalized graph edit distance between a question's dependency graph and
each of its answers'.

Each graph is a Sentence: token i is a node with lemma `lemmas[i - 1]`
and tag `upos[i - 1]`, and `Sentence.edges` are the edges.  The distance is
the bipartite approximation of Riesen & Bunke (2009): every question node is
either substituted by one answer node or deleted, and every answer node not
substituted is inserted.  Five constants make the whole cost model.  Node
substitution cost is zero for equal lemmas (the Sentence lowercases them when
it is built) and otherwise a fixed POS-pair substitute weight: SAME_TAG_COST
for one UPOS tag, SAME_CLASS_COST for two tags of one class in _POS_CLASSES,
and OTHER_COST for any other pair.  Every substitution additionally charges
EDGE_WEIGHT times half the mismatch between the incident relation multisets
of the two nodes, and deleting or inserting a node costs DELETE_COST plus
EDGE_WEIGHT per incident edge.

The optimum is found as in Serratosa's Fast BP (2014): instead of the
(n+m) x (n+m) matrix with deletion, insertion and epsilon blocks, one n x m
assignment over the reduced costs min(0, sub_ij - del_i - ins_j) selects the
substitutions, and every node left out is deleted or inserted.  The edit cost
is normalized by the cost of deleting one graph entirely and inserting the
other, which bounds the result to [0, 1].

graph_edit_distances scores a batch of (question, answers) groups, each
question against its whole group at once: every cost depends on one
question node and one answer node only, so one numpy pass builds the
n x sum(m) matrix of all answers side by side, reading POS weights from one
array built at import, and each answer's columns then go to
solve_assignment on their own.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .corpus import Sentence

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

# POS substitute weights: the same UPOS tag, two tags of one class above,
# and every other pair, an unknown tag against itself included.
SAME_TAG_COST = 0.3
SAME_CLASS_COST = 0.5
OTHER_COST = 1.0
# Edit weights: each incident edge of a node deleted or inserted costs
# EDGE_WEIGHT, and each relation in the symmetric difference of two
# substituted nodes' incident relation multisets half of it; deleting or
# inserting the node itself costs DELETE_COST.
EDGE_WEIGHT = 0.5
DELETE_COST = 1.0


def _pos_weights() -> tuple[dict[str, int], np.ndarray]:
    """(index of each UPOS tag, the read-only (T+1) x (T+1) array of the
    substitute weights between them).  Index T stands for any tag outside
    UPOS_TAGS: it costs OTHER_COST against every tag, itself included."""
    index = {tag: i for i, tag in enumerate(UPOS_TAGS)}
    costs = np.full((len(index) + 1, len(index) + 1), OTHER_COST)
    for group in _POS_CLASSES:
        rows = [index[tag] for tag in group]
        costs[np.ix_(rows, rows)] = SAME_CLASS_COST
    for i in range(len(index)):
        costs[i, i] = SAME_TAG_COST
    costs.setflags(write=False)
    return index, costs


_POS_INDEX, _POS_WEIGHTS = _pos_weights()


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
    gq: Sentence, answers: Sequence[Sentence]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Edit costs of the question against every answer, side by side:
    (n x sum(m) substitutions, n deletions, sum(m) insertions, bounds).
    Answer k owns columns bounds[k]:bounds[k + 1].

    A substitution costs 0 for equal lemmas, else the POS substitute weight,
    plus EDGE_WEIGHT times half the symmetric difference of the two nodes'
    incident relation multisets.  Deleting or inserting a node costs
    DELETE_COST plus EDGE_WEIGHT per incident edge.  Every cost depends
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
    other = len(_POS_INDEX)
    q_tags = np.asarray([_POS_INDEX.get(tag, other) for tag in gq.upos], dtype=np.intp)
    a_tags = np.asarray(
        [_POS_INDEX.get(tag, other) for ga in answers for tag in ga.upos], dtype=np.intp
    )
    node = np.where(
        q_lemmas[:, None] == a_lemmas[None, :], 0.0, _POS_WEIGHTS[q_tags[:, None], a_tags[None, :]]
    )

    substitution = node + EDGE_WEIGHT * mismatch / 2.0
    deletion = DELETE_COST + EDGE_WEIGHT * q_counts.sum(axis=1)
    insertion = DELETE_COST + EDGE_WEIGHT * a_counts.sum(axis=1)
    return substitution, deletion, insertion, bounds


def _shortest_augmenting_paths(cost: Sequence[Sequence[float]], n_cols: int) -> list[int]:
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


def solve_assignment(rows: Sequence[Sequence[float]]) -> list[int]:
    """Row-to-column minimum-cost assignment of a rectangular matrix given
    as its rows, lists or an ndarray.  With rows <= columns every row gets a
    distinct column; with more rows than columns the transpose is solved, so
    every column gets a distinct row, and the rows left over map to -1."""
    n_cols = len(rows[0]) if len(rows) else 0
    if len(rows) <= n_cols:
        return _shortest_augmenting_paths(rows, n_cols)
    row_to_col = [-1] * len(rows)
    for j, i in enumerate(_shortest_augmenting_paths([list(c) for c in zip(*rows)], len(rows))):
        row_to_col[i] = j
    return row_to_col


def graph_edit_distances(
    groups: Iterable[tuple[Sentence, Sequence[Sentence]]]
) -> list[float]:
    """Assignment-based edit distance in [0, 1] of each answer of every group.

    Each group's costs come from one group_cost_matrix, and each answer's
    columns of the reduced costs, as lists, go to solve_assignment on their
    own.  The normalizer is the cost of deleting every question node
    and inserting every answer node, which is itself a feasible edit;
    identical graphs score 0, and an empty question against any answer
    scores 1.
    """
    distances = []
    for gq, answers in groups:
        substitution, deletion, insertion, bounds = group_cost_matrix(gq, answers)
        reduced = np.minimum(0.0, substitution - deletion[:, None] - insertion[None, :])
        sub_rows, reduced_rows = substitution.tolist(), reduced.tolist()
        deletion, insertion = deletion.tolist(), insertion.tolist()
        deletion_total = math.fsum(deletion)
        for lo, hi in zip(bounds, bounds[1:]):
            block = [row[lo:hi] for row in reduced_rows]
            # Total over the original entries the assignment implies: a pair
            # with a negative reduced cost is substituted, every other node
            # deleted or inserted.
            substituted = [
                (i, lo + j)
                for i, j in enumerate(solve_assignment(block))
                if j >= 0 and block[i][j] < 0.0
            ]
            kept_q = {i for i, _ in substituted}
            kept_a = {j for _, j in substituted}
            total = math.fsum(
                [sub_rows[i][j] for i, j in substituted]
                + [cost for i, cost in enumerate(deletion) if i not in kept_q]
                + [insertion[j] for j in range(lo, hi) if j not in kept_a]
            )
            denominator = deletion_total + math.fsum(insertion[lo:hi])
            # A denominator of 0 comes from two empty graphs, or zero costs.
            distances.append(min(1.0, max(0.0, total / denominator)) if denominator > 0.0 else 0.0)
    return distances
