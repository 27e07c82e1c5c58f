"""Coverage features between a question's dependency graph and each of its
answers'.

Each graph is a Sentence: token i is a node with lemma
`lemmas[i - 1]` and head `heads[i - 1]`, and `Sentence.edges` are the edges.
Each scorer takes a batch of (question parse, answer parses) groups and
returns one value, or one pair, per answer of every group.  Relation and
vocabulary coverage are the clipped overlap that the n-gram baseline counts,
`baselines.ngram_scores` at order 1: relation coverage over edge signatures,
vocabulary coverage over lemmas.  Graph coverage builds each question's side
once, then for each answer the sub-graph of the answer tree spanned by every
tree path of at most `m` edges between two answer nodes whose lemmas also
occur in the question, and reports the sub-graph's edge count relative to
each side.  An answer edge joins the sub-graph when the nearest shared node
below it plus the nearest shared node outside that subtree, the edge
counted, is at most `m` edges away; two linear passes over the tree find
both distances for every edge at once.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Sequence

from .baselines import ngram_scores
from .corpus import Sentence


def edge_signatures(graph: Sentence) -> list[tuple[str, str, str]]:
    """(governor lemma, dependent lemma, relation) of each edge, in edge order."""
    lemmas = graph.lemmas
    return [(lemmas[gov - 1], lemmas[dep - 1], rel) for gov, dep, rel in graph.edges]


def relation_coverages(groups: Iterable[tuple[Sentence, Sequence[Sentence]]]) -> list[float]:
    """Clipped overlap of each answer's edge signatures with its question's."""
    return ngram_scores([(edge_signatures(gq), list(map(edge_signatures, answers)))
                         for gq, answers in groups], 1)


def vocabulary_coverages(groups: Iterable[tuple[Sentence, Sequence[Sentence]]]) -> list[float]:
    """Clipped overlap of each answer's lemmas with its question's."""
    return ngram_scores([(gq.lemmas, [ga.lemmas for ga in answers]) for gq, answers in groups], 1)


def align_subgraph(
    question_lemmas: AbstractSet[str], ga: Sentence, m: int
) -> frozenset[tuple[int, int]]:
    """Edges of the answer sub-graph spanned by short paths between
    question-shared nodes, each a (lower, higher) pair of token indices.

    A token is shared when its lemma is one of `question_lemmas`.  The answer
    edge (v, head of v) lies on a tree path of at most m edges between two
    shared tokens exactly when down[v] + up[v] <= m: down[v] counts the edges
    from v to the nearest shared token in v's subtree, up[v] those to the
    nearest shared token outside it, the edge to v's head included.  Two
    linear passes find both for every token: deepest tokens first (the
    answer Sentence holds each token's depth), then shallowest first.  The
    sub-graph's nodes are the kept edges' endpoints.
    """
    if m < 0:
        raise ValueError("path threshold m must be non-negative")
    shared = [False] + [lemma in question_lemmas for lemma in ga.lemmas]
    if sum(shared) < 2 or m == 0:
        return frozenset()
    far = m + 1  # any distance beyond m counts as unreachable
    head = [0, *ga.heads]
    order = sorted(range(1, len(head)), key=ga.depth.__getitem__, reverse=True)
    # best[v] and second[v]: the two smallest of 1 + down[c] over v's children
    # c, so that a child can see the best branch of its siblings.
    best = [far] * len(head)
    second = [far] * len(head)
    down = [far] * len(head)  # edges to the nearest shared token in v's subtree
    for v in order:
        down[v] = 0 if shared[v] else best[v]
        h, reach = head[v], down[v] + 1
        if reach < best[h]:
            best[h], second[h] = reach, best[h]
        elif reach < second[h]:
            second[h] = reach
    up = [far] * len(head)  # edges to the nearest shared token outside v's subtree
    edges: set[tuple[int, int]] = set()
    for v in reversed(order):
        h = head[v]
        if not h:
            continue
        if shared[h]:
            outside = 0
        else:
            sibling = second[h] if down[v] + 1 == best[h] else best[h]
            outside = min(up[h], sibling)
        up[v] = min(outside + 1, far)
        if down[v] + up[v] <= m:
            edges.add((v, h) if v < h else (h, v))
    return frozenset(edges)


def graph_coverage_features(
    groups: Iterable[tuple[Sentence, Sequence[Sentence]]], m: int
) -> list[tuple[float, float]]:
    """(coverage vs answer edges, coverage vs question edges), both in [0, 1], of
    the aligned sub-graph of each answer of every group; a question's lemma set is built once."""
    rows = []
    for gq, answers in groups:
        question_lemmas = set(gq.lemmas)
        edges_q = len(gq.edges)
        for ga in answers:
            n_sub = len(align_subgraph(question_lemmas, ga, m))
            edges_a = len(ga.edges)
            cov_ans = n_sub / edges_a if edges_a else 0.0
            cov_ques = min(1.0, n_sub / edges_q) if edges_q else 0.0
            rows.append((cov_ans, cov_ques))
    return rows
