"""Coverage features between question and answer dependency graphs.

Each graph is a parsed Sentence (tokens as nodes, `Sentence.edges` as
edges).  Relation coverage counts one-to-one edge-signature matches relative
to the question's edges; vocabulary coverage does the same over node lemmas.
Graph coverage builds a sub-graph of the answer graph spanned by the unique
tree path between each pair of answer nodes whose lemmas also occur in the
question, keeping only paths of at most `m` edges, and reports the
sub-graph's edge count relative to each side.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .corpus import Sentence


@dataclass(frozen=True)
class SubGraph:
    """Node indices and undirected edges (sorted pairs) inside the answer graph."""

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]


EMPTY_SUBGRAPH = SubGraph(nodes=frozenset(), edges=frozenset())


def edge_signatures(graph: Sentence) -> Counter[tuple[str, str, str]]:
    """Multiset of (governor lemma, dependent lemma, relation) per edge."""
    lemma = {t.index: t.lemma for t in graph.tokens}
    return Counter((lemma[gov], lemma[dep], rel) for gov, dep, rel in graph.edges)


def node_lemmas(graph: Sentence) -> Counter[str]:
    """Multiset of node lemmas."""
    return Counter(t.lemma for t in graph.tokens)


def relation_coverage(gq: Sentence, ga: Sentence) -> float:
    """Matched edge signatures over question edge count; 0 for an edgeless question."""
    sig_q = edge_signatures(gq)
    if not sig_q:
        return 0.0
    sig_a = edge_signatures(ga)
    matched = sum(min(count, sig_a[sig]) for sig, count in sig_q.items())
    return matched / sig_q.total()


def vocabulary_coverage(gq: Sentence, ga: Sentence) -> float:
    """Matched lemmas over question node count."""
    if not gq.tokens:
        return 0.0
    lem_q = node_lemmas(gq)
    lem_a = node_lemmas(ga)
    matched = sum(min(count, lem_a[lemma]) for lemma, count in lem_q.items())
    return matched / len(gq.tokens)


def find_path(
    parent: Sequence[int], depth: Sequence[int], source: int, dest: int, m: int
) -> list[int]:
    """Tree path from source to dest when it has at most m edges, else [].

    parent[v] is v's head and depth[v] its level (only differences matter).
    The two endpoints climb toward their lowest common ancestor, the deeper
    one first, and the walk stops as soon as it would need more than m edges.
    """
    up, down = [source], [dest]
    while up[-1] != down[-1]:
        if len(up) + len(down) - 2 >= m:
            return []  # not met yet, so the path needs at least one more edge
        if depth[up[-1]] >= depth[down[-1]]:
            up.append(parent[up[-1]])
        else:
            down.append(parent[down[-1]])
    return up + down[-2::-1]


def align_subgraph(gq: Sentence, ga: Sentence, m: int) -> SubGraph:
    """Answer sub-graph spanned by short paths between question-shared nodes.

    The shared node set holds every answer node whose lemma occurs in the
    question; for each unordered pair, the tree path joins the sub-graph when
    it uses at most m edges.  The answer Sentence checked its tree when it
    was built and holds each token's depth.
    """
    if m < 0:
        raise ValueError("path threshold m must be non-negative")
    question_lemmas = set(node_lemmas(gq))
    common = [t.index for t in ga.tokens if t.lemma in question_lemmas]
    if len(common) < 2 or m == 0:
        return EMPTY_SUBGRAPH
    parent = [0] + [t.head for t in ga.tokens]
    nodes: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for source, dest in combinations(common, 2):
        path = find_path(parent, ga.depth, source, dest, m)
        nodes.update(path)
        for a, b in zip(path, path[1:]):
            edges.add((a, b) if a < b else (b, a))
    return SubGraph(nodes=frozenset(nodes), edges=frozenset(edges))


def graph_coverage_features(gq: Sentence, ga: Sentence, m: int) -> tuple[float, float]:
    """(coverage vs answer edges, coverage vs question edges), both in [0, 1]."""
    n_sub = len(align_subgraph(gq, ga, m).edges)
    edges_a, edges_q = len(ga.edges), len(gq.edges)
    cov_ans = n_sub / edges_a if edges_a else 0.0
    cov_ques = min(1.0, n_sub / edges_q) if edges_q else 0.0
    return cov_ans, cov_ques
