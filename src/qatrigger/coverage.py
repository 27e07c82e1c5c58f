"""Coverage features between question and answer dependency graphs.

Relation coverage counts one-to-one edge-signature matches relative to the
question's edges; vocabulary coverage does the same over node lemmas.  Graph
coverage builds a sub-graph of the answer graph spanned by the unique tree
path between each pair of answer nodes whose lemmas also occur in the
question, keeping only paths of at most `m` edges, and reports the
sub-graph's edge count relative to each side.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .depgraph import DependencyGraph, edge_signatures, node_lemmas


@dataclass(frozen=True)
class SubGraph:
    """Node indices and undirected edges (sorted pairs) inside the answer graph."""

    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]


EMPTY_SUBGRAPH = SubGraph(nodes=frozenset(), edges=frozenset())


def relation_coverage(gq: DependencyGraph, ga: DependencyGraph) -> float:
    """Matched edge signatures over question edge count; 0 for an edgeless question."""
    if not gq.edges:
        return 0.0
    sig_q = edge_signatures(gq)
    sig_a = edge_signatures(ga)
    matched = sum(min(count, sig_a[sig]) for sig, count in sig_q.items())
    return matched / len(gq.edges)


def vocabulary_coverage(gq: DependencyGraph, ga: DependencyGraph) -> float:
    """Matched lemmas over question node count."""
    if not gq.nodes:
        return 0.0
    lem_q = node_lemmas(gq)
    lem_a = node_lemmas(ga)
    matched = sum(min(count, lem_a[lemma]) for lemma, count in lem_q.items())
    return matched / len(gq.nodes)


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


def align_subgraph(gq: DependencyGraph, ga: DependencyGraph, m: int) -> SubGraph:
    """Answer sub-graph spanned by short paths between question-shared nodes.

    The shared node set holds every answer node whose lemma occurs in the
    question; for each unordered pair, the tree path joins the sub-graph when
    it uses at most m edges.  The answer graph comes from build_graph, so it
    is a tree and carries each node's depth.
    """
    if m < 0:
        raise ValueError("path threshold m must be non-negative")
    question_lemmas = set(node_lemmas(gq))
    common = [t.index for t in ga.nodes if t.lemma in question_lemmas]
    if len(common) < 2 or m == 0:
        return EMPTY_SUBGRAPH
    parent = [0] + [t.head for t in ga.nodes]
    nodes: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for source, dest in combinations(common, 2):
        path = find_path(parent, ga.depth, source, dest, m)
        nodes.update(path)
        for a, b in zip(path, path[1:]):
            edges.add((a, b) if a < b else (b, a))
    return SubGraph(nodes=frozenset(nodes), edges=frozenset(edges))


def graph_coverage_features(
    gq: DependencyGraph, ga: DependencyGraph, m: int
) -> tuple[float, float]:
    """(coverage vs answer edges, coverage vs question edges), both in [0, 1]."""
    sub = align_subgraph(gq, ga, m)
    n_sub = len(sub.edges)
    cov_ans = n_sub / len(ga.edges) if ga.edges else 0.0
    cov_ques = min(1.0, n_sub / len(gq.edges)) if gq.edges else 0.0
    return cov_ans, cov_ques
