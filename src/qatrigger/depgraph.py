"""Dependency graphs over parsed sentences.

A sentence parse is turned into a rooted tree whose nodes are the tokens and
whose labeled edges run from governor to dependent.  All downstream features
(edit distance, similarity, coverage) consume these graphs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .corpus import Sentence, Token


@dataclass(frozen=True)
class DependencyGraph:
    """Nodes in sentence order plus (governor, dependent, relation) edges."""

    nodes: tuple[Token, ...]
    edges: tuple[tuple[int, int, str], ...]


def build_graph(sentence: Sentence) -> DependencyGraph:
    """Build the dependency graph of a parsed sentence.

    Token indices must run 1..n in order.  One edge per non-root token, so a
    valid parse yields a tree with len(edges) == len(nodes) - 1.
    """
    if not sentence.parsed:
        raise ValueError(f"sentence {sentence.sentence_id!r} has no parse")
    n = len(sentence.tokens)
    roots = 0
    edges = []
    for position, token in enumerate(sentence.tokens, start=1):
        if token.index != position or token.head == position or not 0 <= token.head <= n:
            raise ValueError(
                f"sentence {sentence.sentence_id!r}: invalid index {token.index} "
                f"or head {token.head} for token {position}"
            )
        if token.head == 0:
            roots += 1
        else:
            edges.append((token.head, token.index, token.deprel))
    if roots != 1:
        raise ValueError(
            f"sentence {sentence.sentence_id!r}: expected exactly one root, got {roots}"
        )
    return DependencyGraph(nodes=sentence.tokens, edges=tuple(edges))


def undirected_adjacency(graph: DependencyGraph) -> dict[int, set[int]]:
    """Symmetric adjacency over node indices, ignoring edge direction."""
    adjacency: dict[int, set[int]] = {t.index: set() for t in graph.nodes}
    for gov, dep, _ in graph.edges:
        adjacency[gov].add(dep)
        adjacency[dep].add(gov)
    return adjacency


def edge_signatures(graph: DependencyGraph) -> Counter[tuple[str, str, str]]:
    """Multiset of (governor lemma, dependent lemma, relation) per edge."""
    lemma = {t.index: t.lemma for t in graph.nodes}
    return Counter((lemma[gov], lemma[dep], rel) for gov, dep, rel in graph.edges)


def node_lemmas(graph: DependencyGraph) -> Counter[str]:
    """Multiset of node lemmas."""
    return Counter(t.lemma for t in graph.nodes)
