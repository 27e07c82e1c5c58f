"""Dependency graphs over parsed sentences.

A sentence parse is turned into a rooted tree whose nodes are the tokens and
whose labeled edges run from governor to dependent.  The tree rule itself is
checked once, when the Sentence is built (corpus.tree_depths); the graph
carries the depths that check computed.  All downstream features (edit
distance, similarity, coverage) consume these graphs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .corpus import Sentence, Token


@dataclass(frozen=True)
class DependencyGraph:
    """Nodes in sentence order plus (governor, dependent, relation) edges.

    depth[v] is node v's depth in the tree (slot 0 the virtual root, the root
    token at 1), as the sentence's tree check computed it.
    """

    nodes: tuple[Token, ...]
    edges: tuple[tuple[int, int, str], ...]
    depth: tuple[int, ...] = ()


def build_graph(sentence: Sentence) -> DependencyGraph:
    """Build the dependency graph of a parsed sentence.

    The Sentence has already checked that its tokens form a tree, so there is
    one edge per non-root token and len(edges) == len(nodes) - 1.
    """
    if not sentence.parsed:
        raise ValueError(f"sentence {sentence.sentence_id!r} has no parse")
    edges = tuple((t.head, t.index, t.deprel) for t in sentence.tokens if t.head)
    return DependencyGraph(nodes=sentence.tokens, edges=edges, depth=sentence.depth)


def edge_signatures(graph: DependencyGraph) -> Counter[tuple[str, str, str]]:
    """Multiset of (governor lemma, dependent lemma, relation) per edge."""
    lemma = {t.index: t.lemma for t in graph.nodes}
    return Counter((lemma[gov], lemma[dep], rel) for gov, dep, rel in graph.edges)


def node_lemmas(graph: DependencyGraph) -> Counter[str]:
    """Multiset of node lemmas."""
    return Counter(t.lemma for t in graph.nodes)
