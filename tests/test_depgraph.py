import dataclasses

import numpy as np
import pytest

from qatrigger.depgraph import (
    build_graph,
    edge_signatures,
    node_lemmas,
    undirected_adjacency,
)

from conftest import make_sentence, random_tree_sentence


def test_fig_style_question_graph(question_graph):
    assert ("carradine", "david", "compound") in edge_signatures(question_graph)
    assert len(question_graph.edges) == len(question_graph.nodes) - 1


def test_single_token_sentence():
    graph = build_graph(make_sentence("s", [("go", "go", "VERB", 0, "root")]))
    assert len(graph.nodes) == 1
    assert graph.edges == ()


def test_five_token_fixture_edges():
    sentence = make_sentence(
        "s",
        [
            ("the", "the", "DET", 2, "det"),
            ("dog", "dog", "NOUN", 3, "nsubj"),
            ("bit", "bite", "VERB", 0, "root"),
            ("the", "the", "DET", 5, "det"),
            ("man", "man", "NOUN", 3, "obj"),
        ],
    )
    graph = build_graph(sentence)
    assert set(graph.edges) == {
        (2, 1, "det"),
        (3, 2, "nsubj"),
        (5, 4, "det"),
        (3, 5, "obj"),
    }


def test_build_graph_rejects_unparsed_and_multirooted():
    from qatrigger.corpus import Sentence

    with pytest.raises(ValueError):
        build_graph(Sentence("s", "text"))
    bad = make_sentence(
        "s", [("a", "a", "NOUN", 0, "root"), ("b", "b", "NOUN", 0, "root")]
    )
    with pytest.raises(ValueError):
        build_graph(bad)


@pytest.mark.parametrize("index", [0, -1, 3])
def test_build_graph_rejects_out_of_order_index(index):
    # coverage indexes per-token arrays by position, so an index outside 1..n
    # would land outside them or, at 0, make its depth pass revisit the root
    root = make_sentence("s", [("a", "a", "NOUN", 0, "root"), ("b", "b", "NOUN", 1, "dep")])
    tokens = (root.tokens[0], dataclasses.replace(root.tokens[1], index=index))
    with pytest.raises(ValueError, match="invalid index"):
        build_graph(dataclasses.replace(root, tokens=tokens))


def test_adjacency_is_symmetric_with_matching_pair_count(answer_graph):
    adjacency = undirected_adjacency(answer_graph)
    for u, neighbors in adjacency.items():
        for v in neighbors:
            assert u in adjacency[v]
    n_pairs = sum(len(v) for v in adjacency.values()) // 2
    assert n_pairs == len(answer_graph.edges)


def test_edge_signature_multiset_counts_repeats():
    sentence = make_sentence(
        "s",
        [
            ("run", "run", "VERB", 0, "root"),
            ("fast", "fast", "ADV", 1, "advmod"),
            ("fast", "fast", "ADV", 1, "advmod"),
        ],
    )
    signatures = edge_signatures(build_graph(sentence))
    assert signatures[("run", "fast", "advmod")] == 2


def test_empty_edge_graph_adjacency():
    graph = build_graph(make_sentence("s", [("hi", "hi", "INTJ", 0, "root")]))
    assert undirected_adjacency(graph) == {1: set()}


def test_random_trees_satisfy_tree_property():
    rng = np.random.default_rng(7)
    for _ in range(100):
        graph = build_graph(random_tree_sentence(rng, max_nodes=10))
        assert len(graph.edges) == len(graph.nodes) - 1
        assert all(gov != dep for gov, dep, _ in graph.edges)
        lemmas = node_lemmas(graph)
        assert sum(lemmas.values()) == len(graph.nodes)
