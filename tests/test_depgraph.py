import dataclasses

import numpy as np
import pytest

from qatrigger.depgraph import build_graph, edge_signatures, node_lemmas

from conftest import make_sentence, random_tree_sentence
from oracles import tree_arrays


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

    with pytest.raises(ValueError, match="has no parse"):
        build_graph(Sentence("s", "text"))
    # a non-tree never becomes a Sentence, so build_graph cannot receive one
    with pytest.raises(ValueError, match="single-root violation"):
        make_sentence("s", [("a", "a", "NOUN", 0, "root"), ("b", "b", "NOUN", 0, "root")])


@pytest.mark.parametrize("index", [0, -1, 3])
def test_build_graph_rejects_out_of_order_index(index):
    # coverage indexes per-token arrays by position, so the Sentence rejects
    # an index outside 1..n when it is built, before any graph exists
    root = make_sentence("s", [("a", "a", "NOUN", 0, "root"), ("b", "b", "NOUN", 1, "dep")])
    tokens = (root.tokens[0], dataclasses.replace(root.tokens[1], index=index))
    with pytest.raises(ValueError, match=f"token index {index} out of range 1..2"):
        dataclasses.replace(root, tokens=tokens)


def test_graph_depth_matches_bfs_oracle():
    rng = np.random.default_rng(11)
    for _ in range(500):
        graph = build_graph(random_tree_sentence(rng, max_nodes=10, relabel=True))
        assert list(graph.depth) == tree_arrays(graph)[1]


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


def test_random_trees_satisfy_tree_property():
    rng = np.random.default_rng(7)
    for _ in range(100):
        graph = build_graph(random_tree_sentence(rng, max_nodes=10))
        assert len(graph.edges) == len(graph.nodes) - 1
        assert all(gov != dep for gov, dep, _ in graph.edges)
        lemmas = node_lemmas(graph)
        assert sum(lemmas.values()) == len(graph.nodes)
