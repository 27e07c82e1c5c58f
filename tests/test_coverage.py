import dataclasses

import numpy as np
import pytest

from qatrigger.baselines import ngram_scores
from qatrigger.corpus import Sentence
from qatrigger.coverage import (
    align_subgraph,
    graph_coverage_features,
    relation_coverages,
    vocabulary_coverages,
)

from conftest import check_tree_paths_against_bfs, endpoints, make_sentence, random_tree_sentence
from oracles import (
    bfs_subgraph,
    clipped_overlap,
    find_path,
    head_edges,
    pairwise_subgraph,
    tree_arrays,
)


def chain(*lemmas):
    rows = []
    for i, lemma in enumerate(lemmas, start=1):
        head = 0 if i == 1 else i - 1
        rel = "root" if i == 1 else "dep"
        rows.append((lemma, lemma, "NOUN", head, rel))
    return make_sentence(rows)


class TestClippedOverlap:
    """rel_cov, vocab_cov and ngram share one counter of the clipped overlap,
    baselines.ngram_scores; at order 1 it is the overlap itself."""

    @pytest.mark.parametrize("kind", ["string", "tuple"])
    def test_order_one_ngram_scores_match_clipped_overlap_oracle(self, kind):
        rng = np.random.default_rng(83 if kind == "string" else 89)

        def items(size):
            words = [str(w) for w in rng.choice(list("abcde"), size=size)]
            if kind == "string":
                return words
            return [(w, str(r)) for w, r in zip(words, rng.choice(list("xy"), size=size))]

        for _ in range(100):
            groups = [
                (items(int(rng.integers(0, 8))),
                 [items(int(rng.integers(0, 8))) for _ in range(int(rng.integers(0, 5)))])
                for _ in range(int(rng.integers(1, 7)))
            ]
            expected = [clipped_overlap(question, answer)
                        for question, answers in groups for answer in answers]
            # repr tells every float apart, 0.0 from -0.0 included.
            assert repr(ngram_scores(groups, 1)) == repr(expected)
            assert repr(ngram_scores(iter(groups), 1)) == repr(expected)

    def test_empty_question_and_empty_answer(self):
        groups = [([], [[], ["a"], [("a", "b")]]), (["a", "b"], [[], ["b"]]), (["a"], [])]
        assert ngram_scores(groups, 1) == [0.0, 0.0, 0.0, 0.0, 0.5]
        assert ngram_scores([], 1) == []

    def test_repeated_items_are_clipped_on_both_sides(self):
        question = ["a", "a", "b"]
        answers = [["a"], ["a", "a", "a", "b"], ["b", "b", "b"], ["c", "a", "c", "a"]]
        assert ngram_scores([(question, answers)], 1) == [1 / 3, 1.0, 1 / 3, 2 / 3]

    def test_items_of_one_group_never_match_another_groups_question(self):
        groups = [(["a"], [["b"]]), (["b"], [["a"], ["b", "a"]]), ([("a", "b")], [[("a", "b")]])]
        assert ngram_scores(groups, 1) == [0.0, 0.0, 1.0, 1.0]

    def test_relation_and_vocabulary_coverage_are_clipped_overlaps(self):
        def signatures(graph):
            lemmas = graph.lemmas
            return [(lemmas[gov - 1], lemmas[dep - 1], rel) for gov, dep, rel in head_edges(graph)]

        rng = np.random.default_rng(97)
        pool = ["die", "win", "sun"]
        for _ in range(40):
            groups = []
            for _ in range(int(rng.integers(1, 6))):
                gq = random_tree_sentence(rng, max_nodes=6, lemma_pool=pool)
                answers = [random_tree_sentence(rng, max_nodes=8, lemma_pool=pool)
                           for _ in range(int(rng.integers(0, 4)))]
                groups.append((gq, answers))
            assert repr(relation_coverages(groups)) == repr([
                clipped_overlap(signatures(gq), signatures(ga))
                for gq, answers in groups for ga in answers
            ])
            assert repr(vocabulary_coverages(groups)) == repr([
                clipped_overlap(gq.lemmas, ga.lemmas) for gq, answers in groups for ga in answers
            ])


class TestRelationCoverage:
    def test_identical_graphs(self, question_sentence):
        assert relation_coverages([(question_sentence, [question_sentence])])[0] == 1.0

    def test_no_shared_signatures(self):
        g1 = chain("a", "b")
        g2 = chain("c", "d")
        assert relation_coverages([(g1, [g2])])[0] == 0.0

    def test_half_matched(self):
        gq = make_sentence(
            [
                ("a", "a", "NOUN", 5, "nsubj"),
                ("b", "b", "NOUN", 5, "obj"),
                ("c", "c", "NOUN", 5, "obl"),
                ("d", "d", "NOUN", 5, "advmod"),
                ("e", "e", "VERB", 0, "root"),
            ],
        )
        ga = make_sentence(
            [
                ("a", "a", "NOUN", 3, "nsubj"),
                ("b", "b", "NOUN", 3, "obj"),
                ("e", "e", "VERB", 0, "root"),
            ],
        )
        # answer edges (e,a,nsubj) and (e,b,obj) match two of four question edges
        assert relation_coverages([(gq, [ga])])[0] == 0.5

    def test_edgeless_question(self):
        g1 = chain("only")
        g2 = chain("x", "y")
        assert relation_coverages([(g1, [g2])])[0] == 0.0

    def test_fig_pair(self, question_sentence, answer_sentence):
        # compound and nsubj edges match; advmod and aux have no counterpart
        assert relation_coverages([(question_sentence, [answer_sentence])])[0] == 0.5


class TestVocabularyCoverage:
    def test_identical(self, question_sentence):
        assert vocabulary_coverages([(question_sentence, [question_sentence])])[0] == 1.0

    def test_disjoint(self):
        assert vocabulary_coverages([(chain("a", "b"), [chain("c", "d")])])[0] == 0.0

    def test_fig_pair_three_of_five(self, question_sentence, answer_sentence):
        [coverage] = vocabulary_coverages([(question_sentence, [answer_sentence])])
        assert coverage == pytest.approx(0.6)

    def test_repeated_lemmas_match_one_to_one(self):
        gq = chain("go", "go", "go")
        ga = chain("go")
        assert vocabulary_coverages([(gq, [ga])])[0] == pytest.approx(1 / 3)


def interior_ancestor_graph():
    # a(1) -> p(2) -> mid(3) <- q(4) <- b(5), with mid under the root r(6):
    # the a..b path has 4 edges and turns at the interior node 3, and heads
    # point both forward and backward.
    return make_sentence(
        [
            ("a", "a", "NOUN", 2, "nmod"),
            ("p", "p", "NOUN", 3, "nmod"),
            ("mid", "mid", "NOUN", 6, "obj"),
            ("q", "q", "NOUN", 3, "nmod"),
            ("b", "b", "NOUN", 4, "nmod"),
            ("r", "r", "VERB", 0, "root"),
        ],
    )


class TestFindPath:
    def test_chain_path(self):
        parent, depth = tree_arrays(chain("a", "b", "c", "d"))
        assert find_path(parent, depth, 1, 4, 3) == [1, 2, 3, 4]
        assert find_path(parent, depth, 4, 1, 3) == [4, 3, 2, 1]
        assert find_path(parent, depth, 1, 4, 2) == []

    def test_source_equals_dest(self):
        parent, depth = tree_arrays(chain("a", "b"))
        assert find_path(parent, depth, 2, 2, 0) == [2]

    def test_exactly_m_edges_kept_through_interior_ancestor(self):
        parent, depth = tree_arrays(interior_ancestor_graph())
        assert find_path(parent, depth, 1, 5, 4) == [1, 2, 3, 4, 5]
        assert find_path(parent, depth, 5, 1, 4) == [5, 4, 3, 2, 1]
        assert find_path(parent, depth, 1, 5, 3) == []
        # unequal depths: p(2) at depth 2 to b(5) at depth 3 is 3 edges
        assert find_path(parent, depth, 2, 5, 3) == [2, 3, 4, 5]
        assert find_path(parent, depth, 5, 2, 2) == []

    def test_lengths_match_bfs_on_random_trees(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            check_tree_paths_against_bfs(
                random_tree_sentence(rng, max_nodes=12, relabel=True)
            )


class TestAlignSubgraph:
    def test_single_common_node_gives_empty(self, answer_sentence):
        gq = chain("david")
        assert align_subgraph(set(gq.lemmas), answer_sentence, 3) == frozenset()

    def test_m_zero_gives_empty(self, question_sentence, answer_sentence):
        assert align_subgraph(set(question_sentence.lemmas), answer_sentence, 0) == frozenset()

    def test_fig_pair_connects_shared_nodes(self, question_sentence, answer_sentence):
        edges = align_subgraph(set(question_sentence.lemmas), answer_sentence, 3)
        # david(1), carradine(2), died(3) in the answer graph
        assert endpoints(edges) == frozenset({1, 2, 3})
        assert edges == frozenset({(1, 2), (2, 3)})

    def test_subgraph_edges_are_answer_edges(self, question_sentence, answer_sentence):
        edges = align_subgraph(set(question_sentence.lemmas), answer_sentence, 4)
        undirected = {
            (min(g, d), max(g, d)) for g, d, _ in answer_sentence.edges
        }
        assert edges <= undirected
        assert all(a < b for a, b in edges)

    def test_monotone_in_m(self):
        rng = np.random.default_rng(31)
        pool = ["die", "win", "sun", "man"]
        for _ in range(50):
            gq = random_tree_sentence(rng, max_nodes=6, lemma_pool=pool)
            ga = random_tree_sentence(rng, max_nodes=8, lemma_pool=pool)
            previous = align_subgraph(set(gq.lemmas), ga, 0)
            for m in range(1, 5):
                current = align_subgraph(set(gq.lemmas), ga, m)
                assert endpoints(previous) <= endpoints(current)
                assert previous <= current
                previous = current

    def test_matches_bfs_oracle_with_forward_heads(self):
        rng = np.random.default_rng(41)
        pool = ["die", "win", "sun", "man", "run"]
        for _ in range(1000):
            gq = random_tree_sentence(rng, max_nodes=6, lemma_pool=pool)
            ga = random_tree_sentence(rng, max_nodes=10, lemma_pool=pool, relabel=True)
            lemmas = set(gq.lemmas)
            for m in range(6):
                nodes, edges = bfs_subgraph(ga, lemmas, m)
                assert nodes == endpoints(edges)
                assert align_subgraph(lemmas, ga, m) == edges

    def test_exactly_m_edges_kept_through_interior_ancestor(self):
        ga = interior_ancestor_graph()
        gq = chain("a", "b")
        kept = align_subgraph(set(gq.lemmas), ga, 4)
        assert endpoints(kept) == frozenset({1, 2, 3, 4, 5})
        assert kept == frozenset({(1, 2), (2, 3), (3, 4), (4, 5)})
        assert align_subgraph(set(gq.lemmas), ga, 3) == frozenset()

    def test_non_tree_heads_rejected(self):
        # 1 -> 2 -> 1 is a cycle beside the root 3: the Sentence rejects it, so
        # no graph of it ever reaches coverage
        with pytest.raises(ValueError, match="cycle through token 1"):
            make_sentence(
                [
                    ("a", "a", "NOUN", 2, "dep"),
                    ("b", "b", "NOUN", 1, "dep"),
                    ("c", "c", "VERB", 0, "root"),
                ],
            )

    def test_negative_m_rejected(self, question_sentence, answer_sentence):
        with pytest.raises(ValueError):
            align_subgraph(set(question_sentence.lemmas), answer_sentence, -1)


def sentence_of(heads, lemmas):
    """Sentence with token i + 1 under heads[i] (0 for the root) and lemma lemmas[i]."""
    rows = [
        (lemma, lemma, "NOUN", head, "root" if head == 0 else "dep")
        for head, lemma in zip(heads, lemmas)
    ]
    return make_sentence(rows)


def matches_pairwise(gq, ga, m):
    lemmas = set(gq.lemmas)
    nodes, edges = pairwise_subgraph(ga, lemmas, m)
    assert nodes == endpoints(edges)
    assert align_subgraph(lemmas, ga, m) == edges
    return frozenset(edges)


class TestAlignSubgraphAgainstPairwiseWalk:
    """The two-pass edge rule against one tree path per pair of shared nodes."""

    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize("pool_size", range(1, 8))
    def test_random_trees(self, relabel, pool_size):
        rng = np.random.default_rng(61 + pool_size)
        pool = ["die", "win", "sun", "man", "run", "city", "dog"][:pool_size]
        for _ in range(150):
            gq = random_tree_sentence(rng, max_nodes=4, lemma_pool=pool)
            ga = random_tree_sentence(rng, max_nodes=14, lemma_pool=pool, relabel=relabel)
            for m in range(9):
                matches_pairwise(gq, ga, m)

    @pytest.mark.parametrize("shape", ["chain", "star"])
    def test_300_tokens_all_shared(self, shape):
        heads = [0] + [i if shape == "chain" else 1 for i in range(1, 300)]
        ga = sentence_of(heads, ["w"] * 300)
        gq = chain("w")
        everything = {(min(h, i), max(h, i)) for i, h in enumerate(heads, start=1) if h}
        for m in range(7):
            assert matches_pairwise(gq, ga, m) == (everything if m else frozenset())

    def test_shared_root(self):
        # root 1 is shared; its only partner 4 hangs three edges below it
        ga = sentence_of([0, 1, 2, 3, 1], ["q", "x", "x", "q", "x"])
        gq = chain("q")
        assert matches_pairwise(gq, ga, 2) == frozenset()
        assert matches_pairwise(gq, ga, 3) == {(1, 2), (2, 3), (3, 4)}
        for m in range(7):
            matches_pairwise(gq, ga, m)

    def test_both_shared_nodes_in_one_child_branch(self):
        # r(1) <- v(2) <- a(3), v(2) <- b(4): v's own branch is r's best child,
        # so the edge (r, v) must not see a partner through it
        ga = sentence_of([0, 1, 2, 2], ["r", "v", "q", "q"])
        gq = chain("q")
        for m in range(7):
            edges = matches_pairwise(gq, ga, m)
            assert edges == ({(2, 3), (2, 4)} if m >= 2 else frozenset())
            assert (1, 2) not in edges

    def test_only_partner_in_a_sibling_branch(self):
        # r(1) has children x(2) and y(3); a(4) under x, b(6) two below y:
        # a..b is 5 edges, through r, which is not shared
        ga = sentence_of([0, 1, 1, 2, 3, 5], ["r", "x", "y", "q", "y", "q"])
        gq = chain("q")
        assert matches_pairwise(gq, ga, 4) == frozenset()
        kept = matches_pairwise(gq, ga, 5)
        assert endpoints(kept) == frozenset(range(1, 7))
        assert kept == {(1, 2), (1, 3), (2, 4), (3, 5), (5, 6)}

    @pytest.mark.parametrize("distance", range(1, 7))
    def test_partners_exactly_m_and_m_plus_one_apart(self, distance):
        # shared tokens at both ends of a chain hung below an unshared root
        heads = [0] + list(range(1, distance + 2))
        ga = sentence_of(heads, ["r"] + ["q"] + ["x"] * (distance - 1) + ["q"])
        gq = chain("q")
        path = {(i, i + 1) for i in range(2, distance + 2)}
        assert matches_pairwise(gq, ga, distance) == path
        assert matches_pairwise(gq, ga, distance - 1) == frozenset()
        assert matches_pairwise(gq, ga, distance + 1) == path


class TestGraphCoverage:
    def test_empty_subgraph_scores_zero(self):
        g1 = chain("a", "b")
        g2 = chain("c", "d")
        assert graph_coverage_features(g1, [g2], 3)[0] == (0.0, 0.0)

    def test_full_answer_coverage(self):
        g = chain("a", "b", "c")
        assert graph_coverage_features(g, [g], 3)[0] == (1.0, 1.0)

    def test_fig_pair_ratios(self, question_sentence, answer_sentence):
        cov_ans, cov_ques = graph_coverage_features(question_sentence, [answer_sentence], 3)[0]
        assert cov_ans == pytest.approx(2 / 9)
        assert cov_ques == pytest.approx(2 / 4)

    def test_question_side_clamped_to_one(self):
        # tiny question, richly connected shared nodes in the answer
        gq = chain("a", "b")
        ga = chain("a", "b", "x", "a", "b")
        cov_ans, cov_ques = graph_coverage_features(gq, [ga], 4)[0]
        assert 0.0 <= cov_ans <= 1.0
        assert cov_ques == 1.0

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(37)
        pool = ["die", "win", "sun"]
        for _ in range(50):
            gq = random_tree_sentence(rng, max_nodes=5, lemma_pool=pool)
            ga = random_tree_sentence(rng, max_nodes=7, lemma_pool=pool)
            cov_ans, cov_ques = graph_coverage_features(gq, [ga], 3)[0]
            assert 0.0 <= cov_ans <= 1.0
            assert 0.0 <= cov_ques <= 1.0

    def test_depths_come_from_the_heads_however_the_sentence_is_made(self):
        # A Sentence built by hand, or copied with other columns, computes its
        # own depths; coverage must read those, never stale or missing ones.
        rng = np.random.default_rng(53)
        pool = ["die", "win", "sun"]
        for _ in range(200):
            gq = random_tree_sentence(rng, max_nodes=5, lemma_pool=pool)
            shape = random_tree_sentence(rng, max_nodes=8, lemma_pool=pool, relabel=True)
            other = random_tree_sentence(rng, max_nodes=8, lemma_pool=pool, relabel=True)
            by_hand = Sentence(shape.lemmas, shape.upos, shape.heads, shape.deprels)
            replaced = dataclasses.replace(
                by_hand, lemmas=other.lemmas, upos=other.upos, heads=other.heads,
                deprels=other.deprels,
            )
            lemmas = set(gq.lemmas)
            for ga in (by_hand, replaced):
                assert list(ga.depth) == tree_arrays(ga)[1]
                _, edges = bfs_subgraph(ga, lemmas, 3)
                n_q, n_a = len(head_edges(gq)), len(head_edges(ga))
                expected = (
                    len(edges) / n_a if n_a else 0.0,
                    min(1.0, len(edges) / n_q) if n_q else 0.0,
                )
                assert graph_coverage_features(gq, [ga], 3)[0] == expected
