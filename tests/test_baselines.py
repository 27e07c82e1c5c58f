import math

import numpy as np
import pytest

from qatrigger.baselines import (
    AnswerPool,
    EmbeddingTable,
    bm25_idf,
    bm25_score,
    load_embeddings,
    ngram_coverage,
    ngram_score,
    semantic_similarity,
    semantic_vector,
    tokenize,
)
from qatrigger.errors import IngestionError

from oracles import direct_bm25, direct_ngram_score


def test_tokenize_lowercases_and_strips_edge_punctuation():
    assert tokenize("The cat, sat-down!  (Twice).") == [
        "the", "cat", "sat-down", "twice",
    ]
    assert tokenize("...") == []


class TestBm25Idf:
    def pool(self, *answers):
        return AnswerPool.build([tokenize(a) for a in answers])

    def test_one_of_three(self):
        pool = self.pool("alpha beta", "gamma", "delta")
        assert bm25_idf(pool, "alpha") == pytest.approx(math.log(2.5 / 1.5))

    def test_single_candidate_can_go_negative(self):
        pool = self.pool("alpha")
        assert bm25_idf(pool, "alpha") == pytest.approx(math.log(0.5 / 1.5))

    def test_absent_term(self):
        pool = self.pool("a", "b", "c")
        assert bm25_idf(pool, "zzz") == pytest.approx(math.log(3.5 / 0.5))


class TestBm25Score:
    def test_empty_question_scores_zero(self):
        pool = AnswerPool.build([["a"], ["b"]])
        assert bm25_score([], ["a"], pool) == 0.0

    def test_absent_term_contributes_nothing(self):
        pool = AnswerPool.build([["alpha", "beta"], ["gamma"]])
        with_term = bm25_score(["alpha"], ["alpha", "beta"], pool)
        with_extra = bm25_score(["alpha", "zzz"], ["alpha", "beta"], pool)
        assert with_term == with_extra

    def test_matches_hand_oracle_on_three_candidate_pool(self):
        answers = [
            ["the", "cat", "sat", "down"],
            ["a", "dog", "sat", "on", "the", "mat"],
            ["birds", "fly"],
        ]
        pool = AnswerPool.build(answers)
        question = ["the", "cat", "sat", "where"]
        for answer in answers:
            mine = bm25_score(question, answer, pool, k1=1.5, b=0.75)
            reference = direct_bm25(question, answer, answers, k1=1.5, b=0.75)
            assert mine == pytest.approx(reference, abs=1e-9)

    def test_repeated_query_terms_count_each_occurrence(self):
        pool = AnswerPool.build([["x", "y"], ["z"]])
        once = bm25_score(["x"], ["x", "y"], pool)
        twice = bm25_score(["x", "x"], ["x", "y"], pool)
        assert twice == pytest.approx(2 * once)


class TestNgram:
    def test_identical_sentences_cover_fully(self):
        tokens = ["a", "b", "c", "d"]
        for n in (1, 2, 3):
            assert ngram_coverage(tokens, tokens, n) == 1.0

    def test_disjoint_sentences(self):
        assert ngram_coverage(["a", "b"], ["c", "d"], 1) == 0.0

    def test_clipped_counts(self):
        assert ngram_coverage(["a", "b", "a"], ["a", "b"], 1) == pytest.approx(2 / 3)

    def test_ngram_score_identical_three_tokens(self):
        tokens = ["a", "b", "c"]
        assert ngram_score(tokens, tokens, 3) == pytest.approx(0.5)

    def test_ngram_score_two_token_sentences(self):
        tokens = ["a", "b"]
        assert ngram_score(tokens, tokens, 3) == pytest.approx((1 + 1 + 0) / 6)

    def test_ngram_score_disjoint(self):
        assert ngram_score(["a", "b"], ["c", "d"], 3) == 0.0

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(41)
        vocab = list("abcde")
        for _ in range(50):
            q = [vocab[int(rng.integers(0, 5))] for _ in range(int(rng.integers(1, 8)))]
            a = [vocab[int(rng.integers(0, 5))] for _ in range(int(rng.integers(1, 8)))]
            assert ngram_score(q, a, 3) == pytest.approx(
                direct_ngram_score(q, a, 3), abs=1e-12
            )


class TestSemanticVector:
    def embeddings(self):
        return EmbeddingTable(
            matrix=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            rows={"sun": 0, "moon": 1, "star": 2},
        )

    def test_all_oov_gives_none(self):
        assert semantic_vector(["zzz", "qqq"], self.embeddings()) is None

    def test_single_token_mean_is_itself(self):
        vector = semantic_vector(["sun", "zzz"], self.embeddings())
        assert vector == pytest.approx([1.0, 0.0])

    def test_mean_of_two(self):
        vector = semantic_vector(["sun", "moon"], self.embeddings())
        assert vector == pytest.approx([0.5, 0.5])

    def test_uppercase_falls_back_to_lowercase(self):
        vector = semantic_vector(["SUN"], self.embeddings())
        assert vector == pytest.approx([1.0, 0.0])

    def test_similarity_identical_sentences(self):
        emb = self.embeddings()
        assert semantic_similarity(["sun", "moon"], ["sun", "moon"], emb) == pytest.approx(1.0)

    def test_similarity_oov_side_is_zero(self):
        assert semantic_similarity(["sun"], ["zzz"], self.embeddings()) == 0.0

    def test_similarity_hand_cosine(self):
        emb = self.embeddings()
        value = semantic_similarity(["sun"], ["star"], emb)
        assert value == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_similarity_symmetric_and_bounded(self):
        emb = self.embeddings()
        value_ab = semantic_similarity(["sun", "star"], ["moon"], emb)
        value_ba = semantic_similarity(["moon"], ["sun", "star"], emb)
        assert value_ab == pytest.approx(value_ba)
        assert -1.0 <= value_ab <= 1.0


class TestEmbeddingFile:
    def test_load_plain_and_with_header(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("sun 1.0 0.0\nmoon 0.0 1.0\n")
        table = load_embeddings(plain)
        assert table.dim == 2
        assert table.matrix[table.lookup("moon")] == pytest.approx([0.0, 1.0])

        headed = tmp_path / "headed.txt"
        headed.write_text("2 3\nsun 1 0 0\nmoon 0 1 0\n")
        table = load_embeddings(headed)
        assert table.dim == 3
        assert table.rows == {"sun": 0, "moon": 1}
        assert table.matrix.tolist() == [[1, 0, 0], [0, 1, 0]]

    def test_duplicate_word_keeps_later_vector(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("sun 1 0\n\nmoon 0 1\nsun 2 2\n")
        table = load_embeddings(path)
        assert table.rows == {"sun": 0, "moon": 1}
        assert table.matrix.tolist() == [[2, 2], [0, 1]]

    @pytest.mark.parametrize(
        "content, message",
        [
            # The messages featurize reports for corrupt embedding files.
            ("who 0.1 high\n", "line 1: not a number: 'high'"),
            ("who 0.1 nan\n", "line 1: vector value is not finite"),
            ("who 0.1 0.2\nwon 0.3\n", "line 2: expected 2 dims, got 1"),
            ("who\n", "line 1: empty vector"),
            ("\n\n", "no vectors found"),
            # The first fault in file order is the one reported.
            ("who 0.1 0.2\nwon inf 0.3\nwhy 0.4\n", "line 2: vector value is not finite"),
            ("who 0.1 0.2\nwon 0.3\nwhy nan 0.4\n", "line 2: expected 2 dims, got 1"),
        ],
    )
    def test_corrupt_file_names_its_first_bad_line(self, tmp_path, content, message):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(IngestionError) as error:
            load_embeddings(path)
        assert str(error.value) == f"{path}: {message}"

    def test_inconsistent_dims_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("sun 1.0 0.0\nmoon 0.0\n")
        with pytest.raises(IngestionError):
            load_embeddings(path)

    def test_mini_embeddings_load(self, mini_dir):
        table = load_embeddings(mini_dir / "embeddings.txt")
        assert table.dim == 2
        assert table.lookup("alice") is not None
